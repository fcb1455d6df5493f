"""Invariants of the latency model over random valid scenarios.

Every example builds one OperatingPoint and derives all three schemes from
it.  The example database is off and the examples are derandomized, so every
run checks the same scenarios and keeps no state between runs.
"""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetmec.association import Policy
from hetmec.config import params_from_raw
from hetmec.coverage import DlCoverageForm
from hetmec.latency import (
    QueueUnstable,
    Scheme,
    average_breakdown,
    case_latency,
    operating_point,
    scheme_cases,
    service_rate,
)

PROPERTY_SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=150)


@st.composite
def scenarios(draw, equal_power=False):
    """Raw configurations that params_from_raw accepts."""
    # The log-scale branch spans 1e-310..200 per km2, so vanishing densities
    # are drawn too; user counts per small cell must not overflow there.
    lam_s = draw(st.one_of(st.floats(0.0, 200.0), st.floats(-310.0, 2.3).map(lambda e: 10.0**e)))
    p_s = draw(st.floats(10.0, 46.0))
    # Up to 3000 dB, where coverage can underflow to exactly 0.
    threshold_db = st.one_of(st.floats(-30.0, 30.0), st.floats(30.0, 3000.0))
    raw = {
        "lambda_m_per_km2": 1.0,
        "lambda_s_per_km2": lam_s,
        "lambda_u_per_km2": (1.0 + lam_s) * draw(st.floats(1.0, 10.0)),
        "p_m_dbm": p_s if equal_power else draw(st.floats(p_s, 60.0)),
        "p_s_dbm": p_s,
        "f_s_hz": 4.5e9 * draw(st.floats(0.01, 1.0)),
        "w_ul_hz": draw(st.floats(1.0e5, 1.0e7)),
        "p_u_dbm": draw(st.floats(-30.0, 30.0)),
        "gamma_ul_db": draw(threshold_db),
        "gamma_dl_db": draw(threshold_db),
        "noise_dbm": draw(st.floats(-150.0, 100.0)),
        "c_bh_bps": draw(st.floats(1.0e3, 1.0e9)),
        "backhaul_mode": "cross_tier_only" if equal_power else draw(
            st.sampled_from(["cross_tier_only", "always"])
        ),
    }
    return params_from_raw(raw), draw(st.sampled_from(list(DlCoverageForm)))


def _policy(scheme):
    return Policy.COUPLED if scheme is Scheme.COUPLED_ACCESS else Policy.DECOUPLED


@PROPERTY_SETTINGS
@given(scenarios())
# Noise coefficients that overflow to inf make UL, then DL, coverage exactly 0.
@example((params_from_raw({"gamma_ul_db": 3000.0, "noise_dbm": 100.0, "p_u_dbm": -30.0}),
          DlCoverageForm.SCALED_NOISE))
@example((params_from_raw({"gamma_dl_db": 3000.0, "noise_dbm": 100.0}),
          DlCoverageForm.SCALED_NOISE))
def test_components_are_nonnegative_additive_and_inf_only_where_explained(scenario):
    params, form = scenario
    point = operating_point(params, form)
    for scheme in Scheme:
        policy = _policy(scheme)
        for ul_tier, dl_tier, _ in scheme_cases(params, scheme):
            case = case_latency(point, scheme, ul_tier, dl_tier, unstable_as_inf=True)
            parts = (case.ul_time, case.exec_time, case.backhaul_time, case.dl_time)
            assert all(part >= 0.0 for part in parts)
            assert math.isfinite(case.backhaul_time)
            if math.isfinite(case.total):
                assert math.isclose(case.total, math.fsum(parts), rel_tol=1e-12)
            else:
                assert any(math.isinf(part) for part in parts)
            # An unbounded transmission needs zero coverage on that link.
            if math.isinf(case.ul_time):
                assert point.ul_coverage[policy, ul_tier] == 0.0
            if math.isinf(case.dl_time):
                assert point.dl_coverage[dl_tier] == 0.0
            # An unbounded execution is an unstable queue, which raises
            # unless it is asked to render as inf.
            if math.isinf(case.exec_time):
                exec_tier = dl_tier if scheme is Scheme.DECOUPLED_DL_PROC else ul_tier
                try:
                    case_latency(point, scheme, ul_tier, dl_tier)
                except QueueUnstable as exc:
                    assert exc.tier is exec_tier
                    assert exc.service_rate == service_rate(params, exec_tier)
                    assert exc.arrival_rate >= exc.service_rate
                else:
                    raise AssertionError("inf execution time without an unstable queue")

        average = average_breakdown(point, scheme, unstable_as_inf=True)
        parts = (average.ul_time, average.exec_time, average.backhaul_time, average.dl_time)
        assert all(part >= 0.0 for part in parts)
        if math.isfinite(average.total):
            assert math.isclose(average.total, math.fsum(parts), rel_tol=1e-12)


@PROPERTY_SETTINGS
@given(scenarios(equal_power=True))
# lambda_u / lambda_s alone overflows at this small-cell density.
@example((params_from_raw({"lambda_s_per_km2": 1e-310, "p_m_dbm": 30.0, "p_s_dbm": 30.0}),
          DlCoverageForm.SCALED_NOISE))
def test_schemes_agree_at_equal_tier_power(scenario):
    params, form = scenario
    point = operating_point(params, form)
    coupled, ul_proc, dl_proc = (
        average_breakdown(point, scheme, unstable_as_inf=True).total for scheme in Scheme
    )
    assert math.isclose(coupled, ul_proc, rel_tol=1e-9)
    assert math.isclose(coupled, dl_proc, rel_tol=1e-9)
