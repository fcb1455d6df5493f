"""Invariants of the latency model over random valid scenarios.

Latency examples build one OperatingPoint, check the association law it
carries and derive all three schemes from it; coverages, config round trips
and sweeps are checked on their own.  The example database is off and the
examples are derandomized, so every run checks the same scenarios and keeps
no state between runs.
"""
import dataclasses
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetmec.association import Link, Policy, Tier, tier_params
from hetmec.config import (
    canonical_config,
    db_to_linear,
    dbm_to_watts,
    params_from_raw,
    parse_config,
    raw_from_params,
)
from hetmec.coverage import DlCoverageForm, dl_coverage, ul_coverage
from hetmec.latency import (
    QueueUnstable,
    Scheme,
    average_breakdown,
    case_latency,
    operating_point,
    scheme_cases,
    service_rate,
)
from hetmec.sweeps import SweepSpec, resolve_point_raw, run_sweep

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


# Coverage may rise with the threshold or the noise by rounding alone: up to
# 2 ulps is seen on random pairs.
MONOTONE_SLACK = 4.0 * sys.float_info.epsilon


def _policy(scheme):
    return Policy.COUPLED if scheme is Scheme.COUPLED_ACCESS else Policy.DECOUPLED


def _assert_association_law(params, assoc):
    """Each policy's probabilities form a distribution, and the loads count
    every user exactly once."""
    laws = (
        (assoc.a_ss_d, assoc.a_mm_d),
        (assoc.a_ss_u, assoc.a_mm_u, assoc.a_sm_u, assoc.a_ms_u),
        tuple(assoc.a_ul.values()),
        tuple(assoc.a_dl.values()),
    )
    for law in laws:
        assert all(0.0 <= prob <= 1.0 for prob in law), law
        assert math.isclose(math.fsum(law), 1.0, rel_tol=0.0, abs_tol=1e-12), law
    # Users per BS times BS density, summed over the tiers, is every user.
    for policy in Policy:
        for link in Link:
            users = math.fsum(
                assoc.load[policy, link, tier] * tier_params(params, tier).density for tier in Tier
            )
            assert math.isclose(users, params.user_density, rel_tol=1e-12), (policy, link)


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
    _assert_association_law(params, point.assoc)
    for scheme in Scheme:
        policy = _policy(scheme)
        for ul_tier, dl_tier, _ in scheme_cases(point, scheme):
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


def _coverages(params, gamma):
    """Every uplink and downlink coverage of the tiers with positive density."""
    tiers = [tier for tier in Tier if tier_params(params, tier).density > 0.0]
    values = {("ul", policy, tier): ul_coverage(params, policy, tier, gamma)
              for policy in Policy for tier in tiers}
    values.update({("dl", form, tier): dl_coverage(params, tier, gamma, form=form)
                   for form in DlCoverageForm for tier in tiers})
    return values


def _assert_non_increasing(lower, higher):
    """Both settings give probabilities, the harder one no larger up to
    MONOTONE_SLACK."""
    for key, value in higher.items():
        assert 0.0 <= lower[key] <= 1.0, key
        assert 0.0 <= value <= 1.0, key
        assert value <= lower[key] * (1.0 + MONOTONE_SLACK), (key, lower[key], value)


thresholds_db = st.one_of(st.floats(-30.0, 30.0), st.floats(30.0, 3000.0))
noises_dbm = st.floats(-300.0, 100.0)


@PROPERTY_SETTINGS
@given(scenarios(), thresholds_db, thresholds_db, noises_dbm, noises_dbm)
# The erfcx product rounds to 1 + 2 ulps for the small tier's SCALED_NOISE
# downlink at a -290 dBm noise floor.
@example((params_from_raw({}), DlCoverageForm.SCALED_NOISE), -14.0, -14.0, -290.0, -290.0)
def test_coverage_is_a_probability_non_increasing_in_threshold_and_noise(
    scenario, db_a, db_b, dbm_a, dbm_b
):
    params, _ = scenario
    low, high = (db_to_linear(db) for db in sorted((db_a, db_b)))
    quiet, loud = (
        dataclasses.replace(params, noise_power=dbm_to_watts(dbm)) for dbm in sorted((dbm_a, dbm_b))
    )
    _assert_non_increasing(_coverages(quiet, low), _coverages(quiet, high))
    _assert_non_increasing(_coverages(quiet, low), _coverages(loud, low))


# Axes whose every value in these ranges keeps the scenario valid.
SWEEP_AXES = {
    "gamma_db": st.floats(-30.0, 3000.0),
    "f_s_over_f_m": st.floats(0.01, 1.0),
    "b_in_over_b_out": st.floats(0.1, 100.0),
    "c_bh_bps": st.floats(1.0e3, 1.0e9),
}


@st.composite
def sweeps(draw):
    axis = draw(st.sampled_from(sorted(SWEEP_AXES)))
    values = draw(st.lists(SWEEP_AXES[axis], min_size=1, max_size=4, unique=True))
    variants = draw(st.sampled_from([({},), ({"c_bh_bps": 1.0e4}, {"c_bh_bps": 1.0e7})]))
    return SweepSpec(axis=axis, values=tuple(sorted(values)), variants=variants)


# Each example evaluates up to 8 grid points, so fewer examples suffice.
@settings(PROPERTY_SETTINGS, max_examples=50)
@given(scenarios(), sweeps())
def test_config_round_trips_and_sweep_rows_are_ordered_and_explained(scenario, spec):
    params, form = scenario
    # A sweep carries its base through the config units; so does
    # canonical_config, where the dBm and dB conversions may move a value by
    # a few ulps each way.
    base_raw = raw_from_params(params)
    again = raw_from_params(parse_config(canonical_config(params)))
    assert again.keys() == base_raw.keys()
    for key, value in base_raw.items():
        if isinstance(value, float):
            assert math.isclose(again[key], value, rel_tol=1e-12), (key, again[key], value)
        else:
            assert again[key] == value, key

    rows = run_sweep(spec, base=params, form=form)
    order = [
        (variant, value, scheme)
        for variant in spec.variants
        for value in spec.values
        for scheme in spec.schemes
    ]
    assert [(row.axis_value, row.scheme) for row in rows] == [(v, s) for _, v, s in order]
    for row, (variant, value, scheme) in zip(rows, order):
        raw = resolve_point_raw(spec, base_raw, value, variant)
        assert row.backhaul_bps == float(raw["c_bh_bps"])
        parts = (row.ul_time, row.exec_time, row.backhaul_time, row.dl_time)
        assert all(part >= 0.0 for part in parts)
        if math.isfinite(row.total):
            continue
        # inf only for zero coverage on a link, or an unstable queue.
        point = operating_point(params_from_raw(raw), form)
        cases = scheme_cases(point, scheme)
        policy = _policy(scheme)
        if math.isinf(row.ul_time):
            assert any(point.ul_coverage[policy, ul] == 0.0 for ul, _, _ in cases)
        if math.isinf(row.dl_time):
            assert any(point.dl_coverage[dl] == 0.0 for _, dl, _ in cases)
        if math.isinf(row.exec_time):
            try:
                average_breakdown(point, scheme)
            except QueueUnstable:
                pass
            else:
                raise AssertionError("inf execution time without an unstable queue")
