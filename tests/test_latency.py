import math

import pytest

from hetmec.association import Link, Policy, Tier, association_report, decoupled_probs
from hetmec.config import params_from_raw
from hetmec.coverage import DlCoverageForm, dl_coverage, ul_coverage
from hetmec.latency import (
    QueueUnstable,
    Scheme,
    _mm1_delay,
    average_breakdown,
    backhaul_time,
    case_latencies,
    case_latency,
    mean_breakdown,
    operating_point,
    service_rate,
    spectral_efficiency,
    transmission_time,
)
from test_coverage import _oracle_coverage

DEFAULTS = params_from_raw({})
# -10 dB, which params_from_raw maps to exactly 0.1.
MINUS_10_DB = {"gamma_ul_db": -10.0}


def scenario(**raw):
    return params_from_raw(raw)


def equal_power_scenario(**extra):
    raw = {"p_m_dbm": 30.0, "p_s_dbm": 30.0}
    raw.update(extra)
    return params_from_raw(raw)


def average_total(params, scheme):
    return average_breakdown(operating_point(params), scheme).total


def exec_time(params, scheme, tier):
    """Execution time of the (tier, tier) case, where every scheme runs on `tier`."""
    return case_latency(operating_point(params), scheme, tier, tier).exec_time


def test_transmission_time_reference_values():
    assert transmission_time(4000.0, 1.0e6) == pytest.approx(4.0e-3, rel=1e-12)
    rate = 123456.0
    assert transmission_time(1000.0, rate) == pytest.approx(
        transmission_time(4000.0, rate) / 4.0, rel=1e-12
    )
    assert transmission_time(1000.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        transmission_time(1000.0, -1.0)


def test_service_rate_reference_values():
    assert service_rate(DEFAULTS, Tier.MACRO) == pytest.approx(4.5e9 / 1.056e7, rel=1e-12)
    assert service_rate(DEFAULTS, Tier.MACRO) == pytest.approx(426.14, abs=5e-3)
    assert service_rate(DEFAULTS, Tier.SMALL) == pytest.approx(340.91, abs=5e-3)
    unit = scenario(f_m_hz=1.056e7, f_s_hz=1.056e7)
    assert service_rate(unit, Tier.MACRO) == pytest.approx(1.0, rel=1e-12)


def test_mm1_delay_reference_values():
    assert _mm1_delay(Tier.MACRO, 426.14, 213.07) == pytest.approx(4.693e-3, abs=1e-6)
    assert _mm1_delay(Tier.MACRO, 426.14, 0.0) == pytest.approx(1.0 / 426.14, rel=1e-12)
    with pytest.raises(QueueUnstable) as excinfo:
        _mm1_delay(Tier.SMALL, 100.0, 100.0)
    assert excinfo.value.tier is Tier.SMALL
    assert excinfo.value.service_rate == 100.0
    assert excinfo.value.arrival_rate == 100.0


def test_minus_10_db_is_exactly_one_tenth():
    assert scenario(**MINUS_10_DB).ul_sinr_threshold == 0.1


def test_ul_rate_recomposes_from_factors():
    gamma = DEFAULTS.ul_sinr_threshold
    point = operating_point(DEFAULTS)
    for policy in Policy:
        for tier in Tier:
            load = association_report(DEFAULTS).load[policy, Link.UL, tier]
            cov = ul_coverage(DEFAULTS, policy, tier, gamma)
            expected = DEFAULTS.ul_bandwidth / load * spectral_efficiency(gamma) * cov
            assert point.assoc.load[policy, Link.UL, tier] == load
            assert point.ul_coverage[policy, tier] == cov
            assert point.ul_rate[policy, tier] == pytest.approx(expected, rel=1e-12)


def test_ul_rate_scales_inversely_with_user_density():
    base = operating_point(scenario(**MINUS_10_DB)).ul_rate[Policy.COUPLED, Tier.SMALL]
    doubled_users = scenario(lambda_u_per_km2=50.0, **MINUS_10_DB)
    assert operating_point(doubled_users).ul_rate[Policy.COUPLED, Tier.SMALL] == pytest.approx(
        base / 2.0, rel=1e-9
    )


def test_dl_rate_policy_equivalence_for_small_tier():
    # decoupled downlink marginal equals the coupled association probability,
    # so rates coincide when the coverage form matches
    for form in DlCoverageForm:
        point = operating_point(DEFAULTS, form)
        assert point.dl_rate[Policy.COUPLED, Tier.SMALL] == pytest.approx(
            point.dl_rate[Policy.DECOUPLED, Tier.SMALL], rel=1e-10
        )


def test_dl_rate_recomposes_from_factors():
    gamma = DEFAULTS.dl_sinr_threshold
    load = association_report(DEFAULTS).load[Policy.COUPLED, Link.DL, Tier.MACRO]
    cov = dl_coverage(DEFAULTS, Tier.MACRO, gamma)
    expected = DEFAULTS.dl_bandwidth / load * spectral_efficiency(gamma) * cov
    point = operating_point(DEFAULTS)
    assert point.dl_coverage[Tier.MACRO] == cov
    assert point.dl_rate[Policy.COUPLED, Tier.MACRO] == pytest.approx(expected, rel=1e-12)


def test_coupled_exec_time_recomposes():
    p = scenario(**MINUS_10_DB)
    point = operating_point(p)
    for tier in Tier:
        rate = point.ul_rate[Policy.COUPLED, tier]
        load = association_report(p).load[Policy.COUPLED, Link.UL, tier]
        mu = service_rate(p, tier)
        expected = 1.0 / (mu - rate * load / p.input_bits)
        case = case_latency(point, Scheme.COUPLED_ACCESS, tier, tier)
        assert case.exec_time == pytest.approx(expected, rel=1e-12)


def test_ul_proc_exec_time_matches_coupled_at_equal_power():
    p = equal_power_scenario(**MINUS_10_DB)
    for tier in Tier:
        assert exec_time(p, Scheme.DECOUPLED_UL_PROC, tier) == pytest.approx(
            exec_time(p, Scheme.COUPLED_ACCESS, tier), rel=1e-12
        )


def test_dl_proc_arrival_and_exec_time_recompose():
    p = scenario(**MINUS_10_DB)
    point = operating_point(p)
    a_ss, _, a_sm, _ = decoupled_probs(p)
    rate_s = point.ul_rate[Policy.DECOUPLED, Tier.SMALL]
    rate_m = point.ul_rate[Policy.DECOUPLED, Tier.MACRO]
    lam_u, lam_s = p.user_density, p.small.density

    tau_macro = (
        rate_m * association_report(p).load[Policy.DECOUPLED, Link.UL, Tier.MACRO]
        + rate_s * (lam_u / lam_s) * a_sm
    ) / p.input_bits
    assert point.dl_arrival[Tier.MACRO] == pytest.approx(tau_macro, rel=1e-12)
    for ul_tier in Tier:
        case = case_latency(point, Scheme.DECOUPLED_DL_PROC, ul_tier, Tier.MACRO)
        assert case.exec_time == pytest.approx(
            1.0 / (service_rate(p, Tier.MACRO) - tau_macro), rel=1e-12
        )

    tau_small = rate_s * (lam_u / lam_s) * a_ss / p.input_bits
    assert point.dl_arrival[Tier.SMALL] == pytest.approx(tau_small, rel=1e-12)


def test_dl_proc_small_arrival_below_ul_proc_small_arrival():
    # the downlink-executing small cell only keeps its both-links users
    p = scenario(**MINUS_10_DB)
    point = operating_point(p)
    rate_s = point.ul_rate[Policy.DECOUPLED, Tier.SMALL]
    load = association_report(p).load[Policy.DECOUPLED, Link.UL, Tier.SMALL]
    tau_ul = rate_s * load / p.input_bits
    assert point.ul_arrival[Policy.DECOUPLED, Tier.SMALL] == pytest.approx(tau_ul, rel=1e-12)
    assert point.dl_arrival[Tier.SMALL] < tau_ul


def test_dl_proc_arrival_finite_at_vanishing_small_cell_density():
    # At 2.2e-313 small cells per km2, lambda_u / lambda_s alone overflows;
    # the users per small cell, lambda_u * probability / lambda_s, stay
    # finite, and so must the DL-processing arrival rates built from them.
    p = equal_power_scenario(lambda_s_per_km2=2.22507e-313, lambda_u_per_km2=1.0)
    assert all(math.isfinite(tau) for tau in operating_point(p).dl_arrival.values())


def test_dl_proc_macro_reduces_to_ul_proc_at_equal_power():
    p = equal_power_scenario(**MINUS_10_DB)
    assert exec_time(p, Scheme.DECOUPLED_DL_PROC, Tier.MACRO) == pytest.approx(
        exec_time(p, Scheme.DECOUPLED_UL_PROC, Tier.MACRO), rel=1e-12
    )


def test_backhaul_time_reference_values():
    # Uplink processing ships the output, downlink processing the input.
    assert backhaul_time(DEFAULTS, Scheme.DECOUPLED_UL_PROC, crossed=True) == pytest.approx(
        1.0e-4, rel=1e-12
    )
    slow = scenario(c_bh_bps=1.0e4)
    assert backhaul_time(slow, Scheme.DECOUPLED_DL_PROC, crossed=True) == pytest.approx(
        0.4, rel=1e-12
    )
    assert backhaul_time(DEFAULTS, Scheme.DECOUPLED_DL_PROC, crossed=False) == 0.0
    always = scenario(backhaul_mode="always")
    assert backhaul_time(always, Scheme.DECOUPLED_DL_PROC, crossed=False) == pytest.approx(
        4.0e-4, rel=1e-12
    )
    assert backhaul_time(always, Scheme.COUPLED_ACCESS, crossed=False) == 0.0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_case_latency_decomposition(scheme):
    cases = (
        [(Tier.SMALL, Tier.SMALL), (Tier.MACRO, Tier.MACRO)]
        if scheme is Scheme.COUPLED_ACCESS
        else [(Tier.SMALL, Tier.SMALL), (Tier.MACRO, Tier.MACRO), (Tier.SMALL, Tier.MACRO)]
    )
    point = operating_point(DEFAULTS)
    policy = Policy.COUPLED if scheme is Scheme.COUPLED_ACCESS else Policy.DECOUPLED
    for ul_tier, dl_tier in cases:
        case = case_latency(point, scheme, ul_tier, dl_tier)
        total = case.ul_time + case.exec_time + case.backhaul_time + case.dl_time
        assert case.total == pytest.approx(total, rel=1e-12)
        assert case.ul_time >= 0 and case.exec_time >= 0
        assert case.backhaul_time >= 0 and case.dl_time >= 0
        # Each component reads this case's own tiers and policy.
        assert case.ul_time == DEFAULTS.input_bits / point.ul_rate[policy, ul_tier]
        assert case.dl_time == DEFAULTS.output_bits / point.dl_rate[policy, dl_tier]
        if scheme is Scheme.DECOUPLED_DL_PROC:
            exec_tier, tau = dl_tier, point.dl_arrival[dl_tier]
        else:
            exec_tier, tau = ul_tier, point.ul_arrival[policy, ul_tier]
        assert case.exec_time == 1.0 / (service_rate(DEFAULTS, exec_tier) - tau)


def test_case_latency_rejects_inconsistent_tiers():
    point = operating_point(DEFAULTS)
    with pytest.raises(ValueError):
        case_latency(point, Scheme.COUPLED_ACCESS, Tier.SMALL, Tier.MACRO)
    with pytest.raises(ValueError, match="probability zero"):
        case_latency(point, Scheme.DECOUPLED_UL_PROC, Tier.MACRO, Tier.SMALL)
    single = operating_point(scenario(lambda_s_per_km2=0.0))
    assert single.tiers == (Tier.MACRO,)
    with pytest.raises(ValueError, match="zero density"):
        case_latency(single, Scheme.DECOUPLED_UL_PROC, Tier.SMALL, Tier.MACRO)


def test_coupled_case_has_no_backhaul():
    always = operating_point(scenario(backhaul_mode="always"))
    for tier in Tier:
        case = case_latency(always, Scheme.COUPLED_ACCESS, tier, tier)
        assert case.backhaul_time == 0.0


def test_same_bs_decoupled_case_has_no_backhaul_in_cross_tier_mode():
    case = case_latency(operating_point(DEFAULTS), Scheme.DECOUPLED_UL_PROC, Tier.MACRO, Tier.MACRO)
    assert case.backhaul_time == 0.0
    always = operating_point(scenario(backhaul_mode="always"))
    case = case_latency(always, Scheme.DECOUPLED_UL_PROC, Tier.MACRO, Tier.MACRO)
    assert case.backhaul_time == pytest.approx(1.0e-4, rel=1e-12)


def test_single_tier_average_equals_macro_case():
    point = operating_point(scenario(lambda_s_per_km2=0.0))
    for scheme in Scheme:
        case = case_latency(point, scheme, Tier.MACRO, Tier.MACRO)
        assert average_breakdown(point, scheme).total == pytest.approx(case.total, rel=1e-12)


def test_schemes_collapse_at_equal_power():
    point = operating_point(equal_power_scenario())
    values = [average_breakdown(point, scheme).total for scheme in Scheme]
    assert values[0] == pytest.approx(values[1], rel=1e-9)
    assert values[0] == pytest.approx(values[2], rel=1e-9)


def test_decoupled_schemes_agree_at_reference_scenario():
    ul_proc = average_total(DEFAULTS, Scheme.DECOUPLED_UL_PROC)
    dl_proc = average_total(DEFAULTS, Scheme.DECOUPLED_DL_PROC)
    assert abs(ul_proc - dl_proc) / ul_proc < 0.10


def test_backhaul_monotonicity():
    capacities = [1e4, 1e5, 1e6, 1e7, 1e8]
    for scheme in (Scheme.DECOUPLED_UL_PROC, Scheme.DECOUPLED_DL_PROC):
        values = [average_total(scenario(c_bh_bps=c), scheme) for c in capacities]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    coupled = [average_total(scenario(c_bh_bps=c), Scheme.COUPLED_ACCESS) for c in capacities]
    assert max(coupled) == pytest.approx(min(coupled), rel=1e-12)


def test_average_decomposition_invariant():
    for scheme in Scheme:
        b = average_breakdown(operating_point(DEFAULTS), scheme)
        assert b.total == pytest.approx(
            b.ul_time + b.exec_time + b.backhaul_time + b.dl_time, rel=1e-12
        )


def test_extreme_threshold_gives_unbounded_latency():
    # At 200 dB the coverage is tiny but positive (about 1e-11, matching
    # scipy quadrature), so the latency stays finite (about 5.5e7 s).
    p = scenario(gamma_ul_db=200.0, gamma_dl_db=200.0)
    assert math.isfinite(average_total(p, Scheme.COUPLED_ACCESS))
    for policy in Policy:
        for tier in Tier:
            cov = ul_coverage(p, policy, tier, p.ul_sinr_threshold)
            assert math.isclose(cov, _oracle_coverage(p, "ul", policy, tier), rel_tol=1e-9)
    # At 3000 dB with 100 dBm of noise the scaled-noise downlink exponent
    # gamma * N / P_k * (1 + psi(gamma)) overflows to inf, so downlink coverage
    # is exactly 0 in double precision: rate 0, time inf.
    p = scenario(gamma_ul_db=3000.0, gamma_dl_db=3000.0, noise_dbm=100.0)
    assert dl_coverage(p, Tier.MACRO, p.dl_sinr_threshold) == 0.0
    total = average_total(p, Scheme.COUPLED_ACCESS)
    assert total == math.inf
    assert total > 1e300  # the unbounded value orders above every finite latency


def test_queue_unstable_raised_and_rendered():
    p = scenario(f_s_hz=2.0e8)  # small cloudlet far too slow for the load
    point = operating_point(p)
    with pytest.raises(QueueUnstable) as excinfo:
        average_breakdown(point, Scheme.COUPLED_ACCESS)
    assert excinfo.value.tier is Tier.SMALL
    assert excinfo.value.service_rate == service_rate(p, Tier.SMALL)
    assert excinfo.value.arrival_rate == point.ul_arrival[Policy.COUPLED, Tier.SMALL]
    breakdown = average_breakdown(point, Scheme.COUPLED_ACCESS, unstable_as_inf=True)
    assert breakdown.exec_time == math.inf
    assert breakdown.total == math.inf
    assert math.isfinite(breakdown.ul_time)


def test_case_latencies_yields_the_cases_before_an_unstable_one():
    # mu = 50 req/s on both tiers; only the macro DL cloudlet (58.2 req/s)
    # is unstable, and DECOUPLED_DL_PROC reaches it at its second case.
    point = operating_point(scenario(f_m_hz=3.6e9, cycles_per_input_bit=18000.0))
    cases = case_latencies(point, Scheme.DECOUPLED_DL_PROC)
    ul_tier, dl_tier, weight, case = next(cases)
    assert (ul_tier, dl_tier, weight) == (Tier.SMALL, Tier.SMALL, point.assoc.a_ss_u)
    assert case == case_latency(point, Scheme.DECOUPLED_DL_PROC, Tier.SMALL, Tier.SMALL)
    with pytest.raises(QueueUnstable) as excinfo:
        next(cases)
    assert excinfo.value.tier is Tier.MACRO
    for scheme in (Scheme.COUPLED_ACCESS, Scheme.DECOUPLED_UL_PROC):
        weighted = [(weight, case) for _, _, weight, case in case_latencies(point, scheme)]
        assert mean_breakdown(weighted) == average_breakdown(point, scheme)
    with pytest.raises(ValueError, match="no association case"):
        mean_breakdown([])


def test_stability_frontier_consistency_between_exec_formulas():
    # Aggregate per-BS arrival is independent of the user density, so the
    # destabilizing axis is radio bandwidth; with equal tier powers the
    # coupled and decoupled-uplink queues must fail at the same grid step.
    grid = [1.4e6 * k for k in range(1, 40)]

    def frontier(scheme):
        for i, w in enumerate(grid):
            p = equal_power_scenario(w_ul_hz=w, **MINUS_10_DB)
            try:
                exec_time(p, scheme, Tier.SMALL)
            except QueueUnstable:
                return i
        return None

    f_coupled = frontier(Scheme.COUPLED_ACCESS)
    f_decoupled = frontier(Scheme.DECOUPLED_UL_PROC)
    assert f_coupled is not None
    assert f_coupled == f_decoupled


def test_user_density_cannot_destabilize_queues():
    # The per-user rate divides by the load while the arrival multiplies by
    # it, so the per-BS arrival rate is flat in the user density.
    taus = []
    for lam_u in (25.0, 100.0, 400.0, 1600.0):
        p = scenario(lambda_u_per_km2=lam_u, **MINUS_10_DB)
        rate = operating_point(p).ul_rate[Policy.COUPLED, Tier.SMALL]
        load = association_report(p).load[Policy.COUPLED, Link.UL, Tier.SMALL]
        taus.append(rate * load / p.input_bits)
        exec_time(p, Scheme.COUPLED_ACCESS, Tier.SMALL)  # never raises
        exec_time(p, Scheme.DECOUPLED_UL_PROC, Tier.SMALL)
    assert max(taus) == pytest.approx(min(taus), rel=1e-9)
