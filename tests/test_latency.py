import math

import pytest

from hetmec.association import Link, Policy, Tier, decoupled_probs, mean_load
from hetmec.config import params_from_raw
from hetmec.coverage import DlCoverageForm, dl_coverage, ul_coverage
from hetmec.latency import (
    BackhaulDirection,
    QueueUnstable,
    Scheme,
    _mm1_delay,
    average_breakdown,
    average_latency,
    backhaul_time,
    case_latency,
    decoupled_dl_arrival_rate,
    dl_rate,
    exec_time_coupled,
    exec_time_decoupled_dl,
    exec_time_decoupled_ul,
    service_rate,
    spectral_efficiency,
    transmission_time,
    ul_rate,
)
from test_coverage import _oracle_coverage

DEFAULTS = params_from_raw({})


def scenario(**raw):
    return params_from_raw(raw)


def equal_power_scenario(**extra):
    raw = {"p_m_dbm": 30.0, "p_s_dbm": 30.0}
    raw.update(extra)
    return params_from_raw(raw)


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


def test_ul_rate_recomposes_from_factors():
    gamma = DEFAULTS.ul_sinr_threshold
    for policy in Policy:
        for tier in Tier:
            load = mean_load(DEFAULTS, policy, Link.UL, tier)
            cov = ul_coverage(DEFAULTS, policy, tier, gamma)
            expected = DEFAULTS.ul_bandwidth / load * spectral_efficiency(gamma) * cov
            assert ul_rate(DEFAULTS, policy, tier, gamma) == pytest.approx(expected, rel=1e-12)


def test_ul_rate_scales_inversely_with_user_density():
    gamma = 0.1
    base = ul_rate(DEFAULTS, Policy.COUPLED, Tier.SMALL, gamma)
    doubled_users = scenario(lambda_u_per_km2=50.0)
    assert ul_rate(doubled_users, Policy.COUPLED, Tier.SMALL, gamma) == pytest.approx(
        base / 2.0, rel=1e-9
    )


def test_dl_rate_policy_equivalence_for_small_tier():
    # decoupled downlink marginal equals the coupled association probability,
    # so rates coincide when the coverage form matches
    gamma = DEFAULTS.dl_sinr_threshold
    for form in DlCoverageForm:
        assert dl_rate(DEFAULTS, Policy.COUPLED, Tier.SMALL, gamma, form=form) == pytest.approx(
            dl_rate(DEFAULTS, Policy.DECOUPLED, Tier.SMALL, gamma, form=form), rel=1e-10
        )


def test_dl_rate_recomposes_from_factors():
    gamma = DEFAULTS.dl_sinr_threshold
    load = mean_load(DEFAULTS, Policy.COUPLED, Link.DL, Tier.MACRO)
    cov = dl_coverage(DEFAULTS, Policy.COUPLED, Tier.MACRO, gamma)
    expected = DEFAULTS.dl_bandwidth / load * spectral_efficiency(gamma) * cov
    assert dl_rate(DEFAULTS, Policy.COUPLED, Tier.MACRO, gamma) == pytest.approx(expected, rel=1e-12)


def test_exec_time_coupled_recomposes():
    gamma = 0.1
    for tier in Tier:
        rate = ul_rate(DEFAULTS, Policy.COUPLED, tier, gamma)
        load = mean_load(DEFAULTS, Policy.COUPLED, Link.UL, tier)
        mu = service_rate(DEFAULTS, tier)
        expected = 1.0 / (mu - rate * load / DEFAULTS.input_bits)
        assert exec_time_coupled(DEFAULTS, tier, gamma) == pytest.approx(expected, rel=1e-12)


def test_exec_time_decoupled_ul_matches_coupled_at_equal_power():
    p = equal_power_scenario()
    gamma = 0.1
    for tier in Tier:
        assert exec_time_decoupled_ul(p, tier, gamma) == pytest.approx(
            exec_time_coupled(p, tier, gamma), rel=1e-12
        )


def test_exec_time_decoupled_dl_recomposes():
    gamma = 0.1
    a_ss, _, a_sm, _ = decoupled_probs(DEFAULTS)
    rate_s = ul_rate(DEFAULTS, Policy.DECOUPLED, Tier.SMALL, gamma)
    rate_m = ul_rate(DEFAULTS, Policy.DECOUPLED, Tier.MACRO, gamma)
    lam_u, lam_s = DEFAULTS.user_density, DEFAULTS.small.density

    tau_macro = (
        rate_m * mean_load(DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.MACRO)
        + rate_s * (lam_u / lam_s) * a_sm
    ) / DEFAULTS.input_bits
    assert decoupled_dl_arrival_rate(DEFAULTS, Tier.MACRO, gamma) == pytest.approx(
        tau_macro, rel=1e-12
    )
    assert exec_time_decoupled_dl(DEFAULTS, Tier.MACRO, gamma) == pytest.approx(
        1.0 / (service_rate(DEFAULTS, Tier.MACRO) - tau_macro), rel=1e-12
    )

    tau_small = rate_s * (lam_u / lam_s) * a_ss / DEFAULTS.input_bits
    assert decoupled_dl_arrival_rate(DEFAULTS, Tier.SMALL, gamma) == pytest.approx(
        tau_small, rel=1e-12
    )


def test_dl_proc_small_arrival_below_ul_proc_small_arrival():
    # the downlink-executing small cell only keeps its both-links users
    gamma = 0.1
    rate_s = ul_rate(DEFAULTS, Policy.DECOUPLED, Tier.SMALL, gamma)
    tau_ul = rate_s * mean_load(DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL) / DEFAULTS.input_bits
    tau_dl = decoupled_dl_arrival_rate(DEFAULTS, Tier.SMALL, gamma)
    assert tau_dl < tau_ul


def test_dl_proc_macro_reduces_to_ul_proc_at_equal_power():
    p = equal_power_scenario()
    gamma = 0.1
    assert exec_time_decoupled_dl(p, Tier.MACRO, gamma) == pytest.approx(
        exec_time_decoupled_ul(p, Tier.MACRO, gamma), rel=1e-12
    )


def test_backhaul_time_reference_values():
    assert backhaul_time(DEFAULTS, BackhaulDirection.OUTPUT_FROM_UL, crossed=True) == pytest.approx(
        1.0e-4, rel=1e-12
    )
    slow = scenario(c_bh_bps=1.0e4)
    assert backhaul_time(slow, BackhaulDirection.INPUT_TO_DL, crossed=True) == pytest.approx(
        0.4, rel=1e-12
    )
    assert backhaul_time(DEFAULTS, BackhaulDirection.INPUT_TO_DL, crossed=False) == 0.0
    always = scenario(backhaul_mode="always")
    assert backhaul_time(always, BackhaulDirection.INPUT_TO_DL, crossed=False) == pytest.approx(
        4.0e-4, rel=1e-12
    )


@pytest.mark.parametrize("scheme", list(Scheme))
def test_case_latency_decomposition(scheme):
    cases = (
        [(Tier.SMALL, Tier.SMALL), (Tier.MACRO, Tier.MACRO)]
        if scheme is Scheme.COUPLED_ACCESS
        else [(Tier.SMALL, Tier.SMALL), (Tier.MACRO, Tier.MACRO), (Tier.SMALL, Tier.MACRO)]
    )
    for ul_tier, dl_tier in cases:
        case = case_latency(DEFAULTS, scheme, ul_tier, dl_tier)
        total = case.ul_time + case.exec_time + case.backhaul_time + case.dl_time
        assert case.total == pytest.approx(total, rel=1e-12)
        assert case.ul_time >= 0 and case.exec_time >= 0
        assert case.backhaul_time >= 0 and case.dl_time >= 0
        assert case.case_id == (ul_tier, dl_tier, scheme)


def test_case_latency_rejects_inconsistent_tiers():
    with pytest.raises(ValueError):
        case_latency(DEFAULTS, Scheme.COUPLED_ACCESS, Tier.SMALL, Tier.MACRO)
    with pytest.raises(ValueError, match="probability zero"):
        case_latency(DEFAULTS, Scheme.DECOUPLED_UL_PROC, Tier.MACRO, Tier.SMALL)


def test_coupled_case_has_no_backhaul():
    for tier in Tier:
        case = case_latency(DEFAULTS, Scheme.COUPLED_ACCESS, tier, tier)
        assert case.backhaul_time == 0.0


def test_same_bs_decoupled_case_has_no_backhaul_in_cross_tier_mode():
    case = case_latency(DEFAULTS, Scheme.DECOUPLED_UL_PROC, Tier.MACRO, Tier.MACRO)
    assert case.backhaul_time == 0.0
    always = scenario(backhaul_mode="always")
    case = case_latency(always, Scheme.DECOUPLED_UL_PROC, Tier.MACRO, Tier.MACRO)
    assert case.backhaul_time == pytest.approx(1.0e-4, rel=1e-12)


def test_single_tier_average_equals_macro_case():
    p = scenario(lambda_s_per_km2=0.0)
    for scheme in Scheme:
        case = case_latency(p, scheme, Tier.MACRO, Tier.MACRO)
        assert average_latency(p, scheme) == pytest.approx(case.total, rel=1e-12)


def test_schemes_collapse_at_equal_power():
    p = equal_power_scenario()
    values = [average_latency(p, scheme) for scheme in Scheme]
    assert values[0] == pytest.approx(values[1], rel=1e-9)
    assert values[0] == pytest.approx(values[2], rel=1e-9)


def test_decoupled_schemes_agree_at_reference_scenario():
    ul_proc = average_latency(DEFAULTS, Scheme.DECOUPLED_UL_PROC)
    dl_proc = average_latency(DEFAULTS, Scheme.DECOUPLED_DL_PROC)
    assert abs(ul_proc - dl_proc) / ul_proc < 0.10


def test_backhaul_monotonicity():
    capacities = [1e4, 1e5, 1e6, 1e7, 1e8]
    for scheme in (Scheme.DECOUPLED_UL_PROC, Scheme.DECOUPLED_DL_PROC):
        values = [
            average_latency(scenario(c_bh_bps=c), scheme) for c in capacities
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    coupled = [average_latency(scenario(c_bh_bps=c), Scheme.COUPLED_ACCESS) for c in capacities]
    assert max(coupled) == pytest.approx(min(coupled), rel=1e-12)


def test_average_decomposition_invariant():
    for scheme in Scheme:
        b = average_breakdown(DEFAULTS, scheme)
        assert b.total == pytest.approx(
            b.ul_time + b.exec_time + b.backhaul_time + b.dl_time, rel=1e-12
        )


def test_extreme_threshold_gives_unbounded_latency():
    # At 200 dB the coverage is tiny but positive (about 1e-11, matching
    # scipy quadrature), so the latency stays finite (about 5.5e7 s).
    p = scenario(gamma_ul_db=200.0, gamma_dl_db=200.0)
    assert math.isfinite(average_latency(p, Scheme.COUPLED_ACCESS))
    for policy in Policy:
        for tier in Tier:
            cov = ul_coverage(p, policy, tier, p.ul_sinr_threshold)
            assert math.isclose(cov, _oracle_coverage(p, "ul", policy, tier), rel_tol=1e-9)
    # At 3000 dB with 100 dBm of noise the scaled-noise downlink exponent
    # gamma * N / P_k * (1 + psi(gamma)) overflows to inf, so downlink coverage
    # is exactly 0 in double precision: rate 0, time inf.
    p = scenario(gamma_ul_db=3000.0, gamma_dl_db=3000.0, noise_dbm=100.0)
    assert dl_coverage(p, Policy.COUPLED, Tier.MACRO, p.dl_sinr_threshold) == 0.0
    total = average_latency(p, Scheme.COUPLED_ACCESS)
    assert total == math.inf
    assert total > 1e300  # the unbounded value orders above every finite latency


def test_queue_unstable_raised_and_rendered():
    p = scenario(f_s_hz=2.0e8)  # small cloudlet far too slow for the load
    with pytest.raises(QueueUnstable):
        average_latency(p, Scheme.COUPLED_ACCESS)
    breakdown = average_breakdown(p, Scheme.COUPLED_ACCESS, unstable_as_inf=True)
    assert breakdown.exec_time == math.inf
    assert breakdown.total == math.inf
    assert math.isfinite(breakdown.ul_time)


def test_stability_frontier_consistency_between_exec_formulas():
    # Aggregate per-BS arrival is independent of the user density, so the
    # destabilizing axis is radio bandwidth; with equal tier powers the
    # coupled and decoupled-uplink queues must fail at the same grid step.
    gamma = 0.1
    grid = [1.4e6 * k for k in range(1, 40)]

    def frontier(exec_fn):
        for i, w in enumerate(grid):
            p = equal_power_scenario(w_ul_hz=w)
            try:
                exec_fn(p, Tier.SMALL, gamma)
            except QueueUnstable:
                return i
        return None

    f_coupled = frontier(exec_time_coupled)
    f_decoupled = frontier(exec_time_decoupled_ul)
    assert f_coupled is not None
    assert f_coupled == f_decoupled


def test_user_density_cannot_destabilize_queues():
    # The per-user rate divides by the load while the arrival multiplies by
    # it, so the per-BS arrival rate is flat in the user density.
    gamma = 0.1
    taus = []
    for lam_u in (25.0, 100.0, 400.0, 1600.0):
        p = scenario(lambda_u_per_km2=lam_u)
        rate = ul_rate(p, Policy.COUPLED, Tier.SMALL, gamma)
        load = mean_load(p, Policy.COUPLED, Link.UL, Tier.SMALL)
        taus.append(rate * load / p.input_bits)
        exec_time_coupled(p, Tier.SMALL, gamma)  # never raises
        exec_time_decoupled_ul(p, Tier.SMALL, gamma)
    assert max(taus) == pytest.approx(min(taus), rel=1e-9)
