import ast
import dataclasses
import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from hetmec.association import (
    Link,
    Policy,
    Tier,
    association_report,
    coupled_probs,
    decoupled_probs,
    tier_params,
)
from hetmec.config import params_from_raw
from hetmec.coverage import DlCoverageForm, dl_coverage, ul_coverage
import hetmec.montecarlo
from hetmec.montecarlo import (
    _BATCH,
    _INTERFERER_SPAN,
    _LOOKUP_MARGIN,
    _far_field_exponent,
    _field_exponent,
    _coverage_law,
    _poisson_cdf,
    _Job,
    _load_estimates,
    _load_regions,
    _nearest_distances,
    _needs_small_lookup,
    _power_rule_small_wins,
    _rng,
    _run_jobs,
    _serving_rule,
    _serving_slope,
    empirical_association,
    empirical_coverage,
)
from oracles import (
    explicit_fade_field_exponents,
    indexed_field_exponent,
    indicator_coverage,
    kd_tree_nearest,
    own_tier_load_regions,
    rejection_coverage,
    serial_coverage,
    served_by_counted_bs,
    unpruned_mean_loads,
    user_process_mean_loads,
)

DEFAULTS = params_from_raw({})


def test_zero_density_process_is_empty():
    # No point of an empty process is nearest: every distance is infinite.
    distances = _nearest_distances(_rng(0, 42), 0.0, 1000)
    assert distances.shape == (1000,)
    assert np.all(np.isinf(distances))


@pytest.mark.parametrize("tier", list(Tier))
def test_nearest_distances_follow_void_probability(tier):
    # P(d > r) = exp(-lambda pi r^2) for the nearest point of a PPP.
    density = (DEFAULTS.macro if tier is Tier.MACRO else DEFAULTS.small).density
    n = 100_000
    distances = _nearest_distances(_rng(31, 1), density, n)
    ks = stats.kstest(distances, lambda r: -np.expm1(-density * math.pi * r * r))
    assert ks.statistic < 1.95 / math.sqrt(n)  # KS critical value at 0.1%


def test_nearest_distances_draw_one_uniform_per_trial():
    # No Poisson count is drawn: the generator advances by exactly one
    # uniform per trial, and d^2 = -log(U) / (pi lambda).
    density = DEFAULTS.small.density
    n = 5_000
    rng = _rng(33, 1)
    distances = _nearest_distances(rng, density, n)
    reference = _rng(33, 1)
    u = reference.random(n)
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_allclose(distances, np.sqrt(-np.log(u) / (math.pi * density)), rtol=1e-14)


def test_empirical_association_matches_closed_forms():
    trials = 40_000
    freq = empirical_association(DEFAULTS, trials, seed=2)
    a_ss_u, a_mm_u, a_sm_u, _ = decoupled_probs(DEFAULTS)
    a_ss_d, a_mm_d = coupled_probs(DEFAULTS)
    targets = {
        "assoc_dec_small_small": a_ss_u,
        "assoc_dec_macro_macro": a_mm_u,
        "assoc_dec_small_macro": a_sm_u,
        "assoc_coupled_small": a_ss_d,
        "assoc_coupled_macro": a_mm_d,
    }
    for name, target in targets.items():
        est = freq[name]
        assert abs(est.mean - target) < 4.0 * est.std_error, name


def test_macro_ul_small_dl_outcome_impossible():
    freq = empirical_association(DEFAULTS, 30_000, seed=3)
    assert freq["assoc_dec_macro_small"].mean == 0.0


def test_equal_power_makes_rules_coincide():
    p = params_from_raw({"p_m_dbm": 30.0, "p_s_dbm": 30.0})
    freq = empirical_association(p, 20_000, seed=4)
    assert freq["assoc_dec_small_macro"].mean == 0.0
    assert freq["assoc_dec_small_small"].mean == pytest.approx(
        freq["assoc_coupled_small"].mean, abs=1e-15
    )


def test_empirical_association_bit_reproducible():
    a = empirical_association(DEFAULTS, 10_000, seed=11)
    b = empirical_association(DEFAULTS, 10_000, seed=11)
    assert a == b


@pytest.mark.parametrize("trials", [1, _BATCH, 3 * _BATCH + 17])
def test_threaded_association_matches_serial_batches(trials, monkeypatch):
    # One CPU runs the batches in a plain loop; 64 ask for more threads than
    # there are batches.  The four decoupled outcomes partition the trials.
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: 1)
    expected = empirical_association(DEFAULTS, trials, seed=73)
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: 64)
    got = empirical_association(DEFAULTS, trials, seed=73)
    assert got == expected
    assert all(est.trials == trials for est in got.values())
    decoupled = [est for name, est in got.items() if name.startswith("assoc_dec_")]
    assert len(decoupled) == 4
    assert sum(round(est.mean * trials) for est in decoupled) == trials


def test_empirical_coverage_tends_to_one_at_tiny_threshold():
    est = empirical_coverage(
        DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, 1e-9, 3000, seed=6
    )
    assert est.mean > 0.999


def test_empirical_coverage_bit_reproducible():
    a = empirical_coverage(DEFAULTS, Policy.COUPLED, Link.DL, Tier.SMALL, 0.1, 5000, seed=7)
    b = empirical_coverage(DEFAULTS, Policy.COUPLED, Link.DL, Tier.SMALL, 0.1, 5000, seed=7)
    assert a == b


def test_empirical_coverage_std_error_scaling():
    small = empirical_coverage(DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, 0.1, 20_000, seed=8)
    large = empirical_coverage(DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, 0.1, 40_000, seed=8)
    assert small.std_error / large.std_error == pytest.approx(math.sqrt(2.0), rel=0.10)


@pytest.mark.parametrize(
    "policy,link,tier",
    [
        (Policy.DECOUPLED, Link.UL, Tier.SMALL),
        (Policy.COUPLED, Link.UL, Tier.MACRO),
        (Policy.COUPLED, Link.DL, Tier.SMALL),
    ],
)
def test_empirical_coverage_agrees_with_closed_form(policy, link, tier):
    gamma = 0.1
    trials = 30_000
    est = empirical_coverage(DEFAULTS, policy, link, tier, gamma, trials, seed=9)
    if link is Link.UL:
        analytic = ul_coverage(DEFAULTS, policy, tier, gamma)
    else:
        analytic = dl_coverage(DEFAULTS, tier, gamma, form=DlCoverageForm.INTERFERENCE)
    assert abs(est.mean - analytic) < max(4.0 * est.std_error, 0.01)


# (policy, link, tier, gamma, indicator trials): coupled UL macro (the
# widest far field), the nearest-rule UL law, coupled UL small, and both DL
# laws with both their fields, at -10, -3 and 0 dB.
INDICATOR_POINTS = [
    (Policy.COUPLED, Link.UL, Tier.MACRO, 0.1, 3000),
    (Policy.DECOUPLED, Link.UL, Tier.SMALL, 0.1, 6000),
    (Policy.COUPLED, Link.UL, Tier.SMALL, 1.0, 4000),
    (Policy.COUPLED, Link.DL, Tier.MACRO, 0.1, 6000),
    (Policy.DECOUPLED, Link.DL, Tier.SMALL, 0.5, 4000),
]


@pytest.mark.parametrize("policy,link,tier,gamma,trials", INDICATOR_POINTS)
def test_indicator_reference_agrees_with_closed_form_and_sampler(
    policy, link, tier, gamma, trials
):
    # The reference draws every fade and tallies SINR >= gamma, with no
    # Laplace functional, fade average or closed-form term, so an error
    # that the sampler and the closed form share shows here.  Its field
    # beyond each trial's outer radius is dropped, which raises its
    # expectation by at most tail_bias and never lowers it; each bound is
    # 4 standard errors, a bound fixed before the first run, widened by
    # that bias on the side where it lies.
    tail_bias = 2e-3
    ref = indicator_coverage(DEFAULTS, policy, link, tier, gamma, trials, 71, tail_bias)
    if link is Link.UL:
        analytic = ul_coverage(DEFAULTS, policy, tier, gamma)
    else:
        analytic = dl_coverage(DEFAULTS, tier, gamma, form=DlCoverageForm.INTERFERENCE)
    est = empirical_coverage(DEFAULTS, policy, link, tier, gamma, 20_000, seed=72)
    bounds = ((analytic, ref.std_error), (est.mean, math.hypot(ref.std_error, est.std_error)))
    for value, error in bounds:
        assert -4.0 * error <= ref.mean - value <= 4.0 * error + tail_bias, (ref, value)


def _far_field_oracle(density, power, s, outer2):
    # lambda pi * integral_{R^2}^inf sP / (sP + t^2) dt, split where the
    # integrand turns from ~1 to its t^-2 tail; the tail is integrated in
    # u = 1/t, where it becomes sP / (sP u^2 + 1) on a finite interval.
    a = s * power
    knee = outer2 + math.sqrt(a)
    head, _ = integrate.quad(
        lambda t: a / (a + t * t), outer2, knee, epsabs=0.0, epsrel=1e-13, limit=200
    )
    tail, _ = integrate.quad(
        lambda u: a / (a * u * u + 1.0), 0.0, 1.0 / knee, epsabs=0.0, epsrel=1e-13, limit=200
    )
    return density * math.pi * (head + tail)


@pytest.mark.parametrize("field", ["uplink", "downlink_macro"])
def test_far_field_exponent_matches_quadrature_oracle(field):
    if field == "uplink":
        density = DEFAULTS.macro.density + DEFAULTS.small.density
        power = DEFAULTS.user_tx_power
    else:
        density = DEFAULTS.macro.density
        power = DEFAULTS.macro.tx_power
    outer = _INTERFERER_SPAN / math.sqrt(math.pi * density)
    # s = gamma x^4 / P_tx from tiny (far field ~ sP / R^2) through typical
    # (serving distances of 1..1000 m at -10 dB) to huge (~ pi/2 sqrt(sP)).
    s = np.array([1e-30, 1e-12, 1e-3, 1.0, 1e3, 1e8, 1e11, 1e20, 1e40])
    for scale in (1.0, 2.0, 0.5):
        outer2 = (scale * outer) ** 2
        got = _far_field_exponent(density, np.sqrt(s * power), outer2)
        for s_value, value in zip(s, got):
            expected = _far_field_oracle(density, power, float(s_value), outer2)
            assert value == pytest.approx(expected, rel=1e-9), (s_value, scale)


ALL_COMBINATIONS = [(policy, link, tier) for policy in Policy for link in Link for tier in Tier]


@pytest.mark.parametrize("policy,link,tier", ALL_COMBINATIONS)
def test_coverage_std_error_within_binomial(policy, link, tier):
    # Averaging the conditional success probability instead of the success
    # indicator cannot raise the variance (Rao-Blackwell).
    gamma = DEFAULTS.ul_sinr_threshold if link is Link.UL else DEFAULTS.dl_sinr_threshold
    trials = 20_000
    est = empirical_coverage(DEFAULTS, policy, link, tier, gamma, trials, seed=12)
    assert 0.0 < est.std_error <= math.sqrt(est.mean * (1.0 - est.mean) / trials)


def _assert_poisson_counts(est, fields):
    # Each field of each trial draws Poisson(span^2) interferers whatever
    # its serving distance, so the count over all trials is Poisson with
    # mean and variance span^2 * fields * trials; held to 4 standard errors.
    mean = _INTERFERER_SPAN**2 * fields
    assert abs(est.interferers / est.trials - mean) < 4.0 * math.sqrt(mean / est.trials), est


@pytest.mark.parametrize("policy,tier", [(policy, tier) for policy in Policy for tier in Tier])
def test_uplink_sampler_counts(policy, tier):
    # One field: 9 interferers per trial at a span of 3, within 0.085.
    trials = 20_000
    est = empirical_coverage(
        DEFAULTS, policy, Link.UL, tier, DEFAULTS.ul_sinr_threshold, trials, seed=12
    )
    _assert_poisson_counts(est, fields=1)


@pytest.mark.parametrize("tier", list(Tier))
def test_downlink_sampler_counts(tier):
    # Both tiers interfere on the downlink: 18 per trial, within 0.12.
    trials = 20_000
    assert len(_coverage_law(DEFAULTS, Policy.COUPLED, Link.DL, tier).fields) == 2
    est = empirical_coverage(
        DEFAULTS, Policy.COUPLED, Link.DL, tier, DEFAULTS.dl_sinr_threshold, trials, seed=12
    )
    _assert_poisson_counts(est, fields=2)


@pytest.mark.parametrize("span", [1e-3, 3.0, 6.0])
def test_poisson_table_inverts_the_poisson_law(span):
    # The count table at the spans the tests set: each probability within
    # 1e-15 of exp(-m) m^k / k! in exact rational arithmetic (scipy's own
    # pmf, exp of a difference of logs, is 1.3e-15 off at m = 36), the
    # mass beyond its last entry below 2^-53, and its counts those of
    # scipy's quantile function except where a uniform ties a CDF value.
    mean = span * span
    cdf = _poisson_cdf(mean)
    assert not cdf.flags.writeable
    assert _poisson_cdf(mean) is cdf
    exact = np.array(
        [
            float(Fraction(mean) ** k / math.factorial(k) * Fraction(math.exp(-mean)))
            for k in range(cdf.size)
        ]
    )
    np.testing.assert_allclose(np.diff(cdf, prepend=0.0), exact, rtol=0.0, atol=1e-15)
    assert stats.poisson.sf(cdf.size - 1, mean) < 2.0**-53
    u = _rng(66, 1).random(100_000)
    counts = np.searchsorted(cdf, u, side="right")
    expected = stats.poisson.ppf(u, mean)
    ties = np.isin(u, cdf)
    assert np.array_equal(counts[~ties], expected[~ties])


SERVING_LAW_CONFIGS = {
    "reference": {},
    "unequal": {
        "lambda_m_per_km2": 3.0,
        "lambda_s_per_km2": 6.0,
        "p_m_dbm": 40.0,
        "p_s_dbm": 20.0,
    },
}


@pytest.mark.parametrize("policy,tier", [(policy, tier) for policy in Policy for tier in Tier])
@pytest.mark.parametrize("config", list(SERVING_LAW_CONFIGS))
def test_serving_distances_match_rejection_sampler(config, policy, tier, monkeypatch):
    # The uplink serving rule is max power under coupled access and nearest BS
    # under decoupled access, so the four (policy, tier) pairs cover both rules
    # for both tiers.  The sampler's serving distances are read from the x^2
    # it hands the uplink field as exclusion radius.
    params = params_from_raw(SERVING_LAW_CONFIGS[config])
    n = 20_000
    gamma = params.ul_sinr_threshold
    field_exponent = hetmec.montecarlo._field_exponent
    exclusions = []

    def spy(rng, density, gamma, exclusion2):
        exclusions.append(exclusion2.copy())
        return field_exponent(rng, density, gamma, exclusion2)

    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", spy)
    est = empirical_coverage(params, policy, Link.UL, tier, gamma, n, seed=51)
    monkeypatch.undo()
    ref, ref_x, drawn = rejection_coverage(params, policy, Link.UL, tier, gamma, n, seed=52)
    x = np.sqrt(np.concatenate(exclusions))
    assert x.size == ref_x.size == n
    # Two-sample KS critical value at 0.1%: 1.95 * sqrt((n + m) / (n m)).
    ks = stats.ks_2samp(x, ref_x)
    assert ks.statistic < 1.95 * math.sqrt(2.0 / n), ks
    assert abs(est.mean - ref.mean) < 4.0 * math.hypot(est.std_error, ref.std_error)
    # The reference keeps accepted / drawn trials at the association probability.
    if policy is Policy.COUPLED:
        a_small = coupled_probs(params)[0]
    else:
        a_small = params.small.density / (params.small.density + params.macro.density)
    p = a_small if tier is Tier.SMALL else 1.0 - a_small
    assert abs(n / drawn - p) < 4.0 * math.sqrt(p * (1.0 - p) / drawn)


# Link, serving tier and interfering tier (None: the uplink users) of each
# field, under the max-power rule.
FIELDS = {
    "uplink": (Link.UL, Tier.MACRO, None),
    "downlink_macro": (Link.DL, Tier.SMALL, Tier.MACRO),
    "downlink_small": (Link.DL, Tier.MACRO, Tier.SMALL),
}


def _field_inputs(params, field, n, seed):
    # (density, power, gamma, s, exclusion2) of one batch: the density and
    # the exclusion factor from the field's coverage law (whose downlink
    # fields come macro first), s and the interferers' power from the
    # scenario, serving distances from the max-power law.
    link, serving, interfering = FIELDS[field]
    law = _coverage_law(params, Policy.COUPLED, link, serving)
    density, factor = law.fields[1 if interfering is Tier.SMALL else 0]
    rng = _rng(seed, 0)
    x2 = rng.standard_exponential(n) / (math.pi * _serving_slope(params, "power", serving))
    if interfering is None:
        power = tx_power = params.user_tx_power
        gamma = params.ul_sinr_threshold
    else:
        power = tier_params(params, interfering).tx_power
        tx_power = tier_params(params, serving).tx_power
        gamma = params.dl_sinr_threshold
    s = gamma * x2 * x2 / tx_power
    return density, power, gamma, s, factor * x2


@pytest.mark.parametrize("span", [2.5, 5.0, 10.0])
@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("config", list(SERVING_LAW_CONFIGS))
def test_segment_sums_match_indexed_field_exponent(config, field, span, monkeypatch):
    # Multiplying each trial's contiguous segment of interferer factors
    # moves at most the rounding of the products: the draws, hence the
    # counts and the generator state after the call, are those of the
    # per-interferer trial index.  Both read the patched span.
    monkeypatch.setattr(hetmec.montecarlo, "_INTERFERER_SPAN", span)
    params = params_from_raw(SERVING_LAW_CONFIGS[config])
    density, _, gamma, _, exclusion2 = _field_inputs(params, field, _BATCH, seed=61)
    rng, reference = _rng(61, 1), _rng(61, 1)
    got, sampled = _field_exponent(rng, density, gamma, exclusion2)
    expected, expected_sampled = indexed_field_exponent(reference, density, gamma, exclusion2)
    assert sampled == expected_sampled > 0
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_trials_without_interferers_keep_the_far_field_exactly(monkeypatch):
    # With a span of half a typical spacing every trial expects 0.25
    # interferers and draws none with probability exp(-0.25), about 0.78;
    # its exponent is then the far field beyond its annulus alone.  Such
    # trials lie first, last and scattered among trials that draw.
    density = DEFAULTS.macro.density + DEFAULTS.small.density
    gamma = 1e-3
    n = 2_000

    def inputs(span):
        monkeypatch.setattr(hetmec.montecarlo, "_INTERFERER_SPAN", span)
        area2 = span * span / (math.pi * density)
        exclusion2 = area2 * _rng(62, 0).uniform(0.0, 0.4, n)
        far = _far_field_exponent(density, math.sqrt(gamma) * exclusion2, exclusion2 + area2)
        return exclusion2, far

    exclusion2, far = inputs(0.5)
    # The counts come from the generator's first n uniforms.
    empty = stats.poisson.ppf(_rng(62, 1).random(n), 0.25) == 0
    assert empty[0] and empty[-1] and 0 < np.count_nonzero(empty) < n
    rng, reference = _rng(62, 1), _rng(62, 1)
    got, sampled = _field_exponent(rng, density, gamma, exclusion2)
    expected, expected_sampled = indexed_field_exponent(reference, density, gamma, exclusion2)
    assert sampled == expected_sampled > 0
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(got[empty], far[empty])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    # A batch in which no trial draws an interferer: at a span of 1e-3
    # spacings each trial expects 1e-6 of them.
    exclusion2, far = inputs(1e-3)
    got, sampled = _field_exponent(_rng(62, 2), density, gamma, exclusion2)
    assert sampled == 0
    assert np.array_equal(got, far)


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("config", list(SERVING_LAW_CONFIGS))
def test_averaged_fades_match_explicit_fades(config, field):
    # Rao-Blackwell step: given the interferer positions, a trial's value is
    # the mean over the interferers' exponential fades of the faded
    # exp(-s I_near) * L_far.  One generator state gives both samplers the
    # same counts and radii; the reference then draws 400 fades per
    # interferer.  The pooled z of the per-trial means against the
    # averaged values is held to 4, a bound fixed before the first run.
    params = params_from_raw(SERVING_LAW_CONFIGS[config])
    density, power, gamma, s, exclusion2 = _field_inputs(params, field, 512, seed=63)
    # The law's exclusion factor is the one with sP = gamma e^4 at alpha = 4.
    np.testing.assert_allclose(s * power, gamma * exclusion2 * exclusion2, rtol=1e-12)
    averaged, sampled = _field_exponent(_rng(63, 1), density, gamma, exclusion2)
    faded, faded_sampled = explicit_fade_field_exponents(
        _rng(63, 1), density, power, s, exclusion2, fades=400
    )
    assert sampled == faded_sampled > 0
    values = np.exp(-faded)
    delta = float(np.sum(values.mean(axis=0) - np.exp(-averaged)))
    z = delta / math.sqrt(float(np.sum(values.var(axis=0, ddof=1))) / values.shape[0])
    assert abs(z) < 4.0, z


def test_extreme_geometry_gives_probabilities(monkeypatch):
    # Exclusion radii from 1e-150 to 100 typical spans put d = r^2 / e^2
    # anywhere in [1, 1e300], and a 3000 dB tier gap puts the downlink
    # exclusion radii 1e+-150 times the serving distance.  No value
    # overflows, divides by zero or turns invalid, and every success
    # probability lies in [0, 1].  A term that underflows rounds towards 0,
    # which moves no probability, so underflow keeps numpy's default.
    def raising():
        return np.errstate(over="raise", divide="raise", invalid="raise")

    density = DEFAULTS.macro.density + DEFAULTS.small.density
    spans2 = _INTERFERER_SPAN * _INTERFERER_SPAN / (math.pi * density)
    exclusion2 = spans2 * np.repeat(10.0 ** np.arange(-300.0, 5.0, 2.0), 3)
    for gamma in (1e-9, 0.1, 1e3):
        with raising():
            exponent, sampled = _field_exponent(_rng(64, 1), density, gamma, exclusion2)
            values = np.exp(-exponent)
        assert sampled > 0 and np.all(exponent >= 0.0), gamma
        assert np.all((values >= 0.0) & (values <= 1.0)), gamma
    # At a span of 1e-3 spacings each trial expects 1e-6 interferers, and
    # none draws one.
    monkeypatch.setattr(hetmec.montecarlo, "_INTERFERER_SPAN", 1e-3)
    with raising():
        exponent, sampled = _field_exponent(
            _rng(64, 2), density, 0.1, exclusion2[exclusion2 < 1e-10 * spans2]
        )
    assert sampled == 0 and np.all(np.isfinite(exponent)) and np.all(exponent >= 0.0)
    monkeypatch.undo()
    params = params_from_raw({"p_m_dbm": 1500.0, "p_s_dbm": -1500.0})
    for policy, link, tier in ALL_COMBINATIONS:
        gamma = params.ul_sinr_threshold if link is Link.UL else params.dl_sinr_threshold
        job = hetmec.montecarlo._coverage_job(params, policy, link, tier, gamma, 2_000, 65)
        with raising():
            values, sampled = job.batch(0)
        assert sampled > 0 and np.all((values >= 0.0) & (values <= 1.0)), (policy, link, tier)


def test_window_doubling_changes_estimate_within_noise(monkeypatch):
    args = (DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, 0.1, 20_000)
    a = empirical_coverage(*args, seed=10)
    monkeypatch.setattr(hetmec.montecarlo, "_INTERFERER_SPAN", 2.0 * _INTERFERER_SPAN)
    b = empirical_coverage(*args, seed=10)
    assert abs(a.mean - b.mean) < 2.0 * math.hypot(a.std_error, b.std_error)


# The UL field and both DL tiers' fields; trials in one batch, exactly one
# full batch, and three full batches and a partial one.
THREADED_COMBINATIONS = [
    (Policy.DECOUPLED, Link.UL, Tier.SMALL),
    (Policy.COUPLED, Link.DL, Tier.MACRO),
    (Policy.COUPLED, Link.DL, Tier.SMALL),
]


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("trials", [1, _BATCH, 3 * _BATCH + 17])
@pytest.mark.parametrize("policy,link,tier", THREADED_COMBINATIONS)
def test_threaded_coverage_matches_serial_batches(policy, link, tier, trials, cpus, monkeypatch):
    # 64 CPUs ask for more threads than there are batches.
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    gamma = DEFAULTS.ul_sinr_threshold if link is Link.UL else DEFAULTS.dl_sinr_threshold
    got = empirical_coverage(DEFAULTS, policy, link, tier, gamma, trials, seed=71)
    expected = serial_coverage(DEFAULTS, policy, link, tier, gamma, trials, seed=71)
    assert (got.mean, got.std_error, got.trials, got.interferers) == (
        expected.mean, expected.std_error, expected.trials, expected.interferers
    )


@pytest.mark.parametrize("cpus", [1, 4])
def test_failing_batch_reraises_and_pool_recovers(cpus, monkeypatch):
    # Batch 3 of 3 * _BATCH + 17 trials is the only one of 17 trials.
    trials = 3 * _BATCH + 17
    gamma = DEFAULTS.ul_sinr_threshold
    args = (DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, gamma, trials)
    field_exponent = hetmec.montecarlo._field_exponent

    def failing(rng, density, gamma, exclusion2):
        if exclusion2.size == 17:
            raise RuntimeError("batch 3")
        return field_exponent(rng, density, gamma, exclusion2)

    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", failing)
    with pytest.raises(RuntimeError) as excinfo:
        empirical_coverage(*args, seed=72)
    assert type(excinfo.value) is RuntimeError and str(excinfo.value) == "batch 3"
    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", field_exponent)
    assert empirical_coverage(*args, seed=72) == serial_coverage(*args, seed=72)


def test_run_jobs_claims_every_batch_once(monkeypatch):
    # More threads than CPUs and a short switch interval: a claim lost or
    # taken twice would skip or repeat a batch.  Each job gets its own
    # batches back, in batch order.
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: 8)
    counts = [1, 7_000, 3, 13_000, 2]
    calls = []

    def job(number, count):
        def batch(index):
            calls.append((number, index))
            return number, index

        return _Job(batch, count, list)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run_jobs([job(number, count) for number, count in enumerate(counts)])
    finally:
        sys.setswitchinterval(interval)
    expected = [[(number, index) for index in range(count)] for number, count in enumerate(counts)]
    assert got == expected
    assert sorted(calls) == [call for batches in expected for call in batches]


# Pairs of (policy, link, tier) whose coverage laws differ in their code
# alone, per scenario.
UL = {tier: (Policy.COUPLED, Link.UL, tier) for tier in Tier}
DL = {tier: (Policy.COUPLED, Link.DL, tier) for tier in Tier}
NEAREST = (Policy.DECOUPLED, Link.UL, Tier.MACRO)


@pytest.mark.parametrize(
    "raw, code_apart",
    [
        ({}, []),
        ({"p_s_dbm": 6.0}, []),
        ({"lambda_s_per_km2": 100.0, "lambda_u_per_km2": 250.0}, []),
        ({"noise_dbm": -60.0, "gamma_ul_db": 5.0}, []),
        ({"lambda_s_per_km2": 0.0}, [(UL[Tier.MACRO], NEAREST)]),
        (
            {"p_m_dbm": 30.0, "p_s_dbm": 30.0},
            [
                (UL[Tier.MACRO], NEAREST),
                (UL[Tier.MACRO], UL[Tier.SMALL]),
                (DL[Tier.MACRO], DL[Tier.SMALL]),
            ],
        ),
    ],
    ids=["defaults", "p_s_6dbm", "dense_small", "noisy", "single_tier", "equal_powers"],
)
def test_nearest_rule_uplink_coverage_names_no_tier(raw, code_apart):
    # run_validation draws one estimate per coverage law, so both decoupled
    # UL rows share one, as do the two policies' DL rows of a tier.  Two
    # laws are equal exactly when their codes are: laws that differ in
    # their code alone stay apart.
    params = params_from_raw(raw)
    if params.small.density > 0.0:
        args = (params, Policy.DECOUPLED, Link.UL)
        gamma = params.ul_sinr_threshold
        macro = empirical_coverage(*args, Tier.MACRO, gamma, 2 * _BATCH + 5, seed=73)
        assert empirical_coverage(*args, Tier.SMALL, gamma, 2 * _BATCH + 5, seed=73) == macro
    laws = {key: _coverage_law(params, *key) for key in ALL_COMBINATIONS}
    for (key_a, a), (key_b, b) in itertools.product(laws.items(), repeat=2):
        assert (a == b) == (a.code == b.code), (key_a, key_b)
        # One rule, and under the max-power rule one link and tier.
        rule = _serving_rule(*key_a[:2])
        same = rule == _serving_rule(*key_b[:2]) and (rule == "nearest" or key_a[1:] == key_b[1:])
        assert (a.code == b.code) == same, (key_a, key_b)
    for key_a, key_b in code_apart:
        a, b = laws[key_a], laws[key_b]
        assert a != b and dataclasses.replace(a, code=b.code) == b, (key_a, key_b)


def test_sampler_imports_no_closed_form():
    # The sampler is an independent oracle: of the package it takes the
    # scenario, tier_params and the names of policies, links and tiers
    # alone, and it imports nothing of scipy.
    tree = ast.parse(Path(hetmec.montecarlo.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(
                alias.name.split(".")[0] in ("hetmec", "scipy") for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            assert node.level or node.module.split(".")[0] != "scipy", node.module
            if node.level or node.module.startswith("hetmec"):
                names.update(alias.name for alias in node.names)
    assert names == {"Link", "Policy", "Tier", "tier_params", "ScenarioParams"}


def test_samplers_reject_a_negative_seed():
    message = "seed must be >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        hetmec.montecarlo._association_job(DEFAULTS, 10, -1)
    with pytest.raises(ValueError, match=message):
        hetmec.montecarlo._coverage_job(DEFAULTS, Policy.COUPLED, Link.UL, Tier.MACRO, 0.1, 10, -1)
    with pytest.raises(ValueError, match=message):
        _load_estimates(DEFAULTS, 10, -1)


def _run_fresh(script: str, environ=os.environ) -> str:
    env = dict(environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_validation_imports_no_kd_tree():
    # The load sampler searches its cells itself: a validation run in a
    # fresh process leaves scipy.spatial unimported.
    out = _run_fresh(
        """
        import sys
        import hetmec
        from hetmec.validate import run_validation

        run_validation(hetmec.default_params(), 2000, seed=3)
        print("scipy.spatial" in sys.modules)
        """
    )
    assert out == ["False"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc")
def test_validation_reuses_its_heap_pages():
    # glibc maps each block above its mmap threshold afresh, so its pages
    # fault in on every use, until a freed mapped block raises the
    # threshold; _run_jobs frees one before its batches run.  With no
    # allocator tuning in the environment, a third validation run in one
    # process takes a handful of minor page faults: 7,600 to 10,200 a run
    # were seen when the coverage batches' arrays were mapped afresh.
    environ = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    out = _run_fresh(
        """
        import resource
        import hetmec
        from hetmec.validate import run_validation

        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_validation(hetmec.default_params(), 20_000, seed=8)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """,
        environ,
    )
    assert int(out[0]) < 1000


def test_analytic_paths_start_no_thread():
    # Neither the analytic report nor a figure sweep calls the sampler, so
    # neither starts a thread.  Two coverage batches on two CPUs run one on
    # the calling thread and one on a helper, which is gone once the call
    # returns.
    out = _run_fresh(
        """
        import contextlib, io, threading
        import hetmec
        from hetmec import cli, montecarlo
        from hetmec.association import Link, Policy, Tier
        from hetmec.sweeps import figure_sweep_spec, run_sweep

        print(threading.active_count())
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analytic"]) == 0
        run_sweep(figure_sweep_spec(2))
        print(threading.active_count())
        montecarlo._cpu_count = lambda: 2
        field_exponent = montecarlo._field_exponent
        # Holds each batch until the other has started, on another thread.
        both = threading.Barrier(2, timeout=30)
        threads = []

        def recording(*args):
            threads.append(threading.current_thread().name.split("_")[0])
            both.wait()
            return field_exponent(*args)

        montecarlo._field_exponent = recording
        montecarlo.empirical_coverage(
            hetmec.default_params(), Policy.COUPLED, Link.UL, Tier.MACRO, 0.1,
            2 * montecarlo._BATCH, seed=1,
        )
        print(threading.active_count())
        print(*sorted(threads))
        """
    )
    assert out == ["1", "1", "1", "MainThread", "hetmec-batch"]


def test_batch_that_runs_jobs_gets_its_own_pool():
    # A batch on the calling thread and one on a helper each run jobs of
    # their own.  The barrier holds both batches until both have started,
    # so the nested calls overlap; a fresh process with a timeout turns a
    # hang into a failure.
    out = _run_fresh(
        """
        import threading
        from hetmec import montecarlo

        montecarlo._cpu_count = lambda: 2
        both = threading.Barrier(2, timeout=30)

        def batch(index):
            both.wait()
            nested = montecarlo._Job(lambda j: index * 10 + j, 3, list)
            return threading.current_thread().name.split("_")[0], montecarlo._run_jobs([nested])

        got = montecarlo._run_jobs([montecarlo._Job(batch, 2, list)])[0]
        print(*sorted(name for name, _ in got))
        print(*(value for _, nested in got for value in nested[0]))
        print(*montecarlo._run_jobs([montecarlo._Job(lambda j: j * j, 3, list)])[0])
        """
    )
    assert out == ["MainThread", "hetmec-batch", "0", "1", "2", "10", "11", "12", "0", "1", "4"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_coverage_on_its_own_threads():
    # A forked child inherits none of the parent's threads; its coverage
    # batches run on a pool of its own and give the parent's estimate.
    out = _run_fresh(
        """
        import os, signal
        import hetmec
        from hetmec import montecarlo
        from hetmec.association import Link, Policy, Tier

        montecarlo._cpu_count = lambda: 2
        args = (hetmec.default_params(), Policy.COUPLED, Link.UL, Tier.MACRO, 0.1,
                2 * montecarlo._BATCH)
        parent = montecarlo.empirical_coverage(*args, seed=1)
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            same = montecarlo.empirical_coverage(*args, seed=1) == parent
            os._exit(0 if same else 1)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status))
        """
    )
    assert out == ["0"]


def test_load_estimates_match_closed_forms():
    for policy, link, tier, seed in [
        (Policy.COUPLED, Link.UL, Tier.SMALL, 21),
        (Policy.DECOUPLED, Link.UL, Tier.MACRO, 22),
    ]:
        loads = _load_estimates(DEFAULTS, trials=400, seed=seed)
        est = loads.by_rule[_serving_rule(policy, link)][tier]
        target = association_report(DEFAULTS).load[policy, link, tier]
        assert abs(est.mean - target) < 3.0 * est.std_error


def test_empirical_load_probe_conservation(monkeypatch):
    # Under each rule, in every realization, the probes assigned to that
    # realization's BSs add up exactly to the probes drawn in it: each probe
    # is served once, by a BS of its own trial.  A spy on the cell search
    # records the probes of each search, their trials and the trials of the
    # BSs it found.  Each block lays its sites out once: its macro search
    # comes first, and its small-cell search, if any, is given the same
    # sites; the block's trials follow those of the blocks before it.
    searches = []
    blocks = []  # each block's site columns and first trial
    search = hetmec.montecarlo._nearest_bs

    def spy(cells, x, y, probe, margin):
        d, i = search(cells, x, y, probe, margin)
        macro = not blocks or blocks[-1][0] is not x
        if macro:
            blocks.append((x, sum(sites.shape[0] for sites, _ in blocks)))
        first = blocks[-1][1]
        probes, probe_trial = _lattice_probes(x, y, probe)
        searches.append((macro, first + _cell_bs_trial(cells)[i], probes, first + probe_trial, d))
        return d, i

    monkeypatch.setattr(hetmec.montecarlo, "_nearest_bs", spy)
    trials = 60
    loads = _load_estimates(DEFAULTS, trials=trials, seed=23)
    macro_search, small_search = (
        [np.concatenate([found[k] for found in searches if found[0] is macro]) for k in range(1, 5)]
        for macro in (True, False)
    )
    macro_trial, probes, probe_trial, d_m = macro_search
    small_trial, asked_probes, asked_trial, d_s_asked = small_search
    assert probes.shape[0] == loads.probes
    assert asked_probes.shape[0] == loads.small_lookups

    def keys(trial, points):
        return zip(trial.tolist(), points[:, 0].tolist(), points[:, 1].tolist())

    row_of = {key: k for k, key in enumerate(keys(probe_trial, probes))}
    asked = np.array([row_of[key] for key in keys(asked_trial, asked_probes)], dtype=np.int64)
    d_s = np.full(probes.shape[0], np.inf)
    d_s[asked] = d_s_asked
    small_served = np.zeros_like(probe_trial)
    small_served[asked] = small_trial
    drawn = np.bincount(probe_trial, minlength=trials)
    assert drawn.sum() == loads.probes and np.all(drawn > 0)
    for small_wins in (_power_rule_small_wins(DEFAULTS, d_m, d_s), d_s < d_m):
        served_trial = np.where(small_wins, small_served, macro_trial)
        assert np.array_equal(served_trial, probe_trial)
        assert np.array_equal(np.bincount(served_trial, minlength=trials), drawn)

    # Loads weighted by BS density add back to the user density.
    lam_m = DEFAULTS.macro.density
    lam_s = DEFAULTS.small.density
    loads = _load_estimates(DEFAULTS, trials=400, seed=23).by_rule["power"]
    small, macro = loads[Tier.SMALL], loads[Tier.MACRO]
    total = small.mean * lam_s + macro.mean * lam_m
    se = math.hypot(small.std_error * lam_s, macro.std_error * lam_m)
    assert abs(total - DEFAULTS.user_density) < 4.0 * se


def test_load_estimates_bit_reproducible():
    a = _load_estimates(DEFAULTS, trials=60, seed=24)
    b = _load_estimates(DEFAULTS, trials=60, seed=24)
    assert a == b


def test_zero_density_tier_load_is_zero():
    p = params_from_raw({"lambda_s_per_km2": 0.0})
    est = _load_estimates(p, trials=30, seed=25).by_rule["power"][Tier.SMALL]
    assert est.mean == 0.0 and est.std_error == 0.0


# Scenario and the load windows' nearest-BS tail log (None: the sampler's own).
LOAD_CONFIGS = {
    "reference": ({}, None),
    "equal_powers": ({"p_m_dbm": 30.0, "p_s_dbm": 30.0}, None),
    "dense_small": ({"lambda_s_per_km2": 50.0, "lambda_u_per_km2": 60.0}, None),
    # Tails of 1e-18: every window wider than the sampler's 1e-9 gives.
    "wide_window": ({}, math.log(1e18)),
    "no_small": ({"lambda_s_per_km2": 0.0}, None),
    # Small cells of 7 x 7 probe sites beside macro cells of 4 x 4.
    "coprime_small": ({"lambda_s_per_km2": 0.4}, None),
}


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("config", list(LOAD_CONFIGS))
def test_pruned_load_lookups_match_unpruned_sampler(config, seed, monkeypatch):
    # Skipping the small-cell lookup where it cannot change an in-region cell
    # must leave every estimate, mean and standard error, bit for bit as it is
    # when every probe is looked up in both trees; and the lattice must
    # hold the probes of one built trial by trial from a wider square.
    raw, tail_log = LOAD_CONFIGS[config]
    if tail_log is not None:
        monkeypatch.setattr(hetmec.montecarlo, "_LOAD_TAIL_LOG", tail_log)
    params = params_from_raw(raw)
    loads = _load_estimates(params, trials=30, seed=seed)
    expected, probes = unpruned_mean_loads(params, trials=30, seed=seed)
    assert loads.probes == probes
    for rule, by_tier in expected.items():
        for tier, estimate in by_tier.items():
            got = loads.by_rule[rule][tier]
            assert (got.mean, got.std_error, got.trials) == (
                estimate.mean, estimate.std_error, estimate.trials
            ), (rule, tier)


def _cell_bs(cells) -> np.ndarray:
    """The BSs of a cell index, in the rows they were given in."""
    bs = np.empty((cells.order.size, 2))
    bs[cells.order, 0] = cells.bx
    bs[cells.order, 1] = cells.by
    return bs


def _cell_bs_trial(cells) -> np.ndarray:
    """The trial of each BS of a cell index, counted from the index's first,
    in the rows they were given in."""
    trial = np.empty(cells.order.size, dtype=np.int64)
    cell = np.arange(cells.starts.size - 1)
    trial[cells.order] = np.repeat(cell // cells.width**2, np.diff(cells.starts))
    return trial


def _lattice_probes(x, y, probe):
    """The probes that a cell search is given as lattice sites, as points,
    and their trials: the sites that `probe` marks, in C order."""
    t, i, j = np.nonzero(probe)
    return np.column_stack((x[t, i], y[t, j])), t


@pytest.mark.parametrize("trials", [1, 30])
@pytest.mark.parametrize("config", list(LOAD_CONFIGS))
def test_cell_search_matches_kd_tree(config, trials, monkeypatch):
    # Every cell search of the load sampler gives each probe the distance
    # and the BS that scipy's KD-tree gives, bit for bit, and its cells hold
    # the trials of its block alone.
    raw, tail_log = LOAD_CONFIGS[config]
    if tail_log is not None:
        monkeypatch.setattr(hetmec.montecarlo, "_LOAD_TAIL_LOG", tail_log)
    searches = []
    search = hetmec.montecarlo._nearest_bs

    def spy(cells, x, y, probe, margin):
        d, i = search(cells, x, y, probe, margin)
        searches.append((cells, x, y, probe, d, i))
        return d, i

    monkeypatch.setattr(hetmec.montecarlo, "_nearest_bs", spy)
    _load_estimates(params_from_raw(raw), trials=trials, seed=51)
    assert searches
    for cells, x, y, probe, d, i in searches:
        assert cells.starts.size - 1 == x.shape[0] * cells.width**2
        want_d, want_i = kd_tree_nearest(
            _cell_bs(cells), _cell_bs_trial(cells), *_lattice_probes(x, y, probe)
        )
        assert np.array_equal(d, want_d) and np.array_equal(i, want_i)


def _edge_points(rng, n: int, side: int) -> np.ndarray:
    """Points of [-4, 4]^2 on the edges of cells of the given side: one
    coordinate a whole number of sides, the other a whole number of 64ths,
    every fourth point a corner; all exact in binary, as are their squared
    distances to half-integer sites."""
    on = rng.integers(-4 // side, 4 // side + 1, n) * float(side)
    along = rng.integers(-256, 257, n) / 64.0
    along[::4] = np.rint(along[::4] / side) * side
    swap = rng.random(n) < 0.5
    return np.where(swap[:, None], np.column_stack((along, on)), np.column_stack((on, along)))


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("bs_counts", [(40, 40, 1), (25,)])
def test_cell_search_on_cell_edges_and_corners(bs_counts, c):
    # BSs on the edges and corners of cells of c x c sites of a unit lattice,
    # every trial in one shared frame: three random trials, the last with one
    # BS in a corner of its square, farther from most of its probes than the
    # other trials' BSs are, and a fixed fourth and fifth; and a lone trial.
    # Seven sites a side, so at c = 2 the search pads the lattice to whole
    # cells, and a random four in five of the sites are probes, every site
    # of the fifth trial with one nearest BS among them.  Every probe gets
    # the per-trial KD-tree's distance and BS, bit for bit, so a search that
    # leaves its trial fails.  A site with two nearest BSs in its trial is no
    # probe, as which of them a KD-tree returns is not specified.
    rng = np.random.default_rng(7)
    trials = len(bs_counts)
    bs_trial = np.repeat(np.arange(trials), bs_counts)
    bs = _edge_points(rng, bs_trial.size, c)
    if trials > 1:
        bs[bs_trial == 2] = 4.0
        # On the cell edge y = 0: the BS nearest the sites (1.5, +-0.5), at
        # x = -0.25, lies in the cells that a site column shifted by padding
        # at the low end would not scan at c = 2, and the other BS in the
        # ones it would.
        # The fifth trial: the nearest BS to the site (-0.5, -0.5), on the
        # cell edge x = c, lies just outside the site's 3 x 3 cells, and the
        # other, 1.25 c sqrt(2) from it, inside them, so a bound that let
        # the 3 x 3 scan settle probes up to three cell sides away would
        # keep the farther one.
        inner = -0.5 - 1.25 * c
        bs = np.concatenate((bs, [(-0.25, 0.0), (3.5, 0.0), (c, -0.5), (inner, inner)]))
        bs_trial = np.append(bs_trial, [3, 3, 4, 4])
        trials += 2
    x = np.tile(np.arange(-4, 3) + 0.5, (trials, 1))
    y = x.copy()
    everywhere = np.ones((trials, 7, 7), dtype=bool)
    sites, site_trial = _lattice_probes(x, y, everywhere)
    d2 = ((sites[:, None, :] - bs[None, :, :]) ** 2).sum(axis=2)
    own = site_trial[:, None] == bs_trial[None, :]
    nearest_anywhere = d2.argmin(axis=1)
    d2[~own] = np.inf
    single = np.count_nonzero(d2 == d2.min(axis=1, keepdims=True), axis=1) == 1
    assert np.count_nonzero(single) >= 0.8 * site_trial.size
    probe = single & ((rng.random(site_trial.size) < 0.8) | (site_trial == 4))
    if trials > 1:
        # Some probe's nearest BS of any trial lies in another trial.
        assert np.any(~own[probe, nearest_anywhere[probe]])
    probe = probe.reshape(everywhere.shape)
    # Cells of side c over [-4, 4]^2 inside an outer ring, which holds the
    # BSs on the square's right and top edges; the site at -3.5 is in
    # column 1.
    corner = np.full((2, trials), -4.0 - c)
    cells = hetmec.montecarlo._Cells(bs, bs_trial, corner, float(c), 8 // c + 2, c, 1)
    d, i = hetmec.montecarlo._nearest_bs(cells, x, y, probe, _LOOKUP_MARGIN * 4.0)
    want_d, want_i = kd_tree_nearest(bs, bs_trial, *_lattice_probes(x, y, probe))
    assert np.array_equal(d, want_d) and np.array_equal(i, want_i)


def _scan_by_loop(bx, by, x, column, y, row, lo, count, owner, best2, best):
    """_scan's contract, one owner, site and candidate at a time."""
    c = x.shape[0]
    for k in range(best2.shape[2]):
        mine = [p for r in range(lo.size) if owner[r] == k for p in range(lo[r], lo[r] + count[r])]
        if not mine:
            continue
        for a, b in itertools.product(range(c), repeat=2):
            d2 = [(x[a, column[k]] - bx[p]) ** 2 + (y[b, row[k]] - by[p]) ** 2 for p in mine]
            best2[a, b, k] = min(d2)
            best[a, b, k] = mine[d2.index(min(d2))]


@pytest.mark.parametrize("c", [1, 3])
def test_scan_matches_a_plain_loop(c):
    # The scan kernel of both passes of the cell search, against a loop over
    # owners, sites and candidates: owners of c x c sites with several runs
    # each, empty runs first, between and last, an owner whose only run is
    # empty, and two candidates exactly at one site, in different runs of
    # its owner.  Coordinates are whole 16ths, so every squared distance is
    # exact and ties are real.
    rng = np.random.default_rng(3)
    bx, by = rng.integers(-48, 49, (2, 40)) / 16.0
    x, y = rng.integers(-48, 49, (2, c, 6)) / 16.0
    column = np.array([4, 0, 5, 2, 0])
    row = np.array([1, 3, 0, 5, 2])
    lo = np.array([7, 0, 9, 30, 2, 12, 22, 14, 17, 0, 5, 39])
    count = np.array([0, 3, 1, 0, 4, 0, 5, 0, 3, 5, 1, 0])
    owner = np.array([0, 0, 0, 1, 2, 2, 2, 3, 3, 4, 4, 4])
    # The candidates at sorted positions 1 and 9 sit at owner 0's site (0, 0).
    bx[[1, 9]], by[[1, 9]] = x[0, column[0]], y[0, row[0]]
    at, who = hetmec.montecarlo._runs(lo, count, owner)
    runs = [(p, k) for r, k in enumerate(owner) for p in range(lo[r], lo[r] + count[r])]
    assert list(zip(at.tolist(), who.tolist())) == runs
    got2 = np.full((c, c, 5), -1.0)
    got = np.full((c, c, 5), -7)
    want2, want = got2.copy(), got.copy()
    hetmec.montecarlo._scan(bx, by, x, column, y, row, lo, count, owner, got2, got)
    _scan_by_loop(bx, by, x, column, y, row, lo, count, owner, want2, want)
    assert np.array_equal(got2, want2) and np.array_equal(got, want)
    assert np.all(got2[:, :, 1] == -1.0) and np.all(got[:, :, 1] == -7)
    assert (got2[0, 0, 0], got[0, 0, 0]) == (0.0, 1)


def test_load_stage_memory_peak():
    # The load stage keeps the drawn BSs of every trial, and the probes and
    # cells of one block of trials at a time: at the validation's load
    # realization its traced peak, the block's cells and whole-trial pass
    # included, stays within 6.0 MiB (about 4.1 MiB measured).  Cells built
    # once for all trials took 7.7 MiB.
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _load_estimates(DEFAULTS, trials=250, seed=9)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 6.0 * 2**20


def test_load_sampler_looks_up_few_small_cells():
    # The probes whose nearest macro BS is in-region fill, on average, the
    # in-region disc's area (pi pick_macro^2 / h^2, about 76 at the
    # reference point); the small-cell lookups are those probes plus a thin
    # band near the small-cell pick region, about 89 per trial, whatever
    # the width of the probe disc.
    trials = 60
    loads = _load_estimates(DEFAULTS, trials=trials, seed=43)
    pick_macro = _load_regions(DEFAULTS)["picks"][Tier.MACRO]
    in_region_probes = math.pi * pick_macro**2 / loads.spacing**2 * trials
    assert loads.probes > 0
    assert in_region_probes <= loads.small_lookups <= 1.5 * in_region_probes


@pytest.mark.parametrize("config", ["reference", "dense_small"])
def test_lattice_loads_match_user_process(config):
    # The shifted lattice counts each cell's users without bias: its loads
    # agree with those of the Poisson user process it replaced, drawn on an
    # independent realization.
    params = params_from_raw(LOAD_CONFIGS[config][0])
    lattice = _load_estimates(params, trials=400, seed=45).by_rule
    users = user_process_mean_loads(params, trials=400, seed=46)
    for rule, by_tier in users.items():
        for tier, reference in by_tier.items():
            got = lattice[rule][tier]
            se = math.hypot(got.std_error, reference.std_error)
            assert abs(got.mean - reference.mean) < 4.0 * se, (rule, tier)


def test_load_sampler_refuses_a_lattice_too_fine_before_drawing_it():
    # At 1e30 users per km^2 the probe spacing is about 1.5e-12 m: the
    # lattice is refused by its site count, before any probe array exists
    # (allocating its sites would fail with a MemoryError instead).
    params = params_from_raw({"lambda_u_per_km2": 1e30})
    with pytest.raises(RuntimeError, match="probe lattice"):
        _load_estimates(params, trials=160, seed=47)


WINDOW_CONFIGS = {
    "reference": {},
    "equal_powers": {"p_m_dbm": 30.0, "p_s_dbm": 30.0},
    "dense_small": {"lambda_s_per_km2": 50.0, "lambda_u_per_km2": 60.0},
    # 40 dB apart: max-power macro cells reach far, so the user disc must
    # take the power rule's joint void, not the nearest rule's.
    "far_powers": {"p_s_dbm": 6.0},
}


@pytest.mark.parametrize("config", list(WINDOW_CONFIGS))
def test_joint_void_window_misses_no_counted_user(config):
    # On a realization drawn in the wider own-tier window, no user between the
    # joint-void radius and the own-tier radius is served by an in-region BS
    # under either rule: the narrower user disc loses no counted user.
    params = params_from_raw(WINDOW_CONFIGS[config])
    r_user = _load_regions(params)["r_user"]
    wide = own_tier_load_regions(params)
    radial, counted = served_by_counted_bs(params, trials=100, seed=44, geo=wide)
    band = radial > r_user
    assert wide["r_user"] > r_user and np.count_nonzero(band) > 1000
    for rule, hit in counted.items():
        assert np.any(hit), rule
        assert not np.any(hit & band), rule


def test_small_lookup_bound_keeps_its_margin():
    # Users up to one margin below the bound rho - pick_small are looked up,
    # so rounding of the coordinates cannot drop one whose in-region small
    # BS wins; users whose nearest macro BS is in-region always are.
    extent, pick, rho = 25_000.0, 357.0, 3_000.0
    margin = _LOOKUP_MARGIN * extent
    edge = rho - pick
    d_m = np.array([edge, edge - 0.5 * margin, edge - 2.0 * margin, edge - 2.0 * margin])
    macro_interior = np.array([False, False, False, True])
    got = _needs_small_lookup(d_m, macro_interior, np.full(4, rho), pick, margin)
    assert got.tolist() == [True, True, False, True]
