import math
import os
import subprocess
import sys
import textwrap
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
    _VOID_LOG,
    _far_field_exponent,
    _field_exponent,
    _load_regions,
    _map_batches,
    _mean_loads_by_rule,
    _nearest_distances,
    _needs_small_lookup,
    _rng,
    _serving_rule,
    _serving_slope,
    empirical_association,
    empirical_coverage,
)
from oracles import (
    indexed_field_exponent,
    own_tier_load_regions,
    rejection_coverage,
    serial_coverage,
    served_by_counted_bs,
    unpruned_mean_loads,
)

DEFAULTS = params_from_raw({})


def test_zero_density_process_is_empty():
    # No point of an empty process is nearest: every distance is infinite and
    # no draw needs resampling.
    distances, resampled = _nearest_distances(_rng(0, 42), 0.0, 1000, 1.0)
    assert distances.shape == (1000,)
    assert np.all(np.isinf(distances))
    assert resampled == 0


@pytest.mark.parametrize("tier", list(Tier))
@pytest.mark.parametrize("window_scale", [1.0, 2.0])
def test_nearest_distances_follow_void_probability(tier, window_scale):
    # P(d > r) = exp(-lambda pi r^2) for the nearest point of a PPP.
    density = (DEFAULTS.macro if tier is Tier.MACRO else DEFAULTS.small).density
    n = 100_000
    distances, resampled = _nearest_distances(_rng(31, 1), density, n, window_scale)
    assert resampled == 0
    ks = stats.kstest(distances, lambda r: -np.expm1(-density * math.pi * r * r))
    assert ks.statistic < 1.95 / math.sqrt(n)  # KS critical value at 0.1%


def test_nearest_distances_redraw_empty_discs():
    # A disc this small is empty in ~93% of draws: every empty draw is redrawn
    # and counted, and the result is the nearest-point law given a nonempty disc.
    density = DEFAULTS.small.density
    window_scale = 0.05
    radius = math.sqrt(_VOID_LOG / (math.pi * density)) * window_scale
    n = 2_000
    distances, resampled = _nearest_distances(_rng(32, 1), density, n, window_scale)
    assert np.all(distances <= radius)
    p_empty = math.exp(-density * math.pi * radius * radius)
    expected = n * p_empty / (1.0 - p_empty)
    sd = math.sqrt(n * p_empty) / (1.0 - p_empty)
    assert abs(resampled - expected) < 5.0 * sd
    norm = -math.expm1(-density * math.pi * radius * radius)
    ks = stats.kstest(distances, lambda r: -np.expm1(-density * math.pi * r * r) / norm)
    assert ks.statistic < 1.95 / math.sqrt(n)


def test_nearest_distances_draw_one_uniform_per_trial():
    # No Poisson count is drawn: with no empty disc the generator advances by
    # exactly one uniform per trial, and d^2 = -log(U) / (pi lambda).
    density = DEFAULTS.small.density
    n = 5_000
    rng = _rng(33, 1)
    distances, resampled = _nearest_distances(rng, density, n, 1.0)
    assert resampled == 0
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
        est = freq.estimates[name]
        assert abs(est.mean - target) < 4.0 * est.std_error, name
    assert freq.resampled < 0.001 * trials


def test_macro_ul_small_dl_outcome_impossible():
    freq = empirical_association(DEFAULTS, 30_000, seed=3)
    assert freq.estimates["assoc_dec_macro_small"].mean == 0.0


def test_equal_power_makes_rules_coincide():
    p = params_from_raw({"p_m_dbm": 30.0, "p_s_dbm": 30.0})
    freq = empirical_association(p, 20_000, seed=4)
    assert freq.estimates["assoc_dec_small_macro"].mean == 0.0
    assert freq.estimates["assoc_dec_small_small"].mean == pytest.approx(
        freq.estimates["assoc_coupled_small"].mean, abs=1e-15
    )


def test_empirical_association_bit_reproducible():
    a = empirical_association(DEFAULTS, 10_000, seed=11)
    b = empirical_association(DEFAULTS, 10_000, seed=11)
    assert a == b


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
def test_empirical_coverage_agrees_with_quadrature(policy, link, tier):
    gamma = 0.1
    trials = 30_000
    est = empirical_coverage(DEFAULTS, policy, link, tier, gamma, trials, seed=9)
    if link is Link.UL:
        analytic = ul_coverage(DEFAULTS, policy, tier, gamma)
    else:
        analytic = dl_coverage(DEFAULTS, tier, gamma, form=DlCoverageForm.INTERFERENCE)
    assert abs(est.mean - analytic) < max(4.0 * est.std_error, 0.01)


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
        got = _far_field_exponent(density, power, s, outer2)
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


@pytest.mark.parametrize("policy,tier", [(policy, tier) for policy in Policy for tier in Tier])
def test_uplink_sampler_counts(policy, tier):
    # Each trial's outer radius follows its own exclusion radius, so a trial
    # samples about 25 interferers (5 typical spacings) whatever its serving
    # distance.
    trials = 20_000
    est = empirical_coverage(
        DEFAULTS, policy, Link.UL, tier, DEFAULTS.ul_sinr_threshold, trials, seed=12
    )
    assert est.interferers / est.trials <= 30.0


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

    def spy(rng, density, power, s, exclusion2, window_scale):
        exclusions.append(exclusion2.copy())
        return field_exponent(rng, density, power, s, exclusion2, window_scale)

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


# Interfering tier (None: the uplink users) and serving tier of each field.
FIELDS = {
    "uplink": (None, Tier.MACRO),
    "downlink_macro": (Tier.MACRO, Tier.SMALL),
    "downlink_small": (Tier.SMALL, Tier.MACRO),
}


def _field_inputs(params, field, n, seed):
    # (density, power, s, exclusion2) of one batch as empirical_coverage
    # builds them, with serving distances from the max-power law.
    interfering, serving = FIELDS[field]
    rng = _rng(seed, 0)
    x2 = rng.standard_exponential(n) / (math.pi * _serving_slope(params, "power", serving))
    if interfering is None:
        density = params.macro.density + params.small.density
        power = tx_power = params.user_tx_power
        gamma, exclusion2 = params.ul_sinr_threshold, x2
    else:
        density = tier_params(params, interfering).density
        power = tier_params(params, interfering).tx_power
        tx_power = tier_params(params, serving).tx_power
        gamma = params.dl_sinr_threshold
        exclusion2 = (power / tx_power) ** (2.0 / params.pathloss_exponent) * x2
    s = gamma * x2 * x2 / tx_power
    return density, power, s, exclusion2


@pytest.mark.parametrize("window_scale", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("config", list(SERVING_LAW_CONFIGS))
def test_segment_sums_match_indexed_field_exponent(config, field, window_scale):
    # Summing each trial's contiguous segment of interferers moves only the
    # rounding of the sums: the draws, hence the counts and the generator
    # state after the call, are those of the per-interferer trial index.
    params = params_from_raw(SERVING_LAW_CONFIGS[config])
    density, power, s, exclusion2 = _field_inputs(params, field, _BATCH, seed=61)
    rng, reference = _rng(61, 1), _rng(61, 1)
    got, sampled = _field_exponent(rng, density, power, s, exclusion2, window_scale)
    expected, expected_sampled = indexed_field_exponent(
        reference, density, power, s, exclusion2, window_scale
    )
    assert sampled == expected_sampled > 0
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_trials_without_interferers_keep_the_far_field_exactly():
    # At window_scale 0.5 a trial whose exclusion2 exceeds spans2 / 4 has its
    # outer radius clamped to the exclusion radius, so it draws no interferer
    # and its exponent is the far field beyond its exclusion radius alone.
    # Such trials lie first, last and scattered among trials that draw.
    density = DEFAULTS.macro.density + DEFAULTS.small.density
    power = DEFAULTS.user_tx_power
    spans2 = _INTERFERER_SPAN * _INTERFERER_SPAN / (math.pi * density)
    n = 2_000
    exclusion2 = spans2 * _rng(62, 0).uniform(0.0, 0.5, n)
    exclusion2[[0, -1]] = 0.4 * spans2
    s = 1e-3 * exclusion2 * exclusion2 / power
    empty = exclusion2 > 0.25 * spans2
    assert 0 < np.count_nonzero(empty) < n
    rng, reference = _rng(62, 1), _rng(62, 1)
    got, sampled = _field_exponent(rng, density, power, s, exclusion2, 0.5)
    expected, expected_sampled = indexed_field_exponent(
        reference, density, power, s, exclusion2, 0.5
    )
    assert sampled == expected_sampled > 0
    far = _far_field_exponent(density, power, s, exclusion2)
    assert np.array_equal(got[empty], far[empty])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    # A batch in which no trial draws an interferer.
    got, sampled = _field_exponent(_rng(62, 2), density, power, s[empty], exclusion2[empty], 0.5)
    assert sampled == 0
    assert np.array_equal(got, _far_field_exponent(density, power, s[empty], exclusion2[empty]))


def test_window_doubling_changes_estimate_within_noise():
    kwargs = dict(gamma=0.1, trials=20_000)
    a = empirical_coverage(
        DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, seed=10, window_scale=1.0, **kwargs
    )
    b = empirical_coverage(
        DEFAULTS, Policy.DECOUPLED, Link.UL, Tier.SMALL, seed=10, window_scale=2.0, **kwargs
    )
    assert abs(a.mean - b.mean) < 2.0 * math.hypot(a.std_error, b.std_error)


def test_narrow_window_keeps_outer_radius_beyond_exclusion():
    # Below window_scale 2/3 the scaled outer radius would fall inside the
    # exclusion radius and the interferer count would get a negative mean.
    est = empirical_coverage(
        DEFAULTS, Policy.COUPLED, Link.UL, Tier.MACRO, 0.1, 200, seed=1, window_scale=0.5
    )
    assert 0.0 <= est.mean <= 1.0


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

    def failing(rng, density, power, s, exclusion2, window_scale):
        if s.size == 17:
            raise RuntimeError("batch 3")
        return field_exponent(rng, density, power, s, exclusion2, window_scale)

    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", failing)
    with pytest.raises(RuntimeError) as excinfo:
        empirical_coverage(*args, seed=72)
    assert type(excinfo.value) is RuntimeError and str(excinfo.value) == "batch 3"
    pool = hetmec.montecarlo._pool
    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", field_exponent)
    assert empirical_coverage(*args, seed=72) == serial_coverage(*args, seed=72)
    assert hetmec.montecarlo._pool is pool


def test_map_batches_claims_every_index_once(monkeypatch):
    # More threads than CPUs and a short switch interval: a claim lost or
    # taken twice would skip or repeat an index.
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: 8)
    calls = []

    def batch(index):
        calls.append(index)
        return index

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _map_batches(batch, 20_000)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(20_000))
    assert sorted(calls) == got


def _run_fresh(script: str) -> str:
    env = dict(os.environ)
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


def test_analytic_paths_start_no_thread():
    # Neither the analytic report nor a figure sweep calls the sampler, so
    # neither starts its threads; two coverage batches on two CPUs start one.
    counts = _run_fresh(
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
        montecarlo.empirical_coverage(
            hetmec.default_params(), Policy.COUPLED, Link.UL, Tier.MACRO, 0.1,
            2 * montecarlo._BATCH, seed=1,
        )
        print(threading.active_count())
        """
    )
    assert counts == ["1", "1", "2"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_coverage_on_its_own_threads():
    # A forked child inherits the parent's executor but none of its threads;
    # it must build its own rather than wait on threads that do not exist.
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


@pytest.mark.parametrize("cpus", [1, 4])
def test_load_sampler_matches_at_any_cpu_count(cpus, monkeypatch):
    # Every KD-tree query is answered on its own, so the workers that share
    # them change no distance or index.
    expected = _mean_loads_by_rule(DEFAULTS, trials=60, seed=24)
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    assert _mean_loads_by_rule(DEFAULTS, trials=60, seed=24) == expected


def test_empirical_mean_load_matches_closed_forms():
    for policy, link, tier, seed in [
        (Policy.COUPLED, Link.UL, Tier.SMALL, 21),
        (Policy.DECOUPLED, Link.UL, Tier.MACRO, 22),
    ]:
        loads = _mean_loads_by_rule(DEFAULTS, trials=400, seed=seed)
        est = loads.by_rule[_serving_rule(policy, link)][tier]
        target = association_report(DEFAULTS).load[policy, link, tier]
        assert abs(est.mean - target) < 3.0 * est.std_error


def test_empirical_load_user_conservation():
    # loads weighted by BS density must add back to the user density
    lam_m = DEFAULTS.macro.density
    lam_s = DEFAULTS.small.density
    loads = _mean_loads_by_rule(DEFAULTS, trials=400, seed=23).by_rule["power"]
    small, macro = loads[Tier.SMALL], loads[Tier.MACRO]
    total = small.mean * lam_s + macro.mean * lam_m
    se = math.hypot(small.std_error * lam_s, macro.std_error * lam_m)
    assert abs(total - DEFAULTS.user_density) < 4.0 * se


def test_empirical_mean_load_bit_reproducible():
    a = _mean_loads_by_rule(DEFAULTS, trials=60, seed=24)
    b = _mean_loads_by_rule(DEFAULTS, trials=60, seed=24)
    assert a == b


def test_zero_density_tier_load_is_zero():
    p = params_from_raw({"lambda_s_per_km2": 0.0})
    est = _mean_loads_by_rule(p, trials=30, seed=25).by_rule["power"][Tier.SMALL]
    assert est.mean == 0.0 and est.std_error == 0.0


LOAD_CONFIGS = {
    "reference": ({}, 1.0),
    "equal_powers": ({"p_m_dbm": 30.0, "p_s_dbm": 30.0}, 1.0),
    "dense_small": ({"lambda_s_per_km2": 50.0, "lambda_u_per_km2": 60.0}, 1.0),
    "wide_window": ({}, 2.0),
    "no_small": ({"lambda_s_per_km2": 0.0}, 1.0),
}


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("config", list(LOAD_CONFIGS))
def test_pruned_load_lookups_match_unpruned_sampler(config, seed):
    # Skipping the small-cell lookup where it cannot change an in-region cell
    # must leave every estimate, mean and standard error, bit for bit as it is
    # when every user is looked up in both trees.
    raw, window_scale = LOAD_CONFIGS[config]
    params = params_from_raw(raw)
    loads = _mean_loads_by_rule(params, trials=30, seed=seed, window_scale=window_scale)
    expected = unpruned_mean_loads(params, trials=30, seed=seed, window_scale=window_scale)
    for rule, by_tier in expected.items():
        for tier, estimate in by_tier.items():
            got = loads.by_rule[rule][tier]
            assert (got.mean, got.std_error, got.trials) == (
                estimate.mean, estimate.std_error, estimate.trials
            ), (rule, tier)


def test_load_sampler_looks_up_few_small_cells():
    # The users whose nearest macro BS is in-region fill, on average, the
    # in-region disc's area (lambda_u pi pick_macro^2, about 100 at the
    # reference point); the small-cell lookups are those users plus a thin
    # band near the small-cell pick region, about 119 per trial, whatever
    # the width of the user disc.
    trials = 60
    loads = _mean_loads_by_rule(DEFAULTS, trials=trials, seed=43)
    pick_macro = _load_regions(DEFAULTS, 1.0)["picks"][Tier.MACRO]
    in_region_users = DEFAULTS.user_density * math.pi * pick_macro**2 * trials
    assert loads.users > 0
    assert in_region_users <= loads.small_lookups <= 1.5 * in_region_users


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
    r_user = _load_regions(params, 1.0)["r_user"]
    wide = own_tier_load_regions(params)
    radial, counted = served_by_counted_bs(params, trials=100, seed=44, geo=wide)
    band = radial > r_user
    assert wide["r_user"] > r_user and np.count_nonzero(band) > 1000
    for rule, hit in counted.items():
        assert np.any(hit), rule
        assert not np.any(hit & band), rule


def test_small_lookup_bound_keeps_its_margin():
    # Users up to one margin below the bound rho - pick_small are looked up,
    # so rounding of the offset coordinates cannot drop one whose in-region
    # small BS wins; users whose nearest macro BS is in-region always are.
    spacing, pick, rho = 25_000.0, 357.0, 3_000.0
    margin = _LOOKUP_MARGIN * spacing
    edge = rho - pick
    d_m = np.array([edge, edge - 0.5 * margin, edge - 2.0 * margin, edge - 2.0 * margin])
    macro_interior = np.array([False, False, False, True])
    got = _needs_small_lookup(d_m, macro_interior, np.full(4, rho), pick, spacing)
    assert got.tolist() == [True, True, False, True]
