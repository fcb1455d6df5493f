"""Monte Carlo point-process oracle for the closed-form model.

Everything here samples the geometry directly: homogeneous Poisson point
processes for both BS tiers and the users, max-power or nearest-BS
association applied to the sampled points, and exponential (Rayleigh-power)
fading on every interfering link.  For the association tallies a nearest-BS
distance is drawn from one uniform by inverting the void probability
P(d > r) = exp(-lambda pi r^2), with the draws whose disc would be empty
redrawn.  A coverage trial draws its serving distance from its law given
the serving tier (_serving_slope); given that distance each interferer
field is a PPP outside its exclusion disc, so no trial is rejected.  No
coverage integral is consulted and nothing of the analytic modules is
called: the sampler computes that law's rate itself, and a test holds its
draws to a rejection-conditioned reference.  Agreement with the analytic
modules is therefore evidence of implementation fidelity.

Coverage is Rao-Blackwellised.  Given the serving distance x and the
sampled interference I, the serving fade is averaged out exactly: a trial
contributes its conditional success probability exp(-s (N + I)) with
s = gamma x^4 / P_tx (Haenggi, "The Meta Distribution of the SIR", IEEE TWC
2016) instead of a success indicator.  Interferers are sampled only out to a
per-trial radius R of a few typical spacings (wider where the trial's own
exclusion radius is); the Rayleigh-faded Poisson field beyond R enters
through its exact Laplace functional at alpha = 4,
exp(-lambda pi sqrt(sP) arctan(sqrt(sP) / R^2)) (Andrews, Baccelli and
Ganti, IEEE TCOM 2011), so the cut costs variance, not bias.  The standard
error is the sample standard deviation of the per-trial values.

Per-cell loads come from one realization of users and BSs, many trials side
by side, with one KD-tree per BS tier.  Every user's nearest macro BS is
looked up, its nearest small-cell BS only where that can change a counted
cell; the skipped lookups cannot change any estimate.

Two modeling conventions are intentionally mirrored from the analytic side
(they are assumptions of the model, not artifacts of this sampler):

* Active uplink interferers form an independent Poisson field with density
  lambda_m + lambda_s (one scheduled user per cell on average) in which no
  interferer lies closer to the receiving BS than the served user does.
* The downlink interference field consists of every other BS of both tiers,
  each no closer (in power-weighted terms) than the serving BS.

Randomness is keyed: every operation derives its generators from
(seed, operation tag, batch index) via numpy's SeedSequence, so results are
bit-reproducible for a given (params, seed, trials).  The coverage batches
run in parallel on the process's CPUs (_map_batches), as do the load
sampler's KD-tree queries, and are reduced in batch order, so no estimate
depends on the number of threads.
"""
from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .association import Link, Policy, Tier, tier_params
from .config import ScenarioParams

# Operation tags for seed derivation.
_TAG_ASSOCIATION = 2
_TAG_COVERAGE = 3
_TAG_LOAD = 4

_BATCH = 1 << 13
# Radius multiplier for nearest-BS sampling: void probability exp(-27.6).
_VOID_LOG = math.log(1e12)
# Interferers are sampled out to 5 typical spacings, or 1.5 times the trial's
# exclusion radius if that is wider (about 25 points per field per trial);
# the field beyond enters through its Laplace functional.
_INTERFERER_SPAN = 5.0
_LOAD_TAIL_LOG = math.log(1e9)
# Slack of the load sampler's small-cell lookup bound, in trial spacings.
_LOOKUP_MARGIN = 1e-6
# The load sampler refuses a point process expected to hold more points
# than this over all its trials (about 0.5 GB of coordinates); the
# reference point needs about 1.46e5 users (584 per trial) for 250 trials.
_MAX_LOAD_POINTS = float(1 << 25)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Helper threads of _map_batches, created on first use; a forked child
# inherits the executor but not its threads, so it makes its own.
_pool_lock = threading.Lock()
_pool: tuple[int, ThreadPoolExecutor] | None = None


def _helper_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            # Threads start only as submitted work needs them.
            pool = ThreadPoolExecutor(max(_cpu_count() - 1, 1), thread_name_prefix="hetmec-batch")
            _pool = (os.getpid(), pool)
        return _pool[1]


def _map_batches(batch: Callable[[int], object], count: int) -> list:
    """[batch(i) for i in range(count)], on up to one thread per CPU.

    The calling thread and min(count, CPUs) - 1 helper threads claim the
    indices one at a time, so one CPU runs the plain loop and starts no
    thread.  Each result lands at its index, so the list is the same for
    any thread count when batch(i) depends on i alone.  Once a batch raises
    no further index is claimed, and when every thread has stopped the
    exception is re-raised as it was.
    """
    threads = min(count, _cpu_count())
    if threads <= 1:
        return [batch(i) for i in range(count)]
    results = [None] * count
    lock = threading.Lock()
    next_index = 0

    def drain() -> None:
        nonlocal next_index
        while True:
            with lock:
                index = next_index
                next_index += 1
            if index >= count:
                return
            try:
                results[index] = batch(index)
            except BaseException:
                with lock:
                    next_index = count
                raise

    pool = _helper_pool()
    helpers = [pool.submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()
    return results


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class AssociationFrequencies:
    estimates: dict[str, McEstimate]
    resampled: int
    trials: int


def _nearest_distances(
    rng: np.random.Generator, density: float, n: int, window_scale: float
) -> tuple[np.ndarray, int]:
    """Distance from the origin to the nearest point of a PPP, per trial.

    The nearest point of a PPP of density lambda lies at squared distance
    d^2 = -log(U) / (pi lambda) for U uniform on (0, 1), one uniform per
    trial.  Its disc of radius R, wide enough that it is empty with
    probability ~1e-12, is empty exactly when U < exp(-lambda pi R^2); those
    draws are redrawn and counted, so the law is the nearest-point law given
    a nonempty disc, as if the disc's points had been drawn.
    """
    if density == 0.0:
        return np.full(n, np.inf), 0
    radius = math.sqrt(_VOID_LOG / (math.pi * density)) * window_scale
    p_empty = math.exp(-density * math.pi * radius * radius)
    u = rng.random(n)
    empty = np.flatnonzero(u < p_empty)
    resampled = 0
    while empty.size:
        resampled += int(empty.size)
        u[empty] = rng.random(empty.size)
        empty = empty[u[empty] < p_empty]
    np.log(u, out=u)
    u *= -1.0 / (math.pi * density)
    return np.sqrt(u, out=u), resampled


def _power_rule_small_wins(params: ScenarioParams, d_m: np.ndarray, d_s: np.ndarray) -> np.ndarray:
    alpha = params.pathloss_exponent
    with np.errstate(divide="ignore"):
        return params.small.tx_power * d_s ** -alpha > params.macro.tx_power * d_m ** -alpha


def empirical_association(
    params: ScenarioParams, trials: int, seed: int = 0, window_scale: float = 1.0
) -> AssociationFrequencies:
    """Tally the joint (uplink tier, downlink tier) outcome over many trials.

    Each trial samples both tiers fresh, puts the probe user at the origin,
    and applies the nearest-BS rule for the uplink and the max-power rule
    for the downlink (the coupled outcome is the downlink winner).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = {"ss": 0, "mm": 0, "sm": 0, "ms": 0, "coupled_s": 0}
    resampled = 0
    done = 0
    batch_index = 0
    while done < trials:
        n = min(_BATCH, trials - done)
        rng = _rng(seed, _TAG_ASSOCIATION, batch_index)
        d_m, res_m = _nearest_distances(rng, params.macro.density, n, window_scale)
        d_s, res_s = _nearest_distances(rng, params.small.density, n, window_scale)
        resampled += res_m + res_s
        dl_small = _power_rule_small_wins(params, d_m, d_s)
        ul_small = d_s < d_m
        counts["ss"] += int(np.sum(ul_small & dl_small))
        counts["mm"] += int(np.sum(~ul_small & ~dl_small))
        counts["sm"] += int(np.sum(ul_small & ~dl_small))
        counts["ms"] += int(np.sum(~ul_small & dl_small))
        counts["coupled_s"] += int(np.sum(dl_small))
        done += n
        batch_index += 1

    def estimate(k: int) -> McEstimate:
        p = k / trials
        return McEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)

    estimates = {
        "assoc_dec_small_small": estimate(counts["ss"]),
        "assoc_dec_macro_macro": estimate(counts["mm"]),
        "assoc_dec_small_macro": estimate(counts["sm"]),
        "assoc_dec_macro_small": estimate(counts["ms"]),
        "assoc_coupled_small": estimate(counts["coupled_s"]),
        "assoc_coupled_macro": estimate(trials - counts["coupled_s"]),
    }
    return AssociationFrequencies(estimates=estimates, resampled=resampled, trials=trials)


def _serving_rule(policy: Policy, link: Link) -> str:
    if policy is Policy.COUPLED or link is Link.DL:
        return "power"
    return "nearest"


def _far_field_exponent(
    density: float, power: float, s: np.ndarray, outer2: np.ndarray | float
) -> np.ndarray:
    """-log E[exp(-s I_far)] for the Rayleigh-faded PPP field beyond radius R.

    At alpha = 4 the Poisson Laplace functional over r > R is
    exp(-lambda pi * integral_{R^2}^inf sP / (sP + t^2) dt), and the
    integral is sqrt(sP) * arctan(sqrt(sP) / R^2).
    """
    root = np.sqrt(s * power)
    return density * math.pi * root * np.arctan(root / outer2)


def _field_exponent(
    rng: np.random.Generator,
    density: float,
    power: float,
    s: np.ndarray,
    exclusion2: np.ndarray,
    window_scale: float,
) -> tuple[np.ndarray, int]:
    """s * I_near plus the far-field exponent of one interferer field.

    Interferers of a Rayleigh-faded PPP of the given density and power lie
    beyond the per-trial exclusion radius.  Each trial has its own outer
    radius R, the larger of _INTERFERER_SPAN typical spacings and 1.5 times
    its exclusion radius (both times window_scale), but never inside the
    exclusion radius, which a window_scale below 2/3 would otherwise allow;
    the interferers between the two radii are sampled with their fades, the
    field beyond R enters through its exact Laplace functional.  Also
    returns the number of interferers sampled.  The interferers are drawn
    trial after trial, so each trial's points are one contiguous segment of
    the per-interferer arrays: squared radii uniform on [exclusion2, outer2],
    then the weights P h / r^4, summed over each segment.  A trial that
    draws no interferer has I_near exactly 0.
    """
    spans2 = _INTERFERER_SPAN * _INTERFERER_SPAN / (math.pi * density)
    outer2 = np.maximum(spans2, 2.25 * exclusion2) * (window_scale * window_scale)
    outer2 = np.maximum(outer2, exclusion2)
    width = outer2 - exclusion2
    counts = rng.poisson(density * math.pi * width)
    total = int(counts.sum())
    r2 = rng.random(total)
    r2 *= np.repeat(width, counts)
    r2 += np.repeat(exclusion2, counts)
    weights = rng.standard_exponential(total)
    weights *= power
    r2 *= r2
    weights /= r2
    # reduceat sums from one start to the next, so only nonempty segments
    # may be given: an empty one would yield its next point, not 0.
    drew = counts > 0
    near = np.zeros(s.size)
    near[drew] = np.add.reduceat(weights, (np.cumsum(counts) - counts)[drew])
    exponent = s * near + _far_field_exponent(density, power, s, outer2)
    return exponent, total


def _downlink_exponent(
    rng: np.random.Generator,
    params: ScenarioParams,
    serving: Tier,
    x2: np.ndarray,
    s: np.ndarray,
    window_scale: float,
) -> tuple[np.ndarray, int]:
    """Interference exponent at the user from every non-serving BS.

    Max-power association to the serving tier at squared distance x2 keeps
    every tier-j BS beyond squared distance (P_j / P_serving)**(2/alpha) * x2.
    Also returns the number of interferers sampled.
    """
    alpha = params.pathloss_exponent
    p_serving = tier_params(params, serving).tx_power
    exponent = np.zeros(x2.size)
    sampled = 0
    for tier in (Tier.MACRO, Tier.SMALL):
        tier_p = tier_params(params, tier)
        if tier_p.density == 0.0:
            continue
        exclusion2 = (tier_p.tx_power / p_serving) ** (2.0 / alpha) * x2
        tier_exponent, tier_sampled = _field_exponent(
            rng, tier_p.density, tier_p.tx_power, s, exclusion2, window_scale
        )
        exponent += tier_exponent
        sampled += tier_sampled
    return exponent, sampled


@dataclass(frozen=True)
class CoverageEstimate(McEstimate):
    """A coverage estimate with the number of interferer points sampled."""

    interferers: int


def _serving_slope(params: ScenarioParams, rule: str, tier: Tier) -> float:
    """lambda_k + lambda_j * beta**2, the slope of the serving-distance law.

    Tier k serves at distance x exactly when no tier-k BS is nearer and
    every tier-j BS lies beyond beta * x, with beta = 1 under the nearest
    rule and (P_j / P_k)**(1/alpha) under the max-power rule.  Given that
    tier k serves, x^2 is therefore exponential with rate pi times this
    slope (Jo, Sang, Xia and Andrews, IEEE TWC 2012).
    """
    own = tier_params(params, tier)
    other = tier_params(params, tier.other)
    if rule == "power":
        beta2 = (other.tx_power / own.tx_power) ** (2.0 / params.pathloss_exponent)
    else:
        beta2 = 1.0
    return own.density + other.density * beta2


def empirical_coverage(
    params: ScenarioParams,
    policy: Policy,
    link: Link,
    tier: Tier,
    gamma: float,
    trials: int,
    seed: int = 0,
    window_scale: float = 1.0,
) -> CoverageEstimate:
    """Empirical SINR coverage for one (policy, link, tier) combination.

    Every trial is served by `tier`: its squared serving distance is drawn
    from the conditional law x^2 ~ Exp(pi * _serving_slope), one standard
    exponential per trial.  Given x, each interferer field is a PPP outside
    its exclusion disc, which is all the UL and DL fields use, so the trial
    is exact without conditioning by rejection.  Each trial contributes its
    conditional success probability exp(-s (N + I_near)) * L_far with
    s = gamma x^4 / P_tx, so the serving fade is averaged out exactly, and
    the standard error is the sample standard deviation over sqrt(trials).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if tier_params(params, tier).density == 0.0:
        raise ValueError(f"tier {tier.value} has zero density; coverage is undefined")
    rate = math.pi * _serving_slope(params, _serving_rule(policy, link), tier)
    if link is Link.UL:
        tx_power = params.user_tx_power
    else:
        tx_power = tier_params(params, tier).tx_power

    def batch(index: int) -> tuple[np.ndarray, int]:
        rng = _rng(seed, _TAG_COVERAGE, index)
        x2 = rng.standard_exponential(min(_BATCH, trials - index * _BATCH))
        x2 /= rate
        s = gamma * x2 * x2 / tx_power
        if link is Link.UL:
            # Active-uplink users interfere from outside the disc of radius x
            # around the receiving BS.
            lam = params.macro.density + params.small.density
            exponent, sampled = _field_exponent(rng, lam, tx_power, s, x2, window_scale)
        else:
            exponent, sampled = _downlink_exponent(rng, params, tier, x2, s, window_scale)
        return np.exp(-(s * params.noise_power + exponent)), sampled

    batches = _map_batches(batch, -(-trials // _BATCH))
    v = np.concatenate([values for values, _ in batches])
    interferers = sum(sampled for _, sampled in batches)
    std_error = float(np.std(v, ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
    return CoverageEstimate(float(np.mean(v)), std_error, trials, interferers)


def _load_regions(params: ScenarioParams, window_scale: float) -> dict:
    """Geometry for the per-cell load counter.

    Cells are counted only for BSs inside a small pick region; users are
    sampled far enough out to cover every cell of a picked BS.  A user at
    distance rho from the trial centre served by a picked tier-t BS sees a
    tier-t void of radius at least rho - pick_t and a tier-j void beta times
    that, beta**2 >= min(1, (P_j / P_t)**(2/alpha)) under either rule, so
    the user disc reaches the joint void's tail (_serving_slope with the
    smaller of the two rules' slopes).  Each tier's BSs are sampled in their
    own disc, the user disc widened by that tier's nearest-BS tail, so that
    every sampled user sees its true nearest BS of each tier.  Both tails
    have probability ~1e-9 per user.
    """
    tails = {}
    picks = {}
    joint_tails = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            continue
        tails[tier] = math.sqrt(_LOAD_TAIL_LOG / (math.pi * lam))
        picks[tier] = 2.0 / math.sqrt(math.pi * lam)
        slope = min(_serving_slope(params, rule, tier) for rule in ("power", "nearest"))
        joint_tails[tier] = math.sqrt(_LOAD_TAIL_LOG / (math.pi * slope))
    r_user = max(picks[t] + joint_tails[t] for t in picks) * window_scale
    r_bs = {t: r_user + tails[t] * window_scale for t in tails}
    return {
        "picks": {t: picks[t] * window_scale for t in picks},
        "r_user": r_user,
        "r_bs": r_bs,
        "spacing": 4.0 * max(r_bs.values()),
    }


def _needs_small_lookup(
    d_m: np.ndarray,
    macro_interior: np.ndarray,
    user_radial: np.ndarray,
    pick_small: float,
    spacing: float,
) -> np.ndarray:
    """Users whose nearest small-cell BS can change an in-region cell count.

    A user at distance rho from its trial centre lies at least
    rho - pick_small from every in-region small BS.  If its nearest macro BS
    is out of region and nearer than that, every in-region small BS loses to
    it under the nearest rule and, as P_m >= P_s, under the max-power rule:
    the user is served out of region whatever its nearest small BS is.  The
    margin of 1e-6 trial spacings keeps the bound clear of the rounding of
    coordinates offset by up to trials * spacing.
    """
    bound = user_radial - (pick_small + _LOOKUP_MARGIN * spacing)
    return macro_interior | (d_m >= bound)


@dataclass(frozen=True)
class LoadEstimates:
    """Users per BS under both association rules, with the sampler's counts.

    `by_rule` maps "power" and "nearest" to {tier: estimate}; `users` counts
    the users sampled and `small_lookups` those whose nearest small-cell BS
    was looked up.
    """

    by_rule: dict[str, dict[Tier, McEstimate]]
    users: int
    small_lookups: int


def _mean_loads_by_rule(
    params: ScenarioParams,
    trials: int,
    seed: int,
    window_scale: float = 1.0,
) -> LoadEstimates:
    """Users per BS under both association rules, both tiers, from one pass.

    Trials are laid out side by side on a line with a spacing that keeps
    them geometrically independent, so a single KD-tree per tier answers
    every nearest-BS query; the queries do not depend on the rule, so one
    realization of users and BSs serves both.  The estimate is the ratio of
    total users served by in-region BSs to the in-region BS count (unbiased
    for the typical cell; the BS nearest the origin would be size-biased).

    Every user's nearest macro BS is looked up, its nearest small-cell BS
    only where that can change an in-region count (_needs_small_lookup:
    the nearest macro BS is in-region, or no nearer than
    rho - pick_small - margin, rho being the user's distance to its trial
    centre).  Any other user is served out of region under both rules, so
    its small-cell distance is left at inf and the estimates are those of
    looking up every user, bit for bit.

    Raises RuntimeError, naming the process, when a Poisson mean is not
    finite or would put more than _MAX_LOAD_POINTS points into one process.
    """
    # Imported here: scipy.spatial costs every `import hetmec` about 0.13 s
    # and only this sampler needs it.
    from scipy.spatial import cKDTree

    if trials < 1:
        raise ValueError("trials must be >= 1")
    geo = _load_regions(params, window_scale)
    rng = _rng(seed, _TAG_LOAD)
    offsets = np.arange(trials) * geo["spacing"]

    def sample_process(name: str, density: float, radius: float):
        mean = density * math.pi * radius * radius
        if not math.isfinite(mean) or mean * trials > _MAX_LOAD_POINTS:
            raise RuntimeError(
                f"the {name} process of the load sampler would hold about "
                f"{mean:.3g} points per trial over {trials} trials, more than "
                f"{_MAX_LOAD_POINTS:.3g} in all; its sampling window is too wide"
            )
        counts = rng.poisson(mean, trials)
        total = int(counts.sum())
        # Distance from the trial centre, before offsetting.
        radial = np.sqrt(rng.random(total))
        radial *= radius
        theta = rng.random(total)
        theta *= 2.0 * math.pi
        # cos and sin write contiguous arrays: a strided output may take
        # another loop of theirs and round differently.  A product is
        # correctly rounded in any loop, so it may go straight to a column.
        pts = np.empty((total, 2))
        np.multiply(np.cos(theta), radial, out=pts[:, 0])
        np.multiply(np.sin(theta, out=theta), radial, out=pts[:, 1])
        pts[:, 0] += np.repeat(offsets, counts)
        return pts, counts, radial

    bs = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            bs[tier] = None
            continue
        pts, counts, radial = sample_process(f"{tier.value} BS", lam, geo["r_bs"][tier])
        if int(counts.min()) == 0:
            # A trial with no BS of a nonzero-density tier cannot resolve
            # nearest queries; astronomically unlikely at these radii.
            raise RuntimeError("a trial sampled zero base stations; enlarge the window")
        bs[tier] = {
            "tree": cKDTree(pts),
            "trial_of": np.repeat(np.arange(trials), counts),
            "interior": radial <= geo["picks"][tier],
            "n": pts.shape[0],
        }

    users, _, user_radial = sample_process("user", params.user_density, geo["r_user"])
    n_users = users.shape[0]
    # Each query is answered on its own, so splitting them over threads
    # leaves every distance and index as it is.
    workers = _cpu_count()

    macro = bs[Tier.MACRO]
    d_m, i_m = macro["tree"].query(users, k=1, workers=workers)
    asked = np.zeros(0, dtype=np.int64)
    if bs[Tier.SMALL] is not None:
        asked = np.flatnonzero(
            _needs_small_lookup(
                d_m, macro["interior"][i_m], user_radial, geo["picks"][Tier.SMALL], geo["spacing"]
            )
        )
    asked_users = users[asked]
    # Free the user coordinates before the full-size small-cell arrays and
    # the per-rule temporaries: they would set the sampler's peak memory.
    del users, user_radial
    d_s = np.full(n_users, np.inf)
    i_s = np.zeros(n_users, dtype=np.int64)
    if asked.size:
        d_s[asked], i_s[asked] = bs[Tier.SMALL]["tree"].query(asked_users, k=1, workers=workers)
    index = {Tier.MACRO: i_m, Tier.SMALL: i_s}

    small_wins_by_rule = {
        "power": _power_rule_small_wins(params, d_m, d_s),
        "nearest": d_s < d_m,
    }
    out = {}
    for rule, small_wins in small_wins_by_rule.items():
        out[rule] = {}
        for tier, info in bs.items():
            if info is None:
                out[rule][tier] = McEstimate(0.0, 0.0, trials)
                continue
            served_here = small_wins if tier is Tier.SMALL else ~small_wins
            per_bs = np.bincount(index[tier][served_here], minlength=info["n"])
            interior = info["interior"]
            totals = np.bincount(
                info["trial_of"][interior], weights=per_bs[interior], minlength=trials
            )
            cells = np.bincount(info["trial_of"][interior], minlength=trials)
            total_cells = int(cells.sum())
            if total_cells == 0:
                raise RuntimeError("no interior cells sampled; increase trials")
            est = float(totals.sum()) / total_cells
            residuals = totals - est * cells
            var = float(np.sum(residuals**2)) / (total_cells**2)
            if trials > 1:
                var *= trials / (trials - 1)
            out[rule][tier] = McEstimate(est, math.sqrt(var), trials)
    return LoadEstimates(out, int(n_users), int(asked.size))
