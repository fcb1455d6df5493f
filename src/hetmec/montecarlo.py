"""Monte Carlo point-process oracle for the closed-form model.

Everything here samples the geometry directly: homogeneous Poisson point
processes for both BS tiers and the users, and max-power or nearest-BS
association applied to the sampled points; the exponential (Rayleigh-power)
fading of every link is averaged out exactly.  For the association tallies a
nearest-BS distance is drawn from one uniform by inverting the void
probability P(d > r) = exp(-lambda pi r^2).  A coverage trial draws from
the coverage law of its (policy, link, tier) (_coverage_law): its serving
distance from its law given the serving tier, then, given that distance,
each interferer field as a PPP outside its exclusion disc, so no trial is
rejected.  No coverage integral is consulted and nothing of the analytic
modules is called: the sampler computes the law itself, and a test holds
its draws to a rejection-conditioned reference.  Agreement with the
analytic modules is therefore evidence of implementation fidelity.

Coverage is Rao-Blackwellised.  Given the serving distance x and the
interferer positions, every fade is averaged out exactly: a trial
contributes its success probability given the point process,
exp(-s N) prod_j 1 / (1 + s P_j / r_j^4) with s = gamma x^4 / P_tx
(Haenggi, "The Meta Distribution of the SIR", IEEE TWC 2016), instead of a
success indicator, and no fade is drawn.  Interferers are sampled only in
an annulus beyond each trial's exclusion radius e with the area of a disc
of 3 typical spacings, R^2 = e^2 + 9 / (pi lambda), so every field of
every trial draws a Poisson(9) count, one uniform inverted through a
table of its CDF (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. III.2); the Rayleigh-faded Poisson field beyond R enters through its
exact Laplace functional at alpha = 4,
exp(-lambda pi sqrt(sP) arctan(sqrt(sP) / R^2)) (Andrews, Baccelli and
Ganti, IEEE TCOM 2011), so the cut costs variance, not bias.  The standard
error is the sample standard deviation of the per-trial values.

Per-cell loads come from one realization of BSs in many trials, each in its
own frame about its centre.  The users are counted by probes on a square
lattice given one uniform shift per trial, each probe standing for
lambda_u h^2 users of a lattice of spacing h: unbiased for the mean load,
with no Poisson count noise.  Nearest BSs are found by an exact search in
square cells of about one BS each, whole numbers of probe spacings laid on
each trial's lattice (Bentley, Weide and Yao, ACM TOMS 1980): a probe scans
the 3 x 3 cells about its own, the probes of one cell sharing its
candidates, and one that they cannot settle scans its whole trial once.
Both scans run one kernel (_scan), whose distances and first BS at the
least one are those of a KD-tree bit for bit.  Both tiers are searched
so, one block of trials at a time: the block's probes are laid out and
its BSs sorted into cells, which are dropped once the block's probes are
booked.  Every probe's nearest macro BS is looked up, its nearest
small-cell BS only where that can change a counted cell; the skipped
lookups cannot change any estimate.

The law's fields mirror two modeling conventions of the analytic side
(they are assumptions of the model, not artifacts of this sampler):

* Active uplink interferers form an independent Poisson field with density
  lambda_m + lambda_s (one scheduled user per cell on average) in which no
  interferer lies closer to the receiving BS than the served user does.
* The downlink interference field consists of every other BS of both tiers,
  each no closer (in power-weighted terms) than the serving BS.

Randomness is keyed: every operation derives its generators from (seed,
operation tag, batch index) via numpy's SeedSequence, coverage also from its
law's code, so results are bit-reproducible for a given (params, seed,
trials), and validation runs at two seeds share no stream.
Each estimator is a job: independent batches and their reduction (_Job).
The batches of any list of jobs run in parallel on the process's CPUs as one
dispatch (_run_jobs, on a thread pool that lives for that call only), so a
validation run keeps every CPU busy with the load sampler's single task
running on one thread beside the association and coverage batches.  Each
job is reduced from its own batches in batch order, so no estimate depends
on the number of threads or on the jobs beside it.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .association import Link, Policy, Tier, tier_params
from .config import ScenarioParams

# Operation tags for seed derivation.
_TAG_ASSOCIATION = 2
_TAG_COVERAGE = 3
_TAG_LOAD = 4

_BATCH = 1 << 13
# Interferers are sampled in an annulus beyond the trial's exclusion radius
# of the area of a disc of 3 typical spacings, so each field of each trial
# draws Poisson(3^2 = 9) of them; the field beyond enters through its
# Laplace functional.  The coverage standard errors come from the serving
# distance, not the sampled near field: they stay within 0.3% for spans of
# 2 to 7.
_INTERFERER_SPAN = 3.0
_LOAD_TAIL_LOG = math.log(1e9)
# Slack of the load sampler's search and lookup bounds, in radii of the
# widest BS disc of a trial.
_LOOKUP_MARGIN = 1e-6
# Spacing of the load sampler's probe lattice, in typical user spacings
# 1 / sqrt(lambda_u).  A coarser lattice has fewer probes to look up but is
# noisier where cells are much smaller than h^2, as a probe there is a coin
# flip worth lambda_u h^2 users.  At 1.15 no load estimate's standard error
# exceeds that of Poisson users in any scenario of the load tests, 40 dB
# apart tier powers (tiny max-power small cells) being the tightest.
_PROBE_SPACING = 1.15
# The load sampler refuses a BS process expected to hold more points, or a
# probe lattice with more candidate sites, than this over all its trials
# (about 0.5 GB of coordinates); at the reference point the lattice has
# 1.44e5 sites for 250 trials, about 1.10e5 of them probes (441 per trial).
_MAX_LOAD_POINTS = float(1 << 25)
# Side of the load sampler's search cells, in typical BS spacings
# 1 / sqrt(lambda), before rounding to whole probe spacings: about one BS
# per cell, so a probe's 3 x 3 cells hold about 9 candidates and few probes
# need the pass over their whole trial.
_CELL_SIDE = 1.0
# Trials whose probes and cells the load sampler lays out and searches at a
# time: at 12 the cells and the whole-trial pass's candidate arrays stay
# small.
_LOAD_BLOCK = 12


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _Job:
    """An estimate as `count` batches, batch(i) depending on i alone, and
    the reduction of their results, given in batch order, to the estimate."""

    batch: Callable[[int], object]
    count: int
    reduce: Callable[[list], object]


def _run_jobs(jobs: list[_Job]) -> list:
    """Each job's estimate, the batches of all jobs run on up to one thread per CPU.

    The calling thread and min(batches, CPUs) - 1 helper threads, from a
    pool made for this call alone, claim the batches one at a time in job
    order, so a long job of one batch given first starts at once and the
    other threads fill in around it; one CPU starts no thread.  Each job is
    reduced from its own batches in batch order, so its estimate is the one
    it gives run alone, for any thread count.  Once a batch raises no
    further batch is claimed, and when every thread has stopped the
    exception is re-raised as it was.  A batch that calls _run_jobs gets a
    pool of its own.  Before the batches run, one 4 MiB block is allocated
    and freed for glibc's malloc (below).
    """
    # glibc maps each block above its mmap threshold (128 KiB at start)
    # afresh, so its pages fault in on every use, and raises that threshold,
    # and the trim threshold to twice it, to the size of a mapped block once
    # one is freed (mallopt(3)).  Freeing 4 MiB here keeps the coverage
    # batches' arrays of up to a few MB on the heap, where their pages are
    # reused; other allocators just free the block.
    np.empty(1 << 22, dtype=np.uint8)
    tasks = [(job.batch, index) for job in jobs for index in range(job.count)]
    results = [None] * len(tasks)
    lock = threading.Lock()
    next_task = 0

    def drain() -> None:
        nonlocal next_task
        while True:
            with lock:
                task = next_task
                next_task += 1
            if task >= len(tasks):
                return
            batch, index = tasks[task]
            try:
                results[task] = batch(index)
            except BaseException:
                with lock:
                    next_task = len(tasks)
                raise

    threads = min(len(tasks), _cpu_count())
    # The pool starts a thread only for work submitted to it.
    with ThreadPoolExecutor(max(threads - 1, 1), thread_name_prefix="hetmec-batch") as pool:
        helpers = [pool.submit(drain) for _ in range(threads - 1)]
        drain()
    for helper in helpers:
        helper.result()
    estimates = []
    start = 0
    for job in jobs:
        estimates.append(job.reduce(results[start:start + job.count]))
        start += job.count
    return estimates


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int


def _nearest_distances(rng: np.random.Generator, density: float, n: int) -> np.ndarray:
    """Distance from the origin to the nearest point of a PPP, per trial.

    The nearest point of a PPP of density lambda lies at squared distance
    d^2 = -log(U) / (pi lambda) for U uniform on (0, 1), one uniform per
    trial; an empty process has no nearest point, so every distance is inf.
    """
    if density == 0.0:
        return np.full(n, np.inf)
    u = rng.random(n)
    np.log(u, out=u)
    u *= -1.0 / (math.pi * density)
    return np.sqrt(u, out=u)


def _power_rule_small_wins(params: ScenarioParams, d_m: np.ndarray, d_s: np.ndarray) -> np.ndarray:
    alpha = params.pathloss_exponent
    with np.errstate(divide="ignore"):
        return params.small.tx_power * d_s ** -alpha > params.macro.tx_power * d_m ** -alpha


def empirical_association(
    params: ScenarioParams, trials: int, seed: int = 0
) -> dict[str, McEstimate]:
    """Tally the joint (uplink tier, downlink tier) outcome over many trials.

    Each trial samples both tiers fresh, puts the probe user at the origin,
    and applies the nearest-BS rule for the uplink and the max-power rule
    for the downlink (the coupled outcome is the downlink winner).  Returns
    an estimate per outcome, keyed by its validation row name.
    """
    return _run_jobs([_association_job(params, trials, seed)])[0]


def _association_job(params: ScenarioParams, trials: int, seed: int) -> _Job:
    """empirical_association as a job."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    def batch(index: int) -> tuple[int, ...]:
        rng = _rng(seed, _TAG_ASSOCIATION, index)
        n = min(_BATCH, trials - index * _BATCH)
        d_m = _nearest_distances(rng, params.macro.density, n)
        d_s = _nearest_distances(rng, params.small.density, n)
        dl_small = _power_rule_small_wins(params, d_m, d_s)
        ul_small = d_s < d_m
        return (
            int(np.sum(ul_small & dl_small)),
            int(np.sum(~ul_small & ~dl_small)),
            int(np.sum(ul_small & ~dl_small)),
            int(np.sum(~ul_small & dl_small)),
            int(np.sum(dl_small)),
        )

    def estimate(k: int) -> McEstimate:
        p = k / trials
        return McEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)

    def reduce(batches: list) -> dict[str, McEstimate]:
        # Integer counts: their sums are exact whatever the batches' threads.
        ss, mm, sm, ms, coupled_s = map(sum, zip(*batches))
        return {
            "assoc_dec_small_small": estimate(ss),
            "assoc_dec_macro_macro": estimate(mm),
            "assoc_dec_small_macro": estimate(sm),
            "assoc_dec_macro_small": estimate(ms),
            "assoc_coupled_small": estimate(coupled_s),
            "assoc_coupled_macro": estimate(trials - coupled_s),
        }

    return _Job(batch, -(-trials // _BATCH), reduce)


def _serving_rule(policy: Policy, link: Link) -> str:
    if policy is Policy.COUPLED or link is Link.DL:
        return "power"
    return "nearest"


def _far_field_exponent(density: float, root: np.ndarray, outer2: np.ndarray | float) -> np.ndarray:
    """-log E[exp(-s I_far)] for the Rayleigh-faded PPP field beyond radius R.

    At alpha = 4 the Poisson Laplace functional over r > R is
    exp(-lambda pi * integral_{R^2}^inf sP / (sP + t^2) dt), and the
    integral is sqrt(sP) * arctan(sqrt(sP) / R^2); `root` is sqrt(sP).
    """
    return density * math.pi * root * np.arctan(root / outer2)


@functools.cache
def _poisson_cdf(mean: float) -> np.ndarray:
    """P(N <= k) for N ~ Poisson(mean), k = 0, 1, ..., K, read-only.

    The probabilities run exp(-mean), then p_k = p_(k-1) mean / k, each
    within a few units in the last place while exp(-mean) is a normal
    double (mean below 708).  K is the first index with K + 1 > 2 mean and
    p_K < 2^-54: every later ratio mean / k is below 1/2, so the mass beyond
    K is below p_K.
    """
    pmf = [math.exp(-mean)]
    while len(pmf) <= 2.0 * mean or pmf[-1] >= 2.0**-54:
        pmf.append(pmf[-1] * mean / len(pmf))
    cdf = np.cumsum(pmf)
    cdf.flags.writeable = False
    return cdf


def _field_exponent(
    rng: np.random.Generator, density: float, gamma: float, exclusion2: np.ndarray
) -> tuple[np.ndarray, int]:
    """-log of one interferer field's success factor, and its interferer count.

    Interferers of a Rayleigh-faded PPP of the given density lie beyond the
    per-trial exclusion radius e.  The ones in the annulus out to the
    trial's outer radius R, R^2 = e^2 + A with A = _INTERFERER_SPAN^2 /
    (pi density), are sampled; the field beyond R enters through its
    Laplace functional.  Every trial's count is then Poisson(span^2),
    whatever e: one uniform per trial, inverted through _poisson_cdf
    (the first k with u < P(N <= k)).  Every field of the sampler has
    sP = gamma e^4 at alpha = 4 (e^2 = factor x^2, _CoverageLaw), so an
    interferer at d = r^2 / e^2 has the fade-averaged factor
    E exp(-s P h / r^4) = 1 / (1 + gamma / d^2).  The interferers are drawn
    trial after trial, each trial's one contiguous segment: d uniform in
    r^2 on [1, R^2 / e^2], then the product of 1 + (sqrt(gamma) / d)^2,
    which no d overflows, over each segment.  A trial that draws no
    interferer has the far field alone.
    """
    area2 = _INTERFERER_SPAN * _INTERFERER_SPAN / (math.pi * density)
    cdf = _poisson_cdf(_INTERFERER_SPAN * _INTERFERER_SPAN)
    counts = np.searchsorted(cdf, rng.random(exclusion2.size), side="right")
    total = int(counts.sum())
    d = rng.random(total)
    d *= np.repeat(area2 / exclusion2, counts)
    d += 1.0
    root_gamma = math.sqrt(gamma)
    np.divide(root_gamma, d, out=d)
    d *= d
    d += 1.0
    # reduceat multiplies from one start to the next, so only nonempty
    # segments may be given: an empty one would yield its next point, not 1.
    drew = counts > 0
    near = np.ones(exclusion2.size)
    with np.errstate(over="ignore"):  # a product past the largest double: success 0
        near[drew] = np.multiply.reduceat(d, (np.cumsum(counts) - counts)[drew])
    exponent = np.log(near, out=near)
    exponent += _far_field_exponent(density, root_gamma * exclusion2, exclusion2 + area2)
    return exponent, total


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


@dataclass(frozen=True)
class _CoverageLaw:
    """What the coverage batches of one (policy, link, tier) draw from,
    besides gamma, trials and seed: `code` keys their streams, x^2 ~
    Exp(rate) is the squared serving distance, `tx_power` the serving
    transmitter's power, and each field (density, factor) a PPP beyond
    squared distance factor * x^2."""

    code: int
    rate: float
    tx_power: float
    fields: tuple[tuple[float, float], ...]


def _coverage_law(params: ScenarioParams, policy: Policy, link: Link, tier: Tier) -> _CoverageLaw:
    """The coverage law of (policy, link, tier).  The uplink field is the
    module docstring's, with factor 1; max-power association to tier k
    keeps each tier j beyond (P_j / P_k)^(2/alpha) x^2, one downlink field
    per tier of positive density, macro first.  Nothing in the nearest
    rule's law (code 0, the decoupled uplink) names a tier."""
    rule = _serving_rule(policy, link)
    rate = math.pi * _serving_slope(params, rule, tier)
    if link is Link.UL:
        tx_power = params.user_tx_power
        fields = ((params.macro.density + params.small.density, 1.0),)
    else:
        tx_power = tier_params(params, tier).tx_power
        fields = tuple(
            (other.density, (other.tx_power / tx_power) ** (2.0 / params.pathloss_exponent))
            for other in (params.macro, params.small)
            if other.density > 0.0
        )
    code = 0 if rule == "nearest" else 1 + 2 * (link is Link.DL) + (tier is Tier.SMALL)
    return _CoverageLaw(code, rate, tx_power, fields)


def _coverage_values(
    rng: np.random.Generator,
    params: ScenarioParams,
    law: _CoverageLaw,
    gamma: float,
    x2: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Each trial's success probability given x2 and its interferers, and
    the interferer count: the law's field exponents summed in order, plus
    the noise term gamma N / P_tx * x^4."""
    exponent = np.zeros(x2.size)
    sampled = 0
    for density, factor in law.fields:
        field_exponent, field_sampled = _field_exponent(rng, density, gamma, factor * x2)
        exponent += field_exponent
        sampled += field_sampled
    exponent += gamma * params.noise_power / law.tx_power * x2 * x2
    return np.exp(-exponent), sampled


def empirical_coverage(
    params: ScenarioParams,
    policy: Policy,
    link: Link,
    tier: Tier,
    gamma: float,
    trials: int,
    seed: int = 0,
) -> CoverageEstimate:
    """Empirical SINR coverage for one (policy, link, tier) combination.

    Every trial is served by `tier` and drawn from the law of (policy,
    link, tier) (_coverage_law): x^2 ~ Exp(rate), one standard exponential
    per trial, then its fields, so the trial is exact without conditioning
    by rejection.  Each trial contributes its success probability given
    the point process, exp(-s N) * prod_j 1 / (1 + gamma / d_j^2) * L_far
    with s = gamma x^4 / P_tx and d_j = r_j^2 / e^2 (_coverage_values), so
    the serving and the interferers' fades are averaged out exactly, and
    the standard error is the sample standard deviation over sqrt(trials).
    Batch i draws from the generator keyed by (seed, law code, i).
    """
    return _run_jobs([_coverage_job(params, policy, link, tier, gamma, trials, seed)])[0]


def _coverage_job(
    params: ScenarioParams,
    policy: Policy,
    link: Link,
    tier: Tier,
    gamma: float,
    trials: int,
    seed: int,
) -> _Job:
    """empirical_coverage as a job."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if tier_params(params, tier).density == 0.0:
        raise ValueError(f"tier {tier.value} has zero density; coverage is undefined")
    law = _coverage_law(params, policy, link, tier)

    def batch(index: int) -> tuple[np.ndarray, int]:
        rng = _rng(seed, _TAG_COVERAGE, law.code, index)
        x2 = rng.standard_exponential(min(_BATCH, trials - index * _BATCH))
        x2 /= law.rate
        return _coverage_values(rng, params, law, gamma, x2)

    def reduce(batches: list) -> CoverageEstimate:
        v = np.concatenate([values for values, _ in batches])
        interferers = sum(sampled for _, sampled in batches)
        std_error = float(np.std(v, ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
        return CoverageEstimate(float(np.mean(v)), std_error, trials, interferers)

    return _Job(batch, -(-trials // _BATCH), reduce)


def _load_regions(params: ScenarioParams) -> dict:
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
    r_user = max(picks[t] + joint_tails[t] for t in picks)
    r_bs = {t: r_user + tails[t] for t in tails}
    return {"picks": picks, "r_user": r_user, "r_bs": r_bs}


def _needs_small_lookup(
    d_m: np.ndarray,
    macro_interior: np.ndarray,
    user_radial: np.ndarray,
    pick_small: float,
    margin: float,
) -> np.ndarray:
    """Users whose nearest small-cell BS can change an in-region cell count.

    A user at distance rho from its trial centre lies at least
    rho - pick_small from every in-region small BS.  If its nearest macro BS
    is out of region and nearer than that, every in-region small BS loses to
    it under the nearest rule and, as P_m >= P_s, under the max-power rule:
    the user is served out of region whatever its nearest small BS is.  The
    margin, _LOOKUP_MARGIN radii of a trial's widest BS disc, keeps the
    bound clear of the rounding of coordinates that far from the trial
    centre.
    """
    bound = user_radial - (pick_small + margin)
    return macro_interior | (d_m >= bound)


def _firsts(groups: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of `groups` starts."""
    new = np.empty(groups.size, dtype=bool)
    new[:1] = True
    np.not_equal(groups[1:], groups[:-1], out=new[1:])
    return np.flatnonzero(new)


def _runs(lo: np.ndarray, count: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers lo[k] .. lo[k] + count[k] - 1 of every run k, laid end
    to end, and each one's owner[k]."""
    at = np.repeat(lo + count - np.cumsum(count), count)
    at += np.arange(at.size)
    return at, np.repeat(owner, count)


def _scan(bx, by, x, column, y, row, lo, count, owner, best2, best) -> None:
    """The nearest candidate BS to each site of some owners.

    Owner k holds the c x c sites (x[a, column[k]], y[b, row[k]]), a, b < c,
    and its candidates are the BSs, at bx and by, of the sorted positions
    of its runs among (lo, count, owner) (_runs).  One owner's runs are
    adjacent and ascending, so its first candidate at a distance is the
    first sorted position at it.  Entry (a, b, k) of best2 and best becomes
    site (a, b) of owner k's least dx^2 + dy^2 and the first sorted
    position at it; an owner with no candidate keeps its entries.
    """
    at, who = _runs(lo, count, owner)
    # Each candidate's distances along x to its owner's c site columns, and
    # along y to its c site rows: (c, candidates) arrays in C order, so that
    # the sums d2 below are too.
    dx = np.take(x, column[who], axis=1)
    dx -= bx[at]
    dx *= dx
    dy = np.take(y, row[who], axis=1)
    dy -= by[at]
    dy *= dy
    d2 = dx[:, None, :] + dy[None, :, :]
    first = _firsts(who)
    best2[:, :, who[first]] = np.minimum.reduceat(d2, first, axis=2)
    # Each site's first candidate at its best distance, the hits of one
    # site being adjacent.
    hit = np.flatnonzero(d2 == best2[:, :, who])
    candidate = hit % at.size
    site = hit // at.size * best2.shape[2] + who[candidate]
    firsts = _firsts(site)
    best.reshape(-1)[site[firsts]] = at[candidate[firsts]]


class _Cells:
    """The BSs of one block of trials, counting-sorted into square cells
    aligned with the block's probe lattice.

    Each trial has its own frame about its centre, and trials are counted
    from the block's first.  Trial t's cell (m, n),
    0 <= m, n < width, covers the points of trial t whose coordinates lie in
    corner[:, t] + side * ([m, m + 1) x [n, n + 1)).  A cell holds c x c
    sites of the trial's probe lattice, of spacing side / c: site column i
    (_probe_lattice) lies in cell column lead + i // c, and likewise for
    rows.  Every BS lies in a cell of its trial and no site in the
    outermost ring, so the 3 x 3 cells about a site's cell are cells of
    its trial.  Cell k = (t * width + n) * width + m holds the BSs at
    sorted positions starts[k] .. starts[k + 1] - 1, so trial t's BSs are
    those at starts[t * width^2] .. starts[(t + 1) * width^2] - 1, with
    coordinates bx, by; the BS at sorted position j is row order[j] of the
    BSs given.  The index holds one entry per BS and per cell, a few per BS
    at about one BS a cell, and lives as long as its block's searches.
    """

    def __init__(self, bs, bs_trial, corner, side: float, width: int, c: int, lead: int):
        self.side = side
        self.width = width
        self.c = c
        self.lead = lead
        # Each BS's position from its trial's corner, in cell sides.
        u = bs[:, 0] - corner[0, bs_trial]
        u /= side
        v = bs[:, 1] - corner[1, bs_trial]
        v /= side
        # Cell keys from 1, so that the running sum of the keys' counts
        # starts at 0.
        key = bs_trial * (width * width)
        key += np.floor(v).astype(np.int64) * width
        key += np.floor(u).astype(np.int64)
        del u, v
        key += 1
        self.order = np.argsort(key, kind="stable")
        self.starts = np.bincount(key, minlength=corner.shape[1] * width * width + 1)
        del key
        np.cumsum(self.starts, out=self.starts)
        self.bx = bs[self.order, 0]
        self.by = bs[self.order, 1]


def _nearest_bs(
    cells: _Cells, x: np.ndarray, y: np.ndarray, probe: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's nearest BS in its own trial: its distance and its row.

    The probes are the sites of a probe lattice that `probe` marks: x and y
    hold the sites' x and y coordinates per trial (_probe_lattice) for the
    trials of `cells`, probe[t, i, j] marks site (x[t, i], y[t, j]), and the
    results follow the probes in C order.  Each probe's trial must hold a
    BS of `cells`.

    A probe scans the 3 x 3 cells about its own.  The sites of one cell
    share its candidates, so the scan runs per cell that holds a probe: a
    candidate's squared distances to the cell's sites are the sums
    dx^2 + dy^2 over the cell's c site columns and c rows.  No BS outside
    those cells is nearer than side + e, e >= half a spacing being the
    site's distance to its cell's edge, so only a probe whose best squared
    distance still exceeds (side + e - margin)^2 scans every BS of its
    trial, in one pass; `margin` covers the rounding of the coordinates.
    At about one BS a cell few probes need that pass, and the search takes
    expected constant time per probe (Bentley, Weide and Yao, ACM TOMS
    1980).  Both passes run _scan: the 3 x 3 scan on the held cells, each
    with three runs, and the pass on each probe alone, with one run.
    Distances are sqrt(dx^2 + dy^2), as scipy's cKDTree takes them, so
    both give the same bits: every search returns the exact nearest BS.
    """
    c, width = cells.c, cells.width
    trials, sites = x.shape
    # Whole cells of sites: the padding at the high end holds no probe, so
    # the probes keep their C order.
    pad = -sites % c
    if pad:
        sites += pad
        x, y = (np.concatenate((a, np.zeros((trials, pad))), axis=1) for a in (x, y))
        wide = np.zeros((trials, sites, sites), dtype=bool)
        wide[:, :-pad, :-pad] = probe
        probe = wide
    per_axis = sites // c
    t, column, row = np.indices((trials, per_axis, per_axis)).reshape(3, -1)
    own = (t * width + cells.lead + row) * width + cells.lead + column
    # A cell that holds no probe is not scanned: its sites' results go unread.
    held = np.flatnonzero(probe.reshape(trials, per_axis, c, per_axis, c).any(axis=(2, 4)))
    # The 3 x 3 cells about each held cell as three runs of sorted
    # positions: the rows below, at and above it, each from one column
    # left of it to one right.
    rows = own[held, None] + np.array([-width, 0, width])
    lo = cells.starts[rows - 1]
    count = cells.starts[rows + 2]
    count -= lo
    # Entry (a, b, k): site (a, b) of cell k.
    best2 = np.full((c, c, own.size), np.inf)
    best = np.zeros((c, c, own.size), dtype=np.int64)
    t *= per_axis
    _scan(
        cells.bx, cells.by, x.reshape(-1, c).T, t + column, y.reshape(-1, c).T, t + row,
        lo.ravel(), count.ravel(), np.repeat(held, 3), best2, best,
    )

    def at_probes(a):
        shape = (c, c, trials, per_axis, per_axis)
        return a.reshape(shape).transpose(2, 3, 0, 4, 1).reshape(probe.shape)[probe]

    best2, best = at_probes(best2), at_probes(best)
    # Site (i, j) is site (i % c, j % c) of its cell, half a spacing or
    # more from the cell's edge.
    rim = np.arange(sites) % c + 0.5
    rim = np.minimum(rim, c - rim)
    edge = np.minimum(rim[:, None], rim[None, :])
    edge *= cells.side / c
    edge -= margin
    bound = np.broadcast_to(edge, probe.shape)[probe]
    bound += cells.side
    far = np.flatnonzero(best2 > bound * bound)
    t, i, j = np.unravel_index(np.flatnonzero(probe)[far], probe.shape)
    start = t * (width * width)
    lo = cells.starts[start]
    # Each far probe is an owner of one site, whose one run is every BS of
    # its trial, its 3 x 3 candidates among them.
    near2, near = best2[far], best[far]
    t *= sites
    _scan(
        cells.bx, cells.by, x.reshape(1, -1), t + i, y.reshape(1, -1), t + j,
        lo, cells.starts[start + width * width] - lo, np.arange(far.size),
        near2.reshape(1, 1, -1), near.reshape(1, 1, -1),
    )
    best2[far], best[far] = near2, near
    return np.sqrt(best2, out=best2), cells.order[best]


def _lattice_cells(
    bs: np.ndarray,
    bs_trial: np.ndarray,
    shifts: np.ndarray,
    spacing: float,
    radius: float,
    density: float,
    reach: float,
) -> _Cells:
    """A tier's cells aligned with the probe lattice of spacing h: c x c
    sites to a cell, c the whole number nearest _CELL_SIDE / (sqrt(lambda)
    h) (at least 1), site column i of _probe_lattice lying in cell column
    lead + i // c, and likewise for rows.  Inside their outer ring the
    cells cover each trial's square of half-width `reach`, the radius of
    its BS disc, and hold every site of the lattice padded at its high end
    to whole cells (_nearest_bs)."""
    half = _lattice_half(radius / spacing)
    c = max(1, round(_CELL_SIDE / (math.sqrt(density) * spacing)))
    side = c * spacing
    # Site -half + s (s the shift) lies half a spacing inside the edge of
    # column lead; lead - 1 columns reach -reach, and the last but one
    # reaches +reach, whatever the shift.
    lead = 1 + max(0, math.ceil((reach - (half - 0.5) * spacing) / side))
    width = lead + math.ceil((reach + (half + 0.5) * spacing) / side) + 1
    corner = (shifts[:, :, 0] - (half + 0.5)) * spacing - lead * side
    return _Cells(bs, bs_trial, corner, side, width, c, lead)


def _probe_shifts(
    rng: np.random.Generator, user_density: float, radius: float, trials: int
) -> tuple[np.ndarray, float]:
    """The probe lattice's shifts, one per trial, and its spacing.

    The lattice has spacing h = _PROBE_SPACING / sqrt(lambda_u); trial t's
    shift is shifts[:, t], uniform in [0, 1)^2 lattice spacings.  Raises
    RuntimeError, naming the probe lattice, before drawing when the
    candidate sites of all trials (_probe_lattice) would number more than
    _MAX_LOAD_POINTS.
    """
    spacing = _PROBE_SPACING / math.sqrt(user_density)
    reach = radius / spacing
    half = _lattice_half(reach)
    if (2 * half) ** 2 * trials > _MAX_LOAD_POINTS:
        raise RuntimeError(
            f"the probe lattice of the load sampler would span {(2 * half) ** 2:.3g} "
            f"sites per trial (about {math.pi * reach * reach:.3g} probes) over "
            f"{trials} trials, more than {_MAX_LOAD_POINTS:.3g} in all; its "
            "spacing is too fine for its window"
        )
    return rng.random((2, trials, 1)), spacing


def _lattice_half(reach: float) -> float:
    """Whatever the shift, only the sites -half .. half - 1 of each axis
    can lie in the disc of radius reach lattice spacings."""
    return math.floor(reach) + 1 if math.isfinite(reach) else math.inf


def _probe_lattice(shifts: np.ndarray, spacing: float, radius: float):
    """The load sampler's probes: a square lattice in each trial's user disc.

    The lattice of spacing h is shifted in each trial by its uniform shift
    (a Cranley-Patterson rotation, SIAM J. Numer. Anal. 1976), so any
    region of area A holds A / h^2 probes on average and the probes, each
    standing for lambda_u h^2 users, count its users without bias.  Each
    trial of `shifts` (shifts[:, t] being trial t's) has the 2 * half site
    columns and rows from -half that can reach the disc.  Returns each
    probe's trial (its index into `shifts`) and distance to its trial
    centre, the sites' x and y coordinates per trial, each in its trial's
    frame like the BSs, and the mask of the sites that are probes, whose
    order (C order) the probes follow.
    """
    half = _lattice_half(radius / spacing)
    sites = np.arange(-half, half)
    # Site coordinates of each trial, one row per trial.
    x = (sites + shifts[0]) * spacing
    y = (sites + shifts[1]) * spacing
    r2 = x[:, :, None] ** 2 + y[:, None, :] ** 2
    inside = r2 <= radius * radius
    return np.nonzero(inside)[0], np.sqrt(r2[inside]), x, y, inside


@dataclass(frozen=True)
class LoadEstimates:
    """Users per BS under both association rules, with the sampler's counts.

    `by_rule` maps "power" and "nearest" to {tier: estimate}; `probes`
    counts the lattice probes, `spacing` is their lattice spacing in meters,
    and `small_lookups` counts the probes whose nearest small-cell BS was
    looked up.
    """

    by_rule: dict[str, dict[Tier, McEstimate]]
    probes: int
    spacing: float
    small_lookups: int


def _load_job(params: ScenarioParams, trials: int, seed: int) -> _Job:
    """_load_estimates as a job of one batch."""
    return _Job(lambda _: _load_estimates(params, trials, seed), 1, lambda batches: batches[0])


def _load_estimates(params: ScenarioParams, trials: int, seed: int) -> LoadEstimates:
    """Users per BS under both association rules, both tiers, from one pass.

    Each trial lies in its own frame about its centre, and a probe's
    nearest BS is searched for among its own trial's BSs alone
    (_nearest_bs); the searches do not depend on the rule, so one
    realization of BSs and lattice probes serves both.  Both BS processes
    and every trial's lattice shift are drawn first.  Then, _LOAD_BLOCK
    trials at a time, the block's probes are laid out (_probe_lattice),
    each tier's BSs of the block, contiguous rows as the draws run trial
    after trial, are sorted into cells on the block's lattice
    (_lattice_cells), and the probes are searched in each tier as the
    lattice sites they are (_nearest_bs) and booked to their BSs.  Only
    integer per-trial counts of the probes that in-region BSs serve outlive
    a block: the totals a sum over the BSs would give, exactly.  The
    estimate is the ratio of the users counted by probes served by
    in-region BSs to the in-region BS count (unbiased for the typical cell;
    the BS nearest the origin would be size-biased).  Everything runs on
    the calling thread: in a validation run this is the one batch of
    _load_job, and the other batches of its dispatch keep the other CPUs
    busy.

    Every probe's nearest macro BS is searched for, its nearest small-cell
    BS only where that can change an in-region count (_needs_small_lookup:
    the nearest macro BS is in-region, or no nearer than
    rho - pick_small - margin, rho being the probe's distance to its trial
    centre).  Any other probe is served out of region under both rules, so
    it is booked to its nearest macro BS.  The estimates are thus those of
    looking up every probe in both tiers, bit for bit; the rules compare
    the distances of the looked-up probes alone.

    Raises RuntimeError, naming the process or the probe lattice, when a
    Poisson mean is not finite or one process or the lattice would hold
    more than _MAX_LOAD_POINTS points.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    geo = _load_regions(params)
    rng = _rng(seed, _TAG_LOAD)
    margin = _LOOKUP_MARGIN * max(geo["r_bs"].values())
    rules = ("power", "nearest")

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
        # Distance from the trial centre.
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
        interior = radial <= geo["picks"][tier]
        # The rows of trial t's BSs are bounds[t] .. bounds[t + 1] - 1.
        bounds = np.zeros(trials + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        bs[tier] = {
            "pts": pts,
            "bounds": bounds,
            "interior": interior,
            # Per trial: the in-region BSs, and per rule the probes they serve.
            "in_region": np.add.reduceat(interior, bounds[:-1], dtype=np.int64),
            "served": {rule: np.zeros(trials, dtype=np.int64) for rule in rules},
        }
        del radial

    shifts, spacing = _probe_shifts(rng, params.user_density, geo["r_user"], trials)

    def search(tier: Tier, block: slice, x, y, probe):
        """The nearest BS of the tier to each probe of the block's trials:
        its distance, and whether it is in-region."""
        bounds = bs[tier]["bounds"][block.start:block.stop + 1]
        rows = slice(bounds[0], bounds[-1])
        cells = _lattice_cells(
            bs[tier]["pts"][rows], np.repeat(np.arange(bounds.size - 1), np.diff(bounds)),
            shifts[:, block], spacing, geo["r_user"], tier_params(params, tier).density,
            geo["r_bs"][tier],
        )
        d, i = _nearest_bs(cells, x, y, probe, margin)
        return d, bs[tier]["interior"][rows][i]

    macro, small = bs[Tier.MACRO], bs[Tier.SMALL]
    n_probes = 0
    small_lookups = 0
    for start in range(0, trials, _LOAD_BLOCK):
        block = slice(start, min(start + _LOAD_BLOCK, trials))
        probe_trial, probe_radial, x, y, inside = _probe_lattice(
            shifts[:, block], spacing, geo["r_user"]
        )
        n_probes += probe_trial.size
        d_m, macro_in = search(Tier.MACRO, block, x, y, inside)
        asked = np.zeros(0, dtype=np.int64)
        if small is not None:
            needed = _needs_small_lookup(
                d_m, macro_in, probe_radial, geo["picks"][Tier.SMALL], margin
            )
            asked = np.flatnonzero(needed)
        small_lookups += asked.size
        # A probe not asked about is served out of region whichever tier
        # wins, so it is booked to its macro BS under both rules.
        d_s, small_in = np.zeros(0), np.zeros(0, dtype=bool)
        if asked.size:
            looked_up = np.zeros_like(inside)
            looked_up[inside] = needed
            d_s, small_in = search(Tier.SMALL, block, x, y, looked_up)
        d_m_asked = d_m[asked]
        small_wins_by_rule = {
            "power": _power_rule_small_wins(params, d_m_asked, d_s),
            "nearest": d_s < d_m_asked,
        }
        for rule, small_wins in small_wins_by_rule.items():
            macro_wins = np.ones(probe_trial.size, dtype=bool)
            macro_wins[asked[small_wins]] = False
            macro_wins &= macro_in
            macro["served"][rule][block] += np.bincount(
                probe_trial[macro_wins], minlength=block.stop - block.start
            )
            if asked.size:
                small_wins &= small_in
                small["served"][rule][block] += np.bincount(
                    probe_trial[asked[small_wins]], minlength=block.stop - block.start
                )

    users_per_probe = params.user_density * spacing * spacing
    out = {}
    for rule in rules:
        out[rule] = {}
        for tier, info in bs.items():
            if info is None:
                out[rule][tier] = McEstimate(0.0, 0.0, trials)
                continue
            # Integer counts: each total is the one a sum over BSs gives.
            totals = info["served"][rule] * users_per_probe
            cells = info["in_region"]
            total_cells = int(cells.sum())
            if total_cells == 0:
                raise RuntimeError("no interior cells sampled; increase trials")
            est = float(totals.sum()) / total_cells
            residuals = totals - est * cells
            var = float(np.sum(residuals**2)) / (total_cells**2)
            if trials > 1:
                var *= trials / (trials - 1)
            out[rule][tier] = McEstimate(est, math.sqrt(var), trials)
    return LoadEstimates(out, n_probes, spacing, small_lookups)
