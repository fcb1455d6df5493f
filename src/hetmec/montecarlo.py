"""Monte Carlo point-process oracle for the closed-form model.

Everything here samples the geometry directly: homogeneous Poisson point
processes for both BS tiers and the users, max-power or nearest-BS
association applied to the sampled points, exponential (Rayleigh-power)
fading on every link, and SINR tallies.  No coverage integral or
association formula is consulted, so agreement with the analytic modules is
evidence of implementation fidelity.

Two modeling conventions are intentionally mirrored from the analytic side
(they are assumptions of the model, not artifacts of this sampler):

* Active uplink interferers form an independent Poisson field with density
  lambda_m + lambda_s (one scheduled user per cell on average) in which no
  interferer lies closer to the receiving BS than the served user does.
* The downlink interference field consists of every other BS of both tiers,
  each no closer (in power-weighted terms) than the serving BS.

Randomness is keyed: every operation derives its generators from
(seed, operation tag, batch index) via numpy's SeedSequence, so results are
bit-reproducible for a given (params, seed, trials) and batches could be
evaluated in parallel and reduced associatively without changing them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .association import Link, Policy, Tier, tier_params
from .config import ScenarioParams

# Operation tags for seed derivation.
_TAG_ASSOCIATION = 2
_TAG_COVERAGE = 3
_TAG_LOAD = 4

_BATCH = 1 << 14
# Radius multiplier for nearest-BS sampling: void probability exp(-27.6).
_VOID_LOG = math.log(1e12)
# Interferer fields are truncated at 20 typical spacings; the mean of the
# clipped far field is added back deterministically.
_INTERFERER_SPAN = 20.0
_LOAD_TAIL_LOG = math.log(1e9)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


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


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    cumulative = np.concatenate(([0.0], np.cumsum(values)))
    ends = np.cumsum(counts)
    starts = ends - counts
    return cumulative[ends] - cumulative[starts]


def _nearest_distances(
    rng: np.random.Generator, density: float, n: int, window_scale: float
) -> tuple[np.ndarray, int]:
    """Distance from the origin to the nearest point of a PPP, per trial.

    Points are sampled in a disc wide enough that an empty draw is a
    ~1e-12 event; empty draws are resampled and counted.
    """
    if density == 0.0:
        return np.full(n, np.inf), 0
    radius = math.sqrt(_VOID_LOG / (math.pi * density)) * window_scale
    out = np.empty(n)
    pending = np.arange(n)
    resampled = 0
    while pending.size:
        counts = rng.poisson(density * math.pi * radius * radius, pending.size)
        d2 = radius * radius * rng.random(int(counts.sum()))
        filled = counts > 0
        if filled.any():
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            mins = np.minimum.reduceat(d2, starts[filled])
            out[pending[filled]] = np.sqrt(mins)
        pending = pending[~filled]
        resampled += int(pending.size)
    return out, resampled


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


def _uplink_interference(
    rng: np.random.Generator,
    params: ScenarioParams,
    x: np.ndarray,
    window_scale: float,
) -> np.ndarray:
    """Interference at the serving BS from the active-uplink user field.

    Interferers live outside the disc of radius x around the receiver; the
    field is truncated at R and the truncated tail enters by its mean.
    """
    lam = params.macro.density + params.small.density
    alpha = params.pathloss_exponent
    outer = max(_INTERFERER_SPAN / math.sqrt(math.pi * lam), 1.5 * float(x.max()))
    outer *= window_scale
    outer2 = outer * outer
    x2 = x * x
    counts = rng.poisson(lam * math.pi * (outer2 - x2))
    total = int(counts.sum())
    inner = np.repeat(x2, counts)
    r2 = inner + rng.random(total) * (outer2 - inner)
    fading = rng.exponential(1.0, total)
    contrib = params.user_tx_power * fading * r2 ** (-alpha / 2.0)
    far_mean = lam * math.pi * params.user_tx_power / outer2
    return _segment_sums(contrib, counts) + far_mean


def _downlink_interference(
    rng: np.random.Generator,
    params: ScenarioParams,
    serving: Tier,
    x: np.ndarray,
    window_scale: float,
) -> np.ndarray:
    """Interference at the user from every non-serving BS of both tiers.

    Max-power association to the serving tier at distance x keeps every
    tier-j BS beyond (P_j / P_serving)**(1/alpha) * x.
    """
    alpha = params.pathloss_exponent
    p_serving = tier_params(params, serving).tx_power
    total_interference = np.zeros(x.size)
    for tier in (Tier.MACRO, Tier.SMALL):
        tier_p = tier_params(params, tier)
        if tier_p.density == 0.0:
            continue
        exclusion2 = (tier_p.tx_power / p_serving) ** (2.0 / alpha) * x * x
        outer = max(
            _INTERFERER_SPAN / math.sqrt(math.pi * tier_p.density),
            1.5 * math.sqrt(float(exclusion2.max())),
        )
        outer *= window_scale
        outer2 = outer * outer
        counts = rng.poisson(tier_p.density * math.pi * (outer2 - exclusion2))
        total = int(counts.sum())
        inner = np.repeat(exclusion2, counts)
        r2 = inner + rng.random(total) * (outer2 - inner)
        fading = rng.exponential(1.0, total)
        contrib = tier_p.tx_power * fading * r2 ** (-alpha / 2.0)
        far_mean = tier_p.density * math.pi * tier_p.tx_power / outer2
        total_interference += _segment_sums(contrib, counts) + far_mean
    return total_interference


def empirical_coverage(
    params: ScenarioParams,
    policy: Policy,
    link: Link,
    tier: Tier,
    gamma: float,
    trials: int,
    seed: int = 0,
    window_scale: float = 1.0,
) -> McEstimate:
    """Empirical SINR coverage for one (policy, link, tier) combination.

    Trials are conditioned, by rejection, on the association landing on
    `tier`; the count refers to accepted trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if tier_params(params, tier).density == 0.0:
        raise ValueError(f"tier {tier.value} has zero density; coverage is undefined")
    rule = _serving_rule(policy, link)
    alpha = params.pathloss_exponent
    successes = 0
    accepted = 0
    batch_index = 0
    while accepted < trials:
        rng = _rng(seed, _TAG_COVERAGE, batch_index)
        d_m, _ = _nearest_distances(rng, params.macro.density, _BATCH, window_scale)
        d_s, _ = _nearest_distances(rng, params.small.density, _BATCH, window_scale)
        if rule == "power":
            small_wins = _power_rule_small_wins(params, d_m, d_s)
        else:
            small_wins = d_s < d_m
        keep = small_wins if tier is Tier.SMALL else ~small_wins
        x = (d_s if tier is Tier.SMALL else d_m)[keep]
        x = x[: trials - accepted]
        if x.size == 0:
            batch_index += 1
            if batch_index > 4096:
                raise RuntimeError(
                    f"association almost never lands on tier {tier.value}; "
                    "cannot condition the coverage estimate"
                )
            continue
        if link is Link.UL:
            tx_power = params.user_tx_power
            interference = _uplink_interference(rng, params, x, window_scale)
        else:
            tx_power = tier_params(params, tier).tx_power
            interference = _downlink_interference(rng, params, tier, x, window_scale)
        signal = tx_power * rng.exponential(1.0, x.size) * x ** -alpha
        successes += int(np.sum(signal >= gamma * (params.noise_power + interference)))
        accepted += x.size
        batch_index += 1
    p = successes / trials
    return McEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)


def _load_regions(params: ScenarioParams, window_scale: float) -> dict:
    """Geometry for the per-cell load counter.

    Cells are counted only for BSs inside a small pick region; users are
    sampled far enough out to cover every cell of a picked BS, and BSs far
    enough beyond that for every sampled user to see its true nearest BS of
    each tier (tail probabilities ~1e-9).
    """
    tails = {}
    picks = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            continue
        tails[tier] = math.sqrt(_LOAD_TAIL_LOG / (math.pi * lam))
        picks[tier] = 2.0 / math.sqrt(math.pi * lam)
    max_tail = max(tails.values())
    r_user = max(picks[t] + tails[t] for t in picks) * window_scale
    r_bs = r_user + max_tail * window_scale
    return {
        "picks": {t: picks[t] * window_scale for t in picks},
        "r_user": r_user,
        "r_bs": r_bs,
        "spacing": 4.0 * r_bs,
    }


def _mean_loads_by_rule(
    params: ScenarioParams,
    rule: str,
    trials: int,
    seed: int,
    window_scale: float = 1.0,
) -> dict[Tier, McEstimate]:
    """Users per BS under one association rule, both tiers from one pass.

    Trials are laid out side by side on a line with a spacing that keeps
    them geometrically independent, so a single KD-tree per tier answers
    every nearest-BS query.  The estimate is the ratio of total users served
    by in-region BSs to the in-region BS count (unbiased for the typical
    cell; the BS nearest the origin would be size-biased).
    """
    # Imported here: scipy.spatial costs every `import hetmec` about 0.13 s
    # and only this sampler needs it.
    from scipy.spatial import cKDTree

    if trials < 1:
        raise ValueError("trials must be >= 1")
    geo = _load_regions(params, window_scale)
    rng = _rng(seed, _TAG_LOAD)
    offsets = np.arange(trials) * geo["spacing"]

    def sample_process(density: float, radius: float):
        counts = rng.poisson(density * math.pi * radius * radius, trials)
        total = int(counts.sum())
        r = radius * np.sqrt(rng.random(total))
        theta = 2.0 * math.pi * rng.random(total)
        pts = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
        pts[:, 0] += np.repeat(offsets, counts)
        trial_of = np.repeat(np.arange(trials), counts)
        radial = r  # distance from the trial center, before offsetting
        return pts, counts, trial_of, radial

    bs = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            bs[tier] = None
            continue
        pts, counts, trial_of, radial = sample_process(lam, geo["r_bs"])
        if int(counts.min()) == 0:
            # A trial with no BS of a nonzero-density tier cannot resolve
            # nearest queries; astronomically unlikely at these radii.
            raise RuntimeError("a trial sampled zero base stations; enlarge the window")
        bs[tier] = {
            "tree": cKDTree(pts),
            "trial_of": trial_of,
            "interior": radial <= geo["picks"][tier],
            "n": pts.shape[0],
        }

    users, _, _, _ = sample_process(params.user_density, geo["r_user"])

    dist = {}
    index = {}
    for tier, info in bs.items():
        if info is None:
            dist[tier] = np.full(users.shape[0], np.inf)
            index[tier] = np.zeros(users.shape[0], dtype=np.int64)
        else:
            d, i = info["tree"].query(users, k=1)
            dist[tier], index[tier] = d, i

    if rule == "power":
        small_wins = _power_rule_small_wins(params, dist[Tier.MACRO], dist[Tier.SMALL])
    else:
        small_wins = dist[Tier.SMALL] < dist[Tier.MACRO]

    out = {}
    for tier, info in bs.items():
        if info is None:
            out[tier] = McEstimate(0.0, 0.0, trials)
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
        out[tier] = McEstimate(est, math.sqrt(var), trials)
    return out


def empirical_mean_load(
    params: ScenarioParams,
    policy: Policy,
    link: Link,
    tier: Tier,
    trials: int,
    seed: int = 0,
    window_scale: float = 1.0,
) -> McEstimate:
    """Mean users per tier BS on the given link, counted on sampled cells."""
    rule = _serving_rule(policy, link)
    return _mean_loads_by_rule(params, rule, trials, seed, window_scale)[tier]
