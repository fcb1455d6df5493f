"""Monte Carlo point-process oracle for the closed-form model.

Everything here samples the geometry directly: homogeneous Poisson point
processes for both BS tiers and the users, max-power or nearest-BS
association applied to the sampled points, and exponential (Rayleigh-power)
fading on every interfering link.  No coverage integral or association
formula is consulted, so agreement with the analytic modules is evidence of
implementation fidelity.

Coverage is Rao-Blackwellised.  Given the serving distance x and the
sampled interference I, the serving fade is averaged out exactly: a trial
contributes its conditional success probability exp(-s (N + I)) with
s = gamma x^4 / P_tx (Haenggi, "The Meta Distribution of the SIR", IEEE TWC
2016) instead of a success indicator.  Interferers are sampled only out to a
few typical spacings; the Rayleigh-faded Poisson field beyond that radius R
enters through its exact Laplace functional at alpha = 4,
exp(-lambda pi sqrt(sP) arctan(sqrt(sP) / R^2)) (Andrews, Baccelli and
Ganti, IEEE TCOM 2011), so the cut costs variance, not bias.  The standard
error is the sample standard deviation of the per-trial values.

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
# Interferers are sampled out to 5 typical spacings (about 25 points per
# field per trial); the field beyond enters through its Laplace functional.
_INTERFERER_SPAN = 5.0
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


def _far_field_exponent(
    density: float, power: float, s: np.ndarray, outer2: float
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
) -> np.ndarray:
    """s * I_near plus the far-field exponent of one interferer field.

    Interferers of a Rayleigh-faded PPP of the given density and power lie
    beyond the per-trial exclusion radius; those inside the outer radius R
    are sampled with their fades, the rest enter through their exact
    Laplace functional.
    """
    outer = max(
        _INTERFERER_SPAN / math.sqrt(math.pi * density),
        1.5 * math.sqrt(float(exclusion2.max())),
    )
    outer *= window_scale
    outer2 = outer * outer
    counts = rng.poisson(density * math.pi * (outer2 - exclusion2))
    total = int(counts.sum())
    inner = np.repeat(exclusion2, counts)
    r2 = inner + rng.random(total) * (outer2 - inner)
    fading = rng.exponential(1.0, total)
    near = _segment_sums(power * fading / (r2 * r2), counts)
    return s * near + _far_field_exponent(density, power, s, outer2)


def _downlink_exponent(
    rng: np.random.Generator,
    params: ScenarioParams,
    serving: Tier,
    x2: np.ndarray,
    s: np.ndarray,
    window_scale: float,
) -> np.ndarray:
    """Interference exponent at the user from every non-serving BS.

    Max-power association to the serving tier at squared distance x2 keeps
    every tier-j BS beyond squared distance (P_j / P_serving)**(2/alpha) * x2.
    """
    alpha = params.pathloss_exponent
    p_serving = tier_params(params, serving).tx_power
    exponent = np.zeros(x2.size)
    for tier in (Tier.MACRO, Tier.SMALL):
        tier_p = tier_params(params, tier)
        if tier_p.density == 0.0:
            continue
        exclusion2 = (tier_p.tx_power / p_serving) ** (2.0 / alpha) * x2
        exponent += _field_exponent(
            rng, tier_p.density, tier_p.tx_power, s, exclusion2, window_scale
        )
    return exponent


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
    `tier`; the count refers to accepted trials.  Each trial contributes its
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
    rule = _serving_rule(policy, link)
    if link is Link.UL:
        tx_power = params.user_tx_power
    else:
        tx_power = tier_params(params, tier).tx_power
    values = []
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
        x2 = x * x
        s = gamma * x2 * x2 / tx_power
        if link is Link.UL:
            # Active-uplink users interfere from outside the disc of radius x
            # around the receiving BS.
            lam = params.macro.density + params.small.density
            exponent = _field_exponent(rng, lam, tx_power, s, x2, window_scale)
        else:
            exponent = _downlink_exponent(rng, params, tier, x2, s, window_scale)
        values.append(np.exp(-(s * params.noise_power + exponent)))
        accepted += x.size
        batch_index += 1
    v = np.concatenate(values)
    std_error = float(np.std(v, ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
    return McEstimate(float(np.mean(v)), std_error, trials)


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
