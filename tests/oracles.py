"""Independent references that the tests compare the library against.

None of these is on the library's path: the serving-distance PDF feeds the
quadrature oracle of the coverage closed form, the noise-free limits are
the interference-limited coverages the general closed form must reduce to,
the rejection sampler conditions coverage trials on the serving tier by
drawing both nearest distances and keeping the trials the rule assigns to
it, the unpruned load sampler answers every nearest-BS query that the
library's sampler may skip, the own-tier load window is a wider user
disc that sizes each tier's reach by its own void alone, and the indexed
field exponent sums each interferer into its trial through an explicit
per-interferer trial index.
"""
import math

import numpy as np

from hetmec.association import (
    Link,
    Policy,
    Tier,
    coupled_probs,
    decoupled_probs,
    distance_pdf_slope,
    marginals,
    tier_params,
)
from hetmec.coverage import psi, thinned_user_density
from hetmec.montecarlo import (
    _BATCH,
    _INTERFERER_SPAN,
    _LOAD_TAIL_LOG,
    _TAG_COVERAGE,
    _TAG_LOAD,
    McEstimate,
    _downlink_exponent,
    _far_field_exponent,
    _field_exponent,
    _load_regions,
    _nearest_distances,
    _power_rule_small_wins,
    _rng,
    _serving_rule,
)


def serving_distance_pdf(params, policy: Policy, tier: Tier, x):
    """PDF of the distance to the serving BS, given the serving tier.

    Coupled (max-power) association thins the competition by the power
    factor; decoupled uplink association competes on distance alone.  The
    density vanishes at x = 0 and integrates to one over (0, inf).
    Accepts scalar or array x (meters).
    """
    x = np.asarray(x, dtype=float)
    lam_k = tier_params(params, tier).density
    if lam_k == 0.0:
        return np.zeros_like(x) if x.ndim else 0.0
    slope = distance_pdf_slope(params, policy, tier)
    # The PDF is that of the uplink serving BS, which coupled access also
    # uses for the downlink.
    if policy is Policy.COUPLED:
        a_ss, a_mm = coupled_probs(params)
        norm = a_ss if tier is Tier.SMALL else a_mm
    else:
        norm = marginals(decoupled_probs(params))[0][tier]
    pdf = (2.0 * math.pi * lam_k / norm) * x * np.exp(-slope * math.pi * x**2)
    return pdf if pdf.ndim else float(pdf)


def ul_coverage_interference_limited(params, policy: Policy, tier: Tier, gamma_ul: float) -> float:
    """Closed-form uplink coverage in the noise-free limit.

    With the noise term dropped the integral collapses to
    c / (c + lam_tilde * psi(g)) where c is the serving-PDF density slope.
    """
    slope = distance_pdf_slope(params, policy, tier)
    return slope / (slope + thinned_user_density(params) * psi(gamma_ul))


def dl_coverage_interference_limited(gamma_dl: float) -> float:
    """Closed-form INTERFERENCE-form downlink coverage in the noise-free limit.

    The equivalent interferer density equals the serving-PDF slope, so the
    tier dependence cancels and the value is 1 / (1 + psi(g)) for both tiers.
    """
    return 1.0 / (1.0 + psi(gamma_dl))


def indexed_field_exponent(rng, density, power, s, exclusion2, window_scale):
    """`montecarlo._field_exponent` summed through a per-interferer trial index.

    The same draws in the same order: Poisson counts, then uniform squared
    radii, then the fades.  Each interferer's trial is looked up by index and
    its weight added to that trial with bincount.
    """
    spans2 = _INTERFERER_SPAN * _INTERFERER_SPAN / (math.pi * density)
    outer2 = np.maximum(spans2, 2.25 * exclusion2) * (window_scale * window_scale)
    outer2 = np.maximum(outer2, exclusion2)
    width = outer2 - exclusion2
    counts = rng.poisson(density * math.pi * width)
    trial_of = np.repeat(np.arange(s.size), counts)
    r2 = rng.random(trial_of.size)
    r2 *= width[trial_of]
    r2 += exclusion2[trial_of]
    weights = rng.standard_exponential(trial_of.size)
    weights *= power
    r2 *= r2
    weights /= r2
    near = np.bincount(trial_of, weights=weights, minlength=s.size)
    exponent = s * near + _far_field_exponent(density, power, s, outer2)
    return exponent, int(trial_of.size)


def rejection_coverage(
    params, policy: Policy, link: Link, tier: Tier, gamma: float, trials: int, seed: int = 0
):
    """Coverage conditioned on the serving tier by rejection.

    Each batch draws the nearest macro and small-cell distances of _BATCH
    trials, keeps the trials the serving rule assigns to `tier` and builds
    their interferer fields as `montecarlo.empirical_coverage` does.
    Returns (estimate, serving distances of the accepted trials, trials
    drawn up to the last accepted one).
    """
    rule = _serving_rule(policy, link)
    tx_power = params.user_tx_power if link is Link.UL else tier_params(params, tier).tx_power
    values, distances = [], []
    accepted = drawn = 0
    batch_index = 0
    while accepted < trials:
        if batch_index > 4096:
            raise RuntimeError(f"association almost never lands on tier {tier.value}")
        rng = _rng(seed, _TAG_COVERAGE, batch_index)
        batch_index += 1
        d_m, _ = _nearest_distances(rng, params.macro.density, _BATCH, 1.0)
        d_s, _ = _nearest_distances(rng, params.small.density, _BATCH, 1.0)
        if rule == "power":
            small_wins = _power_rule_small_wins(params, d_m, d_s)
        else:
            small_wins = d_s < d_m
        keep = small_wins if tier is Tier.SMALL else ~small_wins
        picked = np.flatnonzero(keep)[: trials - accepted]
        drawn += int(picked[-1]) + 1 if accepted + picked.size == trials else _BATCH
        if picked.size == 0:
            continue
        x = (d_s if tier is Tier.SMALL else d_m)[picked]
        x2 = x * x
        s = gamma * x2 * x2 / tx_power
        if link is Link.UL:
            lam = params.macro.density + params.small.density
            exponent, _ = _field_exponent(rng, lam, tx_power, s, x2, 1.0)
        else:
            exponent, _ = _downlink_exponent(rng, params, tier, x2, s, 1.0)
        values.append(np.exp(-(s * params.noise_power + exponent)))
        distances.append(x)
        accepted += x.size
    v = np.concatenate(values)
    estimate = McEstimate(float(np.mean(v)), float(np.std(v, ddof=1)) / math.sqrt(trials), trials)
    return estimate, np.concatenate(distances), drawn


def own_tier_load_regions(params) -> dict:
    """`montecarlo._load_regions` with the user disc sized by own-tier voids.

    The user disc reaches each tier's pick radius plus that tier's own
    nearest-BS tail, ignoring the other tier's void that a served user must
    also see; every BS disc is that user disc widened by the tier's tail.
    """
    tails = {}
    picks = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            continue
        tails[tier] = math.sqrt(_LOAD_TAIL_LOG / (math.pi * lam))
        picks[tier] = 2.0 / math.sqrt(math.pi * lam)
    r_user = max(picks[t] + tails[t] for t in picks)
    r_bs = {t: r_user + tails[t] for t in tails}
    return {"picks": picks, "r_user": r_user, "r_bs": r_bs, "spacing": 4.0 * max(r_bs.values())}


def _unpruned_realization(params, trials: int, seed: int, geo: dict):
    """One load realization drawn as `montecarlo._mean_loads_by_rule` draws it.

    Same generator and order of draws, in the regions `geo`; every user is
    looked up in both KD-trees.  Returns the BS tiers, each user's distance
    to its trial centre, its nearest BS index per tier, and per rule whether
    the small-cell BS wins.
    """
    from scipy.spatial import cKDTree

    rng = _rng(seed, _TAG_LOAD)
    offsets = np.arange(trials) * geo["spacing"]

    def sample_process(density: float, radius: float):
        counts = rng.poisson(density * math.pi * radius * radius, trials)
        total = int(counts.sum())
        r = radius * np.sqrt(rng.random(total))
        theta = 2.0 * math.pi * rng.random(total)
        pts = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
        pts[:, 0] += np.repeat(offsets, counts)
        return pts, np.repeat(np.arange(trials), counts), r

    bs = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            bs[tier] = None
            continue
        pts, trial_of, radial = sample_process(lam, geo["r_bs"][tier])
        bs[tier] = {
            "tree": cKDTree(pts),
            "trial_of": trial_of,
            "interior": radial <= geo["picks"][tier],
            "n": pts.shape[0],
        }
    users, _, user_radial = sample_process(params.user_density, geo["r_user"])

    dist = {}
    index = {}
    for tier, info in bs.items():
        if info is None:
            dist[tier] = np.full(users.shape[0], np.inf)
            index[tier] = np.zeros(users.shape[0], dtype=np.int64)
        else:
            dist[tier], index[tier] = info["tree"].query(users, k=1)

    small_wins_by_rule = {
        "power": _power_rule_small_wins(params, dist[Tier.MACRO], dist[Tier.SMALL]),
        "nearest": dist[Tier.SMALL] < dist[Tier.MACRO],
    }
    return bs, user_radial, index, small_wins_by_rule


def served_by_counted_bs(params, trials: int, seed: int, geo: dict):
    """Each user's distance to its trial centre and, per rule, whether a
    counted (in-region) BS serves it, on a realization drawn in `geo`."""
    bs, user_radial, index, small_wins_by_rule = _unpruned_realization(params, trials, seed, geo)
    counted = {}
    for rule, small_wins in small_wins_by_rule.items():
        hit = np.zeros(user_radial.size, dtype=bool)
        for tier, info in bs.items():
            if info is not None:
                served_here = small_wins if tier is Tier.SMALL else ~small_wins
                hit |= served_here & info["interior"][index[tier]]
        counted[rule] = hit
    return user_radial, counted


def unpruned_mean_loads(params, trials: int, seed: int, window_scale: float = 1.0):
    """Users per BS under both rules, querying both KD-trees for every user.

    Draws the same realization as `montecarlo._mean_loads_by_rule` (same
    generator, same order of draws) and returns {rule: {tier: estimate}};
    the library's sampler must reproduce it bit for bit.
    """
    geo = _load_regions(params, window_scale)
    bs, _, index, small_wins_by_rule = _unpruned_realization(params, trials, seed, geo)
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
            est = float(totals.sum()) / total_cells
            residuals = totals - est * cells
            var = float(np.sum(residuals**2)) / (total_cells**2)
            if trials > 1:
                var *= trials / (trials - 1)
            out[rule][tier] = McEstimate(est, math.sqrt(var), trials)
    return out
