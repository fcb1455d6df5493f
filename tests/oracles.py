"""Independent references that the tests compare the library against.

None of these is on the library's path: the serving-distance PDF feeds the
quadrature oracle of the coverage closed form, the noise-free limits are
the interference-limited coverages the general closed form must reduce to,
the rejection sampler conditions coverage trials on the serving tier by
drawing both nearest distances and keeping the trials the rule assigns to
it, the unpruned load sampler builds the probe lattice trial by trial and
answers every nearest-BS query that the library's sampler may skip, the
user-process load sampler counts Poisson users instead of lattice probes,
the own-tier load window is a wider user disc that sizes each tier's
reach by its own void alone, scipy's KD-tree is the nearest-BS search that
the sampler's cell search must match bit for bit, the indexed field
exponent multiplies each interferer's factor into its trial through an
explicit per-interferer trial index, the explicit-fade field draws the
interferers' fades that the sampler averages out (both take each trial's
interferer count from scipy's Poisson quantile function, not from the
sampler's table), and the serial coverage
sampler runs the coverage batches one after another in the calling
thread.  The two coverage references check the dispatch and the
serving-distance law; each takes its trials' values from the library's
coverage law (`montecarlo._coverage_values`), which alone spells the
interferer fields.  The indicator coverage sampler shares no formula with
either side: it draws every fade and tallies SINR >= gamma, with its
interferers spelled out from the nearest-BS distances it draws.
"""
import math

import numpy as np
from scipy import stats

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
import hetmec.montecarlo as montecarlo
from hetmec.coverage import psi, thinned_user_density
from hetmec.montecarlo import (
    _BATCH,
    _PROBE_SPACING,
    _TAG_COVERAGE,
    _TAG_LOAD,
    CoverageEstimate,
    McEstimate,
    _coverage_law,
    _coverage_values,
    _far_field_exponent,
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


def _annulus_counts(rng, density, size):
    """Each trial's interferer count and its annulus's squared-radius width.

    The counts come from `size` uniforms, the library's first draw, through
    scipy's Poisson quantile function at mean span^2, not the library's
    table; the span is read from the library's module at call time, so a
    test that patches it moves both.
    """
    span = montecarlo._INTERFERER_SPAN
    counts = stats.poisson.ppf(rng.random(size), span * span).astype(np.int64)
    return counts, span * span / (math.pi * density)


def indexed_field_exponent(rng, density, gamma, exclusion2):
    """`montecarlo._field_exponent` multiplied through a per-interferer trial index.

    The same draws in the same order: one uniform per trial for its count
    (_annulus_counts), then one uniform per interferer for its
    d = r^2 / e^2 in the annulus e^2 <= r^2 <= e^2 + A.  Each interferer's
    trial is looked up by index and its factor 1 + gamma / d^2 multiplied
    into that trial with `np.multiply.at`.
    """
    counts, area2 = _annulus_counts(rng, density, exclusion2.size)
    trial_of = np.repeat(np.arange(exclusion2.size), counts)
    d = 1.0 + rng.random(trial_of.size) * (area2 / exclusion2)[trial_of]
    near = np.ones(exclusion2.size)
    np.multiply.at(near, trial_of, 1.0 + (math.sqrt(gamma) / d) ** 2)
    far = _far_field_exponent(density, math.sqrt(gamma) * exclusion2, exclusion2 + area2)
    exponent = np.log(near) + far
    return exponent, int(trial_of.size)


def explicit_fade_field_exponents(rng, density, power, s, exclusion2, fades):
    """s * I_near plus the far-field exponent of one field, fades drawn.

    The interferer field as the sampler drew it before its fades were
    averaged out: the counts (_annulus_counts) and one uniform squared
    radius per interferer in the annulus, in `montecarlo._field_exponent`'s
    order, so one generator state gives both the same interferers; then
    `fades` rounds of one exponential fade per interferer, the weights
    P h / r^4 summed into their trials.  Returns the exponents, one row per
    round, and the number of interferers.
    """
    counts, area2 = _annulus_counts(rng, density, s.size)
    trial_of = np.repeat(np.arange(s.size), counts)
    r2 = exclusion2[trial_of] + rng.random(trial_of.size) * area2
    far = _far_field_exponent(density, np.sqrt(s * power), exclusion2 + area2)
    exponents = np.empty((fades, s.size))
    for row in exponents:
        weights = power * rng.standard_exponential(trial_of.size) / (r2 * r2)
        row[:] = s * np.bincount(trial_of, weights=weights, minlength=s.size) + far
    return exponents, int(trial_of.size)


def serial_coverage(
    params,
    policy: Policy,
    link: Link,
    tier: Tier,
    gamma: float,
    trials: int,
    seed: int = 0,
) -> CoverageEstimate:
    """`montecarlo.empirical_coverage` with its batches run in a plain loop.

    Batch after batch in the calling thread, each from its keyed generator;
    the values are concatenated and the interferers summed in batch order.
    The library's threaded batches must reproduce it bit for bit.
    """
    law = _coverage_law(params, policy, link, tier)
    values = []
    done = interferers = 0
    batch_index = 0
    while done < trials:
        n = min(_BATCH, trials - done)
        rng = _rng(seed, _TAG_COVERAGE, law.code, batch_index)
        x2 = rng.standard_exponential(n)
        x2 /= law.rate
        batch_values, sampled = _coverage_values(rng, params, law, gamma, x2)
        values.append(batch_values)
        done += n
        interferers += sampled
        batch_index += 1
    v = np.concatenate(values)
    std_error = float(np.std(v, ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
    return CoverageEstimate(float(np.mean(v)), std_error, trials, interferers)


def rejection_coverage(
    params, policy: Policy, link: Link, tier: Tier, gamma: float, trials: int, seed: int = 0
):
    """Coverage conditioned on the serving tier by rejection.

    Each batch draws the nearest macro and small-cell distances of _BATCH
    trials, keeps the trials the serving rule assigns to `tier` and takes
    their values from its coverage law as `montecarlo.empirical_coverage`
    does.
    Returns (estimate, serving distances of the accepted trials, trials
    drawn up to the last accepted one).
    """
    rule = _serving_rule(policy, link)
    law = _coverage_law(params, policy, link, tier)
    values, distances = [], []
    accepted = drawn = 0
    batch_index = 0
    while accepted < trials:
        if batch_index > 4096:
            raise RuntimeError(f"association almost never lands on tier {tier.value}")
        rng = _rng(seed, _TAG_COVERAGE, law.code, batch_index)
        batch_index += 1
        d_m = _nearest_distances(rng, params.macro.density, _BATCH)
        d_s = _nearest_distances(rng, params.small.density, _BATCH)
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
        values.append(_coverage_values(rng, params, law, gamma, x * x)[0])
        distances.append(x)
        accepted += x.size
    v = np.concatenate(values)
    estimate = McEstimate(float(np.mean(v)), float(np.std(v, ddof=1)) / math.sqrt(trials), trials)
    return estimate, np.concatenate(distances), drawn


def indicator_coverage(
    params, policy: Policy, link: Link, tier: Tier, gamma: float, trials: int, seed: int,
    tail_bias: float,
):
    """SINR coverage as a plain tally of SINR >= gamma, every fade drawn.

    Each trial draws both tiers' nearest-BS distances from their void
    probabilities and is kept if the serving rule (nearest BS for the
    decoupled uplink, max power otherwise) picks `tier`; the serving
    distance x is that tier's.  The interferers, each with its own
    exponential fade, are the uplink users of density lambda_m + lambda_s
    beyond x (the model's convention), or on the downlink every other BS:
    the serving tier's beyond x, and the other tier's nearest at its drawn
    distance plus the rest beyond it.  The serving link has its own
    exponential fade; the trial succeeds if
    h P_tx x^-4 >= gamma (N + sum_j h_j P_j r_j^-4).

    Each field of density lambda and power P is drawn out to a per-trial
    radius R, no less than its inner radius, with s lambda pi P / R^2 at
    most tail_bias over the number of fields, s = gamma x^4 / P_tx.  The
    field beyond R has mean E[I_tail] = lambda pi P / R^2
    at alpha = 4, and given everything else dropping it raises the success
    probability exp(-s (N + I)) by at most 1 - exp(-s I_tail) <= s I_tail:
    the estimate exceeds the coverage by at most tail_bias in expectation,
    and never falls short of it.  The standard error is the binomial one.
    """
    rng = np.random.default_rng(seed)
    bs = {t: tier_params(params, t) for t in Tier}
    tx_power = params.user_tx_power if link is Link.UL else bs[tier].tx_power
    hits = done = 0
    while done < trials:
        n = 2 * (trials - done) + 64
        d = {
            t: np.sqrt(rng.standard_exponential(n) / (math.pi * bs[t].density))
            if bs[t].density > 0.0 else np.full(n, np.inf)
            for t in Tier
        }
        if policy is Policy.DECOUPLED and link is Link.UL:
            small = d[Tier.SMALL] < d[Tier.MACRO]
        else:
            small = bs[Tier.SMALL].tx_power / d[Tier.SMALL] ** 4 > (
                bs[Tier.MACRO].tx_power / d[Tier.MACRO] ** 4
            )
        kept = np.flatnonzero(small if tier is Tier.SMALL else ~small)[: trials - done]
        x = d[tier][kept]
        s = gamma * x**4 / tx_power
        # (density, power, inner radius, whether a point lies at the inner
        # radius) of each field.
        if link is Link.UL:
            density = params.macro.density + params.small.density
            fields = [(density, params.user_tx_power, x, False)]
        else:
            fields = [
                (bs[t].density, bs[t].tx_power, d[t][kept], t is not tier)
                for t in Tier
                if bs[t].density > 0.0
            ]
        interference = np.zeros(x.size)
        for density, power, inner, nearest in fields:
            if nearest:
                interference += power * rng.standard_exponential(x.size) / inner**4
            inner2 = inner * inner
            outer2 = np.maximum(inner2, s * density * math.pi * power * len(fields) / tail_bias)
            counts = rng.poisson(density * math.pi * (outer2 - inner2))
            owner = np.repeat(np.arange(x.size), counts)
            r2 = inner2[owner] + rng.random(owner.size) * (outer2 - inner2)[owner]
            faded = power * rng.standard_exponential(owner.size) / (r2 * r2)
            interference += np.bincount(owner, faded, minlength=x.size)
        signal = tx_power * rng.standard_exponential(x.size) / x**4
        hits += int(np.count_nonzero(signal >= gamma * (params.noise_power + interference)))
        done += x.size
    p = hits / trials
    return McEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)


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
        tails[tier] = math.sqrt(montecarlo._LOAD_TAIL_LOG / (math.pi * lam))
        picks[tier] = 2.0 / math.sqrt(math.pi * lam)
    r_user = max(picks[t] + tails[t] for t in picks)
    r_bs = {t: r_user + tails[t] for t in tails}
    return {"picks": picks, "r_user": r_user, "r_bs": r_bs}


def kd_tree_nearest(points, point_trial, queries, query_trial):
    """Each query's nearest point of its own trial by scipy's KD-tree, one
    tree per trial: its distance and its row of `points`."""
    from scipy.spatial import cKDTree

    distance = np.empty(queries.shape[0])
    row = np.empty(queries.shape[0], dtype=np.int64)
    for t in np.unique(query_trial):
        mine = np.flatnonzero(point_trial == t)
        asked = query_trial == t
        distance[asked], nearest = cKDTree(points[mine]).query(queries[asked], k=1)
        row[asked] = mine[nearest]
    return distance, row


def _line_offsets(geo: dict, trials: int):
    """Each trial's offset along x when trials lie side by side on a line,
    4 max r_bs apart: every point's nearest BS of one KD-tree per tier then
    lies in its own trial."""
    return np.arange(trials) * (4.0 * max(geo["r_bs"].values()))


def _bs_tiers(params, trials: int, rng, geo: dict, offsets):
    """Both BS tiers of one load realization, each in a default KD-tree.

    Drawn as `montecarlo._load_estimates` draws them: same generator,
    same order of draws, in the regions `geo`.
    """
    from scipy.spatial import cKDTree

    bs = {}
    for tier in (Tier.MACRO, Tier.SMALL):
        lam = tier_params(params, tier).density
        if lam == 0.0:
            bs[tier] = None
            continue
        pts, trial_of, radial = _poisson_discs(rng, trials, offsets, lam, geo["r_bs"][tier])
        bs[tier] = {
            "tree": cKDTree(pts),
            "trial_of": trial_of,
            "interior": radial <= geo["picks"][tier],
            "n": pts.shape[0],
        }
    return bs


def _poisson_discs(rng, trials: int, offsets, density: float, radius: float):
    """Poisson points in each trial's disc of the given radius, offset along x;
    with each point's trial and its distance to its trial centre."""
    counts = rng.poisson(density * math.pi * radius * radius, trials)
    total = int(counts.sum())
    r = radius * np.sqrt(rng.random(total))
    theta = 2.0 * math.pi * rng.random(total)
    pts = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    pts[:, 0] += np.repeat(offsets, counts)
    return pts, np.repeat(np.arange(trials), counts), r


def _shifted_lattice(rng, trials: int, offsets, user_density: float, radius: float):
    """The probes of `montecarlo._probe_lattice`, built trial by trial.

    The same shifts from the same draw; each trial's candidate sites span a
    square wider than the disc, and a site is a probe when it lies in the
    disc.  Returns the probes and the users each stands for.
    """
    spacing = _PROBE_SPACING / math.sqrt(user_density)
    half = math.ceil(radius / spacing) + 2
    sites = np.arange(-half, half + 1)
    shift = rng.random((2, trials))
    probes = []
    for t in range(trials):
        x = (sites + shift[0, t]) * spacing
        y = (sites + shift[1, t]) * spacing
        gx, gy = np.meshgrid(x, y, indexing="ij")
        inside = gx**2 + gy**2 <= radius * radius
        probes.append(np.column_stack((gx[inside] + offsets[t], gy[inside])))
    return np.concatenate(probes), user_density * spacing * spacing


def _lookups(params, bs, points):
    """Each point's nearest BS index per tier, both trees queried for every
    point, and per rule whether the small-cell BS wins."""
    dist = {}
    index = {}
    for tier, info in bs.items():
        if info is None:
            dist[tier] = np.full(points.shape[0], np.inf)
            index[tier] = np.zeros(points.shape[0], dtype=np.int64)
        else:
            dist[tier], index[tier] = info["tree"].query(points, k=1, workers=-1)
    small_wins_by_rule = {
        "power": _power_rule_small_wins(params, dist[Tier.MACRO], dist[Tier.SMALL]),
        "nearest": dist[Tier.SMALL] < dist[Tier.MACRO],
    }
    return index, small_wins_by_rule


def _user_realization(params, trials: int, seed: int, geo: dict):
    """One load realization of BSs and Poisson users in the regions `geo`.

    The BSs are drawn as `montecarlo._load_estimates` draws them, the
    users after them from the same generator; every user is looked up in
    both KD-trees.  Returns the BS tiers, each user's distance to its trial
    centre, its nearest BS index per tier, and per rule whether the
    small-cell BS wins.
    """
    rng = _rng(seed, _TAG_LOAD)
    offsets = _line_offsets(geo, trials)
    bs = _bs_tiers(params, trials, rng, geo, offsets)
    users, _, user_radial = _poisson_discs(rng, trials, offsets, params.user_density, geo["r_user"])
    index, small_wins_by_rule = _lookups(params, bs, users)
    return bs, user_radial, index, small_wins_by_rule


def served_by_counted_bs(params, trials: int, seed: int, geo: dict):
    """Each user's distance to its trial centre and, per rule, whether a
    counted (in-region) BS serves it, on a realization drawn in `geo`."""
    bs, user_radial, index, small_wins_by_rule = _user_realization(params, trials, seed, geo)
    counted = {}
    for rule, small_wins in small_wins_by_rule.items():
        hit = np.zeros(user_radial.size, dtype=bool)
        for tier, info in bs.items():
            if info is not None:
                served_here = small_wins if tier is Tier.SMALL else ~small_wins
                hit |= served_here & info["interior"][index[tier]]
        counted[rule] = hit
    return user_radial, counted


def _ratio_estimates(bs, index, small_wins_by_rule, trials: int, users_per_point: float):
    """{rule: {tier: users per in-region BS}}, the ratio estimator of
    `montecarlo._load_estimates` with its standard error."""
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
            totals *= users_per_point
            cells = np.bincount(info["trial_of"][interior], minlength=trials)
            total_cells = int(cells.sum())
            est = float(totals.sum()) / total_cells
            residuals = totals - est * cells
            var = float(np.sum(residuals**2)) / (total_cells**2)
            if trials > 1:
                var *= trials / (trials - 1)
            out[rule][tier] = McEstimate(est, math.sqrt(var), trials)
    return out


def unpruned_mean_loads(params, trials: int, seed: int):
    """Users per BS under both rules, querying both KD-trees for every probe.

    Draws the same realization as `montecarlo._load_estimates` (same
    generator, same order of draws: both BS tiers, then the lattice shifts)
    and returns {rule: {tier: estimate}} with the number of probes; the
    library's sampler must reproduce both bit for bit.
    """
    geo = _load_regions(params)
    rng = _rng(seed, _TAG_LOAD)
    offsets = _line_offsets(geo, trials)
    bs = _bs_tiers(params, trials, rng, geo, offsets)
    probes, users_per_probe = _shifted_lattice(
        rng, trials, offsets, params.user_density, geo["r_user"]
    )
    index, small_wins_by_rule = _lookups(params, bs, probes)
    estimates = _ratio_estimates(bs, index, small_wins_by_rule, trials, users_per_probe)
    return estimates, probes.shape[0]


def user_process_mean_loads(params, trials: int, seed: int):
    """Users per BS under both rules from Poisson users instead of probes.

    The load sampler as it was before the probe lattice: the same BS
    realization, then a Poisson user process in the user disc, every user
    looked up in both trees and counted once.  Returns {rule: {tier:
    estimate}}, the statistical reference of the lattice's estimates.
    """
    geo = _load_regions(params)
    bs, _, index, small_wins_by_rule = _user_realization(params, trials, seed, geo)
    return _ratio_estimates(bs, index, small_wins_by_rule, trials, 1.0)
