"""Independent references that the tests compare the library against.

None of these is on the library's path: the serving-distance PDF feeds the
quadrature oracle of the coverage closed form, the noise-free limits are
the interference-limited coverages the general closed form must reduce to,
and the unpruned load sampler answers every nearest-BS query that the
library's sampler may skip.
"""
import math

import numpy as np

from hetmec.association import (
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
    _TAG_LOAD,
    McEstimate,
    _load_regions,
    _power_rule_small_wins,
    _rng,
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


def unpruned_mean_loads(params, trials: int, seed: int, window_scale: float = 1.0):
    """Users per BS under both rules, querying both KD-trees for every user.

    Draws the same realization as `montecarlo._mean_loads_by_rule` (same
    generator, same order of draws) and returns {rule: {tier: estimate}};
    the library's sampler must reproduce it bit for bit.
    """
    from scipy.spatial import cKDTree

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
    users, _, _ = sample_process(params.user_density, geo["r_user"])

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
