"""Independent closed forms that the tests compare the library against.

None of these is on the library's path: the serving-distance PDF feeds the
quadrature oracle of the coverage closed form, and the noise-free limits are
the interference-limited coverages the general closed form must reduce to.
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
