"""SINR coverage probabilities for uplink and downlink under both policies.

Every coverage value is the Rayleigh-fading success probability
exp(-a*x^4 - b*x^2) averaged over the serving-distance PDF
2*pi*c*x*exp(-pi*c*x^2), where a is the noise coefficient, b the
interference coefficient and c the density slope of that PDF.  At path-loss
exponent 4 the average has the closed form of Andrews, Baccelli & Ganti
("A Tractable Approach to Coverage and Rate in Cellular Networks", IEEE
TCOM 2011):

    pi*c * sqrt(pi)/(2*sqrt(a)) * erfcx((pi*c + b) / (2*sqrt(a))),

which is pi*c / (pi*c + b) when a == 0.

Uplink interference comes from the active uplink users: one scheduled user
per cell on average, i.e. a thinned user process of density
lambda_m + lambda_s, with no active co-channel user closer to the receiving
BS than the served user itself.  That exclusion is what produces the
sqrt(g)*arctan(sqrt(g)) interference factor at path-loss exponent 4 (a
non-excluded field would give (pi/2)*sqrt(g) instead), and the Monte Carlo
oracle mirrors it.

Two downlink integrand shapes are supported, selected by DlCoverageForm:

* SCALED_NOISE multiplies the noise exponent by (1 + psi(g)) and carries no
  interferer-density term, so at realistic noise floors it is close to one
  for every threshold of interest.
* INTERFERENCE applies the plain noise exponent together with the per-tier
  equivalent-density interference attenuation
  exp(-pi * psi(g) * (lam_k + lam_j*(P_j/P_k)**(2/alpha)) * x^2), which is
  the exact coverage of the max-power downlink model the Monte Carlo
  sampler implements (every other BS of both tiers transmitting, Rayleigh
  fading everywhere).

Validation against the sampler therefore uses INTERFERENCE; SCALED_NOISE is
kept selectable so reports can quantify how far the two shapes diverge.
"""
from __future__ import annotations

import math
from enum import Enum

from scipy.special import erfcx

from . import association
from .association import Policy, Tier, tier_params
from .config import ScenarioParams


class DlCoverageForm(Enum):
    SCALED_NOISE = "scaled_noise"
    INTERFERENCE = "interference"


def psi(gamma: float) -> float:
    """Interference attenuation factor sqrt(g) * arctan(sqrt(g)).

    Zero at zero, strictly increasing; valid only for path-loss exponent 4.
    Takes one nonnegative number and returns a float.
    """
    root = math.sqrt(gamma)
    return root * math.atan(root)


def thinned_user_density(params: ScenarioParams) -> float:
    """Density of simultaneously active uplink users: one per BS on average.

    The thinning probability (lambda_m + lambda_s) / lambda_u applied to the
    user process leaves exactly the total BS density.
    """
    return params.macro.density + params.small.density


def _coverage_integral(
    params: ScenarioParams,
    policy_pdf: Policy,
    tier: Tier,
    noise_coeff: float,
    interf_coeff: float,
) -> float:
    # Average of exp(-a*x^4 - b*x^2) over the serving-distance PDF; see the
    # module docstring.  sqrt(pi)/(2*sqrt(a)) rather than sqrt(pi/a)/2 keeps
    # a subnormal a from overflowing the quotient to inf.  The erfcx product
    # can round past 1 when a is tiny; a probability is capped there.
    pi_c = math.pi * association.distance_pdf_slope(params, policy_pdf, tier)
    linear = pi_c + interf_coeff
    if noise_coeff == 0.0:
        return pi_c / linear
    root_a = math.sqrt(noise_coeff)
    cov = pi_c * math.sqrt(math.pi) / (2.0 * root_a) * float(erfcx(linear / (2.0 * root_a)))
    return min(cov, 1.0)


def ul_coverage(
    params: ScenarioParams,
    policy: Policy,
    tier: Tier,
    gamma_ul: float,
) -> float:
    """Probability that the uplink SINR at the serving BS meets gamma_ul."""
    if gamma_ul <= 0.0:
        raise ValueError(f"gamma_ul must be positive, got {gamma_ul}")
    if tier_params(params, tier).density == 0.0:
        raise ValueError(f"tier {tier.value} has zero density; no uplink coverage defined")
    lam_tilde = thinned_user_density(params)
    noise_coeff = gamma_ul * params.noise_power / params.user_tx_power
    interf_coeff = math.pi * lam_tilde * psi(gamma_ul)
    return _coverage_integral(params, policy, tier, noise_coeff, interf_coeff)


def dl_coverage(
    params: ScenarioParams,
    tier: Tier,
    gamma_dl: float,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
) -> float:
    """Probability that the downlink SINR at the user meets gamma_dl.

    The downlink is served by the max-power BS under both policies, so the
    serving-distance law (and hence the coverage) is policy-independent; the
    decoupled marginal normalizer coincides with the coupled association
    probability.
    """
    if gamma_dl <= 0.0:
        raise ValueError(f"gamma_dl must be positive, got {gamma_dl}")
    if tier_params(params, tier).density == 0.0:
        raise ValueError(f"tier {tier.value} has zero density; no downlink coverage defined")
    p_k = tier_params(params, tier).tx_power
    noise_coeff = gamma_dl * params.noise_power / p_k
    if form is DlCoverageForm.SCALED_NOISE:
        return _coverage_integral(
            params, Policy.COUPLED, tier, noise_coeff * (1.0 + psi(gamma_dl)), 0.0
        )
    equivalent_density = association.distance_pdf_slope(params, Policy.COUPLED, tier)
    interf_coeff = math.pi * psi(gamma_dl) * equivalent_density
    return _coverage_integral(params, Policy.COUPLED, tier, noise_coeff, interf_coeff)
