"""Closed-form association probabilities, serving-distance PDFs and loads.

Two association policies are modeled.  Under coupled access the user takes
the base station with the strongest downlink received power and reuses it
for the uplink.  Under decoupled access the downlink still goes to the
strongest-power BS while the uplink goes to the nearest BS of either tier
(all users transmit with the same power, so nearest means strongest at the
receiver).  With macro power >= small-cell power, the case "uplink on the
macro, downlink on the small cell" is geometrically impossible: if the
macro is the nearest BS overall it also wins the power comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ScenarioParams


class Tier(Enum):
    MACRO = "macro"
    SMALL = "small"

    @property
    def other(self) -> "Tier":
        return Tier.SMALL if self is Tier.MACRO else Tier.MACRO


class Policy(Enum):
    COUPLED = "coupled"
    DECOUPLED = "decoupled"


class Link(Enum):
    UL = "ul"
    DL = "dl"


def tier_params(params: ScenarioParams, tier: Tier):
    return params.macro if tier is Tier.MACRO else params.small


def power_ratio_factor(params: ScenarioParams) -> float:
    """(P_macro / P_small) ** (2 / alpha), the density-equivalence factor.

    A tier with higher power behaves, for max-power association purposes,
    like a tier with its density inflated by this factor.
    """
    ratio = params.macro.tx_power / params.small.tx_power
    return ratio ** (2.0 / params.pathloss_exponent)


def coupled_probs(params: ScenarioParams) -> tuple[float, float]:
    """Probabilities of (small, macro) winning the max-downlink-power rule."""
    factor = power_ratio_factor(params)
    lam_m = params.macro.density
    lam_s = params.small.density
    denom = lam_s + factor * lam_m
    a_ss = lam_s / denom
    a_mm = factor * lam_m / denom
    return a_ss, a_mm


def decoupled_probs(params: ScenarioParams) -> tuple[float, float, float, float]:
    """Joint (uplink tier, downlink tier) probabilities under decoupled access.

    Returns (small/small, macro/macro, small-UL/macro-DL, macro-UL/small-DL);
    the last case has probability exactly zero.
    """
    lam_m = params.macro.density
    lam_s = params.small.density
    a_ss, _ = coupled_probs(params)
    a_mm = lam_m / (lam_m + lam_s)
    a_sm = lam_s / (lam_m + lam_s) - a_ss
    return a_ss, a_mm, a_sm, 0.0


def marginals(
    decoupled: tuple[float, float, float, float],
) -> tuple[dict[Tier, float], dict[Tier, float]]:
    """Per-tier uplink and downlink marginals of the decoupled joint law."""
    a_ss, a_mm, a_sm, a_ms = decoupled
    a_ul = {Tier.SMALL: a_ss + a_sm, Tier.MACRO: a_mm + a_ms}
    a_dl = {Tier.MACRO: a_mm + a_sm, Tier.SMALL: a_ss + a_ms}
    return a_ul, a_dl


@dataclass(frozen=True)
class AssociationReport:
    """All association probabilities plus the mean per-BS loads."""

    a_ss_d: float
    a_mm_d: float
    a_ss_u: float
    a_mm_u: float
    a_sm_u: float
    a_ms_u: float
    a_ul: dict[Tier, float]
    a_dl: dict[Tier, float]
    load: dict[tuple[Policy, Link, Tier], float]


def association_probability(
    params: ScenarioParams, policy: Policy, link: Link, tier: Tier
) -> float:
    """Probability that the given link of the typical user lands on `tier`."""
    if policy is Policy.COUPLED:
        a_ss, a_mm = coupled_probs(params)
        return a_ss if tier is Tier.SMALL else a_mm
    a_ul, a_dl = marginals(decoupled_probs(params))
    return a_ul[tier] if link is Link.UL else a_dl[tier]


def mean_load(params: ScenarioParams, policy: Policy, link: Link, tier: Tier) -> float:
    """Mean number of users a tier BS serves on the given link.

    This is user density times association probability over BS density; the
    mean area of a cell in a tier of density lambda is 1/lambda and no
    cell-size variance correction is applied.
    """
    lam = tier_params(params, tier).density
    if lam == 0.0:
        return 0.0
    return params.user_density * association_probability(params, policy, link, tier) / lam


def serving_distance_pdf(
    params: ScenarioParams, policy: Policy, tier: Tier, x
):
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
    norm = association_probability(params, policy, Link.UL, tier)
    pdf = (2.0 * math.pi * lam_k / norm) * x * np.exp(-slope * math.pi * x**2)
    return pdf if pdf.ndim else float(pdf)


def distance_pdf_slope(params: ScenarioParams, policy: Policy, tier: Tier) -> float:
    """Density-like coefficient c in the serving-distance PDF x*exp(-pi*c*x^2).

    For coupled association this equals lam_k + lam_j * (P_j/P_k)**(2/alpha),
    which is also the equivalent interferer density seen by a downlink user
    served by this tier.
    """
    lam_k = tier_params(params, tier).density
    lam_j = tier_params(params, tier.other).density
    if policy is Policy.COUPLED:
        p_k = tier_params(params, tier).tx_power
        p_j = tier_params(params, tier.other).tx_power
        return lam_k + lam_j * (p_j / p_k) ** (2.0 / params.pathloss_exponent)
    return lam_k + lam_j


def association_report(params: ScenarioParams) -> AssociationReport:
    a_ss_d, a_mm_d = coupled_probs(params)
    dec = decoupled_probs(params)
    a_ul, a_dl = marginals(dec)
    load = {}
    for policy in Policy:
        for link in Link:
            for tier in Tier:
                load[(policy, link, tier)] = mean_load(params, policy, link, tier)
    return AssociationReport(
        a_ss_d=a_ss_d,
        a_mm_d=a_mm_d,
        a_ss_u=dec[0],
        a_mm_u=dec[1],
        a_sm_u=dec[2],
        a_ms_u=dec[3],
        a_ul=a_ul,
        a_dl=a_dl,
        load=load,
    )
