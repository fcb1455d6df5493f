"""Closed-form association probabilities, serving-distance slopes and loads.

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

from dataclasses import dataclass
from enum import Enum

from .config import ScenarioParams


# Tier, Policy and Link key the per-scenario dicts.  Members are singletons, so
# they hash by identity: Enum's default hashes the name in Python, far slower.
class Tier(Enum):
    __hash__ = object.__hash__
    MACRO = "macro"
    SMALL = "small"

    @property
    def other(self) -> "Tier":
        return Tier.SMALL if self is Tier.MACRO else Tier.MACRO


class Policy(Enum):
    __hash__ = object.__hash__
    COUPLED = "coupled"
    DECOUPLED = "decoupled"


class Link(Enum):
    __hash__ = object.__hash__
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
    """The association law of one scenario: every probability and mean load.

    A mean load is the mean number of users a tier BS serves on a link: user
    density times association probability over BS density.  The mean area
    of a cell in a tier of density lambda is 1/lambda and no cell-size
    variance correction is applied; a zero-density tier serves no one.
    """
    a_ss_d, a_mm_d = coupled_probs(params)
    dec = decoupled_probs(params)
    a_ul, a_dl = marginals(dec)
    coupled = {Tier.SMALL: a_ss_d, Tier.MACRO: a_mm_d}
    decoupled = {Link.UL: a_ul, Link.DL: a_dl}
    load = {}
    for policy in Policy:
        for link in Link:
            prob = coupled if policy is Policy.COUPLED else decoupled[link]
            for tier in Tier:
                lam = tier_params(params, tier).density
                load[policy, link, tier] = params.user_density * prob[tier] / lam if lam else 0.0
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
