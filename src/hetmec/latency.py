"""Transmission, queueing and backhaul delays, per-case and scheme averages.

A request uploads `input_bits`, executes `cycles_per_request` CPU cycles at
a cloudlet, and downloads `output_bits`.  Three schemes are compared:

* COUPLED_ACCESS: one BS serves both links; execution at that BS.
* DECOUPLED_UL_PROC: links may split; execution at the uplink BS, with the
  result crossing the backhaul to the downlink BS.
* DECOUPLED_DL_PROC: execution at the downlink BS, with the input crossing
  the backhaul first.

Cloudlets are M/M/1 queues.  Because each BS time-shares its uplink
bandwidth across its associated users, the aggregate bits/s entering a BS
(and hence the request arrival rate) does not depend on the user density:
load cancels between the per-user rate and the user count.  Queues are
destabilized by shrinking cloudlet capacity, growing per-request cycles, or
widening the radio bandwidth, never by adding users.

Unbounded latency is an ordinary value (math.inf), produced when coverage
underflows to zero and transmission time diverges; queue instability is the
exception QueueUnstable, which sweep runners render as unbounded rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .association import (
    Link,
    Policy,
    Tier,
    coupled_probs,
    decoupled_probs,
    mean_load,
    tier_params,
)
from .config import BackhaulMode, ScenarioParams
from .coverage import DlCoverageForm, dl_coverage, ul_coverage


class Scheme(Enum):
    COUPLED_ACCESS = "coupled_access"
    DECOUPLED_UL_PROC = "decoupled_ul_proc"
    DECOUPLED_DL_PROC = "decoupled_dl_proc"


class BackhaulDirection(Enum):
    OUTPUT_FROM_UL = "output_from_ul"  # result bits move to the downlink BS
    INPUT_TO_DL = "input_to_dl"        # input bits move to the downlink BS


class QueueUnstable(RuntimeError):
    """Cloudlet arrival rate meets or exceeds its service rate."""

    def __init__(self, tier: Tier, service_rate: float, arrival_rate: float):
        super().__init__(
            f"cloudlet queue unstable on tier {tier.value}: "
            f"service rate {service_rate:.6g} req/s <= arrival rate {arrival_rate:.6g} req/s"
        )
        self.tier = tier
        self.service_rate = service_rate
        self.arrival_rate = arrival_rate


@dataclass(frozen=True)
class LatencyBreakdown:
    ul_time: float
    exec_time: float
    backhaul_time: float
    dl_time: float
    total: float
    # (ul_tier, dl_tier, scheme) for a single case; None for a scheme average.
    case_id: tuple[Tier, Tier, Scheme] | None


def spectral_efficiency(gamma: float) -> float:
    return math.log2(1.0 + gamma)


def ul_rate(params: ScenarioParams, policy: Policy, tier: Tier, gamma_ul: float) -> float:
    """Mean uplink bits/s of one user on `tier` under `policy`.

    Bandwidth shared across the tier's uplink load, discounted by coverage.
    """
    load = mean_load(params, policy, Link.UL, tier)
    cov = ul_coverage(params, policy, tier, gamma_ul)
    return params.ul_bandwidth / load * spectral_efficiency(gamma_ul) * cov


def dl_rate(
    params: ScenarioParams,
    policy: Policy,
    tier: Tier,
    gamma_dl: float,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
) -> float:
    load = mean_load(params, policy, Link.DL, tier)
    cov = dl_coverage(params, policy, tier, gamma_dl, form=form)
    return params.dl_bandwidth / load * spectral_efficiency(gamma_dl) * cov


def transmission_time(bits: float, rate: float) -> float:
    """bits / rate; an exactly zero rate means offloading is infeasible at
    this threshold and yields the unbounded-latency value rather than an error."""
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if rate == 0.0:
        return math.inf
    return bits / rate


def service_rate(params: ScenarioParams, tier: Tier) -> float:
    """Cloudlet service rate in requests/s: capacity over cycles per request."""
    return tier_params(params, tier).cloudlet_capacity / params.cycles_per_request


def _mm1_delay(tier: Tier, mu: float, tau: float) -> float:
    if tau >= mu:
        raise QueueUnstable(tier, mu, tau)
    return 1.0 / (mu - tau)


def _arrival_rate(rate_bits: float, users: float, input_bits: float) -> float:
    # Aggregate uplink bits/s into the BS, expressed as requests/s.
    return rate_bits * users / input_bits


def exec_time_coupled(params: ScenarioParams, tier: Tier, gamma_ul: float) -> float:
    """M/M/1 sojourn time at the coupled-access serving BS."""
    rate = ul_rate(params, Policy.COUPLED, tier, gamma_ul)
    load = mean_load(params, Policy.COUPLED, Link.UL, tier)
    tau = _arrival_rate(rate, load, params.input_bits)
    return _mm1_delay(tier, service_rate(params, tier), tau)


def exec_time_decoupled_ul(params: ScenarioParams, ul_tier: Tier, gamma_ul: float) -> float:
    """Sojourn time when the uplink BS executes; same shape as the coupled
    expression, driven by the uplink marginal load."""
    rate = ul_rate(params, Policy.DECOUPLED, ul_tier, gamma_ul)
    load = mean_load(params, Policy.DECOUPLED, Link.UL, ul_tier)
    tau = _arrival_rate(rate, load, params.input_bits)
    return _mm1_delay(ul_tier, service_rate(params, ul_tier), tau)


def decoupled_dl_arrival_rate(params: ScenarioParams, dl_tier: Tier, gamma_ul: float) -> float:
    """Request arrival rate at a downlink-executing cloudlet.

    A macro cloudlet receives its own uplink users' requests plus the
    split-association users' requests forwarded over the backhaul; a
    small-cell cloudlet receives only the requests of users that kept both
    links on it.
    """
    a_ss, _, a_sm, _ = decoupled_probs(params)
    lam_u = params.user_density
    lam_s = params.small.density
    rate_s = ul_rate(params, Policy.DECOUPLED, Tier.SMALL, gamma_ul) if lam_s > 0.0 else 0.0
    if dl_tier is Tier.MACRO:
        rate_m = ul_rate(params, Policy.DECOUPLED, Tier.MACRO, gamma_ul)
        own = rate_m * mean_load(params, Policy.DECOUPLED, Link.UL, Tier.MACRO)
        forwarded = rate_s * (lam_u / lam_s) * a_sm if lam_s > 0.0 else 0.0
        return (own + forwarded) / params.input_bits
    kept = rate_s * (lam_u / lam_s) * a_ss if lam_s > 0.0 else 0.0
    return kept / params.input_bits


def exec_time_decoupled_dl(params: ScenarioParams, dl_tier: Tier, gamma_ul: float) -> float:
    tau = decoupled_dl_arrival_rate(params, dl_tier, gamma_ul)
    return _mm1_delay(dl_tier, service_rate(params, dl_tier), tau)


def backhaul_time(
    params: ScenarioParams, direction: BackhaulDirection, crossed: bool
) -> float:
    """Backhaul transfer time, zero for same-BS cases in CROSS_TIER_ONLY mode."""
    if not crossed and params.backhaul_mode is BackhaulMode.CROSS_TIER_ONLY:
        return 0.0
    bits = params.output_bits if direction is BackhaulDirection.OUTPUT_FROM_UL else params.input_bits
    return bits / params.backhaul_capacity


def case_latency(
    params: ScenarioParams,
    scheme: Scheme,
    ul_tier: Tier,
    dl_tier: Tier,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
    unstable_as_inf: bool = False,
) -> LatencyBreakdown:
    """Latency breakdown for one (uplink tier, downlink tier) association case.

    Thresholds come from the scenario.  Coupled access requires equal tiers
    and never touches the backhaul.  The (macro uplink, small downlink)
    decoupled case has probability zero and is rejected rather than given a
    meaningless value.  With unstable_as_inf, queue instability renders the
    execution time unbounded instead of raising, which is what grid sweeps
    want.
    """
    gamma_ul = params.ul_sinr_threshold
    gamma_dl = params.dl_sinr_threshold

    def run_exec(fn, tier: Tier) -> float:
        if not unstable_as_inf:
            return fn(params, tier, gamma_ul)
        try:
            return fn(params, tier, gamma_ul)
        except QueueUnstable:
            return math.inf

    if scheme is Scheme.COUPLED_ACCESS:
        if ul_tier is not dl_tier:
            raise ValueError("coupled access uses one BS for both links")
        ul_t = transmission_time(params.input_bits, ul_rate(params, Policy.COUPLED, ul_tier, gamma_ul))
        exec_t = run_exec(exec_time_coupled, ul_tier)
        bh_t = 0.0
        dl_t = transmission_time(
            params.output_bits, dl_rate(params, Policy.COUPLED, dl_tier, gamma_dl, form=form)
        )
    else:
        if ul_tier is Tier.MACRO and dl_tier is Tier.SMALL:
            raise ValueError(
                "the (macro uplink, small downlink) case has probability zero; "
                "no latency is defined for it"
            )
        crossed = ul_tier is not dl_tier
        ul_t = transmission_time(
            params.input_bits, ul_rate(params, Policy.DECOUPLED, ul_tier, gamma_ul)
        )
        dl_t = transmission_time(
            params.output_bits, dl_rate(params, Policy.DECOUPLED, dl_tier, gamma_dl, form=form)
        )
        if scheme is Scheme.DECOUPLED_UL_PROC:
            exec_t = run_exec(exec_time_decoupled_ul, ul_tier)
            bh_t = backhaul_time(params, BackhaulDirection.OUTPUT_FROM_UL, crossed)
        else:
            exec_t = run_exec(exec_time_decoupled_dl, dl_tier)
            bh_t = backhaul_time(params, BackhaulDirection.INPUT_TO_DL, crossed)
    return LatencyBreakdown(
        ul_time=ul_t,
        exec_time=exec_t,
        backhaul_time=bh_t,
        dl_time=dl_t,
        total=ul_t + exec_t + bh_t + dl_t,
        case_id=(ul_tier, dl_tier, scheme),
    )


def scheme_cases(params: ScenarioParams, scheme: Scheme) -> list[tuple[Tier, Tier, float]]:
    """(ul_tier, dl_tier, probability) triples with nonzero weight."""
    if scheme is Scheme.COUPLED_ACCESS:
        a_ss, a_mm = coupled_probs(params)
        cases = [(Tier.SMALL, Tier.SMALL, a_ss), (Tier.MACRO, Tier.MACRO, a_mm)]
    else:
        a_ss, a_mm, a_sm, _ = decoupled_probs(params)
        cases = [
            (Tier.SMALL, Tier.SMALL, a_ss),
            (Tier.MACRO, Tier.MACRO, a_mm),
            (Tier.SMALL, Tier.MACRO, a_sm),
        ]
    return [(k, l, w) for k, l, w in cases if w > 0.0]


def average_breakdown(
    params: ScenarioParams,
    scheme: Scheme,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
    unstable_as_inf: bool = False,
) -> LatencyBreakdown:
    """Probability-weighted component averages over the scheme's cases.

    Components stay additive: the averaged total equals the sum of the
    averaged components.  Any unbounded case with nonzero weight makes the
    affected component (and the total) unbounded.
    """
    ul = exec_ = bh = dl = 0.0
    cases = scheme_cases(params, scheme)
    if not cases:
        raise ValueError("no association case has positive probability")
    for ul_tier, dl_tier, weight in cases:
        case = case_latency(
            params, scheme, ul_tier, dl_tier, form=form, unstable_as_inf=unstable_as_inf
        )
        ul += weight * case.ul_time
        exec_ += weight * case.exec_time
        bh += weight * case.backhaul_time
        dl += weight * case.dl_time
    return LatencyBreakdown(
        ul_time=ul,
        exec_time=exec_,
        backhaul_time=bh,
        dl_time=dl,
        total=ul + exec_ + bh + dl,
        case_id=None,
    )


def average_latency(
    params: ScenarioParams,
    scheme: Scheme,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
) -> float:
    """Mean offloading latency of the scheme, in seconds (may be inf)."""
    return average_breakdown(params, scheme, form=form).total
