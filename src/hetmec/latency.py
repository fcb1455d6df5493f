"""Transmission, queueing and backhaul delays, per-case and scheme averages.

A request uploads `input_bits`, executes `cycles_per_request` CPU cycles at
a cloudlet, and downloads `output_bits`.  Three schemes are compared:

* COUPLED_ACCESS: one BS serves both links; execution at that BS.
* DECOUPLED_UL_PROC: links may split; execution at the uplink BS, with the
  result crossing the backhaul to the downlink BS.
* DECOUPLED_DL_PROC: execution at the downlink BS, with the input crossing
  the backhaul first.

All three schemes read one association law (case probabilities and per-BS
loads) and the same per-tier coverages, rates and cloudlet arrival rates.
`operating_point` computes each of them once per scenario; `scheme_cases`,
`case_latency` and `case_latencies` derive every case of every scheme from
that one frozen `OperatingPoint`.  `mean_breakdown` averages cases already
computed; `average_breakdown` is `mean_breakdown` of `case_latencies`.

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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

from .association import AssociationReport, Link, Policy, Tier, association_report, tier_params
from .config import BackhaulMode, ScenarioParams
from .coverage import DlCoverageForm, dl_coverage, ul_coverage


class Scheme(Enum):
    COUPLED_ACCESS = "coupled_access"
    DECOUPLED_UL_PROC = "decoupled_ul_proc"
    DECOUPLED_DL_PROC = "decoupled_dl_proc"


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


@dataclass(frozen=True)
class OperatingPoint:
    """The association law and per-tier quantities all three schemes share.

    `assoc` holds the case probabilities and every (policy, link, tier) load.
    The other entries exist only for `tiers`, the tiers with positive
    density, and the rates and `ul_arrival` only where the load is positive.
    Rates are bits/s per user.  Arrival rates are requests/s into a
    cloudlet: `ul_arrival` at the uplink BS (which executes under coupled
    access and DECOUPLED_UL_PROC), `dl_arrival` at the downlink BS (which
    executes under DECOUPLED_DL_PROC).
    """

    params: ScenarioParams
    assoc: AssociationReport
    tiers: tuple[Tier, ...]
    ul_coverage: dict[tuple[Policy, Tier], float]
    ul_rate: dict[tuple[Policy, Tier], float]
    dl_coverage: dict[Tier, float]
    dl_rate: dict[tuple[Policy, Tier], float]
    ul_arrival: dict[tuple[Policy, Tier], float]
    dl_arrival: dict[Tier, float]


def spectral_efficiency(gamma: float) -> float:
    return math.log2(1.0 + gamma)


def operating_point(
    params: ScenarioParams, form: DlCoverageForm = DlCoverageForm.SCALED_NOISE
) -> OperatingPoint:
    """Coverages, loads, rates and cloudlet arrival rates of one scenario.

    A user's rate is the link bandwidth shared across its tier's load,
    discounted by coverage.  The downlink is max-power under both policies,
    so one DL coverage per tier serves both; the DL load still depends on
    the policy.  A downlink-executing macro cloudlet receives its own uplink
    users' requests plus the split-association users' requests forwarded
    over the backhaul; a downlink-executing small cloudlet receives only the
    requests of users that kept both links on it.
    """
    gamma_ul = params.ul_sinr_threshold
    gamma_dl = params.dl_sinr_threshold
    tiers = tuple(tier for tier in Tier if tier_params(params, tier).density > 0.0)
    keys = [(policy, tier) for policy in Policy for tier in tiers]
    assoc = association_report(params)
    ul_load = {(policy, tier): assoc.load[policy, Link.UL, tier] for policy, tier in keys}
    dl_load = {(policy, tier): assoc.load[policy, Link.DL, tier] for policy, tier in keys}

    # A zero load (its probability underflowed) gets no rate: every case that
    # would read it has weight zero, so scheme_cases never returns it.
    ul_cov = {key: ul_coverage(params, *key, gamma_ul) for key in keys}
    ul_rate = {
        key: params.ul_bandwidth / load * spectral_efficiency(gamma_ul) * ul_cov[key]
        for key, load in ul_load.items()
        if load > 0.0
    }
    dl_cov = {tier: dl_coverage(params, tier, gamma_dl, form=form) for tier in tiers}
    dl_rate = {
        key: params.dl_bandwidth / load * spectral_efficiency(gamma_dl) * dl_cov[key[1]]
        for key, load in dl_load.items()
        if load > 0.0
    }
    ul_arrival = {key: ul_rate[key] * ul_load[key] / params.input_bits for key in ul_rate}

    # A tier with no uplink rate has no uplink users whose requests to count.
    macro = (Policy.DECOUPLED, Tier.MACRO)
    own = ul_rate.get(macro, 0.0) * ul_load[macro]
    if Tier.SMALL not in tiers:
        dl_arrival = {Tier.MACRO: own / params.input_bits}
    else:
        # Users per small cell in each case, counted as the loads are counted
        # so that a vanishing small-cell density cannot overflow.
        split_users = params.user_density * assoc.a_sm_u / params.small.density
        kept_users = params.user_density * assoc.a_ss_u / params.small.density
        rate_s = ul_rate.get((Policy.DECOUPLED, Tier.SMALL), 0.0)
        dl_arrival = {
            Tier.MACRO: (own + rate_s * split_users) / params.input_bits,
            Tier.SMALL: rate_s * kept_users / params.input_bits,
        }

    return OperatingPoint(
        params=params,
        assoc=assoc,
        tiers=tiers,
        ul_coverage=ul_cov,
        ul_rate=ul_rate,
        dl_coverage=dl_cov,
        dl_rate=dl_rate,
        ul_arrival=ul_arrival,
        dl_arrival=dl_arrival,
    )


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


def backhaul_time(params: ScenarioParams, scheme: Scheme, crossed: bool) -> float:
    """Backhaul transfer time of one request under `scheme`.

    DECOUPLED_DL_PROC moves the input to the downlink BS and
    DECOUPLED_UL_PROC moves the output there; coupled access never uses the
    backhaul, and same-BS cases skip it in CROSS_TIER_ONLY mode.
    """
    if scheme is Scheme.COUPLED_ACCESS or (
        not crossed and params.backhaul_mode is BackhaulMode.CROSS_TIER_ONLY
    ):
        return 0.0
    bits = params.input_bits if scheme is Scheme.DECOUPLED_DL_PROC else params.output_bits
    return bits / params.backhaul_capacity


def case_latency(
    point: OperatingPoint,
    scheme: Scheme,
    ul_tier: Tier,
    dl_tier: Tier,
    unstable_as_inf: bool = False,
) -> LatencyBreakdown:
    """Latency breakdown for one (uplink tier, downlink tier) association case.

    Coupled access requires equal tiers.  The (macro uplink, small downlink)
    decoupled case has probability zero and is rejected rather than given a
    meaningless value.  With unstable_as_inf, queue instability renders the
    execution time unbounded instead of raising, which is what grid sweeps
    want.
    """
    params = point.params
    if scheme is Scheme.COUPLED_ACCESS:
        if ul_tier is not dl_tier:
            raise ValueError("coupled access uses one BS for both links")
        policy = Policy.COUPLED
    else:
        if ul_tier is Tier.MACRO and dl_tier is Tier.SMALL:
            raise ValueError(
                "the (macro uplink, small downlink) case has probability zero; "
                "no latency is defined for it"
            )
        policy = Policy.DECOUPLED
    if Tier.SMALL not in point.tiers and Tier.SMALL in (ul_tier, dl_tier):
        raise ValueError("tier small has zero density; no latency is defined for it")

    ul_t = transmission_time(params.input_bits, point.ul_rate[policy, ul_tier])
    dl_t = transmission_time(params.output_bits, point.dl_rate[policy, dl_tier])
    if scheme is Scheme.DECOUPLED_DL_PROC:
        exec_tier, tau = dl_tier, point.dl_arrival[dl_tier]
    else:
        exec_tier, tau = ul_tier, point.ul_arrival[policy, ul_tier]
    try:
        exec_t = _mm1_delay(exec_tier, service_rate(params, exec_tier), tau)
    except QueueUnstable:
        if not unstable_as_inf:
            raise
        exec_t = math.inf
    bh_t = backhaul_time(params, scheme, ul_tier is not dl_tier)
    return LatencyBreakdown(
        ul_time=ul_t,
        exec_time=exec_t,
        backhaul_time=bh_t,
        dl_time=dl_t,
        total=ul_t + exec_t + bh_t + dl_t,
    )


def scheme_cases(point: OperatingPoint, scheme: Scheme) -> list[tuple[Tier, Tier, float]]:
    """(ul_tier, dl_tier, probability) triples with nonzero weight."""
    assoc = point.assoc
    if scheme is Scheme.COUPLED_ACCESS:
        cases = [(Tier.SMALL, Tier.SMALL, assoc.a_ss_d), (Tier.MACRO, Tier.MACRO, assoc.a_mm_d)]
    else:
        cases = [
            (Tier.SMALL, Tier.SMALL, assoc.a_ss_u),
            (Tier.MACRO, Tier.MACRO, assoc.a_mm_u),
            (Tier.SMALL, Tier.MACRO, assoc.a_sm_u),
        ]
    return [(k, l, w) for k, l, w in cases if w > 0.0]


def case_latencies(
    point: OperatingPoint, scheme: Scheme, unstable_as_inf: bool = False
) -> Iterator[tuple[Tier, Tier, float, LatencyBreakdown]]:
    """Each case of `scheme` with nonzero weight, with its latency breakdown.

    Yields (ul_tier, dl_tier, probability, breakdown) in `scheme_cases`
    order, computing each case once.  A case whose queue is unstable raises
    QueueUnstable (unless unstable_as_inf) only when it is reached, after
    every earlier case has been yielded.
    """
    for ul_tier, dl_tier, weight in scheme_cases(point, scheme):
        yield ul_tier, dl_tier, weight, case_latency(
            point, scheme, ul_tier, dl_tier, unstable_as_inf=unstable_as_inf
        )


def mean_breakdown(weighted: Sequence[tuple[float, LatencyBreakdown]]) -> LatencyBreakdown:
    """Probability-weighted component averages over (weight, breakdown) pairs.

    Components stay additive: the averaged total equals the sum of the
    averaged components.  Any unbounded case with nonzero weight makes the
    affected component (and the total) unbounded.
    """
    if not weighted:
        raise ValueError("no association case has positive probability")
    ul = exec_ = bh = dl = 0.0
    for weight, case in weighted:
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
    )


def average_breakdown(
    point: OperatingPoint, scheme: Scheme, unstable_as_inf: bool = False
) -> LatencyBreakdown:
    """The scheme's average latency: `mean_breakdown` of its `case_latencies`."""
    return mean_breakdown(
        [
            (weight, case)
            for _, _, weight, case in case_latencies(point, scheme, unstable_as_inf=unstable_as_inf)
        ]
    )
