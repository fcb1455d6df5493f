"""Analytic-versus-empirical comparison harness.

Every closed-form association quantity and every closed-form coverage value
is compared against its Monte Carlo counterpart.  Every row is judged by the
z-score of its estimate: association frequencies carry the binomial
standard error, per-cell loads and coverage the sample standard error of
their per-trial values (coverage averages a conditional success
probability, not an indicator).  Coverage is additionally held to an
absolute-delta cap, since its tolerance is stated in absolute terms.

Downlink coverage is compared in the INTERFERENCE form, which is the exact
analysis of the model the sampler implements; the SCALED_NOISE values are
reported in the header for reference.  The sampler mirrors the analytic
model's Poisson approximation of the active-uplink interferer field, so
agreement establishes implementation fidelity, not physical exactness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import association as assoc_mod
from . import coverage as cov_mod
from . import montecarlo as mc_mod
from .association import Link, Policy, Tier
from .config import ScenarioParams, raw_from_params
from .coverage import DlCoverageForm

MIN_TRIALS_FOR_POWER = 10_000
Z_LIMIT = 3.0
COVERAGE_DELTA_LIMIT = 0.02


@dataclass(frozen=True)
class ValidationRow:
    quantity: str
    analytic: float
    empirical: float
    std_error: float
    z_score: float

    @property
    def delta(self) -> float:
        return self.empirical - self.analytic

    @property
    def failed(self) -> bool:
        """|z| above Z_LIMIT, or a coverage delta above COVERAGE_DELTA_LIMIT."""
        if abs(self.z_score) > Z_LIMIT:
            return True
        return self.quantity.startswith("coverage") and abs(self.delta) > COVERAGE_DELTA_LIMIT


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    trials: int
    seed: int
    insufficient_power: bool
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.insufficient_power and not any(row.failed for row in self.rows)


def _z(analytic: float, estimate: mc_mod.McEstimate) -> float:
    delta = estimate.mean - analytic
    if estimate.std_error == 0.0:
        return 0.0 if delta == 0.0 else math.inf
    return delta / estimate.std_error


def _row(name: str, analytic: float, estimate: mc_mod.McEstimate) -> ValidationRow:
    return ValidationRow(name, analytic, estimate.mean, estimate.std_error, _z(analytic, estimate))


def run_validation(params: ScenarioParams, trials: int, seed: int = 0) -> ValidationReport:
    """Run every analytic-vs-empirical comparison and collect the rows.

    `trials` drives the association tallies and each coverage estimate; the
    per-cell loads take max(160, trials // 400) realizations.  All of the
    sampler's work is one montecarlo._run_jobs call: the load stage first,
    as its one task is the longest (about 0.1 s), then the association and
    coverage batches around it, which keeps the full run to about 0.19 s
    of wall time at trials = 1e5 on a 2-vCPU host (medians of 7 rounds of
    5 runs at seeds 8, 2 and 3: 0.18 to 0.20 s).  Coverage is drawn once
    per coverage law, and every estimate is the one its own empirical_* or
    _load_estimates call gives at the same seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[ValidationRow] = []
    notes: list[str] = []
    has_small = params.small.density > 0.0
    report = assoc_mod.association_report(params)

    # The sampler sees a coverage combination only through its law
    # (montecarlo._coverage_law): the downlink follows the max-power rule
    # under both policies, and the nearest-rule uplink law names no tier.
    # So one estimate serves every row of one law, as one load realization
    # serves both rules below.
    coverage_rows = []
    coverage_jobs: dict[mc_mod._CoverageLaw, mc_mod._Job] = {}
    first_row: dict[mc_mod._CoverageLaw, str] = {}  # the row that reports each law's draws
    for policy in (Policy.COUPLED, Policy.DECOUPLED):
        for link in (Link.UL, Link.DL):
            gamma = params.ul_sinr_threshold if link is Link.UL else params.dl_sinr_threshold
            for tier in (Tier.MACRO, Tier.SMALL):
                if tier is Tier.SMALL and not has_small:
                    continue
                scaled_note = None
                if link is Link.UL:
                    analytic = cov_mod.ul_coverage(params, policy, tier, gamma)
                else:
                    analytic = cov_mod.dl_coverage(
                        params, tier, gamma, form=DlCoverageForm.INTERFERENCE
                    )
                    scaled = cov_mod.dl_coverage(
                        params, tier, gamma, form=DlCoverageForm.SCALED_NOISE
                    )
                    scaled_note = (
                        f"scaled_noise dl coverage {policy.value}/{tier.value}: {scaled:.6f}"
                    )
                name = f"coverage_{link.value}_{policy.value}_{tier.value}"
                law = mc_mod._coverage_law(params, policy, link, tier)
                if law not in coverage_jobs:
                    coverage_jobs[law] = mc_mod._coverage_job(
                        params, policy, link, tier, gamma, trials, seed
                    )
                    first_row[law] = name
                coverage_rows.append((name, analytic, scaled_note, law))

    loads, freq, *drawn = mc_mod._run_jobs(
        [
            mc_mod._load_job(params, max(160, trials // 400), seed + 1),
            mc_mod._association_job(params, trials, seed),
            *coverage_jobs.values(),
        ]
    )
    estimates = dict(zip(coverage_jobs, drawn))

    analytic_assoc = {
        "assoc_dec_small_small": report.a_ss_u,
        "assoc_dec_macro_macro": report.a_mm_u,
        "assoc_dec_small_macro": report.a_sm_u,
        "assoc_dec_macro_small": report.a_ms_u,
        "assoc_coupled_small": report.a_ss_d,
        "assoc_coupled_macro": report.a_mm_d,
    }
    for name, value in analytic_assoc.items():
        rows.append(_row(name, value, freq[name]))

    # Per-cell loads: one realization covers both rules and both tiers; the
    # downlink marginals of the decoupled policy obey the same max-power
    # rule as the coupled policy, so they reuse the same measurement.
    power_loads, nearest_loads = loads.by_rule["power"], loads.by_rule["nearest"]
    notes.append(
        f"sampler loads: probes {loads.probes} (spacing {loads.spacing:.4g} m,"
        f" {params.user_density * loads.spacing**2:.4g} users each), small-cell lookups"
        f" {loads.small_lookups} ({loads.small_lookups / loads.probes:.4f} of probes)"
    )
    load_specs = [
        ("load_coupled_small", (Policy.COUPLED, Link.UL, Tier.SMALL), power_loads[Tier.SMALL]),
        ("load_coupled_macro", (Policy.COUPLED, Link.UL, Tier.MACRO), power_loads[Tier.MACRO]),
        ("load_dec_ul_small", (Policy.DECOUPLED, Link.UL, Tier.SMALL), nearest_loads[Tier.SMALL]),
        ("load_dec_ul_macro", (Policy.DECOUPLED, Link.UL, Tier.MACRO), nearest_loads[Tier.MACRO]),
        ("load_dec_dl_small", (Policy.DECOUPLED, Link.DL, Tier.SMALL), power_loads[Tier.SMALL]),
        ("load_dec_dl_macro", (Policy.DECOUPLED, Link.DL, Tier.MACRO), power_loads[Tier.MACRO]),
    ]
    for name, (policy, link, tier), estimate in load_specs:
        if tier is Tier.SMALL and not has_small:
            continue
        rows.append(_row(name, report.load[policy, link, tier], estimate))

    for name, analytic, scaled_note, law in coverage_rows:
        if scaled_note is not None:
            notes.append(scaled_note)
        estimate = estimates[law]
        rows.append(_row(name, analytic, estimate))
        if first_row[law] != name:
            notes.append(f"sampler {name}: same estimate as {first_row[law]}")
        else:
            notes.append(
                f"sampler {name}: trials {estimate.trials}, interferers"
                f" {estimate.interferers} ({estimate.interferers / estimate.trials:.2f}"
                " per trial)"
            )

    return ValidationReport(
        rows=tuple(rows),
        trials=trials,
        seed=seed,
        insufficient_power=trials < MIN_TRIALS_FOR_POWER,
        notes=tuple(notes),
    )


def validation_csv(report: ValidationReport, params: ScenarioParams) -> str:
    lines = [
        "# hetmec validation report",
        f"# trials = {report.trials}",
        f"# seed = {report.seed}",
        "# the sampler mirrors the analytic model's Poisson approximation of the",
        "# active-uplink interferer field; agreement validates the implementation,",
        "# not the physical exactness of that approximation",
        f"# numpy = {np.__version__}",
        "# coverage estimator = conditional success probability per trial given"
        " the point process (serving and interferer fades averaged); serving"
        " distance drawn from its law given the"
        " serving tier; interferers sampled in an annulus beyond the trial's"
        " exclusion radius of the area of a disc of"
        f" {mc_mod._INTERFERER_SPAN:g} typical spacings, Poisson"
        f"({mc_mod._INTERFERER_SPAN ** 2:g}) per field per trial, the field beyond"
        " by its Laplace functional",
        f"# pass = {report.passed}",
    ]
    if report.insufficient_power:
        lines.append(
            f"# insufficient power: trials < {MIN_TRIALS_FOR_POWER}; no verdict"
        )
    lines.extend(f"# {key} = {value}" for key, value in raw_from_params(params).items())
    for note in report.notes:
        lines.append(f"# {note}")
    lines.append("quantity,analytic,empirical,std_error,z_score")
    for row in report.rows:
        lines.append(
            f"{row.quantity},{row.analytic!r},{row.empirical!r},"
            f"{row.std_error!r},{row.z_score!r}"
        )
    return "\n".join(lines) + "\n"


def write_validation_csv(report: ValidationReport, params: ScenarioParams, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(validation_csv(report, params))
