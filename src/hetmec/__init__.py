"""Offloading latency of a two-tier heterogeneous edge-computing network.

The library evaluates the mean end-to-end latency of computation offloading
(upload, cloudlet execution, backhaul transfer, download) when users attach
their uplink and downlink either to one base station (coupled access) or to
possibly different ones (decoupled access), using closed-form
stochastic-geometry expressions, and cross-checks every analytic quantity
against a Monte Carlo point-process sampler.
"""
from .association import (
    AssociationReport,
    Link,
    Policy,
    Tier,
    association_report,
    coupled_probs,
    decoupled_probs,
    marginals,
    power_ratio_factor,
)
from .config import (
    BackhaulMode,
    ConfigError,
    ScenarioParams,
    TierParams,
    canonical_config,
    dbm_to_watts,
    default_params,
    parse_config,
    watts_to_dbm,
)
from .coverage import (
    DlCoverageForm,
    dl_coverage,
    psi,
    thinned_user_density,
    ul_coverage,
)
from .latency import (
    LatencyBreakdown,
    OperatingPoint,
    QueueUnstable,
    Scheme,
    average_breakdown,
    backhaul_time,
    case_latency,
    operating_point,
    service_rate,
    transmission_time,
)
from .montecarlo import (
    McEstimate,
    empirical_association,
    empirical_coverage,
)
from .sweeps import SweepSpec, figure_sweep_spec, run_sweep, write_sweep_csv
from .validate import ValidationReport, run_validation, write_validation_csv

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
