"""Parameter sweeps and their CSV serialization.

A sweep walks one axis (a configuration key or one of the ratio pseudo-axes
below), optionally crossed with a small set of variants (e.g. two backhaul
capacities, two SINR thresholds), and records the probability-weighted
latency breakdown of each of the three schemes at every grid point.  A
`SweepSpec` holds the `axis`, its grid `values`, the `variants`, a `label`
for the CSV header, and `auto_user_density`.

The four preset figures:

* fig2: SINR threshold from -20 to 10 dB, low and high backhaul.
* fig3: small-to-macro density ratio 1..100 (log grid) at two thresholds.
* fig4: small-to-macro cloudlet capacity ratio 0.05..1, both backhauls.
* fig5: input-to-output bits ratio 1..10 with the per-request CPU cycles
  rescaling alongside, both backhauls.

Rows are pure functions of the configuration, so a sweep CSV is
byte-reproducible.  Queue-unstable grid points serialize as `inf` rather
than aborting the sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .config import ScenarioParams, params_from_raw, raw_from_params, RAW_DEFAULTS
from .coverage import DlCoverageForm
from .latency import Scheme, average_breakdown, operating_point

ALL_SCHEMES = (Scheme.COUPLED_ACCESS, Scheme.DECOUPLED_UL_PROC, Scheme.DECOUPLED_DL_PROC)

# Pseudo-axes resolve to several raw keys at once.
PSEUDO_AXES = ("gamma_db", "lambda_s_over_lambda_m", "f_s_over_f_m", "b_in_over_b_out")

CSV_COLUMNS = (
    "axis_value",
    "backhaul_bps",
    "scheme",
    "ul_time_s",
    "exec_time_s",
    "backhaul_time_s",
    "dl_time_s",
    "total_s",
    "gamma_db",
)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its grid, and its per-curve variants.

    Each variant is a dict of raw configuration keys laid over the base
    configuration before the axis value is applied.  Every sweep evaluates
    all three schemes, in the order of the class constant `schemes`.
    """

    schemes: ClassVar[tuple[Scheme, ...]] = ALL_SCHEMES
    axis: str
    values: tuple[float, ...]
    variants: tuple[dict, ...] = ({},)
    label: str = "custom"
    # Lift the user density to the total BS density where a grid point would
    # otherwise make the active-uplink thinning probability exceed one.
    auto_user_density: bool = False

    def __post_init__(self):
        if self.axis not in RAW_DEFAULTS and self.axis not in PSEUDO_AXES:
            raise ValueError(f"axis {self.axis!r} is not a recognized configuration key")
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("axis values must be finite")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("axis values must be strictly monotone")


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    backhaul_bps: float
    scheme: Scheme
    ul_time: float
    exec_time: float
    backhaul_time: float
    dl_time: float
    total: float
    gamma_db: float


def _apply_axis(raw: dict, axis: str, value: float) -> None:
    if axis == "gamma_db":
        raw["gamma_ul_db"] = value
        raw["gamma_dl_db"] = value
    elif axis == "lambda_s_over_lambda_m":
        raw["lambda_s_per_km2"] = value * float(raw["lambda_m_per_km2"])
    elif axis == "f_s_over_f_m":
        raw["f_s_hz"] = value * float(raw["f_m_hz"])
    elif axis == "b_in_over_b_out":
        raw["b_in_bits"] = value * float(raw["b_out_bits"])
    else:
        raw[axis] = value


def resolve_point_raw(spec: SweepSpec, base_raw: dict, value: float, variant: dict) -> dict:
    raw = dict(base_raw)
    raw.update(variant)
    _apply_axis(raw, spec.axis, value)
    if spec.auto_user_density:
        total_bs = float(raw["lambda_m_per_km2"]) + float(raw["lambda_s_per_km2"])
        if float(raw["lambda_u_per_km2"]) < total_bs:
            raw["lambda_u_per_km2"] = total_bs
    return raw


def figure_sweep_spec(figure: int) -> SweepSpec:
    if figure == 2:
        return SweepSpec(
            axis="gamma_db",
            values=tuple(float(v) for v in range(-20, 11)),
            variants=({"c_bh_bps": 1.0e4}, {"c_bh_bps": 1.0e7}),
            label="fig2",
        )
    if figure == 3:
        ratios = tuple(10.0 ** (2.0 * i / 24.0) for i in range(25))
        return SweepSpec(
            axis="lambda_s_over_lambda_m",
            values=ratios,
            variants=({"gamma_ul_db": -3.0, "gamma_dl_db": -3.0},
                      {"gamma_ul_db": -10.0, "gamma_dl_db": -10.0}),
            label="fig3",
            auto_user_density=True,
        )
    if figure == 4:
        values = tuple(0.05 + 0.05 * i for i in range(20))
        return SweepSpec(
            axis="f_s_over_f_m",
            values=values,
            variants=({"c_bh_bps": 1.0e4}, {"c_bh_bps": 1.0e7}),
            label="fig4",
        )
    if figure == 5:
        values = tuple(1.0 + 0.5 * i for i in range(19))
        return SweepSpec(
            axis="b_in_over_b_out",
            values=values,
            variants=({"c_bh_bps": 1.0e4}, {"c_bh_bps": 1.0e7}),
            label="fig5",
        )
    raise ValueError(f"unknown figure {figure}; expected 2, 3, 4 or 5")


def _evaluate_point(
    spec: SweepSpec,
    base_raw: dict,
    value: float,
    variant: dict,
    form: DlCoverageForm,
) -> list[SweepRow]:
    try:
        raw = resolve_point_raw(spec, base_raw, value, variant)
        params = params_from_raw(raw)
        point = operating_point(params, form)
        breakdowns = [
            average_breakdown(point, scheme, unstable_as_inf=True) for scheme in spec.schemes
        ]
    except Exception as exc:
        # Name the grid point in the message in place, so the exception keeps
        # its type and attributes such as ConfigError.key.
        exc.args = (f"axis {spec.axis}={value!r}, variant {variant!r}: {exc}",) + exc.args[1:]
        raise
    rows = []
    gamma_db = float(raw["gamma_ul_db"])
    for scheme, breakdown in zip(spec.schemes, breakdowns):
        rows.append(
            SweepRow(
                axis_value=value,
                backhaul_bps=params.backhaul_capacity,
                scheme=scheme,
                ul_time=breakdown.ul_time,
                exec_time=breakdown.exec_time,
                backhaul_time=breakdown.backhaul_time,
                dl_time=breakdown.dl_time,
                total=breakdown.total,
                gamma_db=gamma_db,
            )
        )
    return rows


def run_sweep(
    spec: SweepSpec,
    base: ScenarioParams | None = None,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
) -> list[SweepRow]:
    """Evaluate the grid; rows are ordered by (variant, axis index)."""
    base_raw = raw_from_params(base) if base is not None else dict(RAW_DEFAULTS)
    return [
        row
        for variant in spec.variants
        for value in spec.values
        for row in _evaluate_point(spec, base_raw, value, variant, form)
    ]


def _format(value: float) -> str:
    return repr(float(value))


def sweep_csv(
    spec: SweepSpec,
    rows: list[SweepRow],
    base: ScenarioParams | None = None,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
) -> str:
    base_raw = raw_from_params(base) if base is not None else dict(RAW_DEFAULTS)
    lines = [
        "# hetmec sweep",
        f"# figure: {spec.label}",
        f"# axis: {spec.axis}",
        f"# dl_coverage_form: {form.value}",
        f"# backhaul_mode: {base_raw['backhaul_mode']}",
    ]
    if spec.auto_user_density:
        lines.append(
            "# lambda_u_per_km2 lifted to lambda_m_per_km2 + lambda_s_per_km2 "
            "wherever the grid point would exceed the thinning bound"
        )
    lines.append("# base configuration:")
    lines.extend(f"#   {key} = {value}" for key, value in base_raw.items())
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(
            ",".join(
                (
                    _format(row.axis_value),
                    _format(row.backhaul_bps),
                    row.scheme.value,
                    _format(row.ul_time),
                    _format(row.exec_time),
                    _format(row.backhaul_time),
                    _format(row.dl_time),
                    _format(row.total),
                    _format(row.gamma_db),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(
    spec: SweepSpec,
    rows: list[SweepRow],
    path: str,
    base: ScenarioParams | None = None,
    form: DlCoverageForm = DlCoverageForm.SCALED_NOISE,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(sweep_csv(spec, rows, base=base, form=form))
