"""The benchmark's three workloads: inputs, one measured pass, output checks.

Each workload builds its inputs once (the set-up that ``setup_s`` times) and
then runs passes over them.  A pass reports the time of each of its units
(the parts whose times add up to the pass), the latency of each op, and the
outputs, which ``check`` compares with the references in ``reference/`` after
the pass's timing has stopped.  Every pass runs the same ops in the same
order, and times them with the ``clock`` it is given.  hetmec is driven only
through its public entry points, always looked up on the module at call time
so that the tracer's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random

from hetmec import config, sweeps, validate
from hetmec import cli

import refmodel

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
FIGURES = (2, 3, 4, 5)
# The scenario seed whose reports are stored in reference/.
REFERENCE_SEED = 1
SCENARIO_COUNT = 300
VALIDATION_TRIALS = 100_000
VALIDATION_SEED = 8
VALIDATION_ROWS = 20
REL_TOL = 1e-9


@dataclasses.dataclass
class PassResult:
    unit_s: list[float]
    op_s: list[float]
    outputs: list


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Equal within `rel` relative, with inf equal only to inf of the same sign."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- figures ---------------------------------------------------------------


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header, body = lines[0], lines[1:]
    if header.split(",") != list(sweeps.CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header {header!r}")
    return [line.split(",") for line in body]


def _row_fields(row) -> list[str]:
    return [repr(row.axis_value), repr(row.backhaul_bps), row.scheme.value, repr(row.ul_time),
            repr(row.exec_time), repr(row.backhaul_time), repr(row.dl_time), repr(row.total),
            repr(row.gamma_db)]


def _fields_match(got: list[str], want: list[str]) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g == w:
            continue
        try:
            if not close(float(g), float(w)):
                return False
        except ValueError:  # a scheme name that differs
            return False
    return True


class Figures:
    """The four preset figure sweeps; op = one grid point.

    A pass times the four whole sweeps (``run_sweep`` + ``sweep_csv``), one
    unit each, for the pass time, then runs every grid point as a one-point
    sweep of the same spec so each point's latency is its own sample.
    """

    warmup = True

    def __init__(self, seed: int, workdir: str):
        del seed, workdir  # the presets are fixed inputs
        self.specs = [sweeps.figure_sweep_spec(f) for f in FIGURES]
        self.points = [
            dataclasses.replace(spec, values=(value,), variants=(variant,))
            for spec in self.specs for variant in spec.variants for value in spec.values
        ]
        self.reference = []
        for figure, spec in zip(FIGURES, self.specs):
            with open(os.path.join(REFERENCE_DIR, f"fig{figure}.csv"), encoding="utf-8") as handle:
                rows = _csv_rows(handle.read())
            width = len(spec.schemes)
            self.reference += [rows[i:i + width] for i in range(0, len(rows), width)]
        if len(self.reference) != len(self.points):
            raise ValueError("figure reference does not match the preset grids")

    def run_pass(self, clock, tracer=None) -> PassResult:
        texts, unit_s = [], []
        for spec in self.specs:
            began = clock()
            try:
                texts.append(sweeps.sweep_csv(spec, sweeps.run_sweep(spec)))
            except Exception as exc:  # counted as failed points by check()
                texts.append(exc)
            unit_s.append(clock() - began)
            if tracer is not None:
                tracer.new_scope()
        if tracer is not None:
            return PassResult(unit_s, [], [texts, None])
        op_s, point_rows = [], []
        for point in self.points:
            began = clock()
            try:
                rows = sweeps.run_sweep(point)
            except Exception as exc:
                rows = exc
            op_s.append(clock() - began)
            point_rows.append(rows)
        return PassResult(unit_s, op_s, [texts, point_rows])

    def check(self, outputs) -> list[str]:
        """One entry per grid point that raised or differs from the reference."""
        texts, point_rows = outputs
        whole = []
        for spec, text in zip(self.specs, texts):
            width = len(spec.schemes)
            points = len(spec.values) * len(spec.variants)
            try:
                rows = _csv_rows(text) if isinstance(text, str) else None
            except ValueError:
                rows = None
            if rows is None or len(rows) != points * width:
                whole += [None] * points
            else:
                whole += [rows[i:i + width] for i in range(0, len(rows), width)]
        failures = []
        for index, reference in enumerate(self.reference):
            got = [whole[index]]
            if point_rows is not None:
                rows = point_rows[index]
                got.append(None if isinstance(rows, Exception) else [_row_fields(r) for r in rows])
            for rows in got:
                if rows is None or len(rows) != len(reference) or not all(
                    _fields_match(g, w) for g, w in zip(rows, reference)
                ):
                    failures.append(f"grid point {index}: rows differ from the reference")
                    break
        return failures

    @property
    def ops_per_pass(self) -> int:
        return len(self.points)


# -- scenarios -------------------------------------------------------------


def draw_scenarios(seed: int, count: int) -> list[tuple[dict, str]]:
    """`count` valid scenarios as (raw config overrides, DL coverage form).

    Every axis is Latin-hypercube sampled (one draw per equal-width stratum,
    strata shuffled), so each seed covers every range evenly and two seeds
    differ in the draws, not in how the ranges are covered.
    """
    rng = random.Random(seed)

    def strata() -> list[float]:
        draws = [(i + rng.random()) / count for i in range(count)]
        rng.shuffle(draws)
        return draws

    ratio, users, g_ul, g_dl, noise, backhaul = (strata() for _ in range(6))
    modes = [("cross_tier_only", "always")[i % 2] for i in range(count)]
    forms = [("scaled_noise", "interference")[(i // 2) % 2] for i in range(count)]
    rng.shuffle(modes)
    rng.shuffle(forms)
    scenarios = []
    for i in range(count):
        lam_m = 1.0
        lam_s = lam_m * 10.0 ** (2.0 * ratio[i])            # density ratio 1..100
        raw = {
            "lambda_m_per_km2": lam_m,
            "lambda_s_per_km2": lam_s,
            "lambda_u_per_km2": (lam_m + lam_s) * 5.0 ** users[i],  # 1..5 users per BS
            "gamma_ul_db": -20.0 + 30.0 * g_ul[i],          # -20..10 dB
            "gamma_dl_db": -20.0 + 30.0 * g_dl[i],
            "noise_dbm": -120.0 + 60.0 * noise[i],          # -120..-60 dBm
            "c_bh_bps": 10.0 ** (4.0 + 3.0 * backhaul[i]),  # 1e4..1e7 bit/s
            "backhaul_mode": modes[i],
        }
        scenarios.append((raw, forms[i]))
    return scenarios


def parse_report(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"unexpected report line {line!r}")
        values[key] = float(value)
    return values


def scenario_reference_path(seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"scenarios-seed{seed}.json")


def write_config(path: str, raw: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{key} = {value!r}\n" if isinstance(value, float)
                             else f"{key} = {value}\n" for key, value in raw.items()))


def run_analytic(argv: list[str]) -> tuple[int | str, str, str]:
    """`hetmec analytic` in-process: (exit code or the escaped exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # cli.main lets it escape; a failed op
        code = repr(exc)
    return code, out.getvalue(), err.getvalue()


class Scenarios:
    """Random scenarios, each run as `hetmec analytic --config FILE`; op = one scenario."""

    warmup = True

    def __init__(self, seed: int, workdir: str):
        self.scenarios = draw_scenarios(seed, SCENARIO_COUNT)
        self.argvs = []
        for i, (raw, form) in enumerate(self.scenarios):
            path = os.path.join(workdir, f"scenario{i:04d}.cfg")
            write_config(path, raw)
            self.argvs.append(["analytic", "--config", path, "--dl-coverage-form", form])
        self.reference = None
        if seed == REFERENCE_SEED:
            with open(scenario_reference_path(seed), encoding="utf-8") as handle:
                stored = json.load(handle)
            self.reference = [
                (code, {key: value for key, value in zip(stored["keys"], values) if value is not None})
                for code, values in stored["scenarios"]
            ]

    def run_pass(self, clock, tracer=None) -> PassResult:
        op_s, outputs = [], []
        for argv in self.argvs:
            began = clock()
            outputs.append(run_analytic(argv))
            op_s.append(clock() - began)
            if tracer is not None:
                tracer.new_scope()
        # Each scenario is both a unit and an op.
        return PassResult(op_s, op_s, outputs)

    def check(self, outputs) -> list[str]:
        failures = []
        for index, output in enumerate(outputs):
            problem = self.check_one(index, *output)
            if problem:
                failures.append(f"scenario {index}: {problem}")
        return failures

    def check_one(self, index: int, code, stdout: str, stderr: str) -> str | None:
        raw, form = self.scenarios[index]
        if code not in (0, 3):
            return f"exit {code!r}: {stderr.strip()[:200]}"
        try:
            values = parse_report(stdout)
        except ValueError as exc:
            return str(exc)
        missing = [key for key in refmodel.PROBABILITY_KEYS if key not in values]
        if missing:
            return f"report lacks {missing[0]}"
        for key in refmodel.PROBABILITY_KEYS:
            if not 0.0 <= values[key] <= 1.0:
                return f"{key} = {values[key]!r} outside [0, 1]"
        s = refmodel.si({**config.RAW_DEFAULTS, **raw})
        for key, want in refmodel.closed_form_coverage(s).items():
            # The quadrature's own contract: rel_tol 1e-8, abs_tol 1e-12.
            if abs(values[key] - want) > 1e-8 * want + 1e-12:
                return f"{key} = {values[key]!r}, closed form gives {want!r}"
        unstable, margin, expected = refmodel.expected_report(s, values, form)
        if margin > 1e-9 and unstable != (code == 3):
            return f"exit {code} but the reference says unstable={unstable}"
        if code == 3 and not stderr.startswith("model infeasible"):
            return "exit 3 without the infeasibility message"
        if code == 0:
            if set(expected) != {k for k in values if k.startswith(("case.", "average."))}:
                return "latency lines differ from the reference case list"
            for key, want in expected.items():
                if not close(values[key], want):
                    return f"{key} = {values[key]!r}, reference gives {want!r}"
                if values[key] < 0.0:
                    return f"{key} is negative"
        if self.reference is not None:
            stored_code, stored = self.reference[index]
            if stored_code != code:
                return f"exit {code}, stored reference has {stored_code}"
            for key, want in stored.items():
                if key not in values or not close(values[key], want):
                    return f"{key} = {values.get(key)!r}, stored reference has {want!r}"
        return None

    @property
    def ops_per_pass(self) -> int:
        return len(self.argvs)


# -- validate --------------------------------------------------------------


class Validate:
    """The 1e5-trial analytic-versus-Monte-Carlo validation; op = one run.

    Its inputs are pinned (default scenario, seed 8, the budget the
    acceptance test gates), so the workload seed does not change them.
    """

    warmup = False

    def __init__(self, seed: int, workdir: str):
        del seed, workdir
        self.params = config.default_params()

    def run_pass(self, clock, tracer=None) -> PassResult:
        start = clock()
        try:
            report = validate.run_validation(self.params, trials=VALIDATION_TRIALS, seed=VALIDATION_SEED)
        except Exception as exc:
            report = exc
        wall = clock() - start
        if tracer is not None:
            tracer.new_scope()
        return PassResult([wall], [wall], [report])

    def check(self, outputs) -> list[str]:
        report = outputs[0]
        if isinstance(report, Exception):
            return [f"run_validation raised {report!r}"]
        if len(report.rows) != VALIDATION_ROWS:
            return [f"{len(report.rows)} rows, expected {VALIDATION_ROWS}"]
        if not report.passed:
            return ["validation verdict is fail"]
        return []

    ops_per_pass = 1


WORKLOADS = {"figures": Figures, "scenarios": Scenarios, "validate": Validate}
