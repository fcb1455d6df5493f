"""Command-line front end.

Subcommands: `analytic` (evaluate one scenario), `sweep` (figure presets or
a custom axis), `validate` (analytic vs Monte Carlo), `plot` (sweep CSV to
SVG).  Exit codes are a stable contract: 0 success, 2 configuration error,
3 model infeasibility (unstable cloudlet queue), 4 validation failure, or a
validation the sampler cannot carry out.

`main(argv)` may be called repeatedly in one process.  The argument parser
is built on the first call and shared by every later one, so callers must
not mutate what `build_parser` returns.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import sys

from . import __version__
from .association import Link, Policy, Tier
from .config import ConfigError, default_params, parse_config
from .coverage import DlCoverageForm, dl_coverage
from .latency import QueueUnstable, Scheme, case_latencies, mean_breakdown, operating_point
from .svgplot import write_sweep_chart
from .sweeps import (
    SweepSpec,
    figure_sweep_spec,
    run_sweep,
    write_sweep_csv,
)
from .validate import MIN_TRIALS_FOR_POWER, run_validation, write_validation_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4


def _load_params(path: str | None):
    if path is None:
        return default_params()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


# The load lines print in the sorted order of their (policy, link, tier) names.
_LOAD_KEYS = sorted(
    itertools.product(Policy, Link, Tier), key=lambda key: tuple(member.value for member in key)
)


def cmd_analytic(args) -> int:
    """Report one scenario, written with a single `sys.stdout.write`.

    The write happens even when a case raises QueueUnstable, so the report
    then ends with the last case computed before the unstable one.
    """
    params = _load_params(args.config)
    form = DlCoverageForm(args.dl_coverage_form)
    lines: list[str] = []
    try:
        _analytic_report(params, form, lines)
    finally:
        sys.stdout.write("".join(lines))
    return EXIT_OK


def _analytic_report(params, form: DlCoverageForm, out: list[str]) -> None:
    # Appends the report's lines to `out` as each is computed.
    point = operating_point(params, form)
    report = point.assoc
    out.append(
        f"assoc.coupled.small = {report.a_ss_d!r}\n"
        f"assoc.coupled.macro = {report.a_mm_d!r}\n"
        f"assoc.decoupled.small_small = {report.a_ss_u!r}\n"
        f"assoc.decoupled.macro_macro = {report.a_mm_u!r}\n"
        f"assoc.decoupled.small_macro = {report.a_sm_u!r}\n"
        f"assoc.decoupled.macro_small = {report.a_ms_u!r}\n"
    )
    for link, marg in ((Link.UL, report.a_ul), (Link.DL, report.a_dl)):
        for tier in Tier:
            out.append(f"assoc.decoupled.marginal.{link.value}.{tier.value} = {marg[tier]!r}\n")
    for policy, link, tier in _LOAD_KEYS:
        load = report.load[policy, link, tier]
        out.append(f"load.{policy.value}.{link.value}.{tier.value} = {load!r}\n")

    for (policy, tier), cov in point.ul_coverage.items():
        out.append(f"coverage.ul.{policy.value}.{tier.value} = {cov!r}\n")
    # The point holds the DL coverage of its own form; only the other form
    # is evaluated here.
    for tier in point.tiers:
        for cov_form in DlCoverageForm:
            if cov_form is form:
                cov = point.dl_coverage[tier]
            else:
                cov = dl_coverage(params, tier, params.dl_sinr_threshold, form=cov_form)
            out.append(f"coverage.dl.{cov_form.value}.{tier.value} = {cov!r}\n")

    # Each case is computed once, and the average is taken over those cases.
    for scheme in Scheme:
        weighted = []
        for ul_tier, dl_tier, weight, case in case_latencies(point, scheme):
            weighted.append((weight, case))
            prefix = f"case.{scheme.value}.{ul_tier.value}_{dl_tier.value}."
            out.append(
                f"{prefix}weight = {weight!r}\n"
                f"{prefix}ul_time_s = {case.ul_time!r}\n"
                f"{prefix}exec_time_s = {case.exec_time!r}\n"
                f"{prefix}backhaul_time_s = {case.backhaul_time!r}\n"
                f"{prefix}dl_time_s = {case.dl_time!r}\n"
                f"{prefix}total_s = {case.total!r}\n"
            )
        out.append(f"average.{scheme.value}.total_s = {mean_breakdown(weighted).total!r}\n")


def cmd_sweep(args) -> int:
    params = _load_params(args.config)
    form = DlCoverageForm(args.dl_coverage_form)
    if args.figure is not None:
        spec = figure_sweep_spec(args.figure)
    else:
        if not args.axis or not args.values:
            print("sweep needs either --figure or both --axis and --values", file=sys.stderr)
            return EXIT_CONFIG
        try:
            values = tuple(float(v) for v in args.values.split(","))
            spec = SweepSpec(axis=args.axis, values=values)
        except ValueError as exc:
            print(f"bad sweep axis: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    rows = run_sweep(spec, base=params, form=form)
    write_sweep_csv(spec, rows, args.out, base=params, form=form)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    params = _load_params(args.config)
    try:
        report = run_validation(params, trials=args.trials, seed=args.seed)
    except RuntimeError as exc:
        # The sampler cannot realize this scenario (a load window too wide
        # to sample): no verdict.
        print(f"validation not possible: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        write_validation_csv(report, params, args.out)
    worst = max((abs(r.z_score) for r in report.rows), default=0.0)
    print(f"comparisons = {len(report.rows)}")
    print(f"max_abs_z = {worst!r}")
    if report.insufficient_power:
        print(f"verdict = insufficient_power (trials < {MIN_TRIALS_FOR_POWER})")
        return EXIT_VALIDATION
    if not report.passed:
        for row in report.rows:
            if row.failed:
                print(
                    f"FAIL {row.quantity}: analytic={row.analytic!r} "
                    f"empirical={row.empirical!r} z={row.z_score!r}"
                )
        print("verdict = fail")
        return EXIT_VALIDATION
    print("verdict = pass")
    return EXIT_OK


def cmd_plot(args) -> int:
    write_sweep_chart(args.infile, args.out, title=args.title)
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hetmec` argument parser, built once per process and shared.

    Every `main` call parses with this one object, so callers must not
    mutate it.  Reuse is safe: `parse_args` makes a fresh namespace on each
    call, and `--version` and usage errors write to the `sys.stdout` and
    `sys.stderr` in force at call time.
    """
    parser = argparse.ArgumentParser(
        prog="hetmec",
        description="Offloading latency of a two-tier edge network under "
        "coupled or decoupled uplink/downlink association",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="evaluate one scenario analytically")
    p_analytic.add_argument("--config", help="configuration file (defaults if omitted)")
    p_analytic.add_argument(
        "--dl-coverage-form",
        choices=[f.value for f in DlCoverageForm],
        default=DlCoverageForm.SCALED_NOISE.value,
    )
    p_analytic.set_defaults(func=cmd_analytic)

    p_sweep = sub.add_parser("sweep", help="run a figure preset or a custom axis sweep")
    p_sweep.add_argument("--figure", type=int, choices=(2, 3, 4, 5))
    p_sweep.add_argument("--axis", help="configuration key or ratio pseudo-axis")
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.add_argument("--config", help="base configuration file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument(
        "--dl-coverage-form",
        choices=[f.value for f in DlCoverageForm],
        default=DlCoverageForm.SCALED_NOISE.value,
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_validate = sub.add_parser("validate", help="compare closed forms against Monte Carlo")
    p_validate.add_argument("--config", help="configuration file (defaults if omitted)")
    p_validate.add_argument("--trials", type=int, required=True)
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--out", help="validation CSV path")
    p_validate.set_defaults(func=cmd_validate)

    p_plot = sub.add_parser("plot", help="render a sweep CSV as an SVG chart")
    p_plot.add_argument("--in", dest="infile", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--title")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # `--values -12,-9,-6` must work even though the value starts with a
    # dash (negative thresholds are the common case); fold it into `=` form.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--values" and i + 1 < len(argv):
            out.append(f"--values={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(list(argv if argv is not None else sys.argv[1:])))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QueueUnstable as exc:
        print(f"model infeasible: {exc}", file=sys.stderr)
        print(
            f"stability frontier: tier {exc.tier.value} needs service rate > "
            f"{exc.arrival_rate:.6g} req/s (configured {exc.service_rate:.6g} req/s)",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
