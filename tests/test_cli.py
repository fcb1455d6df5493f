import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hetmec.association
import hetmec.montecarlo
from hetmec import cli, latency
from hetmec.association import Tier
from hetmec.cli import build_parser, main
from hetmec.config import default_params
from hetmec.coverage import DlCoverageForm, dl_coverage
from hetmec.validate import run_validation

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def test_analytic_defaults(capsys):
    assert main(["analytic"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["assoc.coupled.small"] == pytest.approx(0.61314, abs=1e-5)
    assert report["assoc.decoupled.macro_small"] == 0.0
    assert report["average.coupled_access.total_s"] == pytest.approx(0.158, abs=2e-3)
    # both downlink coverage forms are reported
    assert "coverage.dl.scaled_noise.small" in report
    assert "coverage.dl.interference.small" in report
    total = report["case.coupled_access.small_small.total_s"]
    parts = sum(
        report[f"case.coupled_access.small_small.{c}"]
        for c in ("ul_time_s", "exec_time_s", "backhaul_time_s", "dl_time_s")
    )
    assert total == pytest.approx(parts, rel=1e-12)

    # Each printed DL coverage is exactly the closed form of its own form,
    # whichever form the operating point was built with.
    params = default_params()
    for point_form in DlCoverageForm:
        assert main(["analytic", "--dl-coverage-form", point_form.value]) == 0
        report = parse_report(capsys.readouterr().out)
        for form in DlCoverageForm:
            for tier in Tier:
                want = dl_coverage(params, tier, params.dl_sinr_threshold, form=form)
                assert report[f"coverage.dl.{form.value}.{tier.value}"] == want


@pytest.mark.parametrize("form", [f.value for f in DlCoverageForm])
def test_analytic_evaluates_each_dl_coverage_once(monkeypatch, capsys, form):
    # The operating point holds the DL coverage of its own form, so the
    # report evaluates only the other form: 2 tiers x 2 forms, once each.
    calls = Counter()
    original = latency.dl_coverage

    def counted(params, tier, gamma_dl, form=DlCoverageForm.SCALED_NOISE):
        calls[tier, form] += 1
        return original(params, tier, gamma_dl, form=form)

    monkeypatch.setattr(latency, "dl_coverage", counted)
    monkeypatch.setattr(cli, "dl_coverage", counted)
    assert main(["analytic", "--dl-coverage-form", form]) == 0
    capsys.readouterr()
    assert calls == {(tier, f): 1 for tier in Tier for f in DlCoverageForm}


GOLDEN_CASES = [
    ("default-scaled_noise", [], 0),
    ("default-interference", ["--dl-coverage-form", "interference"], 0),
    ("single_tier", ["--config", str(GOLDEN / "single_tier.cfg")], 0),
    ("unstable", ["--config", str(GOLDEN / "unstable.cfg")], 3),
    # The macro DL cloudlet (58.2 req/s into mu = 50 req/s) fails mid-scheme:
    # the coupled and UL-processing blocks and one DL-processing case print.
    ("unstable_dl_proc", ["--config", str(GOLDEN / "unstable_dl_proc.cfg")], 3),
]


@pytest.mark.parametrize("stem, extra, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_analytic_report_matches_golden_bytes(capsys, stem, extra, code):
    assert main(["analytic", *extra]) == code
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{stem}.out").read_bytes()
    err_file = GOLDEN / f"{stem}.err"
    want_err = err_file.read_bytes() if err_file.exists() else b""
    assert captured.err.encode() == want_err


def test_fresh_process_report_matches_golden_bytes():
    # A one-shot `python -m hetmec analytic` builds its own parser.
    result = subprocess.run(
        [sys.executable, "-m", "hetmec", "analytic"],
        env=_src_env(),
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "default-scaled_noise.out").read_bytes()
    assert result.stderr == b""


def test_fresh_process_mid_scheme_unstable_report_matches_golden_bytes():
    # Exit 3 after a partial report: every line computed before the unstable
    # case reaches stdout, then the message reaches stderr.
    config = GOLDEN / "unstable_dl_proc.cfg"
    result = subprocess.run(
        [sys.executable, "-m", "hetmec", "analytic", "--config", str(config)],
        env=_src_env(),
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 3
    assert result.stdout == (GOLDEN / "unstable_dl_proc.out").read_bytes()
    assert result.stderr == (GOLDEN / "unstable_dl_proc.err").read_bytes()


# The DL coverage form does not change which cases a report computes.
COUNTED_CASES = [case for case in GOLDEN_CASES if case[0] != "default-interference"]


@pytest.mark.parametrize("stem, extra, code", COUNTED_CASES, ids=[c[0] for c in COUNTED_CASES])
def test_analytic_computes_each_printed_case_once(monkeypatch, capsys, stem, extra, code):
    # One case_latency call per printed case, in printed order, plus the
    # call that raises for an unstable case, which prints nothing.
    called = []
    original = latency.case_latency

    def counted(point, scheme, ul_tier, dl_tier, **kwargs):
        called.append(f"case.{scheme.value}.{ul_tier.value}_{dl_tier.value}")
        return original(point, scheme, ul_tier, dl_tier, **kwargs)

    # Count every call, whichever module the report reaches it through.
    for module in (latency, cli):
        monkeypatch.setattr(module, "case_latency", counted, raising=False)
    assert main(["analytic", *extra]) == code
    printed = [
        key.removesuffix(".total_s")
        for key in parse_report(capsys.readouterr().out)
        if key.startswith("case.") and key.endswith(".total_s")
    ]
    assert called[: len(printed)] == printed
    assert len(called) == len(printed) + (code == 3)


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("stem, extra, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_analytic_writes_its_report_once_to_the_current_stdout(stem, extra, code):
    stream = _CountingStream()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analytic", *extra]) == code
    assert stream.writes == 1
    assert stream.getvalue().encode() == (GOLDEN / f"{stem}.out").read_bytes()


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    assert main(["analytic"]) == 0
    built = Counter()
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built["parsers"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(199):
        assert main(["analytic"]) == 0
    capsys.readouterr()
    assert built["parsers"] == 0


def test_exiting_call_leaves_the_shared_parser_intact(capsys):
    assert main(["analytic"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as excinfo:
        main(["analytic", "--dl-coverage-form", "bogus"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("hetmec ")
    assert main(["analytic"]) == 0
    assert capsys.readouterr().out == first


def test_shared_parser_keeps_no_value_between_calls():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["sweep", "--figure", "5", "--out", "a.csv"])
    second = parser.parse_args(["sweep", "--axis", "gamma_db", "--values=-3", "--out", "b.csv"])
    assert first.figure == 5
    assert second.figure is None
    assert (second.axis, second.values, second.out) == ("gamma_db", "-3", "b.csv")


def test_analytic_single_tier_config(tmp_path, capsys):
    cfg = tmp_path / "single.cfg"
    cfg.write_text("lambda_s_per_km2 = 0\n")
    assert main(["analytic", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    report = parse_report(out)
    assert report["assoc.coupled.macro"] == 1.0
    assert "coverage.ul.coupled.small" not in report


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_u_per_km2 = 2\n")
    assert main(["analytic", "--config", str(cfg)]) == 2
    assert "thinning" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ("p_m_dbm = 4000\n", "p_m_dbm"),
        ("gamma_ul_db = 4000\n", "gamma_ul_db"),
        ("p_m_dbm = 3000\np_s_dbm = -3000\n", "p_m_dbm"),
    ],
)
def test_overflowing_config_exits_with_config_error(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["analytic", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: key {key!r}")


@pytest.mark.parametrize(
    "text",
    [
        "p_m_dbm = 1500\np_s_dbm = -1500\nlambda_s_per_km2 = 1e-300\n",
        "lambda_m_per_km2 = 1e300\nlambda_s_per_km2 = 1e-300\nlambda_u_per_km2 = 2e300\n",
        "lambda_m_per_km2 = 1e-300\nlambda_s_per_km2 = 1e300\nlambda_u_per_km2 = 2e300\n",
    ],
)
def test_underflowed_association_probability_still_reports(tmp_path, capsys, text):
    # An association probability, and with it a load, underflows to 0.
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    assert main(["analytic", "--config", str(cfg)]) == 0
    report = parse_report(capsys.readouterr().out)
    assert 0.0 in [value for key, value in report.items() if key.startswith("load.")]
    for scheme in ("coupled_access", "decoupled_ul_proc", "decoupled_dl_proc"):
        assert math.isfinite(report[f"average.{scheme}.total_s"])


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda_q_per_km2 = 2\n")
    assert main(["analytic", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_key_given_twice_exit_code(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("gamma_ul_db = -10\ngamma_ul_db = 5\n")
    assert main(["analytic", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: line 2: key 'gamma_ul_db' already given on line 1\n"
    )


def test_missing_config_file_exit_code(capsys):
    assert main(["analytic", "--config", "/nonexistent/path.cfg"]) == 2


def test_queue_unstable_exit_code(tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("f_s_hz = 2e8\n")
    assert main(["analytic", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "unstable" in err
    assert "stability frontier" in err


def test_sweep_figure_and_plot(tmp_path, capsys):
    out_csv = tmp_path / "fig2.csv"
    assert main(["sweep", "--figure", "2", "--out", str(out_csv)]) == 0
    text = out_csv.read_text()
    data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(data_rows) == 1 + 31 * 2 * 3  # header line plus rows

    out_svg = tmp_path / "fig2.svg"
    assert main(["plot", "--in", str(out_csv), "--out", str(out_svg)]) == 0
    svg = out_svg.read_text()
    assert svg.count("<polyline") == 6


def test_sweep_custom_axis(tmp_path):
    out_csv = tmp_path / "custom.csv"
    code = main(
        ["sweep", "--axis", "c_bh_bps", "--values", "1e4,1e5,1e6,1e7", "--out", str(out_csv)]
    )
    assert code == 0
    data_rows = [l for l in out_csv.read_text().splitlines() if l and not l.startswith("#")]
    assert len(data_rows) == 1 + 4 * 3


def test_sweep_accepts_negative_axis_values(tmp_path):
    # threshold grids are negative in dB; the space-separated form must work
    out_csv = tmp_path / "neg.csv"
    code = main(["sweep", "--axis", "gamma_db", "--values", "-12,-9,-6", "--out", str(out_csv)])
    assert code == 0
    data_rows = [l for l in out_csv.read_text().splitlines() if l and not l.startswith("#")]
    assert len(data_rows) == 1 + 3 * 3


def test_sweep_requires_axis_or_figure(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2


def test_sweep_csv_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["sweep", "--figure", "5", "--out", str(a)])
    main(["sweep", "--figure", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_validate_insufficient_power(tmp_path, capsys):
    assert main(["validate", "--trials", "10", "--seed", "1"]) == 4
    assert "insufficient_power" in capsys.readouterr().out


def test_validate_writes_csv_and_flags_injected_fault(tmp_path, monkeypatch, capsys):
    # a deliberate +0.1 corruption of the coupled association must be caught
    true_fn = hetmec.association.coupled_probs

    def corrupted(params):
        a_ss, a_mm = true_fn(params)
        return a_ss + 0.1, a_mm - 0.1

    monkeypatch.setattr(hetmec.association, "coupled_probs", corrupted)
    report = run_validation(default_params(), trials=20_000, seed=3)
    assert not report.passed
    worst = max(abs(r.z_score) for r in report.rows)
    assert worst > 3.0


def test_validation_makes_one_load_pass_and_notes_sampler_counts(monkeypatch):
    # run_validation runs the load sampler as a task of its one dispatch,
    # through the untraced _load_estimates, the load job's one batch.
    calls = []
    original = hetmec.montecarlo._load_estimates

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hetmec.montecarlo, "_load_estimates", spy)
    report = run_validation(default_params(), trials=2_000, seed=5)
    assert len(calls) == 1
    coverage_rows = [r.quantity for r in report.rows if r.quantity.startswith("coverage")]
    sampler_rows = [
        note.removeprefix("sampler ").partition(":")[0]
        for note in report.notes
        if note.startswith("sampler ")
    ]
    # One note for the load sampler, then one per coverage row.
    assert sampler_rows == ["loads"] + coverage_rows
    loads_note = next(note for note in report.notes if note.startswith("sampler loads: "))
    assert re.fullmatch(
        r"sampler loads: probes \d+ \(spacing 230 m, 1\.322 users each\),"
        r" small-cell lookups \d+ \(0\.\d{4} of probes\)",
        loads_note,
    ), loads_note


def test_validate_rejects_a_negative_seed_before_sampling(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(hetmec.montecarlo, "_load_estimates", lambda *args: calls.append(args))
    assert main(["validate", "--trials", "100000", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert calls == []


def test_validate_small_run_passes_with_csv(tmp_path, capsys):
    out = tmp_path / "val.csv"
    code = main(["validate", "--trials", "12000", "--seed", "8", "--out", str(out)])
    text = out.read_text()
    assert "quantity,analytic,empirical,std_error,z_score" in text
    assert "pass = " in text
    assert f"# numpy = {np.__version__}\n" in text
    assert "# coverage estimator = conditional success probability" in text
    assert "# sampler coverage_ul_coupled_macro: trials 12000, interferers " in text
    assert code in (0, 4)  # statistical; the fixed acceptance seed is checked elsewhere
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) >= 20


@pytest.mark.parametrize(
    "text, refused",
    [
        # A load-sampler window that would need ~1e301 macro BSs per trial.
        ("p_m_dbm = 1500\np_s_dbm = -1500\nlambda_s_per_km2 = 1e-300\n", "macro BS process"),
        # A probe lattice about 1.5e-12 m fine, ~1e31 probes per trial.
        ("lambda_u_per_km2 = 1e30\n", "probe lattice"),
    ],
    ids=["bs_window", "probe_lattice"],
)
def test_validate_reports_unsampleable_scenario_as_validation_outcome(
    tmp_path, capsys, text, refused
):
    # A valid scenario the load sampler cannot realize: no verdict is
    # possible, which is exit 4, not a configuration error.
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    assert main(["analytic", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg), "--trials", "2000"]) == 4
    err = capsys.readouterr().err
    assert "validation not possible: " in err
    assert refused in err


def test_validate_estimates_coverage_of_a_tier_almost_never_picked(tmp_path, capsys):
    # At 3000 dB between the tier powers the max-power rule almost never
    # picks a small cell (probability ~1e-149), yet every coverage row is
    # estimated: its trials are drawn from the serving-distance law given
    # the tier.  The association and load rows of that tier tally zero
    # against a positive analytic value, so their z is inf and the verdict
    # is fail.
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("p_m_dbm = 1500\np_s_dbm = -1500\n")
    out = tmp_path / "val.csv"
    code = main(["validate", "--config", str(cfg), "--trials", "10000", "--out", str(out)])
    assert "validation not possible" not in capsys.readouterr().err
    rows = {
        line.split(",")[0]: float(line.split(",")[-1])
        for line in out.read_text().splitlines()
        if not line.startswith("#") and not line.startswith("quantity,")
    }
    coverage = {name: z for name, z in rows.items() if name.startswith("coverage_")}
    assert len(coverage) == 8
    assert all(math.isfinite(z) for z in coverage.values()), coverage
    assert code == 4


def test_python_dash_m_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hetmec", "--version"],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("hetmec ")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
