"""hetmec benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload figures|scenarios|validate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hetmec is imported from ./src, and
nothing is installed or built.  The run

* times set-up (importing hetmec and building the inputs) in SETUP_RUNS fresh
  interpreters and reports the median (untraced runs only);
* runs the workload in one more fresh interpreter (worker.py) for S seconds,
  checking every output it times against perfbench/reference/;
* prints each metric by name with its unit, then, as the last line, one JSON
  object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 reports
its per-layer metrics from a run whose layers are wrapped by tracer.py.  A
record of each run, with the machine facts, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 30


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _child_env() -> tuple[dict, int]:
    """Environment for the workers: hetmec from ./src, BLAS threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, nproc


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" when ROOT is not itself a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    # subprocess.run kills the worker and waits for it when the timeout expires.
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout, check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("figures", "scenarios", "validate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hetmec", "__init__.py")):
        print(f"error: no hetmec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = _spec()
    env, nproc = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                done = _worker([*common, "--setup-only"], env, SETUP_TIMEOUT_S)
                setups.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        with tempfile.NamedTemporaryFile(dir=OUT_DIR, suffix=".json", delete=False) as handle:
            result_path = handle.name
        try:
            _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--out", result_path], env, WORKER_TIMEOUT_S)
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        finally:
            os.unlink(result_path)
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker timed out after {exc.timeout} s", file=sys.stderr)
        return 1

    environment = {
        "nproc": nproc,
        "python": result["python"],
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "blas_threads": int(env["OMP_NUM_THREADS"]),
        "commit": _git_commit(),
    }
    if args.trace:
        declared = spec["per_layer"]
        # A layer that did not run on this workload has no spans: it reports 0.
        values = {m["name"]: float(result["layers"].get(m["name"], 0.0)) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": result["wall_ref"],
            "op_p50_ref": result["op_p50_ref"],
            "op_p90_ref": result["op_p90_ref"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_rate": (result["attempted"] - result["failed"]) / result["attempted"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("  ".join(f"{key}={value}" for key, value in environment.items()))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops failed)")
    if args.trace:
        print(f"absent layers: {', '.join(result['absent_layers']) or 'none'}; "
              f"counts repeat across {result['passes']} traced passes: {result['counts_repeat']}; "
              f"spans: {result['spans_file']}")
    else:
        print(f"in seconds: wall_s = {result['wall_s']:.6g} s  op_p50_ms = "
              f"{result['op_p50_s'] * 1e3:.6g} ms  op_p90_ms = {result['op_p90_s'] * 1e3:.6g} ms  "
              f"(1 refloop = {result['ref_s'] * 1e3:.6g} ms, median of {result['ref_samples']} loops)")
        print(f"passes {result['passes']}, ops {result['ops']} ({result['ops_above_p90']} above p90), "
              f"setup runs {len(setups)}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    record = {"args": vars(args), "environment": environment, "metrics": metrics,
              "setup_runs_s": setups, **result}
    record_path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
