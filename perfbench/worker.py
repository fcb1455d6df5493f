"""One workload in one fresh interpreter; started by run.py.

  worker.py --workload W --seed N --setup-only
      prints {"setup_s": ...}: seconds to import hetmec and build the inputs.
  worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE
      measures passes for S seconds and writes the measurements to FILE.

With --trace 0 every pass is untraced.  With --trace 1 untraced and traced
passes alternate, so the tracing overhead is the difference between the two
median pass times; per-layer counts come from the first traced pass and self
times are medians over the traced passes.

Untraced runs also time a fixed reference loop, shaped like hetmec's
quadrature (a Gauss-Kronrod rule on small numpy arrays with a heap), every
REF_EVERY_S seconds from a SIGALRM handler; the clock the workloads time with
leaves the handler's time out.  On a shared cloud host the speed a process
gets drifts by up to a factor of two over tens of seconds, for hetmec and the
loop alike, so a time divided by the loop's median time during the same pass
("refloop" units) stays put when the host's speed moves, and changes when
hetmec's own work does.  The raw seconds are recorded too.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from heapq import heappop, heappush

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
MAX_MEASURE_S = 120  # leaves room under the 180 s limit for set-up and checks
REF_SEGMENTS = 300  # about 2.4 ms on a 2.1 GHz Xeon vCPU
REF_EVERY_S = 0.05
clock = time.perf_counter


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(0.90 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class ReferenceLoop:
    """The reference loop's times, taken every REF_EVERY_S seconds while active."""

    def __init__(self):
        import numpy  # here, so that set-up alone pays for hetmec's own import of it

        self.np = numpy
        self.nodes = numpy.linspace(-1.0, 1.0, 15)
        self.weights = numpy.full(15, 2.0 / 15)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler

    def clock(self) -> float:
        """perf_counter without the time spent in the loop."""
        spent = self.spent  # read first: a handler that runs next counts as before
        return clock() - spent

    def _sample(self, signum=None, frame=None) -> None:
        np, nodes, weights = self.np, self.nodes, self.weights
        began = clock()
        total, heap = 0.0, []
        for i in range(REF_SEGMENTS):
            half, mid = 0.5 + 0.01 * (i % 7), 1.0 + 0.1 * (i % 11)
            x = mid + half * nodes
            value = half * float(np.dot(weights, np.exp(-x * x) / (1.0 + x)))
            total += value
            heappush(heap, (-value, i))
            if len(heap) > 32:
                heappop(heap)
        ended = clock()
        self.samples.append(ended - began)
        self.spent += clock() - began

    def __enter__(self) -> "ReferenceLoop":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def median_s(self) -> float:
        return _median(self.samples)


class Measurement:
    def __init__(self, workload, ref: ReferenceLoop | None = None):
        self.workload = workload
        self.ref = ref
        self.pass_s: list[float] = []
        self.pass_ref_s: list[float] = []  # the reference loop's median time during each pass
        self.op_runs: list[list[float]] = []  # per op, its time in each pass
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, tracer=None):
        if self.ref is None:
            result = self.workload.run_pass(clock, tracer)
        else:
            first = len(self.ref.samples)
            result = self.workload.run_pass(self.ref.clock, tracer)
            self.pass_ref_s.append(_median(self.ref.samples[first:]))
        failures = self.workload.check(result.outputs)
        self.pass_s.append(math.fsum(result.unit_s))
        if not self.op_runs:
            self.op_runs = [[] for _ in result.op_s]
        for runs, seconds in zip(self.op_runs, result.op_s):
            runs.append(seconds)
        self.attempted += self.workload.ops_per_pass
        self.failures += failures
        return result

    def in_refloops(self) -> tuple[list[float], list[list[float]]]:
        """pass_s and op_runs with each time divided by its pass's reference time."""
        passes = [t / r for t, r in zip(self.pass_s, self.pass_ref_s)]
        ops = [[t / r for t, r in zip(runs, self.pass_ref_s)] for runs in self.op_runs]
        return passes, ops

    def summary(self) -> dict:
        return {
            "passes": len(self.pass_s),
            "pass_s": self.pass_s,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
        }


def measure_untraced(workload, seconds: float) -> dict:
    if workload.warmup:
        workload.run_pass(clock)
    with ReferenceLoop() as ref:
        m = Measurement(workload, ref)
        start = clock()
        while True:
            m.run()
            if clock() - start >= min(seconds, MAX_MEASURE_S):
                break
    # A pass's median; each op's median over the passes, then percentiles
    # across the ops.  Once in seconds and once in refloops.
    op_s = [_median(runs) for runs in m.op_runs]
    p90, tail = _p90(op_s)
    pass_ref, op_runs_ref = m.in_refloops()
    op_ref = [_median(runs) for runs in op_runs_ref]
    out = m.summary()
    out.update(
        wall_s=_median(m.pass_s),
        op_p50_s=_median(op_s),
        op_p90_s=p90,
        wall_ref=_median(pass_ref),
        op_p50_ref=_median(op_ref),
        op_p90_ref=_p90(op_ref)[0],
        ops=len(op_s),
        ops_above_p90=tail,
        pass_ref_s=m.pass_ref_s,
        ref_s=ref.median_s,
        ref_samples=len(ref.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


def measure_traced(workload, seconds: float, spans_path: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.resolve()
    if workload.warmup:
        workload.run_pass(clock)
    plain = Measurement(workload)
    traced = Measurement(workload)
    per_pass: list[dict] = []
    kept_spans: list[list[list]] = []
    start = clock()
    while True:
        plain.run()
        tracer.reset()
        tracer.install()
        try:
            traced.run(tracer)
        finally:
            tracer.uninstall()
        per_pass.append({**tracer.counts, **tracer.self_times()})
        kept_spans.append(list(tracer.spans))
        if clock() - start >= min(seconds, MAX_MEASURE_S):
            break
    tracer.write_spans(spans_path, kept_spans)
    # Counts come from the first traced pass and must repeat in the others;
    # seconds ("*_s") are medians over the traced passes.
    first = per_pass[0]
    counts = {key: value for key, value in first.items() if not key.endswith("_s")}
    layers = dict(counts)
    for key in {key for p in per_pass for key in p if key.endswith("_s")}:
        layers[key] = _median([p.get(key, 0.0) for p in per_pass])
    coverage_s = layers.get("montecarlo.coverage_ul_s", 0.0) + layers.get("montecarlo.coverage_dl_s", 0.0)
    if coverage_s:
        layers["montecarlo.coverage_trials_per_s"] = first["montecarlo.coverage_trials"] / coverage_s
    untraced_wall, traced_wall = _median(plain.pass_s), _median(traced.pass_s)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    out = traced.summary()
    out["attempted"] += plain.attempted
    out["failed"] += len(plain.failures)
    out["failures"] = (plain.failures + traced.failures)[:20]
    out.update(
        layers=layers,
        counts_repeat=all({k: v for k, v in p.items() if not k.endswith("_s")} == counts
                          for p in per_pass),
        untraced_pass_s=plain.pass_s,
        absent_layers=tracer.absent_layers,
        missing_names=tracer.missing,
        spans_file=os.path.relpath(spans_path, os.path.dirname(HERE)),
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    start = clock()
    # Importing the workloads imports hetmec: part of the timed set-up.
    workloads = importlib.import_module("workloads")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = clock() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            # One file per workload, overwritten by each traced run, to bound disk use.
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
            result = measure_traced(workload, args.seconds, spans)
        else:
            result = measure_untraced(workload, args.seconds)
        import numpy
        import scipy

        result.update(
            worker_setup_s=setup_s,
            python=sys.version.split()[0],
            numpy=numpy.__version__,
            scipy=scipy.__version__,
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
