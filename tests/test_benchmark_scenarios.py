"""The benchmark's independent scenario checks, run as a test.

`perfbench/refmodel.py` rebuilds every coverage, rate, queue and latency of
a `hetmec analytic` report from its printed ingredients and shares no code
with hetmec's latency layers.  The `scenarios` workload of
`perfbench/workloads.py` holds 300 random reports per seed to it, and those
of its reference seed to `perfbench/reference/` as well.  The workload is
imported by path and run as the benchmark runs it.
"""
import importlib.util
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads(monkeypatch):
    # workloads.py imports refmodel as a top-level module.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_scenarios_pass_their_independent_checks(seed, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    scenarios = workloads.Scenarios(seed, str(tmp_path))
    # Seed 1 is also checked against its stored reports.
    assert (scenarios.reference is not None) == (seed == workloads.REFERENCE_SEED == 1)
    result = scenarios.run_pass(time.perf_counter)
    assert len(result.outputs) == scenarios.ops_per_pass == workloads.SCENARIO_COUNT
    assert scenarios.check(result.outputs) == []
