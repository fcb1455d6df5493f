"""The benchmark's independent scenario checks, run as a test.

`perfbench/refmodel.py` rebuilds every coverage, rate, queue and latency of
a `hetmec analytic` report from its printed ingredients and shares no code
with hetmec's latency layers.  The `scenarios` workload of
`perfbench/workloads.py` holds 300 random reports per seed to it, and those
of its reference seed to `perfbench/reference/` as well.  The workload is
imported by path and run as the benchmark runs it.  The same checks also
run over the test's own draw of the axes the benchmark does not vary, and
one pass of each of the `figures` and `validate` workloads is held to its
own check.
"""
import importlib.util
import random
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


@pytest.mark.parametrize("name", ["figures", "validate"])
def test_benchmark_workload_pass_passes_its_check(name, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    result = workload.run_pass(time.perf_counter)
    assert len(result.op_s) == workload.ops_per_pass
    assert workload.check(result.outputs) == []


def _own_draw(seed: int, count: int) -> list[tuple[dict, str]]:
    """`count` scenarios on the axes the benchmark's draw leaves at their
    defaults: tier-power gap 0..40 dB, f_s / f_m 0.05..1 and b_in / b_out
    1..10, each Latin-hypercube sampled as `draw_scenarios` samples its own,
    with both backhaul modes and both DL coverage forms."""
    rng = random.Random(seed)

    def strata() -> list[float]:
        draws = [(i + rng.random()) / count for i in range(count)]
        rng.shuffle(draws)
        return draws

    gap, capacity, bits = (strata() for _ in range(3))
    scenarios = []
    for i in range(count):
        raw = {
            "p_m_dbm": 46.0,
            "p_s_dbm": 46.0 - 40.0 * gap[i],
            "f_m_hz": 4.5e9,
            "f_s_hz": 4.5e9 * (0.05 + 0.95 * capacity[i]),
            "b_out_bits": 1000.0,
            "b_in_bits": 1000.0 * (1.0 + 9.0 * bits[i]),
            "backhaul_mode": ("cross_tier_only", "always")[i % 2],
        }
        scenarios.append((raw, ("scaled_noise", "interference")[(i // 2) % 2]))
    # The largest tier-power gap whose power ratio still fits a float.
    scenarios.append(({"p_m_dbm": 1500.0, "p_s_dbm": -1500.0}, "interference"))
    return scenarios


def test_own_axes_pass_the_benchmarks_independent_checks(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    drawn = _own_draw(3, 128)
    # Scenarios builds its configs from draw_scenarios; seed 0 has no stored reference.
    monkeypatch.setattr(workloads, "draw_scenarios", lambda seed, count: drawn)
    scenarios = workloads.Scenarios(0, str(tmp_path))
    assert scenarios.reference is None and scenarios.scenarios is drawn
    result = scenarios.run_pass(time.perf_counter)
    assert len(result.outputs) == len(drawn)
    assert scenarios.check(result.outputs) == []


def test_tier_power_gap_beyond_a_float_is_a_config_error(tmp_path, monkeypatch):
    # 6000 dB apart, the power ratio overflows: exit 2, naming p_m_dbm.
    workloads = _workloads(monkeypatch)
    path = tmp_path / "gap.cfg"
    workloads.write_config(str(path), {"p_m_dbm": 3000.0, "p_s_dbm": -3000.0})
    code, _, stderr = workloads.run_analytic(["analytic", "--config", str(path)])
    assert code == 2
    assert stderr.startswith("configuration error: key 'p_m_dbm'"), stderr
