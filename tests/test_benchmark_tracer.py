"""The benchmark's tracer sees a validation run on its calling thread only.

`perfbench/tracer.py` keeps one span stack for the whole process, so a
function of its `TRACED` table entered on a sampler helper thread would
corrupt the spans of the thread that runs the benchmark.  The tracer is
imported by path and installed as the benchmark installs it.
"""
import importlib.util
import threading
from pathlib import Path

import pytest

import hetmec.montecarlo
import hetmec.validate
from hetmec.config import params_from_raw
from hetmec.montecarlo import _BATCH

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# At 2 CPUs the helper mostly runs the load task while the calling thread
# runs the rest; at 8 the coverage batches run on helpers as well.
@pytest.mark.parametrize("cpus", [2, 8])
def test_traced_functions_run_only_on_the_calling_thread(cpus, monkeypatch):
    tracer = _tracer_module()
    entered = []

    class ThreadRecordingTracer(tracer.Tracer):
        def _wrap(self, entry, func):
            wrapper = super()._wrap(entry, func)

            def recording(*args, **kwargs):
                entered.append((entry, threading.current_thread()))
                return wrapper(*args, **kwargs)

            return recording

    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    traced = ThreadRecordingTracer()
    traced.install()
    try:
        hetmec.validate.run_validation(params_from_raw({}), _BATCH + 17, seed=5)
    finally:
        traced.uninstall()
    assert ("validate.run_validation", threading.current_thread()) in entered
    assert {thread for _, thread in entered} == {threading.current_thread()}
