"""Regenerate the stored references in perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes the four preset figure CSVs and, for the reference scenario seed, each
scenario's exit code with its coverage values and scheme-average latencies.
Run it only when a change to hetmec's numbers is intended and reviewed: the
benchmark counts every output that differs from these files as failed.
"""
from __future__ import annotations

import json
import os
import tempfile

from hetmec import sweeps

import refmodel
import workloads

OUT_DIR = os.path.join(workloads.HERE, "out")
# Stored per scenario; the other printed lines follow from these through the
# reference model's invariants.
STORED_KEYS = (
    *(key for key in refmodel.PROBABILITY_KEYS if key.startswith("coverage.")),
    *(f"average.{scheme}.total_s" for scheme in refmodel.SCHEME_CASES),
)


def main() -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for figure in workloads.FIGURES:
        spec = sweeps.figure_sweep_spec(figure)
        path = os.path.join(workloads.REFERENCE_DIR, f"fig{figure}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(sweeps.sweep_csv(spec, sweeps.run_sweep(spec)))

    seed = workloads.REFERENCE_SEED
    stored = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        path = os.path.join(workdir, "scenario.cfg")
        for raw, form in workloads.draw_scenarios(seed, workloads.SCENARIO_COUNT):
            workloads.write_config(path, raw)
            code, out, err = workloads.run_analytic(
                ["analytic", "--config", path, "--dl-coverage-form", form]
            )
            if code not in (0, 3):
                raise SystemExit(f"scenario failed with exit {code!r}: {err}")
            values = workloads.parse_report(out)
            stored.append([code, [values.get(key) for key in STORED_KEYS]])
    # One scenario per line: [exit code, values in STORED_KEYS order, null if not printed].
    lines = ",\n".join(json.dumps(entry) for entry in stored)
    with open(workloads.scenario_reference_path(seed), "w", encoding="utf-8") as handle:
        handle.write(f'{{"seed": {seed}, "keys": {json.dumps(STORED_KEYS)},\n"scenarios": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
