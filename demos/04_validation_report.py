"""Validate every closed form against the point-process sampler.

Runs the full analytic-vs-empirical comparison table (association
probabilities, per-cell loads, coverage probabilities) and writes the
machine-readable CSV next to this script.  Expect about 1.2 s on a 2-vCPU
machine, import included.
"""
import pathlib

from hetmec import default_params
from hetmec.validate import run_validation, write_validation_csv

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

params = default_params()
report = run_validation(params, trials=50_000, seed=8)

width = max(len(row.quantity) for row in report.rows)
print(f"{'quantity':<{width}} {'analytic':>10} {'empirical':>10} {'z':>7}")
for row in report.rows:
    print(
        f"{row.quantity:<{width}} {row.analytic:>10.5f} {row.empirical:>10.5f} "
        f"{row.z_score:>+7.2f}"
    )
print(f"\nall |z| <= 3 and coverage deltas <= 0.02: {report.passed}")

csv_path = OUT / "validation.csv"
write_validation_csv(report, params, str(csv_path))
print(f"wrote {csv_path}")
