"""The demos that only print run to completion against the current API, and
the committed validation tables, demos/04's and the golden scenarios', are
what run_validation writes today."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hetmec.config import params_from_raw
from hetmec.validate import run_validation, validation_csv

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_association_probabilities.py", "02_coverage_probabilities.py"]
)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# (golden, raw config, trials), each at seed 8: demos/04's run at the
# defaults, then scenarios that move the sampler's laws apart or together.
VALIDATION_GOLDENS = [
    ("demos/output/validation.csv", {}, 50_000),
    ("tests/golden/validation_single_tier.csv", {"lambda_s_per_km2": 0}, 20_000),
    ("tests/golden/validation_weak_small.csv", {"p_s_dbm": 6}, 20_000),
    (
        "tests/golden/validation_dense_small.csv",
        {"lambda_s_per_km2": 50, "lambda_u_per_km2": 60},
        20_000,
    ),
    ("tests/golden/validation_equal_powers.csv", {"p_m_dbm": 30, "p_s_dbm": 30}, 20_000),
]


@pytest.mark.parametrize(
    "golden, raw, trials",
    VALIDATION_GOLDENS,
    ids=["demos", "single_tier", "weak_small", "dense_small", "equal_powers"],
)
def test_committed_validation_csv_matches_a_fresh_run(golden, raw, trials):
    # Every line must match byte for byte except the numpy version and the
    # numbers of the table rows, which may differ by SIMD rounding across
    # CPUs.
    params = params_from_raw(raw)
    got = validation_csv(run_validation(params, trials, seed=8), params).splitlines()
    want = (ROOT / golden).read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    header = want.index("quantity,analytic,empirical,std_error,z_score")
    for index, (got_line, want_line) in enumerate(zip(got, want)):
        if index <= header:
            if not want_line.startswith("# numpy = "):
                assert got_line == want_line
            continue
        got_row, want_row = got_line.split(","), want_line.split(",")
        assert got_row[0] == want_row[0]
        for got_value, want_value in zip(got_row[1:], want_row[1:], strict=True):
            assert math.isclose(float(got_value), float(want_value), rel_tol=1e-12), want_line
