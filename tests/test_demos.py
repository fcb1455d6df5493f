"""The demos that only print run to completion against the current API, and
the committed validation tables, demos/04's and the golden scenarios', are
what run_validation writes today, under any of numpy's SIMD dispatches."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hetmec.config import params_from_raw
from hetmec.montecarlo import McEstimate
from hetmec.validate import _z, run_validation, validation_csv

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


def check_validation_golden(golden, raw, trials):
    """Every line of a fresh run matches the golden byte for byte except the
    numpy version and the numbers of the table rows.  numpy's exp, log and
    arctan round differently under different SIMD dispatch (AVX-512, AVX2,
    SSE), which moves a coverage estimate by about 1 ulp; its z-score,
    (empirical - analytic) / std_error with |empirical - analytic| about 1e-4
    of the estimate, then moves by about 1e-12 relative.  So the estimates
    are held to 1e-12 relative, and each file's z-score to the one its own
    analytic, empirical and std_error columns give."""
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
        got_values = [float(value) for value in got_row[1:]]
        want_values = [float(value) for value in want_row[1:]]
        assert len(got_values) == len(want_values) == 4, want_line
        for got_value, want_value in zip(got_values[:3], want_values[:3]):
            assert math.isclose(got_value, want_value, rel_tol=1e-12), want_line
        for analytic, empirical, std_error, z_score in (got_values, want_values):
            estimate = McEstimate(empirical, std_error, trials)
            assert z_score == _z(analytic, estimate), (got_line, want_line)


@pytest.mark.parametrize(
    "golden, raw, trials",
    VALIDATION_GOLDENS,
    ids=["demos", "single_tier", "weak_small", "dense_small", "equal_powers"],
)
def test_committed_validation_csv_matches_a_fresh_run(golden, raw, trials):
    check_validation_golden(golden, raw, trials)


def _dispatched(drop) -> str:
    """numpy's dispatched SIMD targets that `drop` accepts, space-separated:
    the value of NPY_DISABLE_CPU_FEATURES that turns them off.  numpy's
    baseline, SSE-level on x86-64, cannot be turned off."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__

    return " ".join(feature for feature in __cpu_dispatch__ if drop(feature))


@pytest.mark.parametrize(
    "disabled",
    [
        _dispatched(lambda feature: "512" in feature or feature == "X86_V4"),
        _dispatched(lambda feature: True),
    ],
    ids=["no_avx512", "sse_only"],
)
def test_validation_goldens_hold_under_reduced_simd_dispatch(disabled):
    # A golden that holds only under the widest dispatch a CPU offers fails
    # here on that CPU too, not only on one without AVX-512 or AVX2.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")])
    )
    env["NPY_DISABLE_CPU_FEATURES"] = disabled
    script = (
        "import test_demos\n"
        "for case in test_demos.VALIDATION_GOLDENS:\n"
        "    test_demos.check_validation_golden(*case)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
