import math
from collections import Counter
from pathlib import Path

import pytest

from hetmec import association, latency
from hetmec.config import RAW_DEFAULTS, ConfigError, default_params, params_from_raw
from hetmec.coverage import DlCoverageForm
from hetmec.latency import Scheme
from hetmec.sweeps import SweepSpec, figure_sweep_spec, resolve_point_raw, run_sweep, sweep_csv


@pytest.fixture(scope="module")
def fig2():
    spec = figure_sweep_spec(2)
    return spec, run_sweep(spec)


def rows_at(rows, scheme, backhaul=None, axis=None, gamma=None):
    out = []
    for r in rows:
        if r.scheme is not scheme:
            continue
        if backhaul is not None and r.backhaul_bps != backhaul:
            continue
        if axis is not None and r.axis_value != axis:
            continue
        if gamma is not None and r.gamma_db != gamma:
            continue
        out.append(r)
    return out


def test_spec_validation():
    with pytest.raises(ValueError, match="not a recognized"):
        SweepSpec(axis="lambda_z", values=(1.0, 2.0))
    with pytest.raises(ValueError, match="monotone"):
        SweepSpec(axis="c_bh_bps", values=(1.0, 3.0, 2.0))
    with pytest.raises(ValueError, match="at least one"):
        SweepSpec(axis="c_bh_bps", values=())
    with pytest.raises(ValueError, match="finite"):
        SweepSpec(axis="c_bh_bps", values=(1.0, math.inf))


def test_fig2_shape_and_decomposition(fig2):
    spec, rows = fig2
    assert len(rows) == 31 * 2 * 3
    for row in rows:
        if math.isfinite(row.total):
            assert row.total == pytest.approx(
                row.ul_time + row.exec_time + row.backhaul_time + row.dl_time, rel=1e-12
            )


def test_fig2_decoupled_beats_coupled_at_high_backhaul(fig2):
    _, rows = fig2
    coupled = rows_at(rows, Scheme.COUPLED_ACCESS, backhaul=1e7, axis=-15.0)[0]
    for scheme in (Scheme.DECOUPLED_UL_PROC, Scheme.DECOUPLED_DL_PROC):
        dec = rows_at(rows, scheme, backhaul=1e7, axis=-15.0)[0]
        assert dec.total < coupled.total


def test_fig2_csv_deterministic(fig2):
    spec, rows = fig2
    text_a = sweep_csv(spec, rows)
    text_b = sweep_csv(spec, run_sweep(spec))
    assert text_a == text_b
    header = [l for l in text_a.splitlines() if l.startswith("#")]
    assert any("dl_coverage_form" in l for l in header)
    assert any("backhaul_mode" in l for l in header)
    columns = next(l for l in text_a.splitlines() if not l.startswith("#"))
    assert columns.startswith("axis_value,backhaul_bps,scheme,ul_time_s,exec_time_s")


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "demos" / "output"


@pytest.mark.parametrize("figure", [2, 3, 4, 5])
def test_figure_csv_matches_committed_golden(figure):
    spec = figure_sweep_spec(figure)
    golden = (GOLDEN_DIR / f"fig{figure}.csv").read_text(encoding="utf-8")
    assert sweep_csv(spec, run_sweep(spec)) == golden


def test_each_grid_point_evaluates_six_coverages(monkeypatch):
    # 4 uplink coverages ({coupled, decoupled} x {macro, small}) and one
    # downlink coverage per tier feed all three schemes of a grid point.
    calls = Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(latency, "ul_coverage", counted("ul", latency.ul_coverage))
    monkeypatch.setattr(latency, "dl_coverage", counted("dl", latency.dl_coverage))
    spec = figure_sweep_spec(2)
    run_sweep(spec)
    points = len(spec.values) * len(spec.variants)
    assert calls == {"ul": 4 * points, "dl": 2 * points}


def test_each_grid_point_computes_its_association_law_once(monkeypatch):
    # The operating point's one association report calls coupled_probs
    # directly and once more through decoupled_probs; every scheme, rate and
    # load reads that report.
    calls = Counter()
    original = association.coupled_probs

    def counted(params):
        calls["coupled_probs"] += 1
        return original(params)

    monkeypatch.setattr(association, "coupled_probs", counted)
    spec = figure_sweep_spec(2)
    run_sweep(spec)
    points = len(spec.values) * len(spec.variants)
    assert calls["coupled_probs"] <= 2 * points


def test_fig3_runs_to_ratio_100_and_gap_shrinks():
    # The user density is lifted to the total BS density on the dense end of
    # the grid, so every point is evaluable; the coupled/decoupled gap must
    # shrink steadily as small cells densify.
    spec = figure_sweep_spec(3)
    rows = run_sweep(spec)
    assert max(r.axis_value for r in rows) == pytest.approx(100.0)
    for gamma in (-3.0, -10.0):
        gaps = []
        for value in spec.values:
            coupled = rows_at(rows, Scheme.COUPLED_ACCESS, axis=value, gamma=gamma)[0]
            dec = rows_at(rows, Scheme.DECOUPLED_UL_PROC, axis=value, gamma=gamma)[0]
            gaps.append(abs(coupled.total - dec.total) / coupled.total)
        peak = max(gaps)
        assert gaps[-1] < 0.55 * peak
        assert all(a > b for a, b in zip(gaps[-8:], gaps[-7:]))  # shrinking on the dense end
        assert gaps[-1] < 0.30


def test_fig4_low_capacity_points_unbounded():
    rows = run_sweep(figure_sweep_spec(4))
    lowest = [r for r in rows if r.axis_value == 0.05 and r.scheme is Scheme.COUPLED_ACCESS]
    assert lowest and all(r.total == math.inf for r in lowest)
    assert any(math.isfinite(r.total) for r in rows)
    text = sweep_csv(figure_sweep_spec(4), rows)
    assert ",inf," in text or text.rstrip().endswith("inf")


def test_fig5_low_backhaul_decoupled_exceeds_coupled_at_equal_bits():
    rows = run_sweep(figure_sweep_spec(5))
    coupled = rows_at(rows, Scheme.COUPLED_ACCESS, backhaul=1e4, axis=1.0)[0]
    for scheme in (Scheme.DECOUPLED_UL_PROC, Scheme.DECOUPLED_DL_PROC):
        dec = rows_at(rows, scheme, backhaul=1e4, axis=1.0)[0]
        assert dec.total > coupled.total


def test_custom_axis_backhaul_monotonicity():
    spec = SweepSpec(axis="c_bh_bps", values=(1e4, 1e5, 1e6, 1e7))
    rows = run_sweep(spec)
    for scheme in (Scheme.DECOUPLED_UL_PROC, Scheme.DECOUPLED_DL_PROC):
        totals = [r.total for r in rows if r.scheme is scheme]
        assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))
    coupled = [r.total for r in rows if r.scheme is Scheme.COUPLED_ACCESS]
    assert max(coupled) == pytest.approx(min(coupled), rel=1e-12)


def test_invalid_grid_point_error_names_the_point():
    spec = SweepSpec(axis="lambda_u_per_km2", values=(25.0, 5.0))
    with pytest.raises(Exception, match="lambda_u_per_km2=5.0") as info:
        run_sweep(spec)
    assert isinstance(info.value, ConfigError)
    assert info.value.key == "lambda_u_per_km2"


def test_far_apart_tier_powers_give_a_config_error_or_finite_rows():
    # Power ratio past the float range: a configuration error naming the point.
    base = params_from_raw({"p_s_dbm": -3000.0})
    with pytest.raises(ConfigError, match="p_m_dbm=3000.0") as info:
        run_sweep(SweepSpec(axis="p_m_dbm", values=(46.0, 3000.0)), base=base)
    assert info.value.key == "p_m_dbm"
    # Finite ratio, but the coupled small-cell probability underflows to 0.
    base = params_from_raw({"p_s_dbm": -1500.0, "lambda_s_per_km2": 1e-300})
    rows = run_sweep(SweepSpec(axis="p_m_dbm", values=(46.0, 1500.0)), base=base)
    assert len(rows) == 6 and all(math.isfinite(r.total) for r in rows)


def test_auto_user_density_lifts_to_exactly_the_bs_density():
    # At these small-cell densities lambda_m + lambda_s converted to per m2
    # rounds above the converted lambda_u; the lifted points must still run.
    spec = SweepSpec(
        axis="lambda_s_per_km2",
        values=(9.0, 12.0, 14.0),
        variants=({"lambda_u_per_km2": 1.0},),
        auto_user_density=True,
    )
    rows = run_sweep(spec)
    assert [r.axis_value for r in rows if r.scheme is Scheme.COUPLED_ACCESS] == [9.0, 12.0, 14.0]
    assert all(math.isfinite(r.total) for r in rows)
    lifted = params_from_raw(resolve_point_raw(spec, dict(RAW_DEFAULTS), 9.0, spec.variants[0]))
    assert lifted.user_density == pytest.approx(10.0e-6, rel=1e-15)


def test_base_params_flow_into_sweep():
    base = params_from_raw({"w_ul_hz": 2.8e6})
    spec = SweepSpec(axis="c_bh_bps", values=(1e7,))
    row = run_sweep(spec, base=base)[0]
    default_row = run_sweep(spec, base=default_params())[0]
    assert row.ul_time < default_row.ul_time


def test_dl_coverage_form_changes_results():
    spec = SweepSpec(axis="c_bh_bps", values=(1e7,))
    scaled = run_sweep(spec, form=DlCoverageForm.SCALED_NOISE)[0]
    interference = run_sweep(spec, form=DlCoverageForm.INTERFERENCE)[0]
    assert interference.dl_time > scaled.dl_time
