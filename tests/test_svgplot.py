import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hetmec.svgplot import parse_sweep_csv, render_sweep_chart
from hetmec.sweeps import figure_sweep_spec, run_sweep, sweep_csv

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"
SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def fig2_csv():
    spec = figure_sweep_spec(2)
    return sweep_csv(spec, run_sweep(spec))


def test_fig2_chart_has_six_series(fig2_csv):
    svg = render_sweep_chart(fig2_csv)
    assert svg.count("<polyline") == 6
    assert "Coupled Access" in svg
    assert "Decoupled Access (UL Cloudlet Proc.)" in svg
    assert "Decoupled Access (DL Cloudlet Proc.)" in svg
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_single_row_renders_markers_only():
    text = (
        "axis_value,backhaul_bps,scheme,ul_time_s,exec_time_s,backhaul_time_s,dl_time_s,total_s,gamma_db\n"
        "-10.0,1e7,coupled_access,0.01,0.002,0.0,0.005,0.017,-10.0\n"
    )
    svg = render_sweep_chart(text)
    assert "<polyline" not in svg
    assert svg.count('class="marker"') == 1


def test_missing_column_is_named():
    text = "axis_value,scheme,total_s\n1.0,coupled_access,0.5\n"
    with pytest.raises(ValueError, match="backhaul_bps"):
        render_sweep_chart(text)


def test_unbounded_rows_break_the_polyline():
    header = "axis_value,backhaul_bps,scheme,ul_time_s,exec_time_s,backhaul_time_s,dl_time_s,total_s,gamma_db\n"
    rows = []
    for i, total in enumerate(("0.01", "0.02", "inf", "0.04", "0.05")):
        rows.append(f"{i},1e7,coupled_access,0.0,0.0,0.0,0.0,{total},-10.0")
    svg = render_sweep_chart(header + "\n".join(rows) + "\n")
    assert svg.count("<polyline") == 2
    assert svg.count('class="marker"') == 4


def test_parse_round_trip(fig2_csv):
    rows, meta = parse_sweep_csv(fig2_csv)
    assert meta["axis"] == "gamma_db"
    assert len(rows) == 31 * 2 * 3
    assert all(math.isfinite(r["axis_value"]) for r in rows)


def test_empty_csv_rejected():
    with pytest.raises(ValueError, match="no data rows"):
        render_sweep_chart("# only a comment\n")


def test_text_is_escaped_and_parses_back_unchanged():
    title = 'A & B <fig2> "x"'
    text = (
        "# axis: b_in<b_out & more\n"
        "axis_value,backhaul_bps,scheme,ul_time_s,exec_time_s,backhaul_time_s,dl_time_s,total_s,gamma_db\n"
        "1.0,1e7,coupled<&>,0.01,0.002,0.0,0.005,0.017,-10.0\n"
        "2.0,1e7,coupled<&>,0.01,0.002,0.0,0.005,0.018,-10.0\n"
    )
    root = ET.fromstring(render_sweep_chart(text, title=title))
    texts = [element.text for element in root.iter(f"{SVG}text")]
    assert title in texts
    assert "b_in<b_out & more" in texts
    assert "coupled<&>" in texts


# The title demos/03_latency_figures.py gives each committed chart.
DEMO_TITLES = {
    2: "Average offloading latency vs SINR threshold",
    3: "Average offloading latency vs small/macro density ratio",
    4: "Average offloading latency vs cloudlet capacity ratio",
    5: "Average offloading latency vs input/output bits ratio",
}


@pytest.mark.parametrize("figure", sorted(DEMO_TITLES))
def test_committed_chart_matches_its_csv_rendering(figure):
    csv_text = (OUTPUT / f"fig{figure}.csv").read_text(encoding="utf-8")
    want = (OUTPUT / f"fig{figure}.svg").read_text(encoding="utf-8")
    assert render_sweep_chart(csv_text, title=DEMO_TITLES[figure]) == want
