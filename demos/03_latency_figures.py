"""Reproduce the four latency study sweeps and render them as SVG charts.

Each sweep compares the three offloading schemes: coupled access, decoupled
access with uplink-cloudlet processing, and decoupled access with
downlink-cloudlet processing.  CSVs and charts land in demos/output/.
"""
import pathlib

from hetmec.latency import Scheme
from hetmec.svgplot import render_sweep_chart
from hetmec.sweeps import figure_sweep_spec, run_sweep, sweep_csv

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

TITLES = {
    2: "Average offloading latency vs SINR threshold",
    3: "Average offloading latency vs small/macro density ratio",
    4: "Average offloading latency vs cloudlet capacity ratio",
    5: "Average offloading latency vs input/output bits ratio",
}

for figure in (2, 3, 4, 5):
    spec = figure_sweep_spec(figure)
    rows = run_sweep(spec)
    text = sweep_csv(spec, rows)
    csv_path = OUT / f"{spec.label}.csv"
    csv_path.write_text(text)
    (OUT / f"{spec.label}.svg").write_text(render_sweep_chart(text, title=TITLES[figure]))
    unbounded = sum(1 for r in rows if r.total == float("inf"))
    print(f"{spec.label}: {len(rows)} rows -> {csv_path}  ({unbounded} unbounded points)")

# headline numbers from the threshold sweep
spec = figure_sweep_spec(2)
rows = run_sweep(spec)


def total(scheme, axis, backhaul):
    return next(
        r.total
        for r in rows
        if r.scheme is scheme and r.axis_value == axis and r.backhaul_bps == backhaul
    )


coupled = total(Scheme.COUPLED_ACCESS, -15.0, 1e7)
decoupled = total(Scheme.DECOUPLED_UL_PROC, -15.0, 1e7)
print(
    f"\nat -15 dB with a 10 Mbit/s backhaul, decoupling cuts latency by "
    f"{(1 - decoupled / coupled) * 100:.1f}% ({coupled * 1e3:.1f} ms -> {decoupled * 1e3:.1f} ms)"
)
coupled = total(Scheme.COUPLED_ACCESS, -10.0, 1e4)
dl_proc = total(Scheme.DECOUPLED_DL_PROC, -10.0, 1e4)
print(
    f"at -10 dB with only 10 kbit/s of backhaul, downlink-cloudlet processing "
    f"costs {(dl_proc / coupled - 1) * 100:.1f}% extra latency"
)
