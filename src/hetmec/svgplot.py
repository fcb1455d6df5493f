"""Dependency-free SVG line charts for sweep CSVs.

Diagnostic plots, not publication graphics: one polyline per
(scheme, variant) series, log-scaled latency axis, `inf` rows breaking the
polyline into separate segments, point markers everywhere so single-point
series remain visible.
"""
from __future__ import annotations

import csv
import io
import math

REQUIRED_COLUMNS = ("axis_value", "backhaul_bps", "scheme", "total_s")

SCHEME_LABELS = {
    "coupled_access": "Coupled Access",
    "decoupled_ul_proc": "Decoupled Access (UL Cloudlet Proc.)",
    "decoupled_dl_proc": "Decoupled Access (DL Cloudlet Proc.)",
}
SCHEME_COLORS = {
    "coupled_access": "#1f6fb2",
    "decoupled_ul_proc": "#c44e52",
    "decoupled_dl_proc": "#2e8b57",
}
VARIANT_DASHES = ("", "7,4", "2,3", "9,2,2,2")

WIDTH, HEIGHT = 880, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 20, 55


def parse_sweep_csv(text: str) -> tuple[list[dict], dict]:
    """Rows plus the `# key: value` metadata of a sweep CSV."""
    meta = {}
    body_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            stripped = line.lstrip("# ").rstrip()
            if ":" in stripped:
                key, _, value = stripped.partition(":")
                meta.setdefault(key.strip(), value.strip())
            continue
        if line.strip():
            body_lines.append(line)
    if not body_lines:
        raise ValueError("CSV contains no data rows")
    reader = csv.DictReader(io.StringIO("\n".join(body_lines)))
    fields = reader.fieldnames or []
    for column in REQUIRED_COLUMNS:
        if column not in fields:
            raise ValueError(f"CSV is missing required column {column!r}")
    rows = []
    for raw in reader:
        row = dict(raw)
        for key in ("axis_value", "backhaul_bps", "total_s", "gamma_db"):
            if key in row and row[key] is not None:
                row[key] = float(row[key])
        rows.append(row)
    if not rows:
        raise ValueError("CSV contains no data rows")
    return rows, meta


def _escape(text: str) -> str:
    # Text content of an SVG element: `&` and `<` must not appear raw.  Done
    # by hand: importing xml.sax.saxutils would load 15 more modules into
    # every hetmec process.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _format_si(value: float) -> str:
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:g}{suffix}"
    return f"{value:g}"


def _series_key(row: dict, multi_backhaul: bool, multi_gamma: bool) -> tuple:
    key = [row["scheme"]]
    if multi_backhaul:
        key.append(row["backhaul_bps"])
    if multi_gamma:
        key.append(row.get("gamma_db"))
    return tuple(key)


def _series_label(key: tuple, multi_backhaul: bool, multi_gamma: bool) -> str:
    label = SCHEME_LABELS.get(key[0], key[0])
    extras = []
    idx = 1
    if multi_backhaul:
        extras.append(f"backhaul {_format_si(key[idx])}bit/s")
        idx += 1
    if multi_gamma:
        extras.append(f"threshold {key[idx]:g} dB")
    return label + (f" [{', '.join(extras)}]" if extras else "")


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if lo == hi:
        return [lo]
    step = (hi - lo) / (count - 1)
    magnitude = 10 ** math.floor(math.log10(abs(step)))
    for factor in (1, 2, 2.5, 5, 10):
        if magnitude * factor >= step:
            step = magnitude * factor
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * abs(hi):
        ticks.append(t)
        t += step
    return ticks or [lo, hi]


def render_sweep_chart(csv_text: str, title: str | None = None) -> str:
    """Render the sweep CSV to an SVG document (returned as a string)."""
    rows, meta = parse_sweep_csv(csv_text)
    axis_name = meta.get("axis", "axis_value")
    backhauls = {row["backhaul_bps"] for row in rows}
    multi_backhaul = len(backhauls) > 1
    # The threshold is a variant dimension only when several thresholds share
    # one axis point (e.g. fig3); when the threshold IS the axis it is not.
    gammas_at = {}
    for row in rows:
        gammas_at.setdefault((row["scheme"], row["backhaul_bps"], row["axis_value"]), set()).add(
            row.get("gamma_db")
        )
    multi_gamma = any(len(g) > 1 for g in gammas_at.values())

    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        key = _series_key(row, multi_backhaul, multi_gamma)
        series.setdefault(key, []).append((row["axis_value"], row["total_s"]))

    xs = [row["axis_value"] for row in rows]
    finite_ys = [row["total_s"] for row in rows if math.isfinite(row["total_s"])]
    if not finite_ys:
        raise ValueError("no finite latency values to plot")
    x_lo, x_hi = min(xs), max(xs)
    log_x = x_lo > 0.0 and x_hi / x_lo >= 30.0
    y_lo = 10 ** math.floor(math.log10(min(finite_ys)))
    y_hi = 10 ** math.ceil(math.log10(max(finite_ys)))
    if y_lo == y_hi:
        y_hi = y_lo * 10.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def x_pos(x: float) -> float:
        if x_hi == x_lo:
            return MARGIN_L + plot_w / 2.0
        if log_x:
            frac = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return MARGIN_L + frac * plot_w

    def y_pos(y: float) -> float:
        frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return MARGIN_T + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="14" text-anchor="middle" font-size="14">'
            f"{_escape(title)}</text>"
        )

    # Grid and axes.
    decade = math.log10(y_lo)
    while decade <= math.log10(y_hi) + 1e-9:
        y_val = 10.0 ** decade
        py = y_pos(y_val)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" y2="{py:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end">{y_val:g}</text>'
        )
        decade += 1.0
    x_tick_values = (
        [10.0 ** t for t in _ticks(math.log10(x_lo), math.log10(x_hi))] if log_x else _ticks(x_lo, x_hi)
    )
    for x_val in x_tick_values:
        px = x_pos(x_val)
        parts.append(
            f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.1f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">{x_val:g}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">'
        f"{_escape(axis_name)}</text>"
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">average latency (s)</text>'
    )

    # Series: polyline segments broken at unbounded points, markers always.
    # Color encodes the scheme; the dash pattern encodes the variant.
    variant_keys = sorted({key[1:] for key in series}, key=str)
    legend_entries = []
    for key, points in sorted(series.items(), key=str):
        color = SCHEME_COLORS.get(key[0], "#555555")
        dash = VARIANT_DASHES[variant_keys.index(key[1:]) % len(VARIANT_DASHES)]
        segments: list[list[tuple[float, float]]] = [[]]
        for x, y in points:
            if math.isfinite(y):
                segments[-1].append((x_pos(x), y_pos(y)))
            elif segments[-1]:
                segments.append([])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for segment in segments:
            if len(segment) >= 2:
                coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in segment)
                parts.append(
                    f'<polyline class="series" points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="1.8"{dash_attr}/>'
                )
            for px, py in segment:
                parts.append(
                    f'<circle class="marker" cx="{px:.2f}" cy="{py:.2f}" r="2.4" fill="{color}"/>'
                )
        legend_entries.append((_series_label(key, multi_backhaul, multi_gamma), color, dash))

    legend_x = MARGIN_L + 12
    legend_y = MARGIN_T + 14
    for i, (label, color, dash) in enumerate(legend_entries):
        y = legend_y + 16 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 26}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="1.8"{dash_attr}/>'
        )
        parts.append(f'<text x="{legend_x + 32}" y="{y}">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_chart(csv_path: str, svg_path: str, title: str | None = None) -> None:
    with open(csv_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    svg = render_sweep_chart(text, title=title)
    with open(svg_path, "w", encoding="utf-8") as handle:
        handle.write(svg)
