"""Metric-record CSV interchange and SVG bar-chart reports.

The CSV header and column order are fixed; floats are written with
shortest-round-trip repr so a parse-and-rewrite cycle is lossless. Charts
are generated as plain SVG text with fixed-precision coordinates, so
identical input always yields byte-identical output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import fields
from pathlib import Path
from xml.sax.saxutils import escape

from .metrics import METRIC_ORDER, MetricRecord, band_average

__all__ = [
    "CSV_HEADER",
    "write_csv",
    "read_csv",
    "chart_values",
    "grouped_bar_chart_svg",
    "render_reports",
]

CSV_HEADER = tuple(f.name for f in fields(MetricRecord))

# Polarity notes shown under chart titles where the usual reading of the
# metric would mislead.
_CHART_SUBTITLES = {
    "HPDI": "larger values indicate better spatial quality",
}

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def write_csv(records: list[MetricRecord], path, append: bool = False) -> None:
    """Write records as CSV, one column per ``MetricRecord`` field; the
    header is emitted unless appending to a non-empty file."""
    p = Path(path)
    need_header = not (append and p.exists() and p.stat().st_size > 0)
    mode = "a" if append else "w"
    with p.open(mode, newline="") as fh:
        writer = csv.DictWriter(fh, CSV_HEADER, lineterminator="\n")
        if need_header:
            writer.writeheader()
        for r in records:
            # csv writes a Python float as its repr.
            writer.writerow({**vars(r), "value": float(r.value)})


def read_csv(path) -> list[MetricRecord]:
    """Parse a metric CSV written by this package.

    Raises:
        ValueError: wrong header, malformed row or CSV syntax (named by
            line number), or a header-only file ("no records").
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("no records: empty CSV")
            if tuple(header) != CSV_HEADER:
                raise ValueError(
                    f"line 1: bad header {header!r}, expected {','.join(CSV_HEADER)}"
                )
            records: list[MetricRecord] = []
            for row in reader:
                line = reader.line_num
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise ValueError(
                        f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                    )
                pair_id, method, band, metric, value_s, excluded_s = row
                # A band is "avg" or a 1-based index in plain ASCII digits.
                if band != "avg" and not (
                    band.isascii() and band.isdigit() and band.strip("0")
                ):
                    raise ValueError(f"line {line}: bad band {band!r}")
                try:
                    value = float(value_s)
                except ValueError:
                    raise ValueError(f"line {line}: bad value {value_s!r}") from None
                if math.isnan(value) or value == -math.inf:  # this package writes neither
                    raise ValueError(f"line {line}: bad value {value_s!r}")
                # A count is plain ASCII digits: no sign, underscore or
                # other form int() accepts.
                try:
                    if not (excluded_s.isascii() and excluded_s.isdigit()):
                        raise ValueError
                    excluded = int(excluded_s)
                except ValueError:
                    raise ValueError(f"line {line}: bad excluded_pixels {excluded_s!r}") from None
                records.append(MetricRecord(pair_id, method, band, metric, value, excluded))
        except csv.Error as e:
            raise ValueError(f"line {reader.line_num}: {e}") from None
    if not records:
        raise ValueError("no records: CSV has a header but no rows")
    return records


def chart_values(records: list[MetricRecord]):
    """Reduce records to band-averaged per-(metric, pair, method) values.

    An explicit "avg" row wins; otherwise the finite band values are
    averaged (all-infinite collapses to infinity). Pair and method order
    follow first appearance; metrics are ordered canonically, then by
    first appearance for anything nonstandard.
    """
    metrics: list[str] = []
    pairs: list[str] = []
    methods: list[str] = []
    avg: dict = {}
    band_rows: dict = {}
    for r in records:
        if r.metric not in metrics:
            metrics.append(r.metric)
        if r.pair_id not in pairs:
            pairs.append(r.pair_id)
        if r.method not in methods:
            methods.append(r.method)
        key = (r.metric, r.pair_id, r.method)
        if str(r.band) == "avg":
            avg[key] = r.value
        else:
            band_rows.setdefault(key, []).append(r.value)

    values = {key: band_average(rows)[0] for key, rows in band_rows.items()}
    values.update(avg)

    ordered = [m for m in METRIC_ORDER if m in metrics]
    ordered += [m for m in metrics if m not in METRIC_ORDER]
    return ordered, pairs, methods, values


def _nice_ceil(v: float) -> float:
    if v <= 0.0:
        return 1.0
    exponent = math.floor(math.log10(v))
    magnitude = 10.0 ** exponent
    for mult in (1.0, 2.0, 5.0, 10.0):
        if v <= mult * magnitude * (1.0 + 1e-12):
            return mult * magnitude
    return 10.0 * magnitude


def grouped_bar_chart_svg(
    metric: str,
    pairs: list[str],
    methods: list[str],
    values: dict,
    subtitle: str | None = None,
) -> str:
    """Render one grouped bar chart (groups = pairs, bars = methods).

    Infinite values are drawn as bars capped at the axis maximum with an
    infinity label; missing (pair, method) combinations leave a gap.
    """
    width, height = 960, 420
    left, right, top, bottom = 72, 150, 56, 64
    plot_w = width - left - right
    plot_h = height - top - bottom

    finite = [
        values[(metric, p, m)]
        for p in pairs
        for m in methods
        if (metric, p, m) in values and math.isfinite(values[(metric, p, m)])
    ]
    has_inf = any(
        (metric, p, m) in values and math.isinf(values[(metric, p, m)])
        for p in pairs
        for m in methods
    )
    vmax = _nice_ceil(max(finite)) if finite and max(finite) > 0 else 1.0
    vmin = 0.0
    if finite and min(finite) < 0:
        vmin = -_nice_ceil(-min(finite))
    span = vmax - vmin

    def y_of(v: float) -> float:
        return top + plot_h * (1.0 - (v - vmin) / span)

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    )
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(
        f'<text x="{left}" y="24" font-size="17" font-weight="bold" '
        f'fill="#222222">{escape(metric)}</text>'
    )
    if subtitle:
        out.append(
            f'<text x="{left}" y="42" font-size="12" fill="#555555">'
            f"{escape(subtitle)}</text>"
        )

    ticks = 5
    for t in range(ticks + 1):
        v = vmin + span * t / ticks
        y = y_of(v)
        out.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="11" fill="#333333" '
            f'text-anchor="end">{v:g}</text>'
        )

    slot = plot_w / len(pairs)
    group_w = slot * 0.8
    bar_w = group_w / len(methods)
    y_zero = y_of(0.0)

    for gi, pair in enumerate(pairs):
        gx = left + gi * slot + (slot - group_w) / 2.0
        for mi, method in enumerate(methods):
            key = (metric, pair, method)
            if key not in values:
                continue
            v = values[key]
            color = _PALETTE[mi % len(_PALETTE)]
            x = gx + mi * bar_w
            if math.isinf(v):
                y_top = y_of(vmax)
                out.append(
                    f'<rect x="{x:.2f}" y="{y_top:.2f}" width="{bar_w:.2f}" '
                    f'height="{y_zero - y_top:.2f}" fill="{color}" class="bar"/>'
                )
                out.append(
                    f'<text x="{x + bar_w / 2:.2f}" y="{y_top - 3:.2f}" font-size="12" '
                    f'fill="#222222" text-anchor="middle">∞</text>'
                )
            else:
                y_v = y_of(v)
                y0, y1 = min(y_v, y_zero), max(y_v, y_zero)
                out.append(
                    f'<rect x="{x:.2f}" y="{y0:.2f}" width="{bar_w:.2f}" '
                    f'height="{y1 - y0:.2f}" fill="{color}" class="bar"/>'
                )
        out.append(
            f'<text x="{gx + group_w / 2:.2f}" y="{top + plot_h + 18}" font-size="11" '
            f'fill="#333333" text-anchor="middle">{escape(pair)}</text>'
        )

    # Axis frame and baseline.
    out.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{left}" y1="{y_zero:.2f}" x2="{left + plot_w}" y2="{y_zero:.2f}" '
        f'stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" font-size="12" fill="#222222" '
        f'text-anchor="middle" transform="rotate(-90 18 {top + plot_h / 2:.2f})">'
        f"{escape(metric)}</text>"
    )
    if has_inf:
        out.append(
            f'<text x="{left}" y="{height - 12}" font-size="11" fill="#555555">'
            "∞ bars are capped at the axis maximum</text>"
        )

    lx = left + plot_w + 16
    for mi, method in enumerate(methods):
        color = _PALETTE[mi % len(_PALETTE)]
        ly = top + mi * 20
        out.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>'
        )
        out.append(
            f'<text x="{lx + 18}" y="{ly + 10}" font-size="12" fill="#222222">'
            f"{escape(method)}</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_reports(records: list[MetricRecord], svg_dir) -> list[Path]:
    """Write one SVG per metric into ``svg_dir``; returns the paths."""
    out_dir = Path(svg_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics, pairs, methods, values = chart_values(records)
    paths = []
    for metric in metrics:
        svg = grouped_bar_chart_svg(
            metric, pairs, methods, values, subtitle=_CHART_SUBTITLES.get(metric)
        )
        path = out_dir / f"{metric}.svg"
        path.write_text(svg, encoding="utf-8")
        paths.append(path)
    return paths
