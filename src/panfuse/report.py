"""Metric-record CSV interchange and SVG bar-chart reports.

The CSV is UTF-8, its header and column order are fixed, and floats are
written with shortest-round-trip repr so a parse-and-rewrite cycle is
lossless. Charts are generated as plain SVG text with fixed-precision
coordinates, so identical input always yields byte-identical output.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import fields
from pathlib import Path
from xml.sax.saxutils import escape

from .metrics import METRIC_ORDER, MetricRecord, band_average

__all__ = [
    "CSV_HEADER",
    "plain_file_name",
    "plain_int",
    "xml_text",
    "table_end",
    "write_csv",
    "read_csv",
    "repeated_rows",
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


# What XML 1.0 cannot carry: C0 controls other than tab, LF and CR; lone
# surrogates, which no UTF-8 file can hold either; U+FFFE, U+FFFF.
_CONTROL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def xml_text(text: str) -> bool:
    """Whether a chart can carry ``text``: it holds no C0 control
    character other than tab, LF and CR, no surrogate code point, and
    neither U+FFFE nor U+FFFF."""
    return _CONTROL.search(text) is None


def plain_file_name(name: str) -> bool:
    """Whether ``name`` is one plain path component that the OS can open,
    that stays inside its directory, that a chart can carry and that a log
    line can print: non-empty, printable (``str.isprintable``: no control
    character, so no NUL, no lone surrogate and no separator other than
    the ASCII space; so also :func:`xml_text`), carried by the file system
    encoding (only ASCII under the POSIX locale), no ``/`` or ``\\``, and
    neither ``.`` nor ``..``. An absolute path always contains a
    separator."""
    special = "/" in name or "\\" in name or name in (".", "..")
    encoding = sys.getfilesystemencoding()
    # A character the encoding lacks comes back as "?".
    carried = name.encode(encoding, "replace").decode(encoding) == name
    return bool(name) and name.isprintable() and carried and not special


def plain_int(text: str) -> int | None:
    """``text`` as an integer if it is plain ASCII digits, else None: no
    sign, underscore, space or other form ``int`` accepts, and no more
    digits than ``int`` converts."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more than sys.get_int_max_str_digits() digits
        return None


def _float_text(text: str) -> float:
    """``text`` as a float if it is ASCII with no ``_`` or whitespace, as
    ``repr(float)`` writes it; NaN, which no chart carries, otherwise."""
    try:
        if text.isascii() and "_" not in text and text == text.strip():
            return float(text)
    except ValueError:
        pass
    return math.nan


def _unchartable(r: MetricRecord) -> str | None:
    """The first field of ``r`` that no chart can carry, or None: a
    ``pair_id`` or ``method`` that is not :func:`xml_text`, a ``metric``
    that is not a :func:`plain_file_name` (it names its chart file), or a
    ``value`` other than +inf (the SNR sentinel) of magnitude above 1e300,
    past which an axis can overflow."""
    if not xml_text(r.pair_id):
        return "pair_id"
    if not xml_text(r.method):
        return "method"
    if not plain_file_name(r.metric):
        return "metric"
    if not (r.value == math.inf or abs(r.value) <= 1e300):
        return "value"
    return None


def _rows(fh):
    """The non-empty rows of the CSV text ``fh`` after its header, each
    with its line number. Raises ValueError if the header is missing or
    is not :data:`CSV_HEADER`, or for bad CSV syntax, naming the line."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("no records: empty CSV")
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"line 1: bad header {header!r}, expected {','.join(CSV_HEADER)}")
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as e:
        raise ValueError(f"line {reader.line_num}: {e}") from None


def table_end(path) -> bytes:
    """The last byte of the metric table ``path`` that rows are appended
    to, or b"" if there is no such file or it is empty. Raises ValueError,
    with :func:`read_csv`'s message, if its first line is not the header
    or its first rows are not UTF-8 CSV."""
    p = Path(path)
    if not p.exists() or p.stat().st_size == 0:
        return b""
    with p.open(encoding="utf-8", newline="") as fh:
        next(_rows(fh), None)
        fh.buffer.seek(-1, 2)
        return fh.buffer.read(1)


def write_csv(records: list[MetricRecord], path, append: bool = False) -> None:
    """Write records as CSV, one column per ``MetricRecord`` field. When
    appending to a table (see :func:`table_end`, whose ValueError leaves
    the file unchanged), only the rows are written, after a line break if
    the file does not end in one; else the header comes first."""
    end = table_end(path) if append else b""
    with Path(path).open("a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_HEADER, lineterminator="\n")
        if not end:
            writer.writeheader()
        elif end != b"\n":
            fh.write("\n")
        for r in records:
            # csv writes a Python float as its repr.
            writer.writerow({**vars(r), "value": float(r.value)})


def read_csv(path) -> list[MetricRecord]:
    """Parse a UTF-8 metric CSV written by this package.

    Raises:
        ValueError: wrong header, malformed row or CSV syntax (named by
            line number), text that is not UTF-8, or a header-only file
            ("no records"). A row is malformed if its ``band`` is not
            ``avg`` or an index in :func:`plain_int` digits without a
            leading zero, its ``excluded_pixels`` is not :func:`plain_int`,
            its ``value`` text is not ASCII without ``_`` or whitespace, or
            no chart can carry it (see :func:`render_reports`).
    """
    records: list[MetricRecord] = []
    with Path(path).open(encoding="utf-8", newline="") as fh:
        for line, row in _rows(fh):
            if len(row) != len(CSV_HEADER):
                raise ValueError(
                    f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            pair_id, method, band, metric, value_s, excluded_s = row
            # A band is "avg" or a 1-based index: with no leading zero,
            # "1" is its only key.
            if band != "avg" and (band.startswith("0") or plain_int(band) is None):
                raise ValueError(f"line {line}: bad band {band!r}")
            excluded = plain_int(excluded_s)
            if excluded is None:
                raise ValueError(f"line {line}: bad excluded_pixels {excluded_s!r}")
            record = MetricRecord(
                pair_id, method, band, metric, _float_text(value_s), excluded
            )
            bad = _unchartable(record)
            if bad is not None:
                raise ValueError(f"line {line}: bad {bad} {row[CSV_HEADER.index(bad)]!r}")
            records.append(record)
    if not records:
        raise ValueError("no records: CSV has a header but no rows")
    return records


def _row_key(r: MetricRecord) -> tuple:
    return (r.metric, r.pair_id, r.method, str(r.band))


def repeated_rows(records: list[MetricRecord]) -> int:
    """How many records repeat the (pair_id, method, band, metric) key of
    an earlier one, as appending ``panfuse evaluate`` runs to one CSV
    does; :func:`chart_values` keeps the last of each."""
    return len(records) - len({_row_key(r) for r in records})


def chart_values(records: list[MetricRecord]):
    """Reduce records to band-averaged per-(metric, pair, method) values.

    Of records with the same (pair_id, method, band, metric) the last
    counts. An explicit "avg" row wins; otherwise the finite band values
    are averaged (all-infinite collapses to infinity). Pair and method
    order follow first appearance; metrics are ordered canonically, then
    by first appearance for anything nonstandard.
    """
    metrics = dict.fromkeys(r.metric for r in records)
    pairs = list(dict.fromkeys(r.pair_id for r in records))
    methods = list(dict.fromkeys(r.method for r in records))
    latest = {_row_key(r): r.value for r in records}

    avg: dict = {}
    band_rows: dict = {}
    for (metric, pair_id, method, band), value in latest.items():
        key = (metric, pair_id, method)
        if band == "avg":
            avg[key] = value
        else:
            band_rows.setdefault(key, []).append(value)

    values = {key: band_average(rows)[0] for key, rows in band_rows.items()}
    values.update(avg)

    ordered = [m for m in METRIC_ORDER if m in metrics]
    ordered += [m for m in metrics if m not in METRIC_ORDER]
    return ordered, pairs, methods, values


def _nice_ceil(v: float) -> float:
    """The least of 1, 2, 5 and 10 times a power of ten that ``v`` > 0
    does not exceed."""
    # 10.0 ** -324 underflows to 0, which would leave the axis no span.
    magnitude = 10.0 ** max(math.floor(math.log10(v)), -323)
    for mult in (1.0, 2.0, 5.0):
        if v <= mult * magnitude * (1.0 + 1e-12):
            return mult * magnitude
    return 10.0 * magnitude


def _tag(name: str, text: str | None = None, **attrs) -> str:
    """The SVG element ``name``: ``attrs`` in the order given, each
    written with a trailing ``_`` dropped from its name (``class_``) and
    every other ``_`` as ``-``, then ``text``, XML-escaped, as its
    content, or no content if ``text`` is None."""
    head = name + "".join([f' {k.rstrip("_").replace("_", "-")}="{v}"' for k, v in attrs.items()])
    return f"<{head}/>" if text is None else f"<{head}>{escape(text)}</{name}>"


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

    shown = [values[(metric, p, m)] for p in pairs for m in methods if (metric, p, m) in values]
    finite = [v for v in shown if math.isfinite(v)]
    has_inf = any(math.isinf(v) for v in shown)
    vmax = _nice_ceil(max(finite)) if finite and max(finite) > 0 else 1.0
    vmin = 0.0
    if finite and min(finite) < 0:
        vmin = -_nice_ceil(-min(finite))
    span = vmax - vmin

    def y_of(v: float) -> float:
        return top + plot_h * (1.0 - (v - vmin) / span)

    def text(x, y, size, fill, label: str, **attrs) -> str:
        return _tag("text", label, x=x, y=y, font_size=size, fill=fill, **attrs)

    def line(x1, y1, x2, y2, stroke: str) -> str:
        return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=1)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        _tag("rect", x=0, y=0, width=width, height=height, fill="#ffffff"),
        _tag("text", metric, x=left, y=24, font_size=17, font_weight="bold", fill="#222222"),
    ]
    if subtitle:
        out.append(text(left, 42, 12, "#555555", subtitle))

    ticks = 5
    for t in range(ticks + 1):
        v = vmin + span * t / ticks
        y = y_of(v)
        out.append(line(left, f"{y:.2f}", left + plot_w, f"{y:.2f}", "#dddddd"))
        out.append(text(left - 8, f"{y + 4:.2f}", 11, "#333333", f"{v:g}", text_anchor="end"))

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
            x = gx + mi * bar_w
            # +inf is capped at the axis maximum; a finite value never exceeds it.
            y_v = y_of(min(v, vmax))
            y0, y1 = min(y_v, y_zero), max(y_v, y_zero)
            out.append(_tag(
                "rect", x=f"{x:.2f}", y=f"{y0:.2f}", width=f"{bar_w:.2f}",
                height=f"{y1 - y0:.2f}", fill=_PALETTE[mi % len(_PALETTE)], class_="bar",
            ))
            if math.isinf(v):
                x_mid = f"{x + bar_w / 2:.2f}"
                out.append(text(x_mid, f"{y0 - 3:.2f}", 12, "#222222", "∞", text_anchor="middle"))
        x_mid = f"{gx + group_w / 2:.2f}"
        out.append(text(x_mid, top + plot_h + 18, 11, "#333333", pair, text_anchor="middle"))

    # Axis frame and baseline.
    out.append(line(left, top, left, top + plot_h, "#333333"))
    base = f"{y_zero:.2f}"
    out.append(line(left, base, left + plot_w, base, "#333333"))
    y_mid = f"{top + plot_h / 2:.2f}"
    rotate = f"rotate(-90 18 {y_mid})"
    out.append(text(18, y_mid, 12, "#222222", metric, text_anchor="middle", transform=rotate))
    if has_inf:
        out.append(text(left, height - 12, 11, "#555555", "∞ bars are capped at the axis maximum"))

    lx = left + plot_w + 16
    for mi, method in enumerate(methods):
        ly = top + mi * 20
        out.append(_tag("rect", x=lx, y=ly, width=12, height=12, fill=_PALETTE[mi % len(_PALETTE)]))
        out.append(text(lx + 18, ly + 10, 12, "#222222", method))

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_reports(records: list[MetricRecord], svg_dir) -> list[Path]:
    """Write one SVG per metric into ``svg_dir``; returns the paths.

    Raises:
        ValueError: before anything is written, naming the first field of
            the first record no chart can carry: a ``pair_id`` or
            ``method`` that is not :func:`xml_text`, a ``metric`` that is
            not a :func:`plain_file_name`, since it names its chart file,
            or a value other than +inf of magnitude above 1e300.
    """
    for r in records:
        bad = _unchartable(r)
        if bad is not None:
            why = "not a plain file name" if bad == "metric" else "a chart cannot carry it"
            raise ValueError(f"bad {bad} {getattr(r, bad)!r}: {why}")
    metrics, pairs, methods, values = chart_values(records)
    out_dir = Path(svg_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for metric in metrics:
        svg = grouped_bar_chart_svg(
            metric, pairs, methods, values, subtitle=_CHART_SUBTITLES.get(metric)
        )
        path = out_dir / f"{metric}.svg"
        path.write_text(svg, encoding="utf-8")
        paths.append(path)
    return paths
