"""CSV interchange and SVG chart generation."""

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from panfuse.metrics import MetricRecord
from panfuse.report import (
    CSV_HEADER,
    chart_values,
    grouped_bar_chart_svg,
    plain_file_name,
    read_csv,
    render_reports,
    repeated_rows,
    write_csv,
)


# More digits than int() converts: its limit is 4,300 since Python 3.11
# and 3.10.7, and 0 lifts it.
TOO_MANY_DIGITS = pytest.param(
    "9" * 5000,
    id="5000-digits",
    marks=pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="int() converts 5,000 digits",
    ),
)


def rec(pair, method, band, metric, value, excluded=0):
    return MetricRecord(pair, method, band, metric, value, excluded)


SAMPLE = [
    rec("p1", "SF", 1, "DI", 0.1),
    rec("p1", "SF", 2, "DI", 0.3),
    rec("p1", "SF", "avg", "DI", 0.2),
    rec("p1", "IHS", "avg", "DI", 0.4),
    rec("p2", "SF", "avg", "DI", 0.25),
    rec("p2", "IHS", "avg", "DI", 0.5),
]


class TestCsvRoundTrip:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "pair_id,method,band,metric,value,excluded_pixels"
        assert len(lines) == 1 + len(SAMPLE)
        assert lines[1] == "p1,SF,1,DI,0.1,0"

    def test_lossless_float_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        tricky = [
            rec("p", "SF", 1, "DI", 0.1),
            rec("p", "SF", 2, "DI", 1.0 / 3.0),
            rec("p", "SF", 3, "DI", 2.5e-300),
            rec("p", "SF", "avg", "SNR", math.inf),
            rec("p", "SF", 1, "FCC", -0.9999999999999991),
        ]
        write_csv(tricky, path)
        back = read_csv(path)
        assert [r.value for r in back] == [r.value for r in tricky]
        assert back[3].value == math.inf

    def test_band_comes_back_as_string(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE[:1], path)
        assert read_csv(path)[0].band == "1"

    def test_file_is_utf8_whatever_the_locale(self, tmp_path):
        """Under the POSIX locale with UTF-8 mode off, ``open`` defaults to
        ASCII; the CSV is UTF-8 like the manifest and the charts."""
        script = (
            "import sys\n"
            "from panfuse.metrics import MetricRecord\n"
            "from panfuse.report import read_csv, write_csv\n"
            "path = sys.argv[1]\n"
            "write_csv([MetricRecord('Z\\u00fcrich', 'SF', 'avg', 'DI', 0.5, 0)], path)\n"
            "print(ascii([r.pair_id for r in read_csv(path)]))\n"
        )
        path = tmp_path / "m.csv"
        env = {
            **os.environ,
            "LC_ALL": "POSIX",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": os.pathsep.join(sys.path),
        }
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['Z\\xfcrich']\n"
        assert path.read_bytes().splitlines()[1] == "Zürich,SF,avg,DI,0.5,0".encode("utf-8")

    def test_append_writes_header_once(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE[:2], path, append=True)
        write_csv(SAMPLE[2:4], path, append=True)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert sum(1 for line in lines if line.startswith("pair_id")) == 1
        assert len(read_csv(path)) == 4

    @pytest.mark.parametrize("text", [b"name,score\nalice,3\n", b"\n", b"\xff\n"])
    def test_append_leaves_a_file_that_is_not_a_table_unchanged(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError):
            write_csv(SAMPLE, path, append=True)
        assert path.read_bytes() == text

    @pytest.mark.parametrize("end", ["", "\r"])
    def test_append_ends_an_unterminated_last_line(self, tmp_path, end):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE[:1], path)
        path.write_bytes(path.read_bytes().rstrip(b"\n") + end.encode())
        write_csv(SAMPLE[1:3], path, append=True)
        assert [r.value for r in read_csv(path)] == [r.value for r in SAMPLE[:3]]

    def test_rewrite_truncates(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE, path)
        write_csv(SAMPLE[:1], path)
        assert len(read_csv(path)) == 1


class TestReadCsvErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no records"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no records"):
            read_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: bad header"):
            read_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,0.5,0\np,SF,1,DI\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: expected 6 fields, got 4"):
            read_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,zero,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: bad value 'zero'"):
            read_csv(path)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_nan_rejected(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + f"\np,SF,1,DI,{value},0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: bad value '{value}'"):
            read_csv(path)

    def test_csv_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\np,SF,1,DI,0.5,0\n" + "p" * 200_000 + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"line 3: field larger than field limit"):
            read_csv(path)

    def test_bad_excluded_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,0.5,many\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: bad excluded_pixels"):
            read_csv(path)

    @pytest.mark.parametrize("excluded", ["-5", "1_000", "+3", " 3", "\u0663", TOO_MANY_DIGITS])
    def test_excluded_must_be_plain_digits(self, tmp_path, excluded):
        path = tmp_path / "m.csv"
        path.write_text(
            ",".join(CSV_HEADER) + f"\np,SF,1,DI,0.5,0\np,SF,2,DI,0.5,{excluded}\n",
            encoding="utf-8",
        )
        want = re.escape(f"line 3: bad excluded_pixels '{excluded}'")
        with pytest.raises(ValueError, match=want):
            read_csv(path)


    @pytest.mark.parametrize(
        "band", ["banana", "", "0", "00", "01", "007", "-1", "+1", " 1", "1_0", "\u0663", "AVG"]
    )
    def test_band_must_be_avg_or_an_index(self, tmp_path, band):
        path = tmp_path / "m.csv"
        path.write_text(
            ",".join(CSV_HEADER) + f"\np,SF,1,DI,0.5,0\np,SF,{band},DI,0.5,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=re.escape(f"line 3: bad band {band!r}")):
            read_csv(path)

    @pytest.mark.parametrize(
        "value", ["1_000", " 2.5", "2.5 ", "2.5\t", "\u0663", "\uff11.5"]
    )
    def test_value_must_be_text_repr_can_write(self, tmp_path, value):
        """``float`` also reads underscores, surrounding whitespace and
        non-ASCII digits, none of which ``repr(float)`` writes."""
        path = tmp_path / "m.csv"
        path.write_text(
            ",".join(CSV_HEADER) + f"\np,SF,1,DI,0.5,0\np,SF,2,DI,{value},0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=re.escape(f"line 3: bad value {value!r}")):
            read_csv(path)

    @pytest.mark.parametrize(
        "metric",
        ["", ".", "..", "../escaped", "a/b", "a\\b", "/abs", "a\tb", "c\x9b2Jd", "a\u2028b"],
    )
    def test_metric_must_be_a_plain_file_name(self, tmp_path, metric):
        path = tmp_path / "m.csv"
        path.write_text(
            ",".join(CSV_HEADER) + f"\np,SF,1,DI,0.5,0\np,SF,1,{metric},0.5,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=re.escape(f"line 3: bad metric {metric!r}")):
            read_csv(path)

    @pytest.mark.parametrize("control", ["\x01", "\x08", "\x0b", "\x0c", "\x1f", "\uffff"])
    @pytest.mark.parametrize("field", ["pair_id", "method", "metric"])
    def test_control_characters_are_rejected(self, tmp_path, field, control):
        """C0 controls other than tab, LF and CR, and U+FFFE and U+FFFF,
        cannot appear in XML 1.0, and these fields are written into charts."""
        names = {"pair_id": "p", "method": "SF", "metric": "DI"}
        names[field] = f"a{control}b"
        path = tmp_path / "m.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([
                CSV_HEADER,
                ["p", "SF", 1, "DI", 0.5, 0],
                [names["pair_id"], names["method"], 1, names["metric"], 0.5, 0],
            ])
        want = f"line 3: bad {field} {names[field]!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            read_csv(path)

    @pytest.mark.parametrize("value", ["1.5e308", "-9e307", "1.0000000000000002e300"])
    def test_values_beyond_the_chart_range_are_rejected(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + f"\np,SF,1,DI,{value},0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"line 2: bad value {value!r}")):
            read_csv(path)


@pytest.mark.parametrize(
    "name, plain",
    [
        ("DI", True),
        ("CSA_edge", True),
        ("...", True),
        (".hidden", True),
        ("", False),
        (".", False),
        ("..", False),
        ("a/b", False),
        ("a\\b", False),
        ("a\0b", False),
        ("a\x01b", False),
        ("a\x1fb", False),
        ("a\ufffeb", False),
        ("a\ud800b", False),
        ("a\udcffb", False),
        ("a\tb", False),
        ("a\nb", False),
        ("a\x7fb", False),
        ("c\x9b2Jd", False),
        ("a\xa0b", False),
        ("a\u2028b", False),
        ("a b", True),
        ("/abs", False),
    ],
)
def test_plain_file_name(name, plain):
    assert plain_file_name(name) is plain


class TestChartValues:
    def test_avg_row_preferred_over_band_rows(self):
        metrics, pairs, methods, values = chart_values(SAMPLE)
        assert metrics == ["DI"]
        assert pairs == ["p1", "p2"]
        assert methods == ["SF", "IHS"]
        assert values[("DI", "p1", "SF")] == 0.2

    def test_band_fallback_averages_finite_values(self):
        records = [
            rec("p", "SF", 1, "SNR", 10.0),
            rec("p", "SF", 2, "SNR", math.inf),
            rec("p", "SF", 3, "SNR", 20.0),
        ]
        _, _, _, values = chart_values(records)
        assert values[("SNR", "p", "SF")] == 15.0

    def test_all_infinite_collapses_to_infinity(self):
        records = [rec("p", "SF", 1, "SNR", math.inf)]
        _, _, _, values = chart_values(records)
        assert values[("SNR", "p", "SF")] == math.inf

    def test_canonical_metric_order_with_extras_last(self):
        records = [
            rec("p", "SF", "avg", "XTRA", 1.0),
            rec("p", "SF", "avg", "FCC", 0.5),
            rec("p", "SF", "avg", "DI", 0.1),
        ]
        metrics, _, _, _ = chart_values(records)
        assert metrics == ["DI", "FCC", "XTRA"]

    def test_last_of_repeated_band_rows_counts(self):
        records = [
            rec("p", "SF", 1, "SNR", 10.0),
            rec("p", "SF", 2, "SNR", 20.0),
            rec("p", "SF", 1, "SNR", 30.0),
            rec("p", "SF", "2", "SNR", 40.0),
        ]
        _, _, _, values = chart_values(records)
        assert values[("SNR", "p", "SF")] == 35.0
        assert repeated_rows(records) == 2

    def test_last_of_repeated_avg_rows_counts(self):
        records = [rec("p", "SF", "avg", "DI", 0.1), rec("p", "SF", "avg", "DI", 0.3)]
        _, _, _, values = chart_values(records)
        assert values[("DI", "p", "SF")] == 0.3
        assert repeated_rows(records) == 1

    def test_rows_differing_in_any_key_field_are_not_repeats(self):
        assert repeated_rows(SAMPLE) == 0


class TestSvgChart:
    def test_bar_count_matches_pairs_times_methods(self):
        _, pairs, methods, values = chart_values(SAMPLE)
        svg = grouped_bar_chart_svg("DI", pairs, methods, values)
        assert svg.count('class="bar"') == 4
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")

    def test_metric_and_labels_present(self):
        _, pairs, methods, values = chart_values(SAMPLE)
        svg = grouped_bar_chart_svg("DI", pairs, methods, values)
        for label in ("DI", "p1", "p2", "SF", "IHS"):
            assert label in svg

    def test_infinite_bar_capped_and_marked(self):
        records = [
            rec("p1", "SF", "avg", "SNR", math.inf),
            rec("p1", "IHS", "avg", "SNR", 25.0),
        ]
        _, pairs, methods, values = chart_values(records)
        svg = grouped_bar_chart_svg("SNR", pairs, methods, values)
        assert "∞" in svg
        assert "capped at the axis maximum" in svg

    def test_negative_values_supported(self):
        records = [rec("p1", "SF", "avg", "FCC", -0.5), rec("p1", "IHS", "avg", "FCC", 0.8)]
        _, pairs, methods, values = chart_values(records)
        svg = grouped_bar_chart_svg("FCC", pairs, methods, values)
        assert svg.count('class="bar"') == 2
        assert "-0.5" in svg or "-1" in svg

    def test_missing_combination_leaves_gap(self):
        records = [
            rec("p1", "SF", "avg", "DI", 0.1),
            rec("p2", "SF", "avg", "DI", 0.2),
            rec("p1", "IHS", "avg", "DI", 0.3),
        ]
        _, pairs, methods, values = chart_values(records)
        svg = grouped_bar_chart_svg("DI", pairs, methods, values)
        assert svg.count('class="bar"') == 3

    def test_deterministic_output(self):
        _, pairs, methods, values = chart_values(SAMPLE)
        a = grouped_bar_chart_svg("DI", pairs, methods, values)
        b = grouped_bar_chart_svg("DI", pairs, methods, values)
        assert a == b

    def test_escapes_markup_in_labels(self):
        records = [rec("a<b", "S&F", "avg", "DI", 0.1)]
        _, pairs, methods, values = chart_values(records)
        svg = grouped_bar_chart_svg("DI", pairs, methods, values)
        assert "a&lt;b" in svg
        assert "S&amp;F" in svg


# Fixed charts that between them draw every element: a subtitle, a
# negative axis, a missing (pair, method) combination and names that need
# escaping; a +inf bar with its mark and note; eleven methods, so that
# the palette wraps. Each maps to the SHA-256 of its SVG text.
PINNED_CHARTS = {
    "escaped-negative-gap-subtitle": (
        ("D&I <x>", ['a<b & "c"', "p'2"], ["S&F", "<IHS>", '"HSV"'],
         {('a<b & "c"', "S&F"): -0.75, ('a<b & "c"', "<IHS>"): 0.3,
          ('a<b & "c"', '"HSV"'): -0.0, ("p'2", "S&F"): 1.25, ("p'2", '"HSV"'): -2.5e-3},
         "lower < better & 'so' \"on\""),
        "5f7f3d2ca4f42be64f48f69b895d8e2865a70afb0f0c5cdb41d8c69119ccf3b5",
    ),
    "infinite": (
        ("SNR", ["p1", "p2"], ["SF", "IHS"],
         {("p1", "SF"): math.inf, ("p1", "IHS"): 25.0, ("p2", "SF"): 31.5,
          ("p2", "IHS"): 5e-324},
         None),
        "83179569044a10f64d1b7ff2322da8174a792190bad1852b253bee1b2293d853",
    ),
    "palette-wrap": (
        ("HPDI", ["p1", "p2", "p3"], [f"m{k}∞" for k in range(11)],
         {(p, f"m{k}∞"): (k + 1) * 0.07 * (i + 1)
          for i, p in enumerate(["p1", "p2", "p3"]) for k in range(11)},
         "larger values indicate better spatial quality"),
        "9c5901a4ca8b71049c6f19165115cf6369c0331d43e106573005e4f7f602709a",
    ),
}


@pytest.mark.parametrize("case", PINNED_CHARTS)
def test_chart_bytes_are_pinned(case):
    (metric, pairs, methods, values, subtitle), digest = PINNED_CHARTS[case]
    values = {(metric, p, m): v for (p, m), v in values.items()}
    svg = grouped_bar_chart_svg(metric, pairs, methods, values, subtitle=subtitle)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest

def svg_numbers(svg: str) -> list[float]:
    """Every coordinate and size attribute of ``svg``, which must parse."""
    numeric = ("x", "y", "x1", "y1", "x2", "y2", "width", "height")
    return [
        float(e.get(a)) for e in ET.fromstring(svg.encode()).iter() for a in numeric
        if e.get(a) is not None
    ]


@pytest.mark.parametrize(
    "values",
    [
        (1e300, 0.5), (-1e300, 1e300), (-1e300, -2.0), (1e300, 1e300), (5.0, 1e-300),
        (5e-324,), (-5e-324, 0.0), (1e-323, -7e-323),
    ],
)
def test_values_at_the_chart_range_give_finite_coordinates(values):
    records = [rec(f"p{k}", "SF", "avg", "DI", v) for k, v in enumerate(values)]
    _, pairs, methods, chart = chart_values(records)
    numbers = svg_numbers(grouped_bar_chart_svg("DI", pairs, methods, chart))
    assert numbers and all(math.isfinite(n) for n in numbers)


class TestRenderReports:
    def test_one_svg_per_metric(self, tmp_path):
        records = SAMPLE + [rec("p1", "SF", "avg", "SNR", 12.0)]
        paths = render_reports(records, tmp_path / "charts")
        assert [p.name for p in paths] == ["DI.svg", "SNR.svg"]
        for p in paths:
            assert p.read_text(encoding="utf-8").startswith("<?xml")

    def test_hpdi_chart_notes_polarity(self, tmp_path):
        records = [rec("p1", "SF", "avg", "HPDI", 0.4)]
        (path,) = render_reports(records, tmp_path)
        assert "larger values indicate better spatial quality" in path.read_text(encoding="utf-8")

    def test_regeneration_is_byte_identical(self, tmp_path):
        first = render_reports(SAMPLE, tmp_path / "a")
        second = render_reports(SAMPLE, tmp_path / "b")
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("metric", ["../escaped", "a/b", "..", ".", "", "x\\y", "n\0ul"])
    def test_metric_that_is_not_a_file_name_writes_nothing(self, tmp_path, metric):
        # The bad metric comes after a good one: nothing may be written first.
        records = SAMPLE + [rec("p1", "SF", "avg", metric, 1.0)]
        svg_dir = tmp_path / "charts"
        with pytest.raises(ValueError, match="bad metric"):
            render_reports(records, svg_dir)
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("control", ["\x01", "\x02", "\uffff"])
    @pytest.mark.parametrize("field", ["pair_id", "method"])
    def test_label_a_chart_cannot_carry_writes_nothing(self, tmp_path, field, control):
        """Records built in the library, not read by read_csv, are checked
        too: the chart would not be well-formed XML."""
        names = {"pair_id": "p1", "method": "SF"}
        names[field] = f"a{control}b"
        records = SAMPLE + [rec(names["pair_id"], names["method"], "avg", "DI", 0.5)]
        with pytest.raises(ValueError, match=re.escape(f"bad {field} {names[field]!r}")):
            render_reports(records, tmp_path / "charts")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("value", [1.5e308, -9e307, 1.0000000000000002e300, math.nan, -math.inf])
    def test_value_a_chart_cannot_carry_writes_nothing(self, tmp_path, value):
        records = SAMPLE + [rec("p3", "SF", "avg", "DI", value)]
        with pytest.raises(ValueError, match=re.escape(f"bad value {value!r}")):
            render_reports(records, tmp_path / "charts")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("value", [1e300, -1e300, math.inf])
    def test_values_at_the_chart_range_are_charted(self, tmp_path, value):
        records = [rec("p1", "SF", "avg", "SNR", value), rec("p2", "SF", "avg", "SNR", 2.0)]
        (path,) = render_reports(records, tmp_path)
        ET.fromstring(path.read_text(encoding="utf-8"))

    def test_tab_in_a_label_keeps_the_chart_well_formed(self, tmp_path):
        records = [rec("p\t1", "SF", "avg", "DI", 0.5), rec("p2", "SF", "avg", "DI", -0.5)]
        (path,) = render_reports(records, tmp_path)
        assert all(math.isfinite(n) for n in svg_numbers(path.read_text(encoding="utf-8")))
