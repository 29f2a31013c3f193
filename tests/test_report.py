"""CSV interchange and SVG chart generation."""

import math
import re

import pytest

from panfuse.metrics import MetricRecord
from panfuse.report import (
    CSV_HEADER,
    chart_values,
    grouped_bar_chart_svg,
    read_csv,
    render_reports,
    write_csv,
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
        lines = path.read_text().splitlines()
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

    def test_append_writes_header_once(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE[:2], path, append=True)
        write_csv(SAMPLE[2:4], path, append=True)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert sum(1 for line in lines if line.startswith("pair_id")) == 1
        assert len(read_csv(path)) == 4

    def test_rewrite_truncates(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(SAMPLE, path)
        write_csv(SAMPLE[:1], path)
        assert len(read_csv(path)) == 1


class TestReadCsvErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no records"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(ValueError, match="no records"):
            read_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="line 1: bad header"):
            read_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,0.5,0\np,SF,1,DI\n")
        with pytest.raises(ValueError, match="line 3: expected 6 fields, got 4"):
            read_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,zero,0\n")
        with pytest.raises(ValueError, match="line 2: bad value 'zero'"):
            read_csv(path)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_nan_rejected(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + f"\np,SF,1,DI,{value},0\n")
        with pytest.raises(ValueError, match=f"line 2: bad value '{value}'"):
            read_csv(path)

    def test_csv_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,0.5,0\n" + "p" * 200_000 + "\n")
        with pytest.raises(ValueError, match=r"line 3: field larger than field limit"):
            read_csv(path)

    def test_bad_excluded_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,SF,1,DI,0.5,many\n")
        with pytest.raises(ValueError, match="line 2: bad excluded_pixels"):
            read_csv(path)

    @pytest.mark.parametrize("excluded", ["-5", "1_000", "+3", " 3", "\u0663"])
    def test_excluded_must_be_plain_digits(self, tmp_path, excluded):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + f"\np,SF,1,DI,0.5,0\np,SF,2,DI,0.5,{excluded}\n")
        want = re.escape(f"line 3: bad excluded_pixels '{excluded}'")
        with pytest.raises(ValueError, match=want):
            read_csv(path)


    @pytest.mark.parametrize(
        "band", ["banana", "", "0", "00", "-1", "+1", " 1", "1_0", "\u0663", "AVG"]
    )
    def test_band_must_be_avg_or_an_index(self, tmp_path, band):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + f"\np,SF,1,DI,0.5,0\np,SF,{band},DI,0.5,0\n")
        with pytest.raises(ValueError, match=re.escape(f"line 3: bad band {band!r}")):
            read_csv(path)


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


class TestRenderReports:
    def test_one_svg_per_metric(self, tmp_path):
        records = SAMPLE + [rec("p1", "SF", "avg", "SNR", 12.0)]
        paths = render_reports(records, tmp_path / "charts")
        assert [p.name for p in paths] == ["DI.svg", "SNR.svg"]
        for p in paths:
            assert p.read_text().startswith("<?xml")

    def test_hpdi_chart_notes_polarity(self, tmp_path):
        records = [rec("p1", "SF", "avg", "HPDI", 0.4)]
        (path,) = render_reports(records, tmp_path)
        assert "larger values indicate better spatial quality" in path.read_text()

    def test_regeneration_is_byte_identical(self, tmp_path):
        first = render_reports(SAMPLE, tmp_path / "a")
        second = render_reports(SAMPLE, tmp_path / "b")
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes()
