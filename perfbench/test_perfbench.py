"""Tests of the benchmark's own arithmetic, input generator and tracer."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from panfuse.raster import load_pnm, resample_nearest  # noqa: E402
from panfuse.synthetic import SyntheticSpec, synthesize  # noqa: E402
from perfbench.inputs import make_audit, make_campaign, pair_seed  # noqa: E402
from perfbench.tracer import PER_LAYER, Span, Tracer, install, self_times, summarize  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.workloads import WORKLOADS, Campaign, main_invoker, tail  # noqa: E402


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSelfTime:
    def test_children_union_is_subtracted(self):
        spans = [
            Span(1, "a", 0.0, 10.0, None, 1, 7),
            Span(2, "b", 1.0, 3.0, 1, 1, 7),
            Span(3, "c", 2.0, 5.0, 1, 1, 7),  # overlaps b: a's children cover [1, 5]
            Span(4, "d", 4.5, 4.75, 3, 1, 7),  # grandchild: only c loses it
        ]
        got = self_times(spans)
        assert got == pytest.approx({1: 6.0, 2: 2.0, 3: 2.75, 4: 0.25})

    def test_other_threads_do_not_count_as_children(self):
        spans = [
            Span(1, "main", 0.0, 10.0, None, 1, 100),
            Span(2, "main.child", 2.0, 4.0, 1, 1, 100),
            Span(3, "pair", 1.0, 9.0, None, 3, 200),  # runs during main, other thread
            Span(4, "pair.child", 3.0, 8.0, 3, 3, 200),
            Span(5, "late", 9.0, 12.0, 1, 1, 100),  # clipped to its parent's end
        ]
        got = self_times(spans)
        assert got[1] == pytest.approx(10.0 - 2.0 - 1.0)
        assert got[3] == pytest.approx(3.0)
        assert got[2] == pytest.approx(2.0)
        assert got[4] == pytest.approx(5.0)

    def test_tracer_links_parents_per_thread(self):
        tracer = Tracer()
        both_inside = threading.Barrier(2, timeout=10)  # keeps thread ids distinct

        def client():
            tracer.call("outer", tracer.call, "inner", both_inside.wait, new_task=True)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        outer = {s.thread: s for s in tracer.spans if s.name == "outer"}
        inner = [s for s in tracer.spans if s.name == "inner"]
        assert len(outer) == 2 and len(inner) == 2
        for s in inner:
            assert s.parent == outer[s.thread].id
            assert s.task == outer[s.thread].task == outer[s.thread].id


class TestTail:
    def test_eleventh_largest_has_ten_beyond(self):
        assert tail([float(v) for v in range(100, 0, -1)]) == (90.0, 90.0, 10)
        assert tail([float(v) for v in range(1, 22)]) == (11.0, 100.0 * 11 / 21, 10)

    def test_never_below_the_median(self):
        assert tail([float(v) for v in range(1, 21)]) == (10.5, 50.0, 10)
        assert tail([float(v) for v in range(1, 12)]) == (6.0, 50.0, 5)

    def test_fewer_than_eleven_samples_gives_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        make_campaign(3, tmp_path / "a", pan_size=64)
        make_campaign(3, tmp_path / "b", pan_size=64)
        make_campaign(4, tmp_path / "c", pan_size=64)
        a, b, c = (_files(tmp_path / d) for d in "abc")
        assert a == b
        assert a.keys() == c.keys() and a != c

    def test_coarse_ms_resamples_to_the_synthesized_ms(self, tmp_path):
        inputs = make_campaign(5, tmp_path, pan_size=64)
        for k in (0, 3):  # pair 3 is stored 16-bit
            ms, pan, _ = synthesize(SyntheticSpec(pair_seed(5, "campaign", k), 64, 64))
            pair = inputs.pairs[k]
            coarse = load_pnm(pair.ms)
            assert coarse.width == 16
            full = resample_nearest(coarse, 64, 64)
            for got, want in zip(full.bands, ms.bands):
                np.testing.assert_array_equal(got.samples, want.samples)
            np.testing.assert_array_equal(load_pnm(pair.pan).samples, pan.samples)
        assert b"65535" in inputs.pairs[3].pan.read_bytes()[:20]

    def test_ascii_files_match_binary_copies(self, tmp_path):
        inputs = make_audit(2, tmp_path, size=32, pairs=2)
        commented = 0
        for pair in inputs.pairs:
            for text, binary in zip((pair.ms, pair.pan, pair.fused), pair.binary):
                commented += b"\n#" in text.read_bytes()
                a, b = load_pnm(text), load_pnm(binary)
                for x, y in zip(getattr(a, "bands", (a,)), getattr(b, "bands", (b,))):
                    np.testing.assert_array_equal(x.samples, y.samples)
        assert commented == 1  # files 0..5, every fourth has comments


def test_traced_campaign_writes_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("PANFUSE_THREADS", "2")
    inputs = make_campaign(0, tmp_path / "in", pan_size=64, pairs=2)
    out_dir = tmp_path / "in" / "out-0"
    plain = Campaign(inputs, tmp_path / "plain", {})
    plain.step(main_invoker())
    untraced = _files(out_dir)

    tracer = Tracer()
    install(tracer)
    patched = list(tracer._patches)
    try:
        traced = Campaign(inputs, tmp_path / "traced", plain.reference)
        traced.step(main_invoker(tracer))
    finally:
        tracer.restore()
    for owner, key, original in patched:
        current = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert current is original, key

    assert _files(out_dir) == untraced
    assert len(untraced) == 22  # 2 pairs x 7 products, metrics.csv, 7 charts
    assert all(c.ok for c in plain.calls + traced.calls), plain.errors + traced.errors

    m = summarize(tracer, traced.ops, 2, 0.0)
    assert list(m) == list(PER_LAYER)
    assert m["filtering.laplacian_hp.calls"] == 106
    assert m["filtering.laplacian_hp.distinct"] == 22
    assert m["filtering.box_lpf.calls"] == 4
    assert m["filtering.box_lpf.distinct"] == 2
    assert m["fusion.SF.rasters"] == 14
    assert 0.0 < m["cli.pool_efficiency"] <= 1.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharpen", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
