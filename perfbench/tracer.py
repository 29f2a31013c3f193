"""In-memory span tracer that wraps panfuse's layer boundaries from outside.

``Tracer.wrap`` replaces a module attribute (or a dict entry, or a class
attribute) with a function that records a span around the original call.
``install`` wraps the names each panfuse module imports from the layer
below; ``Tracer.restore`` puts every original back. Spans stay in memory
until ``write_spans``; ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

FILTERS = ("box_lpf", "laplacian_hp", "unsharp_mask")
METHODS = ("SF", "IHS", "HSV", "HFA", "HFM", "RVS", "EF")

# Per-layer metric name -> (unit, better). Values are per workload operation
# (a pair on campaign, a fuse call on sharpen, an evaluate call on
# ascii-audit) unless the unit says otherwise; a layer a workload never
# enters reads 0.
PER_LAYER = {
    "cli.pair.s": ("s", "lower"),
    "cli.pool_efficiency": ("ratio", "higher"),
    "cli.pair_skew": ("ratio", "lower"),
    "metrics.evaluate_all.self_s": ("s", "lower"),
    "metrics.spectral.s": ("s", "lower"),
    "metrics.fcc.s": ("s", "lower"),
    "metrics.hpdi.s": ("s", "lower"),
    "metrics.csa.s": ("s", "lower"),
    "filtering.box_lpf.calls": ("count", "lower"),
    "filtering.box_lpf.distinct": ("count", "lower"),
    "filtering.laplacian_hp.calls": ("count", "lower"),
    "filtering.laplacian_hp.distinct": ("count", "lower"),
    "filtering.unsharp_mask.calls": ("count", "lower"),
    "filtering.self_s": ("s", "lower"),
    "filtering.redundant_frac": ("ratio", "lower"),
    **{f"fusion.{m}.self_s": ("s", "lower") for m in METHODS},
    "fusion.SF.rasters": ("count", "lower"),
    "colorspace.ihs.s": ("s", "lower"),
    "colorspace.hsv.s": ("s", "lower"),
    "raster.load_pnm.s": ("s", "lower"),
    "raster.load_pnm.mb_s": ("MB/s", "higher"),
    "raster.resample_nearest.s": ("s", "lower"),
    "raster.save_pnm.s": ("s", "lower"),
    "raster.clamp_quantize.s": ("s", "lower"),
    "raster.Raster.constructed": ("count", "lower"),
    "raster.Raster.s": ("s", "lower"),
    "report.write_csv.s": ("s", "lower"),
    "report.read_csv.s": ("s", "lower"),
    "report.render_reports.s": ("s", "lower"),
    "report.rows": ("count", "higher"),
    "trace.ops": ("count", "higher"),
    "trace.hash.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int
    thread: int


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        result[s.id] = (s.end - s.start) - covered
    return result


class Tracer:
    """Records spans (name, start, end, parent, task, thread) in memory.

    A span's parent is the innermost open span of the same thread. A span
    opened with ``new_task`` (or with no parent) starts a task; nested
    spans inherit it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._seen = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, new_task: bool):
        stack = self._stack()
        parent, task = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        stack.append((sid, sid if new_task or task is None else task))
        return sid, parent

    def _close(self, name: str, sid: int, parent, start: float) -> None:
        end = time.perf_counter()
        _, task = self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, task, threading.get_ident()))

    def call(self, name: str, fn, *args, new_task: bool = False, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid, parent = self._open(new_task)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, parent, start)

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def note_filter_input(self, name: str, raster) -> None:
        """Count a filter call and whether its task already filtered an
        identical input with the same filter. The hashing is its own
        ``trace.hash`` span, so it is not charged to the caller."""
        samples = raster.samples
        digest = self.call("trace.hash", _digest, samples)
        stack = self._stack()
        task = stack[-1][1] if stack else None
        with self._lock:
            seen = self._seen[task]
            self.counts[f"{name}.calls"] += 1
            if (name, digest) not in seen:
                seen.add((name, digest))
                self.counts[f"{name}.distinct"] += 1

    def wrap(self, owner, key: str, name: str, *, new_task: bool = False,
             filter_input: bool = False, count=None) -> None:
        """Replace ``owner.key`` (``owner[key]`` for a dict) by a traced call.

        ``count(args, result)`` adds to the counter ``name + ".n"``.
        """
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if filter_input:
                self.note_filter_input(name, args[0])
            result = self.call(name, original, *args, new_task=new_task, **kwargs)
            if count is not None:
                self.add(f"{name}.n", count(args, result))
            return result

        _assign(owner, key, traced)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        """Put back every wrapped original, innermost wrap first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            _assign(owner, key, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _digest(samples) -> bytes:
    h = hashlib.blake2b(repr(samples.shape).encode(), digest_size=16)
    h.update(samples)
    return h.digest()


def install(tracer: Tracer) -> None:
    """Wrap the names each panfuse module imports from the layer below."""
    from panfuse import cli, filtering, fusion, metrics, raster

    wrap = tracer.wrap
    wrap(cli, "_run_pair", "cli.pair", new_task=True)
    wrap(cli, "fuse", "fusion.fuse")
    wrap(cli, "evaluate_all", "metrics.evaluate_all")
    wrap(cli, "load_pnm", "raster.load_pnm", count=lambda a, r: os.path.getsize(a[0]))
    wrap(cli, "save_pnm", "raster.save_pnm")
    wrap(cli, "resample_nearest", "raster.resample_nearest")
    wrap(cli, "write_csv", "report.write_csv", count=lambda a, r: len(a[0]))
    wrap(cli, "read_csv", "report.read_csv", count=lambda a, r: len(r))
    wrap(cli, "render_reports", "report.render_reports")
    for name in ("deviation_index", "snr", "nrmse", "fcc", "hpdi", "csa"):
        wrap(metrics, name, f"metrics.{name}")
    wrap(metrics, "laplacian_hp", "filtering.laplacian_hp", filter_input=True)
    for name in FILTERS:
        wrap(fusion, name, f"filtering.{name}", filter_input=True)
    # unsharp_mask's own box_lpf call.
    wrap(filtering, "box_lpf", "filtering.box_lpf", filter_input=True)
    for name in ("ihs_forward", "ihs_inverse", "hsv_forward", "hsv_inverse"):
        wrap(fusion, name, f"colorspace.{name}")
    wrap(fusion, "resample_nearest", "raster.resample_nearest")
    wrap(fusion, "clamp_quantize", "raster.clamp_quantize")
    # save_pnm's own clamp_quantize call.
    wrap(raster, "clamp_quantize", "raster.clamp_quantize")
    wrap(raster.Raster, "__post_init__", "raster.Raster")
    for method in tuple(fusion.FUSION_METHODS):
        wrap(fusion.FUSION_METHODS, method, f"fusion.{method}")


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def _pool_metrics(spans, threads: int) -> tuple[float, float, float]:
    """(median pair s, pool efficiency, median per-batch max/median pair s)."""
    pairs = [s for s in spans if s.name == "cli.pair"]
    if not pairs:
        return 0.0, 0.0, 0.0
    busy = wall = 0.0
    skews = []
    for batch in (s for s in spans if s.name == "cli.main"):
        members = [p.end - p.start for p in pairs if batch.start <= p.start <= batch.end]
        if members:
            busy += sum(members)
            wall += (batch.end - batch.start) * threads
            skews.append(max(members) / statistics.median(members))
    median_pair = statistics.median(p.end - p.start for p in pairs)
    return median_pair, busy / wall, statistics.median(skews)


def summarize(tracer: Tracer, ops: int, threads: int, overhead_frac: float) -> dict:
    """Per-layer metrics (see ``PER_LAYER``) from the spans of ``ops``
    workload operations."""
    spans = tracer.spans
    selfs = self_times(spans)
    dur, own, calls = defaultdict(float), defaultdict(float), Counter()
    for s in spans:
        dur[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        calls[s.name] += 1
    counts = tracer.counts

    def per_op(x):
        return x / ops

    m = {}
    m["cli.pair.s"], m["cli.pool_efficiency"], m["cli.pair_skew"] = _pool_metrics(spans, threads)
    m["metrics.evaluate_all.self_s"] = per_op(own["metrics.evaluate_all"])
    m["metrics.spectral.s"] = per_op(
        dur["metrics.deviation_index"] + dur["metrics.snr"] + dur["metrics.nrmse"])
    for name in ("fcc", "hpdi", "csa"):
        m[f"metrics.{name}.s"] = per_op(dur[f"metrics.{name}"])
    for name in FILTERS:
        m[f"filtering.{name}.calls"] = per_op(calls[f"filtering.{name}"])
    for name in ("box_lpf", "laplacian_hp"):
        m[f"filtering.{name}.distinct"] = per_op(counts[f"filtering.{name}.distinct"])
    m["filtering.self_s"] = per_op(sum(own[f"filtering.{n}"] for n in FILTERS))
    filter_calls = sum(counts[f"filtering.{n}.calls"] for n in FILTERS)
    filter_new = sum(counts[f"filtering.{n}.distinct"] for n in FILTERS)
    m["filtering.redundant_frac"] = 1.0 - filter_new / filter_calls if filter_calls else 0.0
    for method in METHODS:
        m[f"fusion.{method}.self_s"] = per_op(own[f"fusion.{method}"])
    by_id = {s.id: s for s in spans}
    sf_rasters = sum(1 for s in spans
                     if s.name == "raster.Raster" and _has_ancestor(s, "fusion.SF", by_id))
    m["fusion.SF.rasters"] = sf_rasters / calls["fusion.SF"] if calls["fusion.SF"] else 0.0
    m["colorspace.ihs.s"] = per_op(dur["colorspace.ihs_forward"] + dur["colorspace.ihs_inverse"])
    m["colorspace.hsv.s"] = per_op(dur["colorspace.hsv_forward"] + dur["colorspace.hsv_inverse"])
    m["raster.load_pnm.s"] = per_op(dur["raster.load_pnm"])
    load_s = dur["raster.load_pnm"]
    m["raster.load_pnm.mb_s"] = counts["raster.load_pnm.n"] / 1e6 / load_s if load_s else 0.0
    for name in ("resample_nearest", "save_pnm", "clamp_quantize"):
        m[f"raster.{name}.s"] = per_op(dur[f"raster.{name}"])
    m["raster.Raster.constructed"] = per_op(calls["raster.Raster"])
    m["raster.Raster.s"] = per_op(dur["raster.Raster"])
    for name in ("write_csv", "read_csv", "render_reports"):
        m[f"report.{name}.s"] = per_op(dur[f"report.{name}"])
    m["report.rows"] = per_op(counts["report.write_csv.n"] + counts["report.read_csv.n"])
    m["trace.ops"] = float(ops)
    m["trace.hash.s"] = per_op(dur["trace.hash"])
    m["trace.overhead_frac"] = overhead_frac
    return {name: m[name] for name in PER_LAYER}
