"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop from one client: the next call into
``panfuse.cli.main`` starts when the previous one returns. A workload
object runs one call per ``step`` and checks the call's outputs before the
next step; ``finish`` runs the checks that need the whole run. A call that
exits non-zero or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from panfuse import cli
from panfuse.fusion import METHOD_NAMES
from panfuse.metrics import METRIC_ORDER, evaluate_all
from panfuse.raster import load_pnm
from panfuse.report import write_csv

from perfbench.inputs import Inputs

# One MetricRecord per band and metric plus the band-averaged row.
ROWS_PER_PRODUCT = (3 + 1) * len(METRIC_ORDER)
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Call:
    kind: str
    seconds: float
    mpx: float  # PAN-grid megapixels x methods completed
    ok: bool


def file_digest(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()


def expected_digests(workload: str, seed: int) -> dict:
    """Product digests recorded for ``seed`` from the seed commit, if any."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return dict(table.get(workload, {}).get(str(seed), {}))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    """One closed-loop client. ``invoke(argv)`` runs ``cli.main`` and returns
    its exit code; the caller may wrap it in a span."""

    name = ""
    latency_kind = ""  # the kind of call whose times are the latency samples

    def __init__(self, inputs: Inputs, out: Path, reference: dict):
        self.inputs = inputs
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        # Output name -> digest every later output of that name must match.
        self.reference = reference
        self.calls: list[Call] = []
        self.errors: list[str] = []
        self.ops = 0

    def _run(self, invoke, argv, kind: str, mpx: float) -> bool:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = invoke(argv)
            except Exception:  # uncaught, it would end the CLI process with status 1
                traceback.print_exc(file=sink)
                code = 1
            seconds = time.perf_counter() - start
        ok = code == 0
        if not ok:
            last = (sink.getvalue().strip().splitlines() or [""])[-1]
            self._fail(f"{argv[0]} exited {code}: {last[:300]}")
        self.calls.append(Call(kind, seconds, mpx, ok))
        return ok

    def _fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def _check_digest(self, name: str, path: Path) -> bool:
        try:
            digest = file_digest(path)
        except OSError as e:
            self._fail(f"{name}: {e}")
            return False
        expected = self.reference.setdefault(name, digest)
        if digest != expected:
            self._fail(f"{name}: digest {digest} != {expected}")
        return digest == expected

    def _mark_failed(self, index: int = -1) -> None:
        c = self.calls[index]
        self.calls[index] = Call(c.kind, c.seconds, c.mpx, False)

    def _report(self, invoke, csv_path: Path, charts: Path) -> list[Path] | None:
        """Run ``panfuse report``; returns its charts, or None if the call
        failed or did not write one non-empty chart per metric."""
        shutil.rmtree(charts, ignore_errors=True)
        if not self._run(invoke, ["report", "--csv", str(csv_path), "--out", str(charts)],
                         "report", 0.0):
            return None
        svgs = sorted(p for p in charts.glob("*.svg") if p.stat().st_size > 0)
        if len(svgs) != len(METRIC_ORDER):
            self._fail(f"report wrote {len(svgs)} charts")
            self._mark_failed()
            return None
        return svgs

    def step(self, invoke) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run."""


class Campaign(Workload):
    """``panfuse batch`` with all seven methods, then ``panfuse report`` on
    the batch's metrics table; batch i runs manifest i mod (number of
    manifests)."""

    name = "campaign"
    latency_kind = "batch"

    def __init__(self, inputs: Inputs, out: Path, reference: dict):
        super().__init__(inputs, out, reference)
        self.batches = 0

    def step(self, invoke) -> None:
        manifest = self.inputs.manifests[self.batches % len(self.inputs.manifests)]
        self.batches += 1
        spec = json.loads(manifest.read_text())
        out_dir = manifest.parent / spec["output_dir"]
        shutil.rmtree(out_dir, ignore_errors=True)
        pairs = len(spec["pairs"])
        mpx = pairs * len(METHOD_NAMES) * self.inputs.pan_pixels / 1e6
        ok = self._run(invoke, ["batch", "--manifest", str(manifest)], "batch", mpx)
        self.ops += pairs
        if not ok:
            return
        if not self._check_outputs(spec, out_dir):
            self._mark_failed()
        charts = self._report(invoke, out_dir / "metrics.csv", out_dir / "charts")
        if charts and not all([self._check_digest(f"{spec['output_dir']}/charts/{p.name}", p)
                               for p in charts]):
            self._mark_failed()

    def _check_outputs(self, spec: dict, out_dir: Path) -> bool:
        csv_path = out_dir / "metrics.csv"
        if not csv_path.is_file():
            self._fail(f"{spec['output_dir']}/metrics.csv is missing")
            return False
        with csv_path.open() as fh:
            rows = sum(1 for _ in fh) - 1
        ok = rows == len(spec["pairs"]) * len(METHOD_NAMES) * ROWS_PER_PRODUCT
        if not ok:
            self._fail(f"{spec['output_dir']}/metrics.csv has {rows} rows")
        ok &= self._check_digest(f"{spec['output_dir']}/metrics.csv", csv_path)
        for pair in spec["pairs"]:
            for method in METHOD_NAMES:
                name = f"{pair['pair_id']}/{method}.ppm"
                ok &= self._check_digest(name, out_dir / name)
        return ok


class Sharpen(Workload):
    """Single ``panfuse fuse`` calls; call i uses method i mod 7 on pair
    i mod (number of pairs), so consecutive calls never share a pair."""

    name = "sharpen"
    latency_kind = "fuse"

    def step(self, invoke) -> None:
        i = len(self.calls)
        pair = self.inputs.pairs[i % len(self.inputs.pairs)]
        method = METHOD_NAMES[i % len(METHOD_NAMES)]
        path = self.out / "fused.ppm"
        path.unlink(missing_ok=True)
        argv = ["fuse", "--ms", str(pair.ms), "--pan", str(pair.pan),
                "--method", method, "--out", str(path)]
        ok = self._run(invoke, argv, "fuse", self.inputs.pan_pixels / 1e6)
        self.ops += 1
        if ok and not self._check_digest(f"{pair.pair_id}/{method}.ppm", path):
            self._mark_failed()


class AsciiAudit(Workload):
    """``panfuse evaluate`` on ASCII triples, appending to one CSV, and
    ``panfuse report`` on that CSV after every cycle over the pairs."""

    name = "ascii-audit"
    latency_kind = "evaluate"

    def __init__(self, inputs: Inputs, out: Path, reference: dict):
        super().__init__(inputs, out, reference)
        self.csv = out / "audit.csv"
        self.charts = out / "charts"
        self.evaluated: list[tuple[int, int]] = []  # (pair index, call index)

    def step(self, invoke) -> None:
        k = len(self.evaluated) % len(self.inputs.pairs)
        pair = self.inputs.pairs[k]
        argv = ["evaluate", "--ms", str(pair.ms), "--pan", str(pair.pan),
                "--fused", str(pair.fused), "--pair-id", pair.pair_id,
                "--method", pair.method, "--csv", str(self.csv)]
        self._run(invoke, argv, "evaluate", self.inputs.pan_pixels / 1e6)
        self.evaluated.append((k, len(self.calls) - 1))
        self.ops += 1
        if k == len(self.inputs.pairs) - 1:
            self._report(invoke, self.csv, self.charts)

    def expected_rows(self) -> list[list[str]]:
        """Per pair, the CSV rows ``evaluate_all`` gives on binary copies."""
        rows = []
        scratch = self.out / "expected.csv"
        for pair in self.inputs.pairs:
            ms, pan, fused = (load_pnm(p) for p in pair.binary)
            records = evaluate_all(ms, pan, fused, pair.pair_id, pair.method)
            write_csv(records, scratch)
            with scratch.open(newline="") as fh:
                rows.append(list(csv.reader(fh))[1:])
        return rows

    def finish(self) -> None:
        """Every evaluate call's CSV rows must equal ``evaluate_all`` on the
        binary copies of its images, which cross-checks the ASCII parser."""
        if not self.evaluated:
            return
        expected = self.expected_rows()
        rows = []
        if self.csv.is_file():
            with self.csv.open(newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        n = ROWS_PER_PRODUCT
        ok_calls = [c for c in self.evaluated if self.calls[c[1]].ok]
        if len(rows) != n * len(ok_calls):
            self._fail(f"{self.csv.name} has {len(rows)} rows for {len(ok_calls)} calls")
            for _, index in ok_calls:
                self._mark_failed(index)
            return
        for j, (k, index) in enumerate(ok_calls):
            if rows[n * j:n * (j + 1)] != expected[k]:
                self._fail(f"evaluate call {index} ({self.inputs.pairs[k].pair_id}): "
                           "rows differ from the binary-loaded evaluation")
                self._mark_failed(index)


WORKLOADS = {w.name: w for w in (Campaign, Sharpen, AsciiAudit)}


def run_window(workload: Workload, invoke, seconds: float) -> None:
    """Step ``workload`` until ``seconds`` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    workload.step(invoke)
    while time.perf_counter() < deadline:
        workload.step(invoke)


def main_invoker(tracer=None):
    """``argv -> exit code`` through ``cli.main``, in a new-task span when
    traced."""
    if tracer is None:
        return cli.main
    return lambda argv: tracer.call("cli.main", cli.main, argv, new_task=True)


def throughput(calls: list[Call]) -> float:
    """PAN megapixels x methods completed per second of time spent in calls.

    A ratio of sums, not of medians: on a host whose speed switches
    between two levels for seconds at a time, the share of time spent at
    each level varies from run to run and a median jumps between levels.
    """
    return sum(c.mpx for c in calls if c.ok) / sum(c.seconds for c in calls)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, but
    never below the median.

    Returns (value, percentile, samples beyond). From 21 samples on this is
    the 11th-largest sample. With 11 to 20 samples it is the median. With
    fewer than 11 no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    if n <= 20:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - 11], 100.0 * (n - 10) / n, 10
