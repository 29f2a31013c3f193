"""Run one panfuse benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The inputs are generated from ``--seed`` (``SETUP_REPEATS``
times, to time set-up), then the workload runs as a closed loop through
``panfuse.cli.main`` for ``--seconds`` seconds. With ``--trace 0`` the
result holds the end-to-end metrics. With ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the result holds
the per-layer metrics, including the tracing overhead between the halves.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("campaign", "sharpen", "ascii-audit")
END_TO_END = {
    "throughput_mpx_s": "MPx/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_program() -> None:
    """Put this checkout's ``src/`` and the benchmark package first on the
    import path; exit non-zero if the sources are not there."""
    src = ROOT / "src"
    if not (src / "panfuse" / "__init__.py").is_file():
        sys.exit(f"error: panfuse sources not found under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def setup(workload: str, seed: int, work: Path):
    """Generate the inputs ``SETUP_REPEATS`` times; returns (inputs of the
    last repeat, median seconds, whether every repeat wrote the same bytes)."""
    from perfbench.inputs import GENERATORS
    from perfbench.workloads import file_digest

    seconds, snapshots, inputs = [], [], None
    for k in range(SETUP_REPEATS):
        target = work / f"inputs-{k}"
        start = time.perf_counter()
        inputs = GENERATORS[workload](seed, target)
        seconds.append(time.perf_counter() - start)
        snapshots.append({p.name: file_digest(p) for p in sorted(target.iterdir())})
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    same = all(s == snapshots[0] for s in snapshots)
    return inputs, statistics.median(seconds), same


def end_to_end(workload, setup_s: float) -> tuple[dict, str]:
    from perfbench.workloads import tail, throughput

    kind = workload.latency_kind
    latencies = [c.seconds * 1e3 for c in workload.calls if c.kind == kind]
    tail_ms, percentile, beyond = tail(latencies)
    values = {
        "throughput_mpx_s": throughput(workload.calls),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    note = f"tail is p{percentile:.1f} of {len(latencies)} {kind} calls, {beyond} beyond it"
    return values, note


def run(args) -> dict:
    from perfbench.tracer import PER_LAYER, Tracer, install, summarize
    from perfbench.workloads import (WORKLOADS, expected_digests, main_invoker, nproc,
                                     run_window, throughput)

    work = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_s, setup_same = setup(args.workload, args.seed, work)
        threads = nproc() if args.workload == "campaign" else 1
        os.environ["PANFUSE_THREADS"] = str(threads)
        cls = WORKLOADS[args.workload]
        reference = expected_digests(args.workload, args.seed)
        if args.trace == 0:
            runs = [cls(inputs, work / "out", reference)]
            run_window(runs[0], main_invoker(), args.seconds)
        else:
            plain = cls(inputs, work / "plain", reference)
            run_window(plain, main_invoker(), args.seconds / 2)
            tracer = Tracer()
            install(tracer)
            try:
                # Shares the reference, so traced products must equal untraced ones.
                traced = cls(inputs, work / "traced", plain.reference)
                run_window(traced, main_invoker(tracer), args.seconds / 2)
            finally:
                tracer.restore()
            runs = [plain, traced]
        for w in runs:
            w.finish()

        if args.trace == 0:
            values, note = end_to_end(runs[0], setup_s)
            units = END_TO_END
        else:
            overhead = 1.0 - throughput(traced.calls) / throughput(plain.calls)
            values = summarize(tracer, traced.ops, threads, overhead)
            note = f"per {traced.ops} operations; spans in {RUN_DIR.name}/"
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            RUN_DIR.mkdir(exist_ok=True)
            tracer.write_spans(RUN_DIR / f"{args.workload}-{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = [c for w in runs for c in w.calls]
    failed = sum(not c.ok for c in calls)
    errors = [e for w in runs for e in w.errors]
    if not setup_same:
        errors.append("set-up wrote different bytes on repeats")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  ({note})")
    print(f"  failed_frac {failed / len(calls):.6g} ({failed} of {len(calls)} calls)")
    for e in errors:
        print(f"  error: {e}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
