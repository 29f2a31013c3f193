"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/repeat.py --workload sharpen --seeds 1-10 --seconds 30 [--trace 0]

Each run is a separate ``perfbench/run.py`` process, one after another.
The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is compared with
the metric's bound in BENCHMARK.json. ``--out`` appends the summary as
one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failures = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        failures += result["failed"] + (not result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "seeds": args.seeds, "failures": failures, "metrics": {}}
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        s = summarize(vals)
        s["unit"] = units[name]
        summary["metrics"][name] = s
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if s["spread"] < bound / 3 else "WIDE")
        print(f"{name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {bound if bound is not None else '':>6} {flag}")
    print(f"failures: {failures}")
    if args.out:
        with args.out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
