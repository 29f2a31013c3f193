"""Record the product digests that campaign and sharpen runs are checked against.

    python3 perfbench/record_digests.py --seeds 0-9

For each seed, generates the workload's inputs, runs every call once
(each manifest for campaign, each pair x method for sharpen) and writes
the digest of every product and metrics table to perfbench/digests.json.
Run it only on a commit whose outputs are known to be right; a run of
``run.py`` with a recorded seed fails any call whose output differs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from panfuse.fusion import METHOD_NAMES  # noqa: E402
from perfbench.inputs import GENERATORS  # noqa: E402
from perfbench.repeat import seed_range  # noqa: E402
from perfbench.run import RUN_DIR  # noqa: E402
from perfbench.workloads import DIGESTS, WORKLOADS, main_invoker  # noqa: E402

RECORDED = ("campaign", "sharpen")


def record(workload: str, seed: int) -> dict:
    work = RUN_DIR / f"record-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = GENERATORS[workload](seed, work / "inputs")
        w = WORKLOADS[workload](inputs, work / "out", {})
        steps = (len(inputs.manifests) if workload == "campaign"
                 else len(METHOD_NAMES) * len(inputs.pairs))
        for _ in range(steps):
            w.step(main_invoker())
        if w.errors or not all(c.ok for c in w.calls):
            raise RuntimeError(f"{workload} seed {seed}: {w.errors}")
        return dict(sorted(w.reference.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)
    table = {w: {str(s): record(w, s) for s in args.seeds} for w in RECORDED}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
