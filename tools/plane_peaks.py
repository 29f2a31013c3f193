"""Print the peak traced allocation of each fusion method, in float64 planes.

Usage: python tools/plane_peaks.py [SIZE]

For each of the seven methods, synthesizes a SIZE x SIZE pair (default
1024; a multiple of 4) with ``panfuse.synthesize`` and traces one
``panfuse.fuse`` call on it with ``tracemalloc``; then traces one
``synthesize`` call itself, and one ``evaluate_all`` of an SF product
fused, untraced, on a freshly synthesized pair. Prints ``<planes> <name>`` for each, where
``<planes>`` is the traced peak divided by SIZE * SIZE * 8 bytes, the
size of one float64 plane. The peak includes the result, which is held
until tracing stops. Each method gets a pair of its own, so nothing one
call memoises on the PAN is there for the next.
"""

from __future__ import annotations

import sys
import tracemalloc

from panfuse import SyntheticSpec, evaluate_all, fuse, synthesize
from panfuse.fusion import METHOD_NAMES


def traced_peak(call) -> int:
    """The peak traced allocation, in bytes, while ``call()`` runs and
    its result is held."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 - held until the peak is read
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    size = int(argv[0]) if argv else 1024
    spec = SyntheticSpec(seed=0, width=size, height=size)
    plane = size * size * 8
    for method in METHOD_NAMES:
        ms, pan, _ = synthesize(spec)
        peak = traced_peak(lambda: fuse(method, ms, pan))
        print(f"{peak / plane:6.2f} {method}")
    print(f"{traced_peak(lambda: synthesize(spec)) / plane:6.2f} synthesize")
    ms, pan, _ = synthesize(spec)
    product = fuse("SF", ms, pan)
    peak = traced_peak(lambda: evaluate_all(ms, pan, product, "p", "SF"))
    print(f"{peak / plane:6.2f} evaluate_all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
