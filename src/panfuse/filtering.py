"""The 3x3 box low-pass, unsharp-mask and Laplacian high-pass filters every
fusion method and spatial metric shares, and the 3x3 window reduction they
and the CSA local contrast are built on.

Edge handling is replicate (clamp-to-border) everywhere, so constant images
pass through filters unchanged and weight-sum-zero filters respond with
exact zeros on integral DN data.

A Raster on the 8-bit grid (``raster.dn8``) is filtered in int16, which
holds the largest window sum, 9 * 255 = 2295. Every partial
sum, difference, minimum and maximum is then an exact integer, as it is
in float64 on integral DN, so the results are the float path's bits at a
quarter of the bytes per pixel. Any other Raster is filtered in float64.

The replicate padding is done one row strip at a time, so a stencil's
only whole planes are its input and its results.
"""

from __future__ import annotations

import numpy as np

from .raster import Raster, dn8, memoised, row_strips

__all__ = ["box_lpf", "unsharp_mask", "laplacian_hp"]


def window3x3(x: np.ndarray, *reductions) -> list[np.ndarray]:
    """Reduce each 3x3 window of ``x`` under replicate padding, once per
    ufunc in ``reductions`` (``np.add``, ``np.minimum``, ``np.maximum``),
    into arrays of ``x``'s dtype, one row strip (``raster.row_strips``,
    sized for ``x``'s samples) at a time: each strip is reduced by
    :func:`window_rows` from its rows and a halo row above and below,
    where the plane has them, so no padded plane is made.
    """
    h, w = x.shape
    out = [np.empty((h, w), x.dtype) for _ in reductions]
    strips = row_strips((h, w), x.itemsize)
    scratch = np.empty((2, strips[0].stop + 2, w + 2), x.dtype)
    for strip in strips:
        top, end = strip.start, strip.stop
        rows = x[max(top - 1, 0):end + 1]
        window_rows(rows, top == 0, end == h, reductions, scratch, [o[strip] for o in out])
    return out


def window_rows(block, at_top, at_bottom, reductions, scratch, out) -> None:
    """Reduce the 3x3 windows of the rows of ``block``, a run of rows of
    a plane, once per ufunc in ``reductions``, into the arrays ``out``.

    Only the plane's own edges are padded, by replicate: ``at_top`` and
    ``at_bottom`` say whether ``block`` starts at the plane's first row
    and ends at its last. A first or last row of ``block`` that is not
    the plane's serves only as the halo of its neighbour, so ``out``
    holds one row fewer at each such side. ``out`` may share memory with
    ``block``, which is copied before any of ``out`` is written.
    ``scratch``, of ``block``'s dtype and shape (2, at least ``block``'s
    rows plus two, its columns plus two), takes the padded copy of
    ``block`` and the row sums, so that no strip-sized array is allocated
    per call. Each reduction is
    taken separably over three row-shifted slices of the padded copy and
    then three column-shifted ones, as ``f(f(a, b), c)``. For ``np.add``
    on integral DN every partial sum is an exact integer, so the order is
    immaterial; min and max are exact in any order.
    """
    n, w = block.shape
    t = int(at_top)
    # Replicate padding by slice assignment, a fraction of np.pad's cost.
    p = scratch[0, :n + t + int(at_bottom)]
    p[t:t + n, 1:-1] = block
    if at_top:
        p[0, 1:-1] = block[0]
    if at_bottom:
        p[-1, 1:-1] = block[-1]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    m = len(p) - 2
    rows = scratch[1, :m]
    for f, plane in zip(reductions, out):
        f(p[0:m], p[1:m + 1], out=rows)
        f(rows, p[2:m + 2], out=rows)
        window = f(rows[:, 0:w], rows[:, 1:w + 1], out=plane)
        f(window, rows[:, 2:w + 2], out=window)


def stencil_input(r: Raster) -> np.ndarray:
    """The array a 3x3 stencil reads for ``r``: its 8-bit grid samples as
    int16 when it has them, else its float64 samples."""
    dn = dn8(r)
    return r.samples if dn is None else dn.astype(np.int16)


def box_lpf(r: Raster) -> Raster:
    """Uniform 3x3 local average (the low-pass half of unsharp masking).
    A float64 window sum is divided in place; an int16 one into a new
    float64 array."""
    total = window3x3(stencil_input(r), np.add)[0]
    return Raster(np.divide(total, 9.0, out=total if total.dtype == np.float64 else None))


def unsharp_mask(p: Raster) -> Raster:
    """High-frequency plane p - box_lpf(p); zero on constant images."""
    return Raster(p.array - box_lpf(p).samples)


def laplacian_hp(r: Raster) -> Raster:
    """8-connected Laplacian high-pass (center 8, all neighbors -1), kept
    as int16 (within +-2040) for a Raster on the 8-bit grid.

    The result is memoised on ``r`` by ``raster.memoised``: later calls on
    the same object return the same result object, and distinct but
    equal-valued rasters each compute their own. Its thread rule is the
    helper's: instance dict, ``setdefault``, no lock, so racing threads
    may both compute and the first result is kept.
    """
    def compute() -> Raster:
        a = stencil_input(r)
        return Raster(9 * a - window3x3(a, np.add)[0])

    return memoised(r, "_laplacian_hp", compute)
