"""The 3x3 box low-pass, unsharp-mask and Laplacian high-pass filters every
fusion method and spatial metric shares.

Edge handling is replicate (clamp-to-border) everywhere, so constant images
pass through filters unchanged and weight-sum-zero filters respond with
exact zeros on integral DN data.
"""

from __future__ import annotations

import numpy as np

from .raster import Raster

__all__ = ["box_lpf", "unsharp_mask", "laplacian_hp"]


def _box_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each 3x3 window under replicate padding, taken separably:
    three row-shifted slices, then three column-shifted ones. On integral
    DN every partial sum is an exact integer, so the order is immaterial.
    """
    h, w = x.shape
    padded = np.pad(x, 1, mode="edge")
    rows = padded[0:h] + padded[1:h + 1] + padded[2:h + 2]
    return rows[:, 0:w] + rows[:, 1:w + 1] + rows[:, 2:w + 2]


def box_lpf(r: Raster) -> Raster:
    """Uniform 3x3 local average (the low-pass half of unsharp masking)."""
    return Raster(_box_sum(r.samples) / 9.0)


def unsharp_mask(p: Raster) -> Raster:
    """High-frequency plane p - box_lpf(p); zero on constant images."""
    return Raster(p.samples - box_lpf(p).samples)


def laplacian_hp(r: Raster) -> Raster:
    """8-connected Laplacian high-pass (center 8, all neighbors -1).

    The result is memoised on ``r``: a Raster is frozen and its samples
    are read-only, so later calls on the same object return the same
    result object. Distinct but equal-valued rasters each compute their
    own. The memo lives in the instance dict, which needs no lock shared
    between instances; racing threads may both compute, and ``setdefault``
    keeps the first result.
    """
    hp = r.__dict__.get("_laplacian_hp")
    if hp is None:
        hp = Raster(9.0 * r.samples - _box_sum(r.samples))
        hp = r.__dict__.setdefault("_laplacian_hp", hp)
    return hp
