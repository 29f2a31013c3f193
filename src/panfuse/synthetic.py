"""Deterministic synthetic MS/PAN pair generation.

Stands in for satellite imagery in tests and demos: a smoothed-noise RGB
reference plays the high-resolution scene, its intensity plane becomes the
PAN image, and a block-averaged, nearest-upsampled copy becomes the coarse
MS image. Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .colorspace import intensity
from .filtering import window_rows
from .raster import (MultiBandImage, Raster, clamp_quantize, quantize_rows, resample_nearest,
                     row_strips, save_pnm)

__all__ = ["SyntheticSpec", "synthesize", "generate_pair"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for one synthetic pair.

    ``scale_factor`` is the MS degradation ratio; width and height must
    be divisible by it so block averaging is exact.
    """

    seed: int
    width: int
    height: int
    scale_factor: int = 4
    smoothing_passes: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.width}x{self.height}")
        if self.scale_factor < 2:
            raise ValueError(f"scale_factor must be >= 2, got {self.scale_factor}")
        if self.smoothing_passes < 0:
            raise ValueError("smoothing_passes must be >= 0")
        if self.width % self.scale_factor or self.height % self.scale_factor:
            raise ValueError(
                f"width and height ({self.width}x{self.height}) must be divisible "
                f"by scale_factor {self.scale_factor}"
            )


def _block_average(a: np.ndarray, factor: int) -> np.ndarray:
    """The mean of each ``factor`` x ``factor`` block of the uint8 plane
    ``a``: its exact int64 sum, taken over strided views (rows, then
    columns), divided by ``factor`` ** 2. ``np.mean`` sums integers
    exactly in float64 and divides once, so these are its bits."""
    rows = a[0::factor].astype(np.int64)
    for i in range(1, factor):
        rows += a[i::factor]
    total = rows[:, 0::factor].copy()
    for j in range(1, factor):
        total += rows[:, j::factor]
    return total / factor ** 2


def _smoothed(noise: np.ndarray, passes: int) -> np.ndarray:
    """``noise`` smoothed by ``passes`` box filters and quantized into a
    new uint8 plane, one row strip (``raster.row_strips``) at a time.

    Each strip takes the noise rows it needs, ``passes`` halo rows on
    each side clamped at the plane's edges, and runs ``box_lpf``'s 3x3
    window sum (``filtering.window_rows``) and division by 9 on them;
    each pass leaves one halo row fewer on each side that has one, so
    every pixel gets ``box_lpf``'s bits. Each pass writes over the last
    one's sums in one strip buffer, so no whole float64 plane but
    ``noise`` is made."""
    h, w = noise.shape
    q = np.empty((h, w), np.uint8)
    strips = row_strips((h, w))
    rows = strips[0].stop + 2 * passes
    scratch = np.empty((2, rows + 2, w + 2))
    sums = np.empty((rows, w))
    for strip in strips:
        lo, hi = max(strip.start - passes, 0), min(strip.stop + passes, h)
        block = noise[lo:hi]
        for _ in range(passes):
            at_top, at_bottom = lo == 0, hi == h
            lo, hi = lo + (not at_top), hi - (not at_bottom)
            total = sums[:hi - lo]
            window_rows(block, at_top, at_bottom, (np.add,), scratch, [total])
            block = np.divide(total, 9.0, out=total)
        quantize_rows(block[strip.start - lo:strip.stop - lo], q[strip])
    return q


def synthesize(spec: SyntheticSpec) -> tuple[MultiBandImage, Raster, MultiBandImage]:
    """Build (ms, pan, reference) in memory, deterministically from the seed.

    The reference is seeded uniform noise per channel, smoothed by
    ``smoothing_passes`` box filters and quantized (see :func:`_smoothed`).
    PAN is the quantized intensity (band mean) of the reference, built
    strip by strip; MS is the reference block averaged by
    ``scale_factor`` and nearest-upsampled back to full size.
    """
    rng = np.random.default_rng(spec.seed)
    shape = (spec.height, spec.width)
    channels = [
        _smoothed(rng.uniform(0.0, 255.0, size=shape), spec.smoothing_passes) for _ in range(3)
    ]
    pan = np.empty(shape, np.uint8)
    for rows in row_strips(shape):
        quantize_rows(intensity(*(c[rows] for c in channels)), pan[rows])

    coarse = tuple(
        clamp_quantize(Raster(_block_average(c, spec.scale_factor))) for c in channels
    )
    ms = resample_nearest(MultiBandImage(coarse), spec.width, spec.height)
    return ms, Raster(pan), MultiBandImage(tuple(Raster(c) for c in channels))


def generate_pair(spec: SyntheticSpec, out_dir) -> tuple[Path, Path, Path]:
    """Write ms.ppm, pan.pgm and reference.ppm under ``out_dir``.

    Returns the three paths. Identical specs produce byte-identical files.
    The pair is synthesized before ``out_dir`` is made, so a spec too big
    to allocate (MemoryError) leaves no directory behind.
    """
    ms, pan, reference = synthesize(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ms_path = out / "ms.ppm"
    pan_path = out / "pan.pgm"
    reference_path = out / "reference.ppm"
    save_pnm(ms, ms_path)
    save_pnm(pan, pan_path)
    save_pnm(reference, reference_path)
    return ms_path, pan_path, reference_path
