"""Forward and inverse IHS and HSV transforms.

The IHS variant is the linear triangular model: intensity is the band mean
and the chromatic state rides in two carrier planes (v1, v2) instead of
hue/saturation angles, so forward-then-inverse is exact linear algebra with
no trigonometric round-trip loss: hue is atan2(v2, v1) and saturation
hypot(v1, v2). Each transform maps a three-band MultiBandImage to another
of the same size: RGB to (I, v1, v2) or hexcone (H, S, V), and back.
"""

from __future__ import annotations

import math

import numpy as np

from .raster import MultiBandImage, Raster, row_strips

__all__ = [
    "intensity",
    "ihs_forward",
    "ihs_inverse",
    "hsv_forward",
    "hsv_inverse",
]

_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)


def _require_rgb(image: MultiBandImage, op: str) -> tuple:
    """The three bands' ``Raster.array`` (uint8 for 8-bit bands); raises
    ValueError, naming ``op``, unless there are exactly three."""
    if image.band_count != 3:
        raise ValueError(f"{op} requires exactly 3 bands, got {image.band_count}")
    return tuple(b.array for b in image.bands)


def intensity(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """I = (R+G+B)/3 of three band arrays as a fresh float64 array, op for
    op; the first sum is taken in float64, as uint8 samples would wrap."""
    i = np.add(r, g, dtype=np.float64)
    i += b
    i /= 3.0
    return i


def ihs_forward(rgb: MultiBandImage) -> MultiBandImage:
    """RGB to (I, v1, v2): I = (R+G+B)/3, v1 = (-R-G+2B)/sqrt(6),
    v2 = (R-G)/sqrt(2); the planes are built one row strip
    (``raster.row_strips``) at a time."""
    r, g, b = _require_rgb(rgb, "ihs_forward")
    i, v1, v2 = (np.empty(r.shape) for _ in range(3))
    for rows in row_strips(r.shape):
        i[rows] = intensity(r[rows], g[rows], b[rows])
        # ((-r - g) + 2b) / sqrt(6), op for op, in place; the first op is
        # taken in float64, as uint8 samples would wrap.
        v1_rows = np.negative(r[rows], out=v1[rows], dtype=np.float64)
        v1_rows -= g[rows]
        v1_rows += np.multiply(b[rows], 2.0)
        v1_rows /= _SQRT6
        v2_rows = np.subtract(r[rows], g[rows], out=v2[rows], dtype=np.float64)
        v2_rows /= _SQRT2
    return MultiBandImage((Raster(i), Raster(v1), Raster(v2)))


def ihs_inverse(ihs: MultiBandImage) -> MultiBandImage:
    """(I, v1, v2) back to RGB, one row strip (``raster.row_strips``) at a
    time. Output is not clamped; clamping is the fusion pipeline's final
    step. Integer planes are promoted to float64 by every op, exactly."""
    i, v1, v2 = _require_rgb(ihs, "ihs_inverse")
    r, g, b = (np.empty(i.shape) for _ in range(3))
    for rows in row_strips(i.shape):
        # i - v1/sqrt(6) +- v2/sqrt(2) and i + (2 v1)/sqrt(6), op for op,
        # with each quotient taken once.
        v1_part = v1[rows] / _SQRT6
        v2_part = v2[rows] / _SQRT2
        r_rows = np.subtract(i[rows], v1_part, out=r[rows])
        r_rows += v2_part
        g_rows = np.subtract(i[rows], v1_part, out=g[rows])
        g_rows -= v2_part
        b_rows = np.multiply(v1[rows], 2.0, out=b[rows])
        b_rows /= _SQRT6
        b_rows += i[rows]
    return MultiBandImage((Raster(r), Raster(g), Raster(b)))


def hsv_forward(rgb: MultiBandImage) -> MultiBandImage:
    """RGB in [0, 255] to hexcone HSV; hue fixed at 0 where saturation is 0."""
    r, g, b = (np.asarray(x, dtype=np.float64) for x in _require_rgb(rgb, "hsv_forward"))
    v = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    delta = v - mn

    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(v == 0.0, 0.0, delta / np.where(v == 0.0, 1.0, v))
        d = np.where(delta == 0.0, 1.0, delta)
        h_r = 60.0 * np.mod((g - b) / d, 6.0)
        h_g = 60.0 * ((b - r) / d + 2.0)
        h_b = 60.0 * ((r - g) / d + 4.0)
    h = np.select(
        [delta == 0.0, v == r, v == g],
        [np.zeros_like(v), h_r, h_g],
        default=h_b,
    )
    # Rounding in the mod-6 branch can land exactly on 360.
    h = np.where(h >= 360.0, h - 360.0, h)
    return MultiBandImage((Raster(h), Raster(s), Raster(v)))


def hsv_inverse(hsv: MultiBandImage) -> MultiBandImage:
    """Hexcone (H, S, V) back to RGB; exact inverse of hsv_forward on its range."""
    h, s, v = (np.asarray(x, dtype=np.float64) for x in _require_rgb(hsv, "hsv_inverse"))
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("out-of-range saturation (must be in [0, 1])")
    if np.any(v < 0.0) or np.any(v > 255.0):
        raise ValueError("out-of-range value (must be in [0, 255])")
    hp = np.mod(h, 360.0) / 60.0

    c = v * s
    x = c * (1.0 - np.abs(np.mod(hp, 2.0) - 1.0))
    m = v - c
    z = np.zeros_like(c)

    sector = np.floor(hp).astype(np.int64) % 6
    r1 = np.choose(sector, (c, x, z, z, x, c))
    g1 = np.choose(sector, (x, c, c, x, z, z))
    b1 = np.choose(sector, (z, z, x, c, c, x))
    return MultiBandImage((Raster(r1 + m), Raster(g1 + m), Raster(b1 + m)))
