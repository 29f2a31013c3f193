"""Forward and inverse IHS and HSV transforms.

The IHS variant is the linear triangular model: intensity is the band mean
and the chromatic state rides in two carrier planes (v1, v2) instead of
hue/saturation angles, so forward-then-inverse is exact linear algebra with
no trigonometric round-trip loss. Hue and saturation are derived views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import MultiBandImage, Raster

__all__ = [
    "IhsPlanes",
    "HsvPlanes",
    "ihs_forward",
    "ihs_inverse",
    "hsv_forward",
    "hsv_inverse",
]

_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)


@dataclass(frozen=True, eq=False)
class IhsPlanes:
    """Intensity plane plus the two chromatic carrier planes.

    Hue is atan2(v2, v1) and saturation is sqrt(v1^2 + v2^2); both are
    derived on demand so substituting the intensity plane leaves the
    chromatic state bit-identical.
    """

    i: Raster
    v1: Raster
    v2: Raster

    def __post_init__(self):
        dims = {(p.width, p.height) for p in (self.i, self.v1, self.v2)}
        if len(dims) != 1:
            raise ValueError(f"plane dimensions disagree: {sorted(dims)}")

    def hue(self) -> Raster:
        """Hue angle in radians, atan2(v2, v1); 0 where saturation is 0."""
        return Raster(np.arctan2(self.v2.samples, self.v1.samples))

    def saturation(self) -> Raster:
        return Raster(np.hypot(self.v1.samples, self.v2.samples))

    def with_intensity(self, i: Raster) -> "IhsPlanes":
        """New planes with a substituted intensity; v1 and v2 are shared."""
        return IhsPlanes(i=i, v1=self.v1, v2=self.v2)


@dataclass(frozen=True, eq=False)
class HsvPlanes:
    """Hexcone hue (degrees in [0, 360)), saturation in [0, 1], value in DN."""

    h: Raster
    s: Raster
    v: Raster

    def __post_init__(self):
        dims = {(p.width, p.height) for p in (self.h, self.s, self.v)}
        if len(dims) != 1:
            raise ValueError(f"plane dimensions disagree: {sorted(dims)}")


def _require_rgb(image: MultiBandImage, op: str) -> tuple:
    if image.band_count != 3:
        raise ValueError(f"{op} requires exactly 3 bands, got {image.band_count}")
    return tuple(b.samples for b in image.bands)


def ihs_forward(rgb: MultiBandImage) -> IhsPlanes:
    """RGB to (I, v1, v2): I = (R+G+B)/3, v1 = (-R-G+2B)/sqrt(6),
    v2 = (R-G)/sqrt(2)."""
    r, g, b = _require_rgb(rgb, "ihs_forward")
    i = (r + g + b) / 3.0
    v1 = (-r - g + 2.0 * b) / _SQRT6
    v2 = (r - g) / _SQRT2
    return IhsPlanes(i=Raster(i), v1=Raster(v1), v2=Raster(v2))


def ihs_inverse(planes: IhsPlanes) -> MultiBandImage:
    """(I, v1, v2) back to RGB. Output is not clamped; clamping is the
    fusion pipeline's final step."""
    i = planes.i.samples
    v1 = planes.v1.samples
    v2 = planes.v2.samples
    r = i - v1 / _SQRT6 + v2 / _SQRT2
    g = i - v1 / _SQRT6 - v2 / _SQRT2
    b = i + 2.0 * v1 / _SQRT6
    return MultiBandImage((Raster(r), Raster(g), Raster(b)))


def hsv_forward(rgb: MultiBandImage) -> HsvPlanes:
    """RGB in [0, 255] to hexcone HSV; hue fixed at 0 where saturation is 0."""
    r, g, b = _require_rgb(rgb, "hsv_forward")
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
    return HsvPlanes(h=Raster(h), s=Raster(s), v=Raster(v))


def hsv_inverse(planes: HsvPlanes) -> MultiBandImage:
    """Hexcone HSV back to RGB; exact inverse of hsv_forward on its range."""
    s = planes.s.samples
    v = planes.v.samples
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("out-of-range saturation (must be in [0, 1])")
    if np.any(v < 0.0) or np.any(v > 255.0):
        raise ValueError("out-of-range value (must be in [0, 255])")
    hp = np.mod(planes.h.samples, 360.0) / 60.0

    c = v * s
    x = c * (1.0 - np.abs(np.mod(hp, 2.0) - 1.0))
    m = v - c
    z = np.zeros_like(c)

    sector = np.floor(hp).astype(np.int64) % 6
    r1 = np.choose(sector, (c, x, z, z, x, c))
    g1 = np.choose(sector, (x, c, c, x, z, z))
    b1 = np.choose(sector, (z, z, x, c, c, x))
    return MultiBandImage((Raster(r1 + m), Raster(g1 + m), Raster(b1 + m)))
