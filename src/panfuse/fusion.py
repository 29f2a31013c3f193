"""The segmentation-fusion pan-sharpening method and the six comparison
methods, all mapping a 3-band MS image plus a PAN raster of equal size to a
fused 3-band image.

Every method ends with clamp-and-quantize so saved products are valid 8-bit
images; pass ``quantize=False`` to inspect the real-valued product (the
chromatic-preservation and pipeline-equivalence tests rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colorspace import hsv_forward, hsv_inverse, ihs_forward, ihs_inverse
from .filtering import box_lpf, laplacian_hp, unsharp_mask
from .raster import (
    BandStats,
    MultiBandImage,
    Raster,
    band_stats,
    clamp_quantize,
    resample_nearest,
)

__all__ = [
    "RegressionFit",
    "match_mean_std",
    "fit_band_regression",
    "fuse_sf",
    "fuse_ihs",
    "fuse_hsv",
    "fuse_hfa",
    "fuse_hfm",
    "fuse_rvs",
    "fuse_ef",
    "FUSION_METHODS",
    "METHOD_NAMES",
    "normalize_method",
    "fuse",
]

_DEGENERATE_STD = 1e-9
_HFM_DENOM_FLOOR = 1e-9


@dataclass(frozen=True)
class RegressionFit:
    """Per-band ordinary least squares fit of MS against PAN."""

    slope: float
    intercept: float


def match_mean_std(src: Raster, ref_stats: BandStats) -> Raster:
    """Shift and scale ``src`` so its mean and std equal ``ref_stats``.

    out = ref.mean + (src - mean(src)) * ref.std / std(src). A source with
    std below 1e-9 is degenerate and maps to the constant ref.mean.
    """
    stats = band_stats(src)
    if stats.std < _DEGENERATE_STD:
        return Raster.constant(src.width, src.height, ref_stats.mean)
    scale = ref_stats.std / stats.std
    return Raster(ref_stats.mean + (src.samples - stats.mean) * scale)


def _check_pair(ms: MultiBandImage, pan: Raster, op: str):
    """MS and PAN must share a grid; the three-band methods leave the band
    count to their colour transform."""
    if ms.width != pan.width or ms.height != pan.height:
        raise ValueError(
            f"{op}: MS {ms.width}x{ms.height} does not match "
            f"PAN {pan.width}x{pan.height}"
        )


def _finalize(image: MultiBandImage, quantize: bool) -> MultiBandImage:
    if not quantize:
        return image
    return MultiBandImage(tuple(clamp_quantize(b) for b in image.bands))


def fuse_sf(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Segmentation fusion.

    The MS intensity is low-pass filtered, the unsharp-mask high
    frequencies of PAN are added on top, and the sum is matched back to
    the original intensity's mean and std before the inverse IHS
    transform. The chromatic carriers pass through untouched, so hue and
    saturation are preserved wherever the image is not homogeneous.
    """
    _check_pair(ms, pan, "fuse_sf")
    planes = ihs_forward(ms)
    i_lpf = box_lpf(planes.i)
    p_usm = unsharp_mask(pan)
    i_star = Raster(i_lpf.samples + p_usm.samples)
    i_new = match_mean_std(i_star, band_stats(planes.i))
    return _finalize(ihs_inverse(planes.with_intensity(i_new)), quantize)


def fuse_ihs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Component substitution: intensity replaced by mean/std-matched PAN."""
    _check_pair(ms, pan, "fuse_ihs")
    planes = ihs_forward(ms)
    matched = match_mean_std(pan, band_stats(planes.i))
    return _finalize(ihs_inverse(planes.with_intensity(matched)), quantize)


def fuse_hsv(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Hexcone substitution: V replaced by mean/std-matched PAN.

    The matched PAN is clipped into [0, 255] before the inverse
    transform, which only accepts in-range value planes.
    """
    _check_pair(ms, pan, "fuse_hsv")
    planes = hsv_forward(ms)
    matched = match_mean_std(pan, band_stats(planes.v))
    matched = Raster(np.clip(matched.samples, 0.0, 255.0))
    return _finalize(hsv_inverse(planes.with_value(matched)), quantize)


def fuse_hfa(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """High-frequency addition: each band gets PAN's unsharp-mask plane."""
    _check_pair(ms, pan, "fuse_hfa")
    detail = unsharp_mask(pan).samples
    fused = tuple(Raster(b.samples + detail) for b in ms.bands)
    return _finalize(MultiBandImage(fused), quantize)


def fuse_hfm(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """High-frequency modulation: each band scaled by pan / box_lpf(pan).

    Pixels where the low-pass denominator falls below 1e-9 pass the MS
    band through unchanged.
    """
    _check_pair(ms, pan, "fuse_hfm")
    lpf = box_lpf(pan).samples
    degenerate = lpf < _HFM_DENOM_FLOOR
    safe = np.where(degenerate, 1.0, lpf)
    ratio = np.where(degenerate, 1.0, pan.samples / safe)
    fused = tuple(Raster(b.samples * ratio) for b in ms.bands)
    return _finalize(MultiBandImage(fused), quantize)


def fit_band_regression(pan: Raster, band: Raster) -> RegressionFit:
    """OLS fit of the MS band (response) against PAN (predictor).

    A constant PAN has zero variance; the fit degenerates to slope 0 with
    the band mean as intercept.
    """
    p = pan.samples.ravel()
    m = band.samples.ravel()
    if np.ptp(p) == 0.0:
        return RegressionFit(slope=0.0, intercept=float(np.mean(m)))
    p_mean = np.mean(p)
    m_mean = np.mean(m)
    slope = float(np.mean((p - p_mean) * (m - m_mean)) / np.mean((p - p_mean) ** 2))
    return RegressionFit(slope=slope, intercept=float(m_mean - slope * p_mean))


def fuse_rvs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Regression variable substitution: each band becomes its OLS
    prediction from PAN."""
    _check_pair(ms, pan, "fuse_rvs")
    fused = []
    for b in ms.bands:
        fit = fit_band_regression(pan, b)
        fused.append(Raster(fit.intercept + fit.slope * pan.samples))
    return _finalize(MultiBandImage(tuple(fused)), quantize)


def fuse_ef(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Edge fusion: each band gets PAN's Laplacian high-pass plane."""
    _check_pair(ms, pan, "fuse_ef")
    edges = laplacian_hp(pan).samples
    fused = tuple(Raster(b.samples + edges) for b in ms.bands)
    return _finalize(MultiBandImage(fused), quantize)


FUSION_METHODS = {
    "SF": fuse_sf,
    "IHS": fuse_ihs,
    "HSV": fuse_hsv,
    "HFA": fuse_hfa,
    "HFM": fuse_hfm,
    "RVS": fuse_rvs,
    "EF": fuse_ef,
}

METHOD_NAMES = tuple(FUSION_METHODS)


def normalize_method(method: str) -> str:
    name = method.strip().upper()
    if name not in FUSION_METHODS:
        raise ValueError(
            f"unknown method {method!r}; valid methods: {', '.join(METHOD_NAMES)}"
        )
    return name


def fuse(method: str, ms: MultiBandImage, pan: Raster) -> MultiBandImage:
    """Dispatch to a fusion method by name (case-insensitive).

    MS images smaller than PAN are first upscaled with nearest-neighbor
    resampling; the result always has PAN's dimensions.
    """
    name = normalize_method(method)
    if ms.width != pan.width or ms.height != pan.height:
        ms = resample_nearest(ms, pan.width, pan.height)
    return FUSION_METHODS[name](ms, pan)
