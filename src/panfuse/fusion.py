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

from .colorspace import _require_rgb, ihs_forward, ihs_inverse
# Unused: perfbench/tracer.py wraps them by attribute until ROADMAP item 4.
from .colorspace import hsv_forward, hsv_inverse  # noqa: F401
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
    """MS and PAN must share a grid; the three-band methods check the band
    count with ``colorspace``'s rule."""
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
    """Component substitution: intensity replaced by mean/std-matched PAN.

    In closed form (Tu et al., Information Fusion 2(3), 2001): substituting
    I = (R+G+B)/3 and inverting adds I_new - I to every band.
    """
    _check_pair(ms, pan, "fuse_ihs")
    bands = _require_rgb(ms, "fuse_ihs")
    i = (bands[0] + bands[1] + bands[2]) / 3.0
    delta = match_mean_std(pan, band_stats(Raster(i))).samples - i
    return _finalize(MultiBandImage(tuple(Raster(b + delta) for b in bands)), quantize)


def fuse_hsv(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Hexcone substitution: V replaced by mean/std-matched PAN, clipped
    into the inverse transform's range [0, 255].

    In closed form (Tu et al. 2001): hue and saturation are band ratios,
    so substituting V = max(R, G, B) and inverting scales every band by
    V_new / V, and gives V_new in every band where V = 0. A negative MS
    sample, outside the hexcone domain, raises ValueError.
    """
    _check_pair(ms, pan, "fuse_hsv")
    bands = _require_rgb(ms, "fuse_hsv")
    if min(float(b.min()) for b in bands) < 0.0:
        raise ValueError("fuse_hsv requires non-negative MS samples (hexcone domain)")
    v = np.maximum(np.maximum(bands[0], bands[1]), bands[2])
    v_new = np.clip(match_mean_std(pan, band_stats(Raster(v))).samples, 0.0, 255.0)
    black = v == 0.0
    fused = []
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = v_new / v
        for b in bands:
            out = b * ratio
            np.copyto(out, v_new, where=black)
            fused.append(Raster(out))
    return _finalize(MultiBandImage(tuple(fused)), quantize)


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


def _pan_moments(pan: Raster):
    """PAN's side of the OLS fit: None for a constant PAN, else its mean,
    its centred plane and that plane's mean square."""
    p = pan.samples.ravel()
    if np.ptp(p) == 0.0:
        return None
    p_mean = np.mean(p)
    dp = p - p_mean
    return p_mean, dp, np.mean(dp ** 2)


def _fit(moments, band: Raster) -> RegressionFit:
    m = band.samples.ravel()
    if moments is None:
        return RegressionFit(slope=0.0, intercept=float(np.mean(m)))
    p_mean, dp, p_var = moments
    m_mean = np.mean(m)
    slope = float(np.mean(dp * (m - m_mean)) / p_var)
    return RegressionFit(slope=slope, intercept=float(m_mean - slope * p_mean))


def fit_band_regression(pan: Raster, band: Raster) -> RegressionFit:
    """OLS fit of the MS band (response) against PAN (predictor).

    A constant PAN has zero variance; the fit degenerates to slope 0 with
    the band mean as intercept.
    """
    return _fit(_pan_moments(pan), band)


def fuse_rvs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Regression variable substitution: each band becomes its OLS
    prediction from PAN. PAN's moments are taken once for all bands."""
    _check_pair(ms, pan, "fuse_rvs")
    moments = _pan_moments(pan)
    fused = []
    for b in ms.bands:
        fit = _fit(moments, b)
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
