"""The segmentation-fusion pan-sharpening method and the six comparison
methods, each mapping an MS image plus a PAN raster of equal size to a
fused image of the same band count. SF, IHS and HSV need exactly three
bands; HFA, HFM, RVS and EF accept any number.

Every method ends with clamp-and-quantize so saved products are valid 8-bit
images; pass ``quantize=False`` to inspect the real-valued product (the
chromatic-preservation and pipeline-equivalence tests rely on this).
"""

from __future__ import annotations

import math

import numpy as np

from .colorspace import _require_rgb, ihs_forward, ihs_inverse
# Unused: perfbench/tracer.py wraps them by attribute until ROADMAP item 4.
from .colorspace import hsv_forward, hsv_inverse  # noqa: F401
from .filtering import box_lpf, laplacian_hp, unsharp_mask
from .raster import MultiBandImage, Raster, clamp_quantize, moments, resample_nearest

__all__ = [
    "match_mean_std",
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


def match_mean_std(src: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``src`` shifted and scaled so its mean and std equal ``ref``'s.

    out = mean(ref) + (src - mean(src)) * std(ref) / std(src), both
    population moments. A source with std below 1e-9 is degenerate and
    maps to the constant mean(ref).
    """
    ref_mean, _, ref_var = moments(ref)
    _, centred, src_var = moments(src)
    src_std = math.sqrt(src_var)
    if src_std < _DEGENERATE_STD:
        return np.full(src.shape, ref_mean)
    return ref_mean + centred * (math.sqrt(ref_var) / src_std)


def _check_pair(ms: MultiBandImage, pan: Raster, op: str):
    """MS and PAN must share a grid; the three-band methods check the band
    count with ``colorspace``'s rule."""
    if ms.width != pan.width or ms.height != pan.height:
        raise ValueError(
            f"{op}: MS {ms.width}x{ms.height} does not match "
            f"PAN {pan.width}x{pan.height}"
        )


def _product(bands, quantize: bool) -> MultiBandImage:
    """The fused image of ``bands``, a list or tuple of Rasters, each
    clamp-quantized unless ``quantize`` is False.

    Every band is built before any is quantized. Quantizing each as it is
    built lowers peak memory, but glibc then trims and re-faults more of
    its heap: 47k instead of 29k minor page faults for the seven
    fuse-and-evaluate calls of one 512x512 pair (2-vCPU Linux, numpy 2.4).
    """
    if quantize:
        bands = [clamp_quantize(b) for b in bands]
    return MultiBandImage(tuple(bands))


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
    i_star = Raster(box_lpf(planes.i).samples + unsharp_mask(pan).samples)
    i_new = Raster(match_mean_std(i_star.samples, planes.i.samples))
    return _product(ihs_inverse(planes.with_intensity(i_new)).bands, quantize)


def fuse_ihs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Component substitution: intensity replaced by mean/std-matched PAN.

    In closed form (Tu et al., Information Fusion 2(3), 2001): substituting
    I = (R+G+B)/3 and inverting adds I_new - I to every band.
    """
    _check_pair(ms, pan, "fuse_ihs")
    bands = _require_rgb(ms, "fuse_ihs")
    i = (bands[0] + bands[1] + bands[2]) / 3.0
    delta = match_mean_std(pan.samples, i) - i
    return _product([Raster(b + delta) for b in bands], quantize)


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
    v_new = np.clip(match_mean_std(pan.samples, v), 0.0, 255.0)
    black = v == 0.0
    fused = []
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = v_new / v
        for b in bands:
            out = b * ratio
            np.copyto(out, v_new, where=black)
            fused.append(Raster(out))
    return _product(fused, quantize)


def fuse_hfa(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """High-frequency addition: each band gets PAN's unsharp-mask plane."""
    _check_pair(ms, pan, "fuse_hfa")
    detail = unsharp_mask(pan).samples
    return _product([Raster(b.samples + detail) for b in ms.bands], quantize)


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
    return _product([Raster(b.samples * ratio) for b in ms.bands], quantize)


def fuse_rvs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Regression variable substitution: each band becomes its OLS
    prediction from PAN, slope cov(band, PAN) / var(PAN) and intercept
    mean(band) - slope * mean(PAN). PAN's moments are taken once for all
    bands. A constant PAN (zero range) gives each band its mean, slope 0.
    """
    _check_pair(ms, pan, "fuse_rvs")
    p = pan.samples
    constant = np.ptp(p) == 0.0
    p_mean, dp, p_var = moments(p)
    fused = []
    for b in ms.bands:
        m = b.samples
        m_mean = np.mean(m)
        slope = 0.0 if constant else float(np.mean(dp * (m - m_mean)) / p_var)
        fused.append(Raster(float(m_mean - slope * p_mean) + slope * p))
    return _product(fused, quantize)


def fuse_ef(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Edge fusion: each band gets PAN's Laplacian high-pass plane."""
    _check_pair(ms, pan, "fuse_ef")
    edges = laplacian_hp(pan).samples
    return _product([Raster(b.samples + edges) for b in ms.bands], quantize)


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
