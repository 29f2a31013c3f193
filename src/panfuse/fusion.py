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

from .colorspace import _require_rgb, ihs_forward, ihs_inverse, intensity
# Unused: perfbench/tracer.py wraps them by attribute until ROADMAP item 1.
from .colorspace import hsv_forward, hsv_inverse  # noqa: F401
from .filtering import box_lpf, laplacian_hp, unsharp_mask
from .raster import (
    MultiBandImage,
    Raster,
    clamp_quantize,
    moments,
    quantize_rows,
    require_same_grid,
    resample_nearest,
    row_strips,
)

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


def _mean_std_map(src: np.ndarray, ref: np.ndarray):
    """The map :func:`match_mean_std` applies, as a function of a row
    slice, or None for every row, that returns those rows of its result.

    The moments are taken once, on the whole planes. Only the reference's
    mean and variance are kept, so its centred plane is freed before the
    source's is made. The map works in place in the source's centred
    plane, which only it holds: it returns views of that plane, and each
    row must be taken at most once.
    """
    ref_mean, ref_centred, ref_var = moments(ref)
    del ref_centred
    _, centred, src_var = moments(src)
    src_std = math.sqrt(src_var)
    if src_std < _DEGENERATE_STD:
        centred.fill(ref_mean)
        return lambda rows: centred if rows is None else centred[rows]
    scale = math.sqrt(ref_var) / src_std

    def apply(rows):
        out = centred if rows is None else centred[rows]
        out *= scale
        out += ref_mean
        return out

    return apply


def match_mean_std(src: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``src`` shifted and scaled so its mean and std equal ``ref``'s.

    out = mean(ref) + (src - mean(src)) * std(ref) / std(src), both
    population moments. A source with std below 1e-9 is degenerate and
    maps to the constant mean(ref). The result is a new array: the
    centred copy of ``src`` that the variance is taken on, scaled and
    shifted in place. Besides it, the call allocates only the square each
    variance takes and the reference's centred plane, freed before the
    source's copy is made. ``src`` and ``ref`` are unchanged.
    """
    return _mean_std_map(src, ref)(None)


def _product(ms: MultiBandImage, strip, quantize: bool) -> MultiBandImage:
    """The fused image of ``ms``'s grid whose rows ``rows`` (a slice) are
    ``strip(rows)``: an iterable of one fresh float64 array per band of
    ``ms``, which only this call refers to.

    Quantized, the image is built one row strip (``raster.row_strips``)
    at a time: each band's strip is checked, clamped in its own buffer and
    rounded into that band's uint8 plane by ``raster.quantize_rows``
    before the next band's strip is built, so no float64 plane is made and
    a non-finite sample returns no product. With ``quantize`` False,
    ``strip`` is called once on every row and each band is wrapped as a
    Raster unchanged.
    """
    if not quantize:
        return MultiBandImage(tuple(Raster(b) for b in strip(slice(None))))
    shape = (ms.height, ms.width)
    planes = [np.empty(shape, np.uint8) for _ in ms.bands]
    for rows in row_strips(shape):
        for a, q in zip(strip(rows), planes):
            quantize_rows(a, q[rows])
    return MultiBandImage(tuple(Raster(q) for q in planes))


def fuse_sf(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Segmentation fusion.

    The MS intensity is low-pass filtered, the unsharp-mask high
    frequencies of PAN are added on top, and the sum is matched back to
    the original intensity's mean and std before the inverse IHS
    transform. The chromatic carriers pass through untouched, so hue and
    saturation are preserved wherever the image is not homogeneous.
    """
    require_same_grid(ms, pan, "fuse_sf")
    planes = ihs_forward(ms)
    i_star = Raster(box_lpf(planes.i).samples + unsharp_mask(pan).samples)
    # Each plane is dropped once it is dead: i_star and the forward
    # intensity before the inverse, which then holds only the matched
    # intensity, v1, v2 and its three outputs, and those inputs before
    # quantizing.
    planes = planes.with_intensity(Raster(match_mean_std(i_star.samples, planes.i.samples)))
    del i_star
    fused = ihs_inverse(planes)
    del planes
    if not quantize:
        return fused
    return MultiBandImage(tuple(clamp_quantize(b) for b in fused.bands))


def fuse_ihs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Component substitution: intensity replaced by mean/std-matched PAN.

    In closed form (Tu et al., Information Fusion 2(3), 2001): substituting
    I = (R+G+B)/3 and inverting adds I_new - I to every band.
    """
    require_same_grid(ms, pan, "fuse_ihs")
    bands = _require_rgb(ms, "fuse_ihs")
    i = intensity(*bands)
    matched = _mean_std_map(pan.array, i)

    def strip(rows):
        delta = matched(rows)
        delta -= i[rows]
        return (b[rows] + delta for b in bands)

    return _product(ms, strip, quantize)


def fuse_hsv(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Hexcone substitution: V replaced by mean/std-matched PAN, clipped
    into the inverse transform's range [0, 255].

    In closed form (Tu et al. 2001): hue and saturation are band ratios,
    so substituting V = max(R, G, B) and inverting scales every band by
    V_new / V, and gives V_new in every band where V = 0. A negative MS
    sample, outside the hexcone domain, raises ValueError.
    """
    require_same_grid(ms, pan, "fuse_hsv")
    bands = _require_rgb(ms, "fuse_hsv")
    if min(float(b.min()) for b in bands) < 0.0:
        raise ValueError("fuse_hsv requires non-negative MS samples (hexcone domain)")
    v = np.maximum(np.maximum(bands[0], bands[1]), bands[2])
    matched = _mean_std_map(pan.array, v)

    def strip(rows):
        v_new = np.clip(matched(rows), 0.0, 255.0)
        black = v[rows] == 0
        any_black = black.any()
        ratio = v_new / v[rows]
        for b in bands:
            out = b[rows] * ratio
            if any_black:
                np.copyto(out, v_new, where=black)
            yield out

    with np.errstate(divide="ignore", invalid="ignore"):
        return _product(ms, strip, quantize)


def fuse_hfa(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """High-frequency addition: each band gets PAN's unsharp-mask plane."""
    require_same_grid(ms, pan, "fuse_hfa")
    detail = unsharp_mask(pan).samples
    bands = [b.array for b in ms.bands]
    return _product(ms, lambda rows: (b[rows] + detail[rows] for b in bands), quantize)


def fuse_hfm(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """High-frequency modulation: each band scaled by pan / box_lpf(pan).

    Pixels where the low-pass denominator falls below 1e-9 pass the MS
    band through unchanged.
    """
    require_same_grid(ms, pan, "fuse_hfm")
    lpf = box_lpf(pan).samples
    p = pan.array
    bands = [b.array for b in ms.bands]

    def strip(rows):
        low = lpf[rows]
        ratio = np.divide(p[rows], low, out=np.ones(low.shape), where=low >= _HFM_DENOM_FLOOR)
        return (b[rows] * ratio for b in bands)

    return _product(ms, strip, quantize)


def fuse_rvs(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Regression variable substitution: each band becomes its OLS
    prediction from PAN, slope cov(band, PAN) / var(PAN) and intercept
    mean(band) - slope * mean(PAN). PAN's moments are taken once for all
    bands. A constant PAN (zero range) gives each band its mean, slope 0.
    """
    require_same_grid(ms, pan, "fuse_rvs")
    p = pan.array
    constant = np.ptp(p) == 0.0
    p_mean, dp, p_var = moments(p)
    lines = []
    for b in ms.bands:
        m = b.array
        m_mean = np.mean(m)
        slope = 0.0 if constant else float(np.mean(dp * (m - m_mean)) / p_var)
        lines.append((float(m_mean - slope * p_mean), slope))
    return _product(ms, lambda rows: (c + slope * p[rows] for c, slope in lines), quantize)


def fuse_ef(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Edge fusion: each band gets PAN's Laplacian high-pass plane."""
    require_same_grid(ms, pan, "fuse_ef")
    edges = laplacian_hp(pan).array
    bands = [b.array for b in ms.bands]
    return _product(
        ms, lambda rows: (np.add(b[rows], edges[rows], dtype=np.float64) for b in bands), quantize
    )


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
