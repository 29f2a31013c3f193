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
# Unused: perfbench/tracer.py wraps them by attribute until ROADMAP item 1a.
from .colorspace import hsv_forward, hsv_inverse  # noqa: F401
from .filtering import box_lpf, laplacian_hp, unsharp_mask
from .raster import (
    MultiBandImage,
    Raster,
    clamp_quantize,
    exact_sum,
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


def _moments(a: np.ndarray, divisor: int = 1) -> tuple[float, float]:
    """The population mean and variance of ``a / divisor``.

    An integer ``a`` (uint8 samples on the 8-bit grid, an int16 band sum)
    takes them from the exact int64 sum of ``a`` and the exact sum of
    ``a ** 2`` (:func:`raster.exact_sum`):
    mean = sum / (n d) and variance = (n sum(a**2) - sum**2) / (n d)**2,
    each a Python int true division, so correctly rounded. The mean of
    uint8 samples then has the bits of ``np.mean``; a variance, and the
    mean of a band sum over 3, may differ from the float path's in the
    last place. A float64 ``a`` (``divisor`` 1) keeps the float path and
    its bits, those of :func:`raster.moments`, but squares its one
    centred plane in place, as nothing else reads it.
    """
    if a.dtype.kind == "f":
        mean = float(np.mean(a))
        centred = a - mean
        return mean, float(np.mean(np.square(centred, out=centred)))
    total, squares, scale = int(a.sum(dtype=np.int64)), exact_sum(a, a), a.size * divisor
    return total / scale, (a.size * squares - total * total) / (scale * scale)


def _mean_std_map(src: np.ndarray, ref_mean: float, ref_var: float):
    """The map :func:`match_mean_std` applies to ``src``, given the
    reference's mean and variance, as a function of a row slice that
    returns those rows of its result, a float64 array only the caller
    holds: ``(src[rows] - mean) * scale + ref_mean``, op for op. A
    degenerate source has scale 0, which gives ``ref_mean`` exactly on
    finite samples.

    The source's moments are taken once, by :func:`_moments`, and each
    call centres its rows afresh into a fresh array, then scales and
    shifts it in place. So no whole centred plane outlives the moments,
    and on integers none is made.
    """
    mean, var = _moments(src)
    std = math.sqrt(var)
    scale = 0.0 if std < _DEGENERATE_STD else math.sqrt(ref_var) / std

    def apply(rows):
        out = src[rows] - mean
        out *= scale
        out += ref_mean
        return out

    return apply


def match_mean_std(src: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``src`` shifted and scaled so its mean and std equal ``ref``'s.

    out = mean(ref) + (src - mean(src)) * std(ref) / std(src), both
    population moments (:func:`_moments`). A source with std below 1e-9
    is degenerate and maps to the constant mean(ref). The result is a new
    array: ``src`` minus its mean, scaled and shifted in place, so the
    bits are those of the formula written out. Each centred plane that
    a float64 variance is taken on is squared in place and freed before
    the next is made. ``src`` and ``ref`` are unchanged.
    """
    return _mean_std_map(src, *_moments(ref))(slice(None))


def _product(ms: MultiBandImage, strip, quantize: bool, itemsize: int = 8) -> MultiBandImage:
    """The fused image of ``ms``'s grid whose rows ``rows`` (a slice) are
    ``strip(rows)``: an iterable of one fresh array per band of ``ms``,
    which only this call refers to: float64, or an integer array that
    holds the product exactly (EF's int16 sums, RVS's table gathers).

    Quantized, the image is built one row strip (``raster.row_strips``,
    sized for the chain's samples of ``itemsize`` bytes) at a time: each
    band's strip is rounded into that band's uint8 plane
    by ``raster.quantize_rows`` (a float64 strip checked, clamped in its
    own buffer and rounded; an integer one clamped) before the next band's
    strip is built, so no float64 plane is made and a non-finite sample
    returns no product. With ``quantize`` False,
    ``strip`` is called once on every row and each band is wrapped as a
    Raster unchanged.
    """
    if not quantize:
        return MultiBandImage(tuple(Raster(b) for b in strip(slice(None))))
    shape = (ms.height, ms.width)
    planes = [np.empty(shape, np.uint8) for _ in ms.bands]
    for rows in row_strips(shape, itemsize):
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
    i, v1, v2 = ihs_forward(ms).bands
    i_star = Raster(box_lpf(i).samples + unsharp_mask(pan).samples)
    # Each plane is dropped once it is dead: i_star and the forward
    # intensity before the inverse, which then holds only the matched
    # intensity, v1, v2 and its three outputs, and those inputs before
    # quantizing.
    matched = Raster(match_mean_std(i_star.samples, i.samples))
    del i_star, i
    fused = ihs_inverse(MultiBandImage((matched, v1, v2)))
    del matched, v1, v2
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
    if all(b.dtype == np.uint8 for b in bands):
        # I = S / 3 for the int16 band sum S = R+G+B, with S's exact moments.
        ref = _moments(np.add(np.add(bands[0], bands[1], dtype=np.int16), bands[2]), 3)
    else:
        ref = _moments(intensity(*bands))
    matched = _mean_std_map(pan.array, *ref)

    def strip(rows):
        delta = matched(rows)
        delta -= intensity(*(b[rows] for b in bands))
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
    matched = _mean_std_map(pan.array, *_moments(v))

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
    mean(band) - slope * mean(PAN). A constant PAN gives each band its
    mean, slope 0.

    On the 8-bit grid (PAN and every band uint8) the slope is
    (n sum(pm) - sum(p) sum(m)) / (n sum(p**2) - sum(p)**2) of exact sums
    (:func:`raster.exact_sum`), rounded once, and a zero denominator is
    a constant PAN. Off it, PAN's float moments are taken once for all
    bands and a zero range is a constant PAN. A quantized band of a uint8 PAN is a
    function of PAN's DN alone: a 256-entry uint8 table, quantized once
    and gathered one strip at a time.
    """
    require_same_grid(ms, pan, "fuse_rvs")
    p = pan.array
    bands = [b.array for b in ms.bands]
    lines = []
    if all(a.dtype == np.uint8 for a in (p, *bands)):
        p_sum, p_squares, n = int(p.sum(dtype=np.int64)), exact_sum(p, p), p.size
        denominator = n * p_squares - p_sum * p_sum
        for m in bands:
            m_sum, products = int(m.sum(dtype=np.int64)), exact_sum(m, p)
            slope = (n * products - p_sum * m_sum) / denominator if denominator else 0.0
            lines.append((m_sum / n - slope * (p_sum / n), slope))
    else:
        constant = np.ptp(p) == 0.0
        p_mean, dp, p_var = moments(p)
        for m in bands:
            m_mean = np.mean(m)
            slope = 0.0 if constant else float(np.mean(dp * (m - m_mean)) / p_var)
            lines.append((float(m_mean - slope * p_mean), slope))
    if quantize and p.dtype == np.uint8:
        levels = np.array([c + slope * np.arange(256.0) for c, slope in lines])
        tables = quantize_rows(levels, np.empty(levels.shape, np.uint8))
        return _product(ms, lambda rows: tables.take(p[rows], axis=1), quantize)
    return _product(ms, lambda rows: (c + slope * p[rows] for c, slope in lines), quantize)


def fuse_ef(ms: MultiBandImage, pan: Raster, *, quantize: bool = True) -> MultiBandImage:
    """Edge fusion: each band gets PAN's Laplacian high-pass plane. A uint8
    band plus an int16 Laplacian (the 8-bit grid) is summed in int16,
    which holds 255 + 2040, and quantized by a clamp alone; any other sum
    is taken in float64. Row strips are sized for the widest sum."""
    require_same_grid(ms, pan, "fuse_ef")
    edges = laplacian_hp(pan).array
    bands = [(b.array, None if b.array.dtype == np.uint8 else np.float64) for b in ms.bands]
    itemsize = max(np.result_type(b.dtype if d is None else d, edges).itemsize for b, d in bands)
    sums = lambda rows: (np.add(b[rows], edges[rows], dtype=d) for b, d in bands)
    return _product(ms, sums, quantize, itemsize)


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
