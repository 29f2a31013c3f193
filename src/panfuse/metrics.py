"""Spectral and spatial quality metrics for fused products.

Spectral metrics (DI, SNR, NRMSE) compare each fused band to the resampled
original MS band; spatial metrics (FCC, HPDI, CSA) compare it to the PAN
image. Pixels whose denominator is zero are excluded from the ratio-based
means and counted, rather than poisoning the average; a perfect SNR is
reported as the +infinity sentinel.

DI, SNR and NRMSE have one implementation, :func:`_spectral`, which the
public ``deviation_index``, ``snr`` and ``nrmse`` and ``evaluate_all``
all read: one difference ``f - m`` of the bands' arrays
(``Raster.array``) shared between the three.
On the 8-bit grid (:func:`_exact`) it is int16, the sums of squares are
exact integers, and the spatial metrics read int16 Laplacians: every
metric has the bits it has on float64 copies of the same bands.
Nothing here calls BLAS (``np.dot`` and kin):
OpenBLAS's spinning worker threads take the core a batch's other pair
thread needs. DI and HPDI share one ratio mean, :func:`_mean_ratio`,
which counts the denominator's zeros on every call (one
``np.count_nonzero``, about 22 us on a 512x512 uint8 band): zero counts
are not memoised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .filtering import laplacian_hp, window3x3
from .raster import MultiBandImage, Raster, dn8, exact_sum, memoised, moments, require_same_grid

__all__ = [
    "MetricRecord",
    "METRIC_ORDER",
    "deviation_index",
    "snr",
    "nrmse",
    "pearson",
    "fcc",
    "hpdi",
    "csa",
    "evaluate_all",
]

METRIC_ORDER = ("DI", "SNR", "NRMSE", "FCC", "HPDI", "CSA_edge", "CSA_homog")

# CSA's edge class: PAN pixels at or above this percentile of Laplacian
# magnitude. Fixed, so every CSA row means the same thing.
CSA_PERCENTILE = 90.0


@dataclass(frozen=True)
class MetricRecord:
    """One report row: a metric value for (pair, method, band).

    ``band`` is a 1-based index or the string "avg"; ``excluded_pixels``
    counts denominator-zero pixels skipped by ratio metrics, summed over
    the bands on an "avg" row, plus the infinite bands that row leaves out
    of its average (see :func:`band_average`).
    """

    pair_id: str
    method: str
    band: Union[int, str]
    metric: str
    value: float
    excluded_pixels: int = 0


def _mean_ratio(num: np.ndarray, den: Raster, what: str) -> tuple[float, int]:
    """(mean of num / den over the pixels where ``den`` is nonzero, the
    number of pixels excluded); ``num`` is a scratch array. Raises
    ``undefined <what> is zero everywhere`` when every pixel is excluded.

    With nothing excluded it divides over the whole array, in place when
    ``num`` is float64 and else into one fresh float64 array: the same
    elements in the same order as the compacted path, so ``np.mean``
    gives the same bits without the mask copies."""
    d = den.array
    excluded = int(d.size - np.count_nonzero(d))
    if excluded == d.size:
        raise ValueError(f"undefined {what} is zero everywhere")
    if excluded:
        valid = d != 0
        return float(np.mean(num[valid] / d[valid])), excluded
    return float(np.mean(np.divide(num, d, out=num if num.dtype == np.float64 else None))), 0


def _exact(f: Raster, m: Raster) -> bool:
    """Whether ``f - m`` is taken in int16, so that its sum of squares is
    an integer one: true when both carry uint8 samples."""
    return dn8(f) is not None and dn8(m) is not None


def _sum_squares(a: np.ndarray) -> float:
    """The sum of ``a ** 2``. An integer ``a``, uint8 samples or an int16
    difference or Laplacian, is summed exactly by
    :func:`raster.exact_sum`, strip by strip; below 2**53, which a band
    of under 1.38e11 pixels stays, that is the value ``np.sum`` gives in
    float64 in any order. A float64 ``a`` takes ``np.sum`` of its
    squares."""
    if a.dtype.kind in "iu":
        return float(exact_sum(a, a))
    return float(np.sum(np.square(a, dtype=np.float64)))


def deviation_index(f: Raster, m: Raster) -> tuple[float, int]:
    """Mean of |f - m| / m over pixels where m is nonzero.

    Returns (value, excluded) where excluded counts the skipped m == 0
    pixels. Raises if every pixel is excluded.
    """
    require_same_grid(f, m, "deviation_index")
    return _mean_ratio(_spectral(f, m)[0], m, "DI: reference band")


def snr(f: Raster, m: Raster) -> float:
    """sqrt(sum f^2 / sum (f - m)^2); +inf when the error energy is zero."""
    require_same_grid(f, m, "snr")
    return _spectral(f, m)[1]


def nrmse(f: Raster, m: Raster) -> float:
    """Root mean square error normalized by the 255 DN range."""
    require_same_grid(f, m, "nrmse")
    return _spectral(f, m)[2]


def _spectral(f: Raster, m: Raster) -> tuple[np.ndarray, float, float]:
    """(|f - m|, SNR, NRMSE) from one difference ``d = f - m`` of the
    bands' arrays, int16 when :func:`_exact`, else float64: its energy,
    shared by SNR and NRMSE, is taken first, then ``d`` becomes ``|d|``
    in place, DI's numerator for :func:`_mean_ratio`."""
    exact = _exact(f, m)
    d = np.subtract(f.array, m.array, dtype=np.int16 if exact else np.float64)
    noise = _sum_squares(d)
    signal = _sum_squares(f.array)
    ratio = math.inf if noise == 0.0 else math.sqrt(signal / noise)
    return np.abs(d, out=d), ratio, math.sqrt(noise / d.size / 255.0 ** 2)


def _centred(r: Raster, writeable: bool = True) -> tuple[np.ndarray, float]:
    """``r.array`` minus its mean, a fresh float64 array, and its
    population std. On integers the mean's sum is exact, so it has the
    bits of the float64 samples' mean."""
    _, dy, variance = moments(r.array)
    dy.flags.writeable = writeable
    return dy, math.sqrt(variance)


def _correlate(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    """Pearson correlation of two centred planes; ``x``'s is a scratch
    array that takes the product."""
    (dx, sx), (dy, sy) = x, y
    if sx == 0.0 or sy == 0.0:
        raise ValueError("undefined correlation: zero-variance input")
    return float(np.mean(np.multiply(dx, dy, out=dx))) / (sx * sy)


def pearson(a: Raster, b: Raster) -> float:
    """Population Pearson correlation; errors on a zero-variance input."""
    require_same_grid(a, b, "pearson")
    return _correlate(_centred(a), _centred(b))


def fcc(fused_band: Raster, pan: Raster) -> float:
    """Correlation of the Laplacian high-pass planes of band and PAN;
    values near one indicate high spatial quality.

    PAN's centred plane and std are memoised on ``laplacian_hp(pan)`` by
    ``raster.memoised``, so every band and method of a pair shares them;
    the band's side is not memoised and dies with the call.
    """
    require_same_grid(fused_band, pan, "fcc")
    pan_hp = laplacian_hp(pan)
    pan_side = memoised(pan_hp, "_centred", lambda: _centred(pan_hp, writeable=False))
    return _correlate(_centred(laplacian_hp(fused_band)), pan_side)


def hpdi(fused_band: Raster, pan: Raster) -> tuple[float, int]:
    """High-pass deviation index.

    Mean of |HP(fused) - HP(pan)| / pan over pixels where the raw PAN
    value is nonzero (the raw value, not its high-pass plane, is the
    denominator). Returns (value, excluded).
    """
    require_same_grid(fused_band, pan, "hpdi")
    # int16 (within +-4080) when both Laplacians are.
    diff = np.subtract(laplacian_hp(fused_band).array, laplacian_hp(pan).array)
    return _mean_ratio(np.abs(diff, out=diff), pan, "HPDI: PAN")


def _local_michelson(band: Raster) -> np.ndarray:
    """(max - min) / (max + min) over each 3x3 window; 0 where max + min is 0."""
    dn = dn8(band)
    if dn is not None:
        lo, hi = window3x3(dn, np.minimum, np.maximum)
        # lo >= 0, so max + min is 0 only where max - min is: 0 / 1 there.
        total = np.add(hi, lo, dtype=np.uint16)
        return np.divide(hi - lo, np.maximum(total, 1, out=total))
    lo, hi = window3x3(band.samples, np.minimum, np.maximum)
    total = hi + lo
    contrast = np.zeros(total.shape)
    np.divide(hi - lo, total, out=contrast, where=total != 0.0)
    return contrast


def _pan_classes(pan_hp: Raster) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the edge and homogeneous pixels of a PAN's
    Laplacian plane; raises, memoising nothing, if either class is empty."""
    magnitude = np.abs(pan_hp.array)
    threshold = float(np.percentile(magnitude, CSA_PERCENTILE))
    edge_mask = magnitude >= threshold
    edge, homog = np.flatnonzero(edge_mask), np.flatnonzero(~edge_mask)
    if not edge.size or not homog.size:
        raise ValueError("class empty: PAN edge classification is degenerate")
    return edge, homog


def csa(band: Raster, pan: Raster) -> tuple[float, float]:
    """Contrast statistical analysis over edge and homogeneous regions.

    PAN pixels at or above the :data:`CSA_PERCENTILE` (90th) percentile
    of Laplacian magnitude form the edge class, the rest the homogeneous
    class. The statistic for each class is the mean 3x3 local Michelson
    contrast (max - min) / (max + min) of ``band``, taken as 0 where
    max + min is zero.

    The classes are computed once per PAN: they are memoised on
    ``laplacian_hp(pan)`` by ``raster.memoised``, under that helper's
    thread rule (instance dict, ``setdefault``, no lock). Each
    class mean gathers the same pixels in the same order as a boolean
    mask would, so its bits do not depend on the memo.

    Returns:
        (edge_contrast, homogeneous_contrast)

    Raises:
        ValueError: if either class is empty (degenerate PAN).
    """
    require_same_grid(band, pan, "csa")
    pan_hp = laplacian_hp(pan)
    edge, homog = memoised(pan_hp, "_csa_classes", lambda: _pan_classes(pan_hp))
    contrast = _local_michelson(band).ravel()
    return float(np.mean(contrast.take(edge))), float(np.mean(contrast.take(homog)))


def band_average(values: list[float]) -> tuple[float, int]:
    """Mean over bands; infinities are left out (and counted) so one
    perfect band does not swamp the average, and +inf when none is finite.
    Returns (mean, skipped)."""
    finite = [v for v in values if math.isfinite(v)]
    skipped = len(values) - len(finite)
    if not finite:
        return math.inf, skipped
    return sum(finite) / len(finite), skipped


def evaluate_all(
    ms: MultiBandImage,
    pan: Raster,
    fused: MultiBandImage,
    pair_id: str,
    method: str,
) -> list[MetricRecord]:
    """Compute every metric for every band of a fused product.

    ``ms`` must already be resampled to PAN's size and have the same
    band count as ``fused``. Emits one record per band per metric in a
    fixed order (bands ascending, then the "avg" rows); each "avg" row is
    the :func:`band_average` of its metric's band values, and counts the
    bands' excluded pixels and the infinite bands it leaves out.
    """
    if fused.band_count != ms.band_count:
        raise ValueError(
            f"band count mismatch: fused {fused.band_count} vs ms {ms.band_count}"
        )
    require_same_grid(fused, pan, "evaluate_all: fused vs PAN")
    require_same_grid(ms, pan, "evaluate_all: MS vs PAN")

    # One row per band of (value, excluded) pairs in METRIC_ORDER.
    table = []
    for fband, mband in zip(fused.bands, ms.bands):
        diff, ratio, error = _spectral(fband, mband)
        row = [_mean_ratio(diff, mband, "DI: reference band"), (ratio, 0), (error, 0)]
        row += [(fcc(fband, pan), 0), hpdi(fband, pan)]
        row += [(c, 0) for c in csa(fband, pan)]
        table.append(row)

    records = [
        MetricRecord(pair_id, method, k, name, value, excl)
        for k, row in enumerate(table, start=1)
        for name, (value, excl) in zip(METRIC_ORDER, row)
    ]
    for name, column in zip(METRIC_ORDER, zip(*table)):
        avg, skipped = band_average([value for value, _ in column])
        excluded = skipped + sum(x for _, x in column)
        records.append(MetricRecord(pair_id, method, "avg", name, avg, excluded))
    return records
