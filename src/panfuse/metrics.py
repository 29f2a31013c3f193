"""Spectral and spatial quality metrics for fused products.

Spectral metrics (DI, SNR, NRMSE) compare each fused band to the resampled
original MS band; spatial metrics (FCC, HPDI, CSA) compare it to the PAN
image. Pixels whose denominator is zero are excluded from the ratio-based
means and counted, rather than poisoning the average; a perfect SNR is
reported as the +infinity sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .filtering import laplacian_hp, window3x3
from .raster import MultiBandImage, Raster, memoised, moments

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

DEFAULT_CSA_PERCENTILE = 90.0


@dataclass(frozen=True)
class MetricRecord:
    """One report row: a metric value for (pair, method, band).

    ``band`` is a 1-based index or the string "avg"; ``excluded_pixels``
    counts denominator-zero pixels skipped by ratio metrics (and, on the
    SNR "avg" row, infinite bands left out of the average).
    """

    pair_id: str
    method: str
    band: Union[int, str]
    metric: str
    value: float
    excluded_pixels: int = 0


def _check_dims(a: Raster, b: Raster, op: str) -> None:
    if a.width != b.width or a.height != b.height:
        raise ValueError(
            f"{op}: dimensions differ ({a.width}x{a.height} vs {b.width}x{b.height})"
        )


def _mean_ratio(num: np.ndarray, den: np.ndarray, excluded: int) -> float:
    """Mean of num / den over the pixels where den is nonzero; ``num`` is
    a scratch array. With nothing excluded it divides in place over the
    whole array: the same elements in the same order as the compacted
    path, so ``np.mean`` gives the same bits without the mask copies."""
    if excluded:
        valid = den != 0.0
        return float(np.mean(num[valid] / den[valid]))
    num /= den
    return float(np.mean(num))


def deviation_index(f: Raster, m: Raster) -> tuple[float, int]:
    """Mean of |f - m| / m over pixels where m is nonzero.

    Returns (value, excluded) where excluded counts the skipped m == 0
    pixels. Raises if every pixel is excluded.
    """
    _check_dims(f, m, "deviation_index")
    excluded = int(m.samples.size - np.count_nonzero(m.samples))
    if excluded == m.samples.size:
        raise ValueError("undefined DI: reference band is zero everywhere")
    return _mean_ratio(np.abs(f.samples - m.samples), m.samples, excluded), excluded


def snr(f: Raster, m: Raster) -> float:
    """sqrt(sum f^2 / sum (f - m)^2); +inf when the error energy is zero."""
    _check_dims(f, m, "snr")
    noise = float(np.sum((f.samples - m.samples) ** 2))
    if noise == 0.0:
        return math.inf
    return math.sqrt(float(np.sum(f.samples ** 2)) / noise)


def nrmse(f: Raster, m: Raster) -> float:
    """Root mean square error normalized by the 255 DN range."""
    _check_dims(f, m, "nrmse")
    return math.sqrt(float(np.mean((f.samples - m.samples) ** 2)) / 255.0 ** 2)


def _centred(r: Raster) -> tuple[np.ndarray, float]:
    """The samples minus their mean, read-only, and their population std."""
    _, dy, variance = moments(r.samples)
    dy.flags.writeable = False
    return dy, math.sqrt(variance)


def _correlate(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    (dx, sx), (dy, sy) = x, y
    if sx == 0.0 or sy == 0.0:
        raise ValueError("undefined correlation: zero-variance input")
    return float(np.mean(dx * dy)) / (sx * sy)


def pearson(a: Raster, b: Raster) -> float:
    """Population Pearson correlation; errors on a zero-variance input."""
    _check_dims(a, b, "pearson")
    return _correlate(_centred(a), _centred(b))


def fcc(fused_band: Raster, pan: Raster) -> float:
    """Correlation of the Laplacian high-pass planes of band and PAN;
    values near one indicate high spatial quality.

    PAN's centred plane and std are memoised on ``laplacian_hp(pan)`` by
    ``raster.memoised``, so every band and method of a pair shares them;
    the band's side is not memoised and dies with the call.
    """
    _check_dims(fused_band, pan, "fcc")
    pan_hp = laplacian_hp(pan)
    pan_side = memoised(pan_hp, "_centred", lambda: _centred(pan_hp))
    return _correlate(_centred(laplacian_hp(fused_band)), pan_side)


def hpdi(fused_band: Raster, pan: Raster) -> tuple[float, int]:
    """High-pass deviation index.

    Mean of |HP(fused) - HP(pan)| / pan over pixels where the raw PAN
    value is nonzero (the raw value, not its high-pass plane, is the
    denominator). Returns (value, excluded).
    """
    _check_dims(fused_band, pan, "hpdi")
    excluded = int(pan.samples.size - np.count_nonzero(pan.samples))
    if excluded == pan.samples.size:
        raise ValueError("undefined HPDI: PAN is zero everywhere")
    diff = np.abs(laplacian_hp(fused_band).samples - laplacian_hp(pan).samples)
    return _mean_ratio(diff, pan.samples, excluded), excluded


def _local_michelson(band: Raster) -> np.ndarray:
    lo, hi = window3x3(band.samples, np.minimum, np.maximum)
    total = hi + lo
    contrast = np.zeros_like(total)
    np.divide(hi - lo, total, out=contrast, where=total != 0.0)
    return contrast


def _pan_classes(pan_hp: Raster, percentile: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the edge and homogeneous pixels of a PAN's
    Laplacian plane; raises, memoising nothing, if either class is empty."""
    magnitude = np.abs(pan_hp.samples)
    threshold = float(np.percentile(magnitude, percentile))
    edge_mask = magnitude >= threshold
    edge, homog = np.flatnonzero(edge_mask), np.flatnonzero(~edge_mask)
    if not edge.size or not homog.size:
        raise ValueError("class empty: PAN edge classification is degenerate")
    return edge, homog


def csa(
    band: Raster, pan: Raster, percentile: float = DEFAULT_CSA_PERCENTILE
) -> tuple[float, float]:
    """Contrast statistical analysis over edge and homogeneous regions.

    PAN pixels at or above the given percentile of Laplacian magnitude
    form the edge class, the rest the homogeneous class. The statistic
    for each class is the mean 3x3 local Michelson contrast
    (max - min) / (max + min) of ``band``, taken as 0 where max + min
    is zero.

    The classes are computed once per PAN and percentile: they are
    memoised on ``laplacian_hp(pan)`` by ``raster.memoised``, under that
    helper's thread rule (instance dict, ``setdefault``, no lock). Each
    class mean gathers the same pixels in the same order as a boolean
    mask would, so its bits do not depend on the memo.

    Returns:
        (edge_contrast, homogeneous_contrast)

    Raises:
        ValueError: if either class is empty (degenerate PAN).
    """
    _check_dims(band, pan, "csa")
    pan_hp = laplacian_hp(pan)
    edge, homog = memoised(
        pan_hp, ("_csa_classes", percentile), lambda: _pan_classes(pan_hp, percentile)
    )
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
    csa_percentile: float = DEFAULT_CSA_PERCENTILE,
) -> list[MetricRecord]:
    """Compute every metric for every band of a fused product.

    ``ms`` must already be resampled to PAN's size and have the same
    band count as ``fused``. Emits one record per band per metric in a
    fixed order (bands ascending, then the "avg" rows); the "avg" row
    averages band values, with excluded-pixel counts summed for DI and
    HPDI and infinite bands dropped from (and counted on) the SNR row.
    """
    if fused.band_count != ms.band_count:
        raise ValueError(
            f"band count mismatch: fused {fused.band_count} vs ms {ms.band_count}"
        )
    if fused.width != pan.width or fused.height != pan.height:
        raise ValueError(
            f"fused {fused.width}x{fused.height} does not match "
            f"PAN {pan.width}x{pan.height}"
        )
    if ms.width != pan.width or ms.height != pan.height:
        raise ValueError(
            f"ms {ms.width}x{ms.height} does not match PAN {pan.width}x{pan.height} "
            "(resample first)"
        )

    # One row per band of (value, excluded) pairs in METRIC_ORDER.
    table = []
    for fband, mband in zip(fused.bands, ms.bands):
        row = [
            deviation_index(fband, mband),
            (snr(fband, mband), 0),
            (nrmse(fband, mband), 0),
            (fcc(fband, pan), 0),
            hpdi(fband, pan),
        ]
        row += [(c, 0) for c in csa(fband, pan, csa_percentile)]
        table.append(row)

    records = [
        MetricRecord(pair_id, method, k, name, value, excl)
        for k, row in enumerate(table, start=1)
        for name, (value, excl) in zip(METRIC_ORDER, row)
    ]
    for name, column in zip(METRIC_ORDER, zip(*table)):
        values = [value for value, _ in column]
        if name == "SNR":
            avg, excl = band_average(values)
        else:
            avg, excl = sum(values) / len(values), sum(x for _, x in column)
        records.append(MetricRecord(pair_id, method, "avg", name, avg, excl))
    return records
