"""Core image representation, PNM I/O, resampling, population moments,
quantization.

Pixel data is carried as digital numbers (DN). A Raster holds one array,
``Raster.array``: uint8 or int16 as it was given, else float64. Its
``samples`` are that array as float64: the array itself when it is
float64, else a conversion made afresh on every read and never kept.
Values derived from a Raster's samples are cached on it only through
:func:`memoised`.
Quantization to the 8-bit grid happens only through one clamp-and-round
step with two entry points: :func:`quantize_rows`, which rounds a fused
strip in the caller's own buffer, and :func:`clamp_quantize`, which SF
and :func:`save_pnm` use. Products pass through it once, at the end of
fusion or at save time, so fusion arithmetic never loses fractional
intermediates; each rounds straight into a fresh uint8 array, one row
strip (:func:`row_strips`) at a time.

A Raster is on the 8-bit grid when ``dn8(r) is not None``, decided once
when it is built: every quantized result, every loaded band whose
rescaled DN are all integers (maxval 255 or a divisor of it, 16-bit DN *
257), and their resamples. Arithmetic reads ``Raster.array``, their
uint8 samples, wherever numpy promotes the result to float64, which is
exact; uint8 combined with uint8 or an integer scalar would wrap. The
3x3 stencils in ``filtering`` run on them in exact int16 arithmetic, and
a Laplacian keeps its int16 result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, TypeVar, Union

import numpy as np

__all__ = [
    "Raster",
    "MultiBandImage",
    "PnmError",
    "load_pnm",
    "save_pnm",
    "resample_nearest",
    "moments",
    "clamp_quantize",
]

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class Raster:
    """Single-band 2-D grid of real-valued DN, shape (height, width).

    ``array`` holds the samples: a uint8 or int16 array as given, any
    other real array converted to float64. A C-contiguous array of one of
    those three dtypes that owns its data is frozen in place; anything
    else, a view of another array included, is copied first. Other
    integer and bool arrays are converted once and not checked for
    non-finite samples, which they cannot hold; anything else is checked
    after its conversion (see :func:`_require_finite`). Input whose
    ``np.asarray`` is not bool, integer or real floating (complex,
    strings, bytes, datetimes, objects) is rejected, naming its dtype.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array)
        kind = a.dtype.kind
        if kind not in "biuf":
            raise ValueError(f"raster samples must be real, got {a.dtype}")
        if a.dtype not in (np.uint8, np.int16):
            a = a.astype(np.float64, copy=False)
        if a.ndim != 2:
            raise ValueError(f"raster samples must be 2-D, got {a.ndim}-D")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {a.shape}")
        if kind == "f":
            _require_finite(a)
        a = np.ascontiguousarray(a)
        if a.base is not None:
            a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def samples(self) -> np.ndarray:
        """The samples as a read-only float64 array: ``array`` itself when
        it is float64, else a fresh conversion that is not kept."""
        a = self.array
        if a.dtype == np.float64:
            return a
        samples = a.astype(np.float64)
        samples.flags.writeable = False
        return samples

    @property
    def width(self) -> int:
        return self.array.shape[1]

    @property
    def height(self) -> int:
        return self.array.shape[0]


def _require_finite(a: np.ndarray) -> None:
    """Raise unless every sample of the float64 array ``a`` is finite.

    A NaN or infinity in ``a`` makes its sum NaN or infinite, so a finite
    sum, one reduction with no temporary, proves every sample finite. Only
    a non-finite sum, which finite samples whose sum overflows also give,
    falls back to the exact per-sample scan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(a, axis=None)
    if not np.isfinite(total) and not np.isfinite(a).all():
        raise ValueError("raster samples must all be finite")


def memoised(r: Raster, key: Hashable, compute: Callable[[], T]) -> T:
    """``compute()``, memoised on ``r`` under ``key``.

    A Raster is frozen and its samples are read-only, so a value derived
    from them holds for the object's life. The memo lives in the instance
    dict, which needs no lock shared between instances; racing threads may
    both compute, and ``setdefault`` keeps the first result. A ``compute``
    that raises stores nothing, and ``compute`` must not return None.
    """
    value = r.__dict__.get(key)
    if value is None:
        value = r.__dict__.setdefault(key, compute())
    return value


def dn8(r: Raster):
    """``r.array`` when it is uint8, so ``r`` is on the 8-bit grid (see
    the module docstring), else None."""
    a = r.array
    return a if a.dtype == np.uint8 else None


@dataclass(frozen=True, eq=False)
class MultiBandImage:
    """Ordered co-registered bands; all bands share identical dimensions."""

    bands: tuple

    def __post_init__(self):
        bands = tuple(self.bands)
        if len(bands) < 1:
            raise ValueError("image must have at least 1 band")
        for k, b in enumerate(bands):
            if not isinstance(b, Raster):
                raise TypeError(f"band {k} is not a Raster")
        w, h = bands[0].width, bands[0].height
        for k, b in enumerate(bands):
            if b.width != w or b.height != h:
                raise ValueError(
                    f"band {k} is {b.width}x{b.height}, expected {w}x{h}"
                )
        object.__setattr__(self, "bands", bands)

    @property
    def width(self) -> int:
        return self.bands[0].width

    @property
    def height(self) -> int:
        return self.bands[0].height

    @property
    def band_count(self) -> int:
        return len(self.bands)


def require_same_grid(a, b, op: str) -> None:
    """Raise ValueError, naming ``op``, unless ``a`` and ``b`` (each a
    Raster or a MultiBandImage) have the same width and height."""
    if a.width != b.width or a.height != b.height:
        raise ValueError(
            f"{op}: dimensions differ, {a.width}x{a.height} does not match "
            f"{b.width}x{b.height} (resample first)"
        )


class PnmError(ValueError):
    """Malformed PNM input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# Separators and "#" comments (each to the end of its line), then one
# token: the bytes up to the next separator or "#"; empty only at end of file.
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*)*([^ \t\r\n\x0b\x0c#]*)")
_COMMENT = re.compile(rb"#[^\n]*")
_SEPARATORS = b" \t\r\n\x0b\x0c"
_DIGITS_AND_SEPARATORS = b"0123456789" + _SEPARATORS


def _plain_int(tok: bytes, at: int, part: str, what: str) -> int:
    """``tok``, which starts at file offset ``at``, as a plain decimal
    integer: ASCII digits only, so no sign, underscore or other form
    ``int`` accepts. Leading zeros are dropped first, so only a value with
    more significant digits than ``int`` converts is rejected as too long."""
    if not tok.isdigit():
        raise PnmError(f"malformed {part}: bad {what} {tok!r}", at)
    try:
        return int(tok.lstrip(b"0") or b"0")
    except ValueError:
        raise PnmError(
            f"malformed {part}: bad {what} ({len(tok)} digits, too long)", at
        ) from None


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """The next token after ``pos`` as a plain integer; returns the value
    and the token's start and end offsets."""
    m = _TOKEN.match(data, pos)
    tok = m[1]
    if not tok:
        raise PnmError("unexpected end of file", len(data))
    return _plain_int(tok, m.start(1), "header", what), m.start(1), m.end(1)


def _check_ascii_samples(text: bytes, samples: list, base: int, maxval: int) -> None:
    """Raise for the first of ``samples`` (the tokens of ``text``, which
    starts at file offset ``base``) that is not a plain integer or exceeds
    maxval. Only a malformed file gets here, so a loop per token is fine."""
    pos = 0
    for tok in samples:
        m = _TOKEN.match(text, pos)
        pos = m.end(1)
        value = _plain_int(tok, base + m.start(1), "payload", "sample")
        if value > maxval:
            raise PnmError(
                f"malformed payload: sample {value} exceeds maxval {maxval}",
                base + m.start(1),
            )


def load_pnm(path) -> Union[Raster, MultiBandImage]:
    """Load a PGM (P2/P5) or PPM (P3/P6) file.

    Samples are linearly rescaled to the [0, 255] DN range by
    ``value * 255 / maxval``; maxval up to 65535 is accepted. Header
    comments introduced by ``#`` are skipped. Returns a Raster for
    single-band files and a 3-band MultiBandImage for PPM.

    Raises:
        PnmError: malformed header, truncated payload, a sample above
            maxval or unsupported magic number, with the offending byte
            offset.
    """
    data = Path(path).read_bytes()
    m = _TOKEN.match(data)
    magic = m[1]
    if not magic:
        raise PnmError("empty file", 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmError(f"unsupported magic number {magic!r}", m.start(1))
    channels = 3 if magic in (b"P3", b"P6") else 1

    width, width_at, pos = _header_int(data, m.end(1), "width")
    height, _, pos = _header_int(data, pos, "height")
    maxval, maxval_at, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PnmError(f"malformed header: bad dimensions {width}x{height}", width_at)
    if not 1 <= maxval <= 65535:
        raise PnmError(f"malformed header: maxval {maxval} out of range", maxval_at)

    count = width * height * channels
    if magic in (b"P5", b"P6"):
        # Exactly one whitespace byte separates maxval from the payload.
        if pos >= len(data) or data[pos] not in _SEPARATORS:
            raise PnmError("malformed header: missing whitespace before payload", pos)
        pos += 1
        dtype = np.dtype("u1" if maxval <= 255 else ">u2")
        need = count * dtype.itemsize
        if len(data) - pos < need:
            raise PnmError(
                f"truncated payload: need {need} bytes, have {len(data) - pos}", len(data)
            )
        values = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        # A full-range maxval (255 or 65535) admits every stored value.
        if maxval not in (255, 65535) and values.max() > maxval:
            i = int(np.argmax(values > maxval))
            raise PnmError(
                f"malformed payload: sample {int(values[i])} exceeds maxval {maxval}",
                pos + i * dtype.itemsize,
            )
    else:
        # Comments become spaces of the same length, so offsets into
        # ``text`` stay file offsets minus ``pos``. Nothing is sized from
        # ``count``: the header may claim far more samples than are there.
        text = _COMMENT.sub(lambda c: b" " * len(c[0]), data[pos:])
        samples = text.split()
        del samples[count:]  # tokens after the last sample are ignored
        if text.translate(None, _DIGITS_AND_SEPARATORS):
            _check_ascii_samples(text, samples, pos, maxval)
        values = np.array(samples, dtype=np.float64)
        if values.max(initial=0) > maxval:
            _check_ascii_samples(text, samples, pos, maxval)
        if len(samples) < count:
            raise PnmError(
                f"truncated payload: expected {count} samples, got {len(samples)}",
                len(data),
            )
    values = values.reshape((height, width) if channels == 1 else (height, width, 3))
    if channels == 1:
        return _loaded_band(values, maxval)
    return MultiBandImage(tuple(_loaded_band(values[:, :, c], maxval) for c in range(3)))


def _loaded_band(values: np.ndarray, maxval: int) -> Raster:
    """One band of a PNM payload, rescaled to [0, 255] by ``value * 255 /
    maxval``: as uint8 (see :func:`dn8`) when every rescaled DN is an
    integer, else as float64. A maxval-255 band is cast with no arithmetic:
    a copy of the payload for a binary file, a cast for an ASCII one."""
    if maxval == 255:
        return Raster(values.astype(np.uint8, copy=False))
    scaled = values * 255.0 / maxval
    dn = scaled.astype(np.uint8)
    return Raster(dn if np.array_equal(dn, scaled) else scaled)


def save_pnm(image: Union[Raster, MultiBandImage], path) -> None:
    """Write binary P5 (single band) or P6 (exactly 3 bands) with maxval 255.

    Samples are clamp-quantized to the integer [0, 255] grid before
    encoding, so ``load_pnm(save_pnm(x)) == clamp_quantize(x)``; a band
    :func:`clamp_quantize` already returned is written as it is.
    """
    if isinstance(image, Raster):
        bands = (image,)
    elif isinstance(image, MultiBandImage):
        bands = image.bands
    else:
        raise TypeError(f"cannot save {type(image).__name__}")
    if len(bands) not in (1, 3):
        raise ValueError(f"unsupported band count {len(bands)} (must be 1 or 3)")

    # Stacked on a last axis, one band gives its own plane's bytes and
    # three give P6's interleaved RGB order.
    payload = np.stack([dn8(clamp_quantize(b)) for b in bands], axis=-1)
    w, h = bands[0].width, bands[0].height
    magic = b"P5" if len(bands) == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
        f.write(payload)


def _resample_raster(r: Raster, target_w: int, target_h: int) -> Raster:
    rows = (np.arange(target_h, dtype=np.int64) * r.height) // target_h
    cols = (np.arange(target_w, dtype=np.int64) * r.width) // target_w
    # One gather per axis: each ``take`` is a plain indexed copy, where
    # ``np.ix_`` goes through the general broadcast fancy-index path. The
    # result is a new C-contiguous array, so Raster keeps it uncopied,
    # and uint8 samples stay uint8.
    return Raster(r.array.take(cols, axis=1).take(rows, axis=0))


def resample_nearest(image, target_w: int, target_h: int):
    """Upscale by nearest neighbor to (target_w, target_h).

    Output pixel (i, j) copies source pixel (floor(i*h/target_h),
    floor(j*w/target_w)); no interpolation, so no new DN values appear.
    Accepts a Raster or a MultiBandImage and returns the same kind.
    """
    if target_w < 1 or target_h < 1:
        raise ValueError(f"zero target dimension: {target_w}x{target_h}")
    if target_w < image.width or target_h < image.height:
        raise ValueError(
            f"target {target_w}x{target_h} smaller than source "
            f"{image.width}x{image.height}"
        )
    if isinstance(image, Raster):
        return _resample_raster(image, target_w, target_h)
    return MultiBandImage(
        tuple(_resample_raster(b, target_w, target_h) for b in image.bands)
    )


def moments(a: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Population moments of ``a``: the mean of its samples, ``a`` minus
    that mean (a new array of ``a``'s shape), and the centred samples'
    mean square, the variance (divisor n)."""
    mean = float(np.mean(a))
    centred = a - mean
    return mean, centred, float(np.mean(centred ** 2))


# Float64 pixels per row strip (see :func:`row_strips`): 2**15 float64
# samples are 256 KiB, so a chain of up to eight live strips (the IHS
# inverse reads three, writes three and makes two temporaries) stays in a
# 2 MiB L2 cache.
_STRIP_PIXELS = 1 << 15


def row_strips(shape, itemsize: int = 8) -> list[slice]:
    """Row slices that cover a plane of ``shape`` (height, width) in
    order, each of at least one row and at most the bytes of
    ``_STRIP_PIXELS`` float64 samples in samples of ``itemsize`` bytes:
    ``_STRIP_PIXELS`` pixels of a float64 chain, four times as many of an
    int16 one.

    The size is a budget per chain, not per array: an elementwise chain
    runs strip by strip, and all the strips it holds at once (its
    operands, temporaries and outputs, up to eight) stay in cache
    together; an elementwise IEEE operation gives the same bits on a
    slice as on the whole plane. A chain of narrower samples fits the
    same bytes in fewer strips, and each strip costs interpreter time per
    operation, which a batch's pair threads contend for. A float64
    reduction stays whole-plane, as its pairwise summation order fixes
    its bits; an exact integer sum (:func:`exact_sum`) may run by strip.
    """
    height, width = shape
    step = max(1, _STRIP_PIXELS * 8 // itemsize // width)
    return [slice(y, min(y + step, height)) for y in range(0, height, step)]


def exact_sum(a: np.ndarray, b: np.ndarray) -> int:
    """The sum of ``a * b`` of two integer arrays of one shape, as an
    exact Python int. Each product is taken in uint16 for two uint8
    arrays, else in int32, and summed in int64, one row strip
    (:func:`row_strips`, sized for ``a``'s samples) at a time: an exact
    sum does not depend on its order, and no whole-plane product is
    made."""
    wide = np.uint16 if a.dtype == b.dtype == np.uint8 else np.int32
    strips = row_strips(a.shape, a.itemsize)
    return sum(int(np.multiply(a[r], b[r], dtype=wide).sum(dtype=np.int64)) for r in strips)


def _clamp_round(a: np.ndarray, q: np.ndarray, out=None) -> None:
    """``a`` clamped to [0, 255] (into ``out`` if given), then rounded
    half-up into the uint8 array ``q`` with the bits of ``floor(clip(a, 0,
    255) + 0.5)``: the cast truncates, which on [0.5, 255.5] is ``floor``."""
    np.add(np.clip(a, 0.0, 255.0, out=out), 0.5, out=q, casting="unsafe")


def quantize_rows(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Round ``a``, an array the caller owns and no longer needs, into the
    uint8 array ``q`` of its shape, and return ``q``. A float64 ``a`` is
    checked for non-finite samples (ValueError as :class:`Raster` raises),
    then clamped in its own buffer and rounded by the one clamp-and-round
    step. An integer ``a`` is only clamped, straight into ``q``: on
    integers that is the same step's result."""
    if a.dtype.kind != "f":
        return np.clip(a, 0, 255, out=q, casting="unsafe")
    _require_finite(a)
    _clamp_round(a, q, out=a)
    return q


def clamp_quantize(r: Raster) -> Raster:
    """Clamp to [0, 255] and round half-up to the integer DN grid, with
    the bits of :func:`quantize_rows`, into a fresh uint8 array one row
    strip at a time; ``r``'s samples, checked for non-finite values when
    ``r`` was built, are left as they are. A Raster on the grid (see
    :func:`dn8`) is returned unchanged."""
    if dn8(r) is not None:
        return r
    a = r.samples
    q = np.empty(a.shape, np.uint8)
    for rows in row_strips(a.shape):
        _clamp_round(a[rows], q[rows])
    return Raster(q)
