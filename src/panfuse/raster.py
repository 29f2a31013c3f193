"""Core image representation, PNM I/O, resampling, population moments,
quantization.

All pixel data is carried as float64 digital numbers (DN). Quantization to
the 8-bit grid happens only in :func:`clamp_quantize`, which products pass
through once, at the end of fusion or at save time, so fusion arithmetic
never loses fractional intermediates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Sequence, TypeVar, Union

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

    A C-contiguous float64 array that owns its data is frozen in place;
    anything else, a view of another array included, is copied first.
    """

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"raster samples must be 2-D, got {a.ndim}-D")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("raster samples must all be finite")
        a = np.ascontiguousarray(a)
        if a.base is not None:
            a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "samples", a)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Raster":
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def constant(cls, width: int, height: int, value: float) -> "Raster":
        return cls(np.full((height, width), value, dtype=np.float64))


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


@dataclass(frozen=True, eq=False)
class MultiBandImage:
    """Ordered co-registered bands; all bands share identical dimensions."""

    bands: tuple

    def __post_init__(self):
        bands = tuple(self.bands)
        if len(bands) < 1:
            raise ValueError("image must have at least 1 band")
        w, h = bands[0].width, bands[0].height
        for k, b in enumerate(bands):
            if not isinstance(b, Raster):
                raise TypeError(f"band {k} is not a Raster")
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
    shape = (height, width) if channels == 1 else (height, width, 3)
    values = values.reshape(shape) * 255.0 / maxval
    if channels == 1:
        return Raster(values)
    return MultiBandImage(tuple(Raster(values[:, :, c]) for c in range(3)))


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

    quantized = [clamp_quantize(b).samples.astype(np.uint8) for b in bands]
    w, h = bands[0].width, bands[0].height
    magic = b"P5" if len(bands) == 1 else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    if len(bands) == 1:
        payload = quantized[0].tobytes()
    else:
        payload = np.stack(quantized, axis=-1).tobytes()
    Path(path).write_bytes(header + payload)


def _resample_raster(r: Raster, target_w: int, target_h: int) -> Raster:
    rows = (np.arange(target_h, dtype=np.int64) * r.height) // target_h
    cols = (np.arange(target_w, dtype=np.int64) * r.width) // target_w
    # One gather per axis: each ``take`` is a plain indexed copy, where
    # ``np.ix_`` goes through the general broadcast fancy-index path. The
    # result is a new C-contiguous array, so Raster keeps it uncopied.
    return Raster(r.samples.take(cols, axis=1).take(rows, axis=0))


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


# Memo key of the flag clamp_quantize sets on its results.
_QUANTIZED = "_quantized"


def clamp_quantize(r: Raster) -> Raster:
    """Clamp to [0, 255] and round half-up to the integer DN grid.

    A Raster this function returned is returned unchanged: each result
    carries a True flag, memoised on it by :func:`memoised`. The flag is a
    bool, not the Raster itself, so no reference cycle keeps the samples
    alive past their last reference.
    """
    if r.__dict__.get(_QUANTIZED):
        return r
    out = np.clip(r.samples, 0.0, 255.0)
    out += 0.5
    q = Raster(np.floor(out, out=out))
    memoised(q, _QUANTIZED, lambda: True)
    return q
