"""Core image representation, PNM I/O, resampling, statistics, quantization.

All pixel data is carried as float64 digital numbers (DN). Quantization to
the 8-bit grid happens only in :func:`clamp_quantize` and at save time, so
fusion arithmetic never loses fractional intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Raster",
    "MultiBandImage",
    "BandStats",
    "SensorPairMeta",
    "PnmError",
    "load_pnm",
    "save_pnm",
    "resample_nearest",
    "band_stats",
    "clamp_quantize",
]


@dataclass(frozen=True, eq=False)
class Raster:
    """Single-band 2-D grid of real-valued DN, shape (height, width)."""

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


@dataclass(frozen=True)
class BandStats:
    """Population mean and standard deviation of a raster, in DN."""

    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be >= 0")


@dataclass(frozen=True)
class SensorPairMeta:
    """Sensor names, ground resolutions and spectral ranges for one MS/PAN pair."""

    pair_id: str
    ms_sensor: str | None = None
    pan_sensor: str | None = None
    ms_resolution_m: float | None = None
    pan_resolution_m: float | None = None
    location: str | None = None
    spectral_ranges: tuple = ()

    def __post_init__(self):
        if self.ms_resolution_m is not None and self.pan_resolution_m is not None:
            if self.ms_resolution_m < self.pan_resolution_m:
                raise ValueError(
                    "ms_resolution_m must be >= pan_resolution_m (MS is the coarser image)"
                )
        object.__setattr__(self, "spectral_ranges", tuple(self.spectral_ranges))

    def label(self) -> str:
        """One-line human-readable label for logs."""
        parts = [self.pair_id]
        if self.ms_sensor or self.pan_sensor:
            parts.append(f"{self.ms_sensor or '?'} / {self.pan_sensor or '?'}")
        if self.ms_resolution_m is not None and self.pan_resolution_m is not None:
            parts.append(f"({self.ms_resolution_m:g} m / {self.pan_resolution_m:g} m)")
        if self.location:
            parts.append(self.location)
        return " ".join(parts)


class PnmError(ValueError):
    """Malformed PNM input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class _PnmScanner:
    """Whitespace/comment-aware tokenizer over raw PNM bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self, comments: bool = True) -> None:
        data = self.data
        while self.pos < len(data):
            c = data[self.pos]
            if c in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif comments and c == ord("#"):
                nl = data.find(b"\n", self.pos)
                self.pos = len(data) if nl < 0 else nl + 1
            else:
                return

    def token(self) -> bytes:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise PnmError("unexpected end of file", self.pos)
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        return self.data[start:self.pos]

    def integer(
        self, what: str, context: str = "malformed header", limit: int | None = None
    ) -> int:
        """Next token as a plain decimal integer, at most ``limit``: ASCII
        digits only, so no sign, underscore or other form ``int`` accepts."""
        self.skip_separators()
        start = self.pos
        tok = self.token()
        if not tok.isdigit():
            raise PnmError(f"{context}: bad {what} {tok!r}", start)
        value = int(tok)
        if limit is not None and value > limit:
            raise PnmError(f"{context}: {what} {value} exceeds maxval {limit}", start)
        return value


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
    sc = _PnmScanner(data)
    sc.skip_separators()
    magic_at = sc.pos
    if sc.pos >= len(data):
        raise PnmError("empty file", 0)
    magic = sc.token()
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmError(f"unsupported magic number {magic!r}", magic_at)
    channels = 3 if magic in (b"P3", b"P6") else 1
    binary = magic in (b"P5", b"P6")

    width = sc.integer("width")
    height = sc.integer("height")
    maxval_at = sc.pos
    maxval = sc.integer("maxval")
    if width < 1 or height < 1:
        raise PnmError(f"malformed header: bad dimensions {width}x{height}", maxval_at)
    if not 1 <= maxval <= 65535:
        raise PnmError(f"malformed header: maxval {maxval} out of range", maxval_at)

    count = width * height * channels
    if binary:
        # Exactly one whitespace byte separates maxval from the payload.
        if sc.pos >= len(data) or data[sc.pos] not in b" \t\r\n\x0b\x0c":
            raise PnmError("malformed header: missing whitespace before payload", sc.pos)
        sc.pos += 1
        bytes_per = 1 if maxval <= 255 else 2
        need = count * bytes_per
        if len(data) - sc.pos < need:
            raise PnmError(
                f"truncated payload: need {need} bytes, have {len(data) - sc.pos}",
                len(data),
            )
        raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=sc.pos)
        if bytes_per == 1:
            values = raw.astype(np.float64)
        else:
            values = (raw[0::2].astype(np.float64) * 256.0) + raw[1::2]
        # A full-range maxval (255 or 65535) admits every stored value.
        if maxval not in (255, 65535) and values.max() > maxval:
            i = int(np.argmax(values > maxval))
            raise PnmError(
                f"malformed payload: sample {int(values[i])} exceeds maxval {maxval}",
                sc.pos + i * bytes_per,
            )
    else:
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            sc.skip_separators()
            if sc.pos >= len(data):
                raise PnmError(
                    f"truncated payload: expected {count} samples, got {i}", sc.pos
                )
            values[i] = sc.integer("sample", context="malformed payload", limit=maxval)

    values = values * 255.0 / maxval
    if channels == 1:
        return Raster(values.reshape(height, width))
    planes = values.reshape(height, width, 3)
    return MultiBandImage(tuple(Raster(planes[:, :, c]) for c in range(3)))


def save_pnm(image: Union[Raster, MultiBandImage], path) -> None:
    """Write binary P5 (single band) or P6 (exactly 3 bands) with maxval 255.

    Samples are clamp-quantized to the integer [0, 255] grid before
    encoding, so ``load_pnm(save_pnm(x)) == clamp_quantize(x)``.
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
    return Raster(r.samples[np.ix_(rows, cols)])


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


def band_stats(r: Raster) -> BandStats:
    """Population mean and standard deviation (divisor n*m)."""
    mean = float(np.mean(r.samples))
    std = float(np.sqrt(np.mean((r.samples - mean) ** 2)))
    return BandStats(mean=mean, std=std)


def clamp_quantize(r: Raster) -> Raster:
    """Clamp to [0, 255] and round half-up to the integer DN grid."""
    return Raster(np.floor(np.clip(r.samples, 0.0, 255.0) + 0.5))
