"""Seeded input generation for the benchmark workloads.

Every image comes from ``panfuse.synthetic.synthesize``. The coarse MS
image is every ``SCALE``-th pixel of the synthesized MS, which is
block-constant, so nearest-neighbour resampling inside the program
reproduces the synthesized MS exactly. The benchmark writes the files
itself (8- and 16-bit binary PNM, ASCII PNM with and without comment lines
inside the payload); the program only ever receives files.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from panfuse.fusion import METHOD_NAMES, fuse
from panfuse.synthetic import SyntheticSpec, synthesize

SCALE = 4

# Shipped sizes. Tests pass smaller ones.
CAMPAIGN_PAN = 512
CAMPAIGN_PAIRS = 4
CAMPAIGN_PER_BATCH = 2
SHARPEN_PAN = 1024
SHARPEN_PAIRS = 2
AUDIT_SIZE = 256
AUDIT_PAIRS = len(METHOD_NAMES)

# A comment line is inserted after every this many payload rows of a
# commented ASCII file.
_COMMENT_ROWS = 16


@dataclass(frozen=True)
class PairFiles:
    """One generated pair; ``method``/``fused``/``binary`` only for ascii-audit."""

    pair_id: str
    ms: Path
    pan: Path
    method: str | None = None
    fused: Path | None = None
    binary: tuple[Path, Path, Path] | None = None


@dataclass(frozen=True)
class Inputs:
    pairs: tuple[PairFiles, ...]
    pan_pixels: int
    manifests: tuple[Path, ...] = ()


def pair_seed(seed: int, workload: str, index: int) -> int:
    """Seed of pair ``index`` of ``workload`` for benchmark seed ``seed``."""
    entropy = [seed, zlib.crc32(workload.encode()), index]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _planes(image) -> list[np.ndarray]:
    """Integral DN planes of a Raster or MultiBandImage as uint16 arrays."""
    bands = getattr(image, "bands", (image,))
    return [np.rint(b.samples).astype(np.uint16) for b in bands]


def write_binary(path: Path, planes: list[np.ndarray], maxval: int = 255) -> None:
    """P5/P6 with maxval 255 (one byte) or 65535 (DN * 257, big-endian)."""
    h, w = planes[0].shape
    magic = b"P5" if len(planes) == 1 else b"P6"
    pixels = np.stack(planes, axis=-1)
    if maxval == 255:
        payload = pixels.astype(np.uint8).tobytes()
    elif maxval == 65535:
        payload = (pixels.astype(np.uint32) * 257).astype(">u2").tobytes()
    else:
        raise ValueError(f"unsupported maxval {maxval}")
    path.write_bytes(magic + f"\n{w} {h}\n{maxval}\n".encode() + payload)


def write_ascii(path: Path, planes: list[np.ndarray], comments: bool = False) -> None:
    """P2/P3 with maxval 255, one image row per line; with ``comments`` a
    ``#`` line follows every ``_COMMENT_ROWS`` rows of the payload."""
    h, w = planes[0].shape
    magic = "P2" if len(planes) == 1 else "P3"
    pixels = np.stack(planes, axis=-1).reshape(h, -1)
    lines = [f"{magic}\n{w} {h}\n255"]
    for row_index, row in enumerate(pixels.tolist()):
        lines.append(" ".join(map(str, row)))
        if comments and row_index % _COMMENT_ROWS == _COMMENT_ROWS - 1:
            lines.append(f"# rows {row_index - _COMMENT_ROWS + 1}-{row_index}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _synthesize(seed: int, workload: str, index: int, size: int):
    spec = SyntheticSpec(seed=pair_seed(seed, workload, index), width=size, height=size)
    ms, pan, _ = synthesize(spec)
    return ms, pan


def make_campaign(seed: int, root: Path, pan_size: int = CAMPAIGN_PAN,
                  pairs: int = CAMPAIGN_PAIRS, per_batch: int = CAMPAIGN_PER_BATCH) -> Inputs:
    """``pairs`` pairs (PAN ``pan_size``², MS a quarter of that per side),
    every fourth stored 16-bit, and one manifest per ``per_batch``
    consecutive pairs running all seven methods."""
    root.mkdir(parents=True, exist_ok=True)
    entries, files = [], []
    for k in range(pairs):
        ms, pan = _synthesize(seed, "campaign", k, pan_size)
        coarse = [p[::SCALE, ::SCALE] for p in _planes(ms)]
        maxval = 65535 if k % 4 == 3 else 255
        pair_id = f"c{k}"
        ms_path, pan_path = root / f"{pair_id}-ms.ppm", root / f"{pair_id}-pan.pgm"
        write_binary(ms_path, coarse, maxval)
        write_binary(pan_path, _planes(pan), maxval)
        files.append(PairFiles(pair_id, ms_path, pan_path))
        entries.append({"pair_id": pair_id, "ms_path": ms_path.name, "pan_path": pan_path.name})
    manifests = []
    for b in range(0, pairs, per_batch):
        manifest = root / f"manifest-{b // per_batch}.json"
        manifest.write_text(json.dumps({
            "pairs": entries[b:b + per_batch],
            "methods": list(METHOD_NAMES),
            "output_dir": f"out-{b // per_batch}",
        }, indent=1))
        manifests.append(manifest)
    return Inputs(tuple(files), pan_size * pan_size, tuple(manifests))


def make_sharpen(seed: int, root: Path, pan_size: int = SHARPEN_PAN,
                 pairs: int = SHARPEN_PAIRS) -> Inputs:
    """``pairs`` 8-bit binary pairs: PAN ``pan_size``², MS a quarter per side."""
    root.mkdir(parents=True, exist_ok=True)
    files = []
    for k in range(pairs):
        ms, pan = _synthesize(seed, "sharpen", k, pan_size)
        pair_id = f"s{k}"
        ms_path, pan_path = root / f"{pair_id}-ms.ppm", root / f"{pair_id}-pan.pgm"
        write_binary(ms_path, [p[::SCALE, ::SCALE] for p in _planes(ms)])
        write_binary(pan_path, _planes(pan))
        files.append(PairFiles(pair_id, ms_path, pan_path))
    return Inputs(tuple(files), pan_size * pan_size)


def make_audit(seed: int, root: Path, size: int = AUDIT_SIZE,
               pairs: int = AUDIT_PAIRS) -> Inputs:
    """``pairs`` ASCII triples (MS, PAN, fused product) at ``size``², the
    product of pair k made with method k mod 7. Every fourth file has
    comment lines inside its payload. Binary copies of all three images
    are written next to them for the cross-check."""
    root.mkdir(parents=True, exist_ok=True)
    files = []
    file_index = 0
    for k in range(pairs):
        ms, pan = _synthesize(seed, "ascii-audit", k, size)
        method = METHOD_NAMES[k % len(METHOD_NAMES)]
        images = (("ms.ppm", _planes(ms)), ("pan.pgm", _planes(pan)),
                  ("fused.ppm", _planes(fuse(method, ms, pan))))
        pair_id = f"a{k}"
        ascii_paths, binary_paths = [], []
        for name, planes in images:
            path = root / f"{pair_id}-{name}"
            write_ascii(path, planes, comments=file_index % 4 == 3)
            file_index += 1
            binary = root / f"{pair_id}-bin-{name}"
            write_binary(binary, planes)
            ascii_paths.append(path)
            binary_paths.append(binary)
        files.append(PairFiles(pair_id, ascii_paths[0], ascii_paths[1], method,
                               ascii_paths[2], tuple(binary_paths)))
    return Inputs(tuple(files), size * size)


GENERATORS = {"campaign": make_campaign, "sharpen": make_sharpen, "ascii-audit": make_audit}
