"""Deterministic synthetic MS/PAN pair generation.

Stands in for satellite imagery in tests and demos: a smoothed-noise RGB
reference plays the high-resolution scene, its intensity plane becomes the
PAN image, and a block-averaged, nearest-upsampled copy becomes the coarse
MS image. Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .colorspace import intensity
from .filtering import box_lpf
from .raster import MultiBandImage, Raster, clamp_quantize, resample_nearest, save_pnm

__all__ = ["SyntheticSpec", "synthesize", "generate_pair"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for one synthetic pair.

    ``scale_factor`` is the MS degradation ratio; width and height must
    be divisible by it so block averaging is exact.
    """

    seed: int
    width: int
    height: int
    scale_factor: int = 4
    smoothing_passes: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be >= 1, got {self.width}x{self.height}")
        if self.scale_factor < 2:
            raise ValueError(f"scale_factor must be >= 2, got {self.scale_factor}")
        if self.smoothing_passes < 0:
            raise ValueError("smoothing_passes must be >= 0")
        if self.width % self.scale_factor or self.height % self.scale_factor:
            raise ValueError(
                f"width and height ({self.width}x{self.height}) must be divisible "
                f"by scale_factor {self.scale_factor}"
            )


def _block_average(r: Raster, factor: int) -> Raster:
    h, w = r.height // factor, r.width // factor
    blocks = r.array.reshape(h, factor, w, factor)
    return Raster(blocks.mean(axis=(1, 3)))


def synthesize(spec: SyntheticSpec) -> tuple[MultiBandImage, Raster, MultiBandImage]:
    """Build (ms, pan, reference) in memory, deterministically from the seed.

    The reference is seeded uniform noise per channel, smoothed by
    ``smoothing_passes`` box filters and quantized. PAN is the quantized
    intensity (band mean) of the reference; MS is the reference block
    averaged by ``scale_factor`` and nearest-upsampled back to full size.
    """
    rng = np.random.default_rng(spec.seed)
    channels = []
    for _ in range(3):
        plane = Raster(rng.uniform(0.0, 255.0, size=(spec.height, spec.width)))
        for _ in range(spec.smoothing_passes):
            plane = box_lpf(plane)
        channels.append(clamp_quantize(plane))
    reference = MultiBandImage(tuple(channels))

    pan = clamp_quantize(Raster(intensity(*(b.array for b in reference.bands))))

    coarse = tuple(
        clamp_quantize(_block_average(b, spec.scale_factor)) for b in reference.bands
    )
    ms = resample_nearest(MultiBandImage(coarse), spec.width, spec.height)
    return ms, pan, reference


def generate_pair(spec: SyntheticSpec, out_dir) -> tuple[Path, Path, Path]:
    """Write ms.ppm, pan.pgm and reference.ppm under ``out_dir``.

    Returns the three paths. Identical specs produce byte-identical files.
    The pair is synthesized before ``out_dir`` is made, so a spec too big
    to allocate (MemoryError) leaves no directory behind.
    """
    ms, pan, reference = synthesize(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ms_path = out / "ms.ppm"
    pan_path = out / "pan.pgm"
    reference_path = out / "reference.ppm"
    save_pnm(ms, ms_path)
    save_pnm(pan, pan_path)
    save_pnm(reference, reference_path)
    return ms_path, pan_path, reference_path
