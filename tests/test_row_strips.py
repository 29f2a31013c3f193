"""Row strips keep the bits and bound the memory.

Fusion products, quantization, the IHS transforms and the 3x3 stencils run
one row strip (``raster.row_strips``) at a time. With the strip size cut
to 7 pixels, every result must equal the one built in a single strip, on
shapes of one row, one column, a ragged last strip and rows wider than a
strip; ``synthesize``, which smooths each strip from noise rows with a
halo, must also equal the whole-plane construction it replaces. Built
strip by strip, a quantized product holds no float64 plane,
and SF, IHS, HSV, RVS, the stencils and ``synthesize`` drop each whole
plane once it is dead. At the shipped strip size, every method,
``synthesize`` and ``evaluate_all`` stay below their measured peaks at
512x512.
"""

import tracemalloc

import numpy as np
import pytest

from panfuse import raster
from panfuse.colorspace import ihs_forward, ihs_inverse, intensity
from panfuse.filtering import box_lpf, window3x3
from panfuse.fusion import (
    FUSION_METHODS,
    fuse,
    fuse_ef,
    fuse_hfa,
    fuse_hsv,
    fuse_ihs,
    fuse_rvs,
    fuse_sf,
)
from panfuse.metrics import evaluate_all
from panfuse.raster import (
    MultiBandImage,
    Raster,
    clamp_quantize,
    resample_nearest,
    row_strips,
    save_pnm,
)
from panfuse.synthetic import SyntheticSpec, synthesize

TINY = 7
# (height, width): one row; one column in 7-row strips with a 2-row last
# strip; 2-row strips with a 1-row last strip; one row per strip.
SHAPES = [(1, 23), (23, 1), (13, 3), (5, 11)]


def images(shape):
    """An MS image and a PAN raster of ``shape``, on the 8-bit grid and
    as non-integral float64, with black MS pixels (HSV's V = 0) and a
    black PAN corner (HFM's floored denominator)."""
    rng = np.random.default_rng(sum(shape))
    dn = rng.integers(0, 256, (4, *shape)).astype(np.uint8)
    dn[:3, 0, 0] = 0
    dn[3, -1, -1] = 0
    real = dn + rng.uniform(0.0, 0.9, dn.shape)
    for planes in (dn, real):
        yield MultiBandImage(tuple(Raster(p) for p in planes[:3])), Raster(planes[3])


def bits(result):
    """Each plane's dtype and bytes; ``result`` is a MultiBandImage, a
    Raster, an array or a sequence of them."""
    if isinstance(result, MultiBandImage):
        result = result.bands
    if isinstance(result, (Raster, np.ndarray)):
        result = [result]
    arrays = (r.array if isinstance(r, Raster) else r for r in result)
    return [(a.dtype, a.tobytes()) for a in arrays]


def same_in_tiny_strips(monkeypatch, compute, pixels=TINY):
    whole = bits(compute())
    monkeypatch.setattr(raster, "_STRIP_PIXELS", pixels)
    tiny = bits(compute())
    monkeypatch.undo()
    assert tiny == whole


@pytest.mark.parametrize("shape", SHAPES)
def test_strips_cover_every_row_once(monkeypatch, shape):
    monkeypatch.setattr(raster, "_STRIP_PIXELS", TINY)
    assert row_strips(shape) == row_strips(shape, 8)
    for itemsize in (8, 2, 1):  # float64, int16 and uint8 samples
        strips = row_strips(shape, itemsize)
        assert [y for s in strips for y in range(s.start, s.stop)] == list(range(shape[0]))
        # As many whole rows as fit in the bytes of TINY float64 pixels,
        # but at least one.
        step = max(1, TINY * 8 // itemsize // shape[1])
        assert [s.stop - s.start for s in strips[:-1]] == [step] * (len(strips) - 1)
        assert 1 <= strips[-1].stop - strips[-1].start <= step


@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("method", FUSION_METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_fusion_methods(monkeypatch, shape, method, quantize):
    for ms, pan in images(shape):
        # A fresh PAN per call: its memoised Laplacian must not carry over.
        same_in_tiny_strips(
            monkeypatch,
            lambda: FUSION_METHODS[method](ms, Raster(pan.array.copy()), quantize=quantize),
        )


@pytest.mark.parametrize("shape", SHAPES)
def test_quantize_save_and_ihs_transforms(monkeypatch, shape, tmp_path):
    for ms, _ in images(shape):
        spread = MultiBandImage(tuple(Raster(b.array * 1.3 - 20.0) for b in ms.bands))

        names = ("s.ppm", "s.pgm")

        def saved():
            save_pnm(spread, tmp_path / names[0])
            save_pnm(spread.bands[0], tmp_path / names[1])
            return [np.frombuffer((tmp_path / n).read_bytes(), np.uint8) for n in names]

        same_in_tiny_strips(monkeypatch, lambda: [clamp_quantize(b) for b in spread.bands])
        same_in_tiny_strips(monkeypatch, saved)
        same_in_tiny_strips(monkeypatch, lambda: ihs_forward(ms))
        same_in_tiny_strips(monkeypatch, lambda: ihs_inverse(ihs_forward(spread)))


@pytest.mark.parametrize("dtype", [np.float64, np.int16, np.uint8])
# Two and three rows in one-row strips: each strip clamps its halo row
# above, below or neither, where the one-row shape clamps both.
@pytest.mark.parametrize("shape", SHAPES + [(2, 11), (3, 11)])
def test_window3x3(monkeypatch, shape, dtype):
    rng = np.random.default_rng(7)
    x = rng.integers(0, 256, shape).astype(dtype)
    if dtype == np.float64:
        x += rng.uniform(0.0, 1.0, shape)
    # Strips of integer samples take the same bytes in more pixels, so
    # they are cut to the bytes of one float64 pixel: one row per float64
    # strip, and as many rows as fit four int16 or eight uint8 pixels, at
    # least one, so that every shape but one row takes several strips.
    for reductions in ((np.add,), (np.minimum, np.maximum)):
        same_in_tiny_strips(monkeypatch, lambda: window3x3(x, *reductions), pixels=1)
    monkeypatch.setattr(raster, "_STRIP_PIXELS", 1)
    assert [r.dtype for r in window3x3(x, np.add, np.minimum)] == [np.dtype(dtype)] * 2


def pair_planes(pair):
    """The bands of ``(ms, pan, reference)`` in one list."""
    ms, pan, reference = pair
    return [*ms.bands, pan, *reference.bands]


def synthesize_whole(spec):
    """``synthesize`` built a whole plane at a time: seeded noise, box
    passes, quantized channels, the quantized intensity, ``np.mean``
    block averages and the nearest-upsampled MS."""
    rng = np.random.default_rng(spec.seed)
    f, h, w = spec.scale_factor, spec.height, spec.width
    channels = []
    for _ in range(3):
        plane = Raster(rng.uniform(0.0, 255.0, size=(h, w)))
        for _ in range(spec.smoothing_passes):
            plane = box_lpf(plane)
        channels.append(clamp_quantize(plane))
    pan = clamp_quantize(Raster(intensity(*(c.array for c in channels))))
    coarse = tuple(
        clamp_quantize(Raster(c.array.reshape(h // f, f, w // f, f).mean(axis=(1, 3))))
        for c in channels
    )
    ms = resample_nearest(MultiBandImage(coarse), w, h)
    return ms, pan, MultiBandImage(tuple(channels))


# (width, height, scale_factor, smoothing_passes): zero to four passes;
# two and three rows or columns, fewer than the halo, so that a strip's
# block is clamped at both edges; and an odd size with a ragged last
# strip at the shipped size, and factors 2, 3 and 17.
SYNTHETIC = (
    [(18, 12, 3, p) for p in range(5)]
    + [(2, 2, 2, p) for p in range(5)]
    + [(3, 3, 3, p) for p in range(5)]
    + [(6, 2, 2, 4), (3, 6, 3, 4), (500, 372, 4, 3)]
    + [(60, 30, 2, 3), (36, 24, 3, 3), (51, 34, 17, 3)]
)


@pytest.mark.parametrize("width, height, factor, passes", SYNTHETIC)
def test_synthesize_matches_the_whole_plane_construction(
    monkeypatch, width, height, factor, passes
):
    spec = SyntheticSpec(
        seed=width + passes, width=width, height=height, scale_factor=factor,
        smoothing_passes=passes,
    )
    assert bits(pair_planes(synthesize(spec))) == bits(pair_planes(synthesize_whole(spec)))
    # One row per strip: every strip's halo is clamped at an edge or cut
    # by the passes.
    same_in_tiny_strips(monkeypatch, lambda: pair_planes(synthesize(spec)), pixels=1)


@pytest.mark.parametrize("quantize", [True, False])
def test_non_finite_sample_in_the_last_strip_is_rejected(monkeypatch, quantize):
    monkeypatch.setattr(raster, "_STRIP_PIXELS", TINY)
    ms = MultiBandImage((Raster(np.full((23, 1), 1.7e308)),))
    spike = np.zeros((23, 1))
    spike[-1, 0] = 1e308  # its detail overflows row 22, in rows 21-22
    assert row_strips(spike.shape)[-1] == slice(21, 23)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="raster samples must all be finite"):
            fuse_hfa(ms, Raster(spike), quantize=quantize)


PEAK_SIZE = 512


def peak_planes(call):
    """``call()``'s result and the traced peak allocation while it runs,
    in float64 planes of a PEAK_SIZE x PEAK_SIZE image."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (PEAK_SIZE * PEAK_SIZE * 8)


@pytest.mark.parametrize("method", [fuse_ef, fuse_hfa])
def test_quantized_product_peak_stays_below_three_float64_planes(method):
    """Built whole, the three float64 bands and the detail plane are all
    alive at once; built strip by strip, only the detail plane is whole."""
    ms, pan, _ = synthesize(SyntheticSpec(seed=4, width=PEAK_SIZE, height=PEAK_SIZE))
    fused, peak = peak_planes(lambda: method(ms, pan))
    assert fused.bands[0].array.dtype == np.uint8
    assert peak < 3, f"peak {peak:.2f} float64 planes"


# Traced peaks in float64 planes of a 512x512 pair, with strips cut to 2**12
# pixels so that their temporaries are negligible. Each plane is dropped
# once it is dead: SF holds at most six (three float64 Rasters in, three
# out), and a 3x3 stencil pads one strip, not the plane. On the 8-bit
# grid IHS, HSV and RVS take their moments from exact integer sums and
# make no centred or squared plane: besides their three uint8 product
# planes they hold at most an int16 band sum (IHS) or a uint8 V (HSV).
@pytest.mark.parametrize(
    "method, bound", [(fuse_sf, 6.5), (fuse_ihs, 1.0), (fuse_hsv, 1.0), (fuse_rvs, 1.0)]
)
def test_quantized_product_peak(monkeypatch, method, bound):
    ms, pan, _ = synthesize(SyntheticSpec(seed=4, width=PEAK_SIZE, height=PEAK_SIZE))
    monkeypatch.setattr(raster, "_STRIP_PIXELS", 1 << 12)
    _, peak = peak_planes(lambda: method(ms, pan))
    assert peak < bound, f"peak {peak:.2f} float64 planes"


def test_stencil_and_synthesize_peaks(monkeypatch):
    monkeypatch.setattr(raster, "_STRIP_PIXELS", 1 << 12)
    rng = np.random.default_rng(4)
    r = Raster(rng.uniform(0.0, 255.0, (PEAK_SIZE, PEAK_SIZE)))
    calls = {
        "box_lpf": (lambda: box_lpf(r), 1.25),
        "window3x3": (lambda: window3x3(r.samples, np.add), 1.25),
        "synthesize": (
            lambda: synthesize(SyntheticSpec(seed=4, width=PEAK_SIZE, height=PEAK_SIZE)), 2.4
        ),
    }
    peaks = {name: peak_planes(call)[1] for name, (call, _) in calls.items()}
    assert {k: p for k, p in peaks.items() if p >= calls[k][1]} == {}


# Traced peaks in float64 planes of a 512x512 pair at the shipped strip
# size, each just above its measured value. A float64 strip is then 2**15
# pixels, an eighth of the plane, so the strips a chain holds at once
# count here. EF's peak is set by PAN's int16 Laplacian, whose strips take
# four times as many pixels in the same bytes. ``evaluate_all`` of an SF
# product holds the most. ``synthesize`` holds one float64 noise plane
# and its strip buffers, 1.86 planes here; its bound, 2.4, also holds the
# first call in a process (2.22), as in ``test_stencil_and_synthesize_peaks``.
SHIPPED_PEAK_BOUNDS = {
    "SF": 6.5,
    "IHS": 1.0,
    "HSV": 1.2,
    "HFA": 2.2,
    "HFM": 2.0,
    "RVS": 0.8,
    "EF": 1.2,
    "synthesize": 2.4,
    "evaluate_all": 6.0,
}


def test_peaks_at_the_shipped_strip_size():
    """One ``fuse`` per method, each on a pair of its own so that nothing
    memoised on one PAN serves the next, one ``synthesize``, and one
    ``evaluate_all`` of an SF product fused untraced on a fresh pair, as
    ``tools/plane_peaks.py 512`` traces them.

    The first ``synthesize`` in a process allocates more than later ones,
    so one untraced 8x8 call comes first: the bounds hold however many
    tests ran before this one, none included."""
    synthesize(SyntheticSpec(seed=0, width=8, height=8))
    spec = SyntheticSpec(seed=0, width=PEAK_SIZE, height=PEAK_SIZE)
    peaks = {"synthesize": peak_planes(lambda: synthesize(spec))[1]}
    for method in FUSION_METHODS:
        ms, pan, _ = synthesize(spec)
        peaks[method] = peak_planes(lambda: fuse(method, ms, pan))[1]
    ms, pan, _ = synthesize(spec)
    product = fuse("SF", ms, pan)
    peaks["evaluate_all"] = peak_planes(lambda: evaluate_all(ms, pan, product, "p", "SF"))[1]
    over = {k: round(p, 2) for k, p in peaks.items() if p >= SHIPPED_PEAK_BOUNDS[k]}
    assert over == {}
