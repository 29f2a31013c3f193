"""Rasters on the 8-bit grid are filtered in int16; a hand-built Raster
with the same samples is filtered in float64. Both must give the same bits,
for every stencil and for the full metric table."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panfuse.filtering import box_lpf, laplacian_hp, unsharp_mask
from panfuse.metrics import csa, evaluate_all
from panfuse.raster import MultiBandImage, Raster, clamp_quantize, dn8, load_pnm

# 1x1, 1xn and nx1 are all drawn; the examples pin the extremes 0 and 255.
shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
dn_arrays = shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.integers(0, 255)))

EXTREMES = np.array([[0, 255, 0], [255, 0, 255]], dtype=np.uint8)
SPREAD = np.random.default_rng(5).integers(0, 256, (7, 6), dtype=np.uint8)


def hand_built(a):
    r = Raster(a.astype(np.float64))
    assert dn8(r) is None
    return r


def gridded(a):
    """The same samples three ways on the grid: quantized, and loaded from
    a binary P5 and an ASCII P2 file."""
    h, w = a.shape
    header = f"{w} {h}\n255\n".encode()
    with tempfile.TemporaryDirectory() as d:
        p5, p2 = Path(d) / "b.pgm", Path(d) / "a.pgm"
        p5.write_bytes(b"P5\n" + header + a.tobytes())
        p2.write_bytes(b"P2\n" + header + " ".join(map(str, a.ravel())).encode())
        rasters = [clamp_quantize(hand_built(a)), load_pnm(p5), load_pnm(p2)]
    for r in rasters:
        assert dn8(r) is not None
    return rasters


def outcome(f, *args):
    """The bytes of ``f(*args)``, or the message of the ValueError it raised."""
    try:
        result = f(*args)
    except ValueError as e:
        return str(e)
    if isinstance(result, Raster):
        return result.samples.tobytes()
    return np.array(result, dtype=np.float64).tobytes()


@given(dn_arrays)
@example(np.zeros((1, 1), np.uint8))
@example(np.full((1, 5), 255, np.uint8))
@example(EXTREMES)
@example(EXTREMES.T.copy())
@example(SPREAD)
@settings(deadline=None)
def test_stencils_on_the_grid_match_the_float_path(a):
    plain = hand_built(a)
    for r in gridded(a):
        for f in (box_lpf, unsharp_mask, laplacian_hp):
            assert outcome(f, r) == outcome(f, plain), f.__name__
        assert outcome(csa, r, r) == outcome(csa, plain, plain)


def records(*args):
    try:
        rows = evaluate_all(*args, pair_id="p", method="SF")
    except ValueError as e:
        return str(e)
    return [
        (r.pair_id, r.method, r.band, r.metric, float(r.value).hex(), r.excluded_pixels)
        for r in rows
    ]


@given(shapes.flatmap(lambda s: arrays(np.uint8, (4, *s), elements=st.integers(0, 255))))
@example(np.stack([SPREAD, SPREAD[::-1], 255 - SPREAD, np.rot90(SPREAD, 2)]))
@settings(deadline=None)
def test_evaluate_all_on_the_grid_matches_the_float_path(planes):
    ms = MultiBandImage(tuple(hand_built(np.roll(p, 1)) for p in planes[:3]))
    want = records(
        ms, hand_built(planes[3]), MultiBandImage(tuple(hand_built(p) for p in planes[:3]))
    )
    grids = [gridded(p) for p in planes]
    for k in range(3):
        fused = MultiBandImage(tuple(g[k] for g in grids[:3]))
        assert records(ms, grids[3][k], fused) == want
