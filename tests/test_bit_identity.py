"""Rasters on the 8-bit grid are filtered in int16; a hand-built Raster
with the same samples is filtered in float64. Both must give the same bits,
for every stencil and for the full metric table. Likewise the spectral
sums of squares are taken by ``einsum`` where they are exact and by
``np.sum`` elsewhere; both must give the bits of the formulas below."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panfuse.filtering import box_lpf, laplacian_hp, unsharp_mask
from panfuse import metrics
from panfuse.metrics import csa, deviation_index, evaluate_all, nrmse, snr
from panfuse.raster import (
    MultiBandImage,
    Raster,
    clamp_quantize,
    dn8,
    load_pnm,
    resample_nearest,
)

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


def spectral_oracle(f, m):
    """DI, SNR and NRMSE as three separate formulas over float64 samples,
    each summing with ``np.sum``/``np.mean``: the definitions the single
    pass must reproduce bit for bit."""
    a, b = f.samples, m.samples
    excluded = int(b.size - np.count_nonzero(b))
    if excluded == b.size:
        di = "undefined DI: reference band is zero everywhere"
    else:
        valid = b != 0.0
        di = (float(np.mean(np.abs(a - b)[valid] / b[valid])).hex(), excluded)
    noise = float(np.sum((a - b) ** 2))
    ratio = math.inf if noise == 0.0 else math.sqrt(float(np.sum(a ** 2)) / noise)
    error = math.sqrt(float(np.mean((a - b) ** 2)) / 255.0 ** 2)
    return [di, ratio.hex(), error.hex()]


def spectral_results(f, m):
    """The same three values from the public functions, checked against
    the single-pass helper (which stops at DI's error if it raises)."""
    try:
        value, excluded = deviation_index(f, m)
        di = (value.hex(), excluded)
    except ValueError as e:
        di = str(e)
    public = [di, snr(f, m).hex(), nrmse(f, m).hex()]
    try:
        (value, excluded), (ratio, _), (error, _) = metrics._spectral(f, m)
        helper = [(value.hex(), excluded), ratio.hex(), error.hex()]
    except ValueError as e:
        helper = [str(e), *public[1:]]
    assert helper == public
    return public


def sixteen_bit(a):
    """``a`` stored as a maxval-65535 P5 file and loaded: 65535 = 257 * 255,
    so every sample comes back as the exact DN."""
    h, w = a.shape
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "w.pgm"
        p.write_bytes(f"P5\n{w} {h}\n65535\n".encode() + (a.astype(">u2") * 257).tobytes())
        r = load_pnm(p)
    assert dn8(r) is None
    return r


def references(coarse):
    """Rasters on the grid without uint8 samples, twice ``coarse``'s size:
    hand-built, loaded from a 16-bit file, and resampled from a hand-built,
    an 8-bit-loaded and a 16-bit-loaded coarse band."""
    h, w = coarse.shape
    fine = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1)
    loaded = gridded(coarse)[1]
    refs = [hand_built(fine), sixteen_bit(fine)] + [
        resample_nearest(r, 2 * w, 2 * h)
        for r in (hand_built(coarse), loaded, sixteen_bit(coarse))
    ]
    for r in refs:
        assert dn8(r) is None
        assert np.array_equal(r.samples, fine)
    return refs


coarse_pairs = shapes.flatmap(
    lambda s: arrays(np.uint8, (2, *s), elements=st.integers(0, 255))
)


@given(coarse_pairs)
@example(np.stack([np.zeros((3, 2), np.uint8), np.full((3, 2), 255, np.uint8)]))
@example(np.stack([SPREAD, SPREAD]))
@example(np.stack([SPREAD, 255 - SPREAD]))
@example(np.stack([EXTREMES, np.zeros_like(EXTREMES)]))
@settings(deadline=None, max_examples=40)
def test_single_pass_on_the_grid_gives_the_oracle_bits(planes):
    coarse, other = planes
    fine = np.repeat(np.repeat(other, 2, axis=0), 2, axis=1)
    for f in gridded(fine):
        for m in references(coarse):
            assert metrics._exact(f, m)
            assert spectral_results(f, m) == spectral_oracle(f, m)


def test_largest_sharpen_size_sums_are_exact():
    """A 1024x1024 band at 255 against one at 0 reaches the largest sum of
    squares a band of that size can: 255**2 * 2**20."""
    full = clamp_quantize(Raster.constant(1024, 1024, 255.0))
    empty = clamp_quantize(Raster.constant(1024, 1024, 0.0))
    for f, m in ((full, hand_built(empty.samples)), (empty, hand_built(full.samples))):
        assert metrics._exact(f, m)
        assert metrics._sum_squares(f.samples - m.samples, True) == 255.0 ** 2 * 2 ** 20
        assert spectral_results(f, m) == spectral_oracle(f, m)


OFF_GRID = {
    "fractional": lambda a: a + 0.25,
    "negative": lambda a: a - 256.0,
    "above 255": lambda a: a + 256.0,
}


@pytest.mark.parametrize("shift", OFF_GRID.values(), ids=OFF_GRID.keys())
@given(coarse_pairs)
@example(np.stack([SPREAD, 255 - SPREAD]))
@settings(deadline=None, max_examples=20)
def test_off_grid_references_take_the_np_sum_path(shift, planes):
    a, b = planes
    m = Raster(shift(b.astype(np.float64)))
    for f in gridded(a):
        assert not metrics._exact(f, m)
        assert spectral_results(f, m) == spectral_oracle(f, m)


def test_fractional_sums_keep_the_np_sum_bits():
    """On fractional data einsum's summation order gives other bits than
    np.sum's pairwise one, so only the np.sum path reproduces the oracle."""
    rng = np.random.default_rng(11)
    f = clamp_quantize(Raster(rng.uniform(0.0, 255.0, (67, 71))))
    m = Raster(rng.uniform(0.0, 255.0, (67, 71)))
    d = f.samples - m.samples
    assert float(np.einsum("ij,ij->", d, d)) != float(np.sum(d ** 2))
    assert spectral_results(f, m) == spectral_oracle(f, m)
