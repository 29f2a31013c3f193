"""Rasters on the 8-bit grid are filtered in int16, and scored from their
uint8 samples and int16 Laplacians; a hand-built Raster with the same
samples is filtered and scored in float64. Both must give the same bits,
for every stencil and for the full metric table. Likewise the spectral
sums of squares are taken in int64 where both bands are on the grid and
by ``np.sum`` elsewhere; both must give the bits of the formulas below.
Quantization in the caller's buffer, the finite check by one sum, the integer-sample
conversion and the PNM paths built on uint8 must each give the bits of
the plain formula they replace. Every fusion method must give the same
bits on inputs that hold uint8 samples as on float64 copies of them."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panfuse.filtering import box_lpf, laplacian_hp, unsharp_mask
from panfuse import metrics
from panfuse.fusion import FUSION_METHODS, fuse
from panfuse.metrics import csa, deviation_index, evaluate_all, nrmse, snr
from panfuse.raster import (
    MultiBandImage,
    Raster,
    clamp_quantize,
    dn8,
    load_pnm,
    quantize_rows,
    resample_nearest,
    row_strips,
    save_pnm,
)
from panfuse.synthetic import SyntheticSpec, synthesize

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
    ms_grids = [gridded(np.roll(p, 1)) for p in planes[:3]]
    for k in range(3):
        fused = MultiBandImage(tuple(g[k] for g in grids[:3]))
        assert records(ms, grids[3][k], fused) == want
        # Both sides of f - m hold uint8 samples, which must not wrap.
        assert records(MultiBandImage(tuple(g[k] for g in ms_grids)), grids[3][k], fused) == want


def lattice(h, w):
    """255 on every second row and column, 0 elsewhere. Each 255 has only
    0 around it, so its Laplacian is +2040; in ``255 - lattice`` each 0 has
    only 255 around it, -2040, and the HPDI difference of the two is 4080."""
    a = np.zeros((h, w), np.uint8)
    a[::2, ::2] = 255
    return a


CHECKERBOARD = (np.indices((8, 8)).sum(axis=0) % 2 * 255).astype(np.uint8)
NO_ZEROS = np.random.default_rng(6).integers(1, 256, (9, 9), dtype=np.uint8)
EDGE_SHAPES = np.random.default_rng(7).integers(0, 256, (3, 7), dtype=np.uint8)

# (MS, PAN, fused) planes of one band at the int16 extremes; zeros in MS
# and PAN take DI's and HPDI's exclusion paths.
INT16_EXTREMES = {
    "checkerboard": (NO_ZEROS[:8, :8], CHECKERBOARD, 255 - CHECKERBOARD),
    "lattice": (NO_ZEROS, lattice(9, 9), 255 - lattice(9, 9)),
    "zeros in MS and PAN": (lattice(9, 9), np.roll(lattice(9, 9), 1), NO_ZEROS),
    "no zeros": (NO_ZEROS, 255 - lattice(9, 9) // 255 * 254, lattice(9, 9)),
    "1x1": (EDGE_SHAPES[:1, :1], EDGE_SHAPES[1:2, 1:2], EDGE_SHAPES[2:, 2:3]),
    "1xn": (EDGE_SHAPES[0:1], EDGE_SHAPES[1:2], 255 - EDGE_SHAPES[2:]),
    "nx1": (EDGE_SHAPES[:, :1], EDGE_SHAPES[:, 3:4], 255 - EDGE_SHAPES[:, 6:7]),
}


def three_bands(plane, wrap):
    return MultiBandImage(tuple(
        wrap(np.ascontiguousarray(b)) for b in (plane, np.roll(plane, 1, axis=1), np.roll(plane, 1, axis=0))
    ))


def test_lattice_reaches_the_int16_extremes():
    pan, fused = Raster(lattice(9, 9)), Raster(255 - lattice(9, 9))
    lp, lf = laplacian_hp(pan).array, laplacian_hp(fused).array
    assert lp.dtype == lf.dtype == np.int16
    assert (lp.max(), lf.min(), np.abs(np.subtract(lf, lp)).max()) == (2040, -2040, 4080)


@pytest.mark.parametrize("planes", INT16_EXTREMES.values(), ids=INT16_EXTREMES.keys())
def test_int16_extremes_match_the_float_path(planes):
    """``evaluate_all`` on uint8 bands, with int16 Laplacians and
    differences, gives the records of the float64 copies of the same
    bands; so does the local contrast, whose padding the 1x1, 1xn and nx1
    images reach from every side."""
    ms_plane, pan_plane, fused_plane = planes
    grid = (three_bands(ms_plane, Raster), Raster(np.ascontiguousarray(pan_plane)),
            three_bands(fused_plane, Raster))
    plain = (three_bands(ms_plane, hand_built), hand_built(pan_plane),
             three_bands(fused_plane, hand_built))
    assert all(dn8(b) is not None for image in grid[::2] for b in image.bands)
    assert records(*grid) == records(*plain)
    assert isinstance(records(*grid), list) or pan_plane.size == 1
    for g, p in zip(grid[2].bands, plain[2].bands):
        assert metrics._local_michelson(g).tobytes() == metrics._local_michelson(p).tobytes()


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
    """The same three values from the public functions, which read the
    single pass, ``metrics._spectral``."""
    try:
        value, excluded = deviation_index(f, m)
        di = (value.hex(), excluded)
    except ValueError as e:
        di = str(e)
    return [di, snr(f, m).hex(), nrmse(f, m).hex()]


def sixteen_bit(a):
    """``a`` stored as a maxval-65535 P5 file and loaded: 65535 = 257 * 255,
    so every sample comes back as the exact DN, held as uint8."""
    h, w = a.shape
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "w.pgm"
        p.write_bytes(f"P5\n{w} {h}\n65535\n".encode() + (a.astype(">u2") * 257).tobytes())
        r = load_pnm(p)
    assert dn8(r) is not None
    return r


def references(coarse):
    """Integral references twice ``coarse``'s size: hand-built, loaded from
    a 16-bit file, a float64 copy of the resample of an 8-bit-loaded band,
    and resampled from a hand-built and a 16-bit-loaded coarse band. Only
    the 16-bit loads and their resample hold uint8 samples."""
    h, w = coarse.shape
    fine = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1)
    loaded = resample_nearest(gridded(coarse)[1], 2 * w, 2 * h)
    assert dn8(loaded) is not None
    refs = [hand_built(fine), sixteen_bit(fine), hand_built(loaded.samples)] + [
        resample_nearest(r, 2 * w, 2 * h) for r in (hand_built(coarse), sixteen_bit(coarse))
    ]
    assert [dn8(r) is not None for r in refs] == [False, True, False, False, True]
    for r in refs:
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
            # Hand-built references take the np.sum path, which gives the
            # same value on integers.
            assert metrics._exact(f, m) == (dn8(m) is not None)
            assert spectral_results(f, m) == spectral_oracle(f, m)


def test_largest_sharpen_size_sums_are_exact():
    """A 1024x1024 band at 255 against one at 0 reaches the largest sum of
    squares a band of that size can: 255**2 * 2**20."""
    full = clamp_quantize(Raster(np.full((1024, 1024), 255.0)))
    empty = clamp_quantize(Raster(np.full((1024, 1024), 0.0)))
    for f, m in ((full, empty), (empty, full)):
        assert metrics._exact(f, m)
        d = np.subtract(dn8(f), dn8(m), dtype=np.int16)
        assert metrics._sum_squares(d) == 255.0 ** 2 * 2 ** 20
        assert spectral_results(f, m) == spectral_oracle(f, m)
        assert spectral_results(f, hand_built(dn8(m))) == spectral_oracle(f, m)


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


# Ties at every k + 0.5 (k = -1 .. 255), signed zeros, both clamp edges
# and values far outside the range.
QUANTIZE_EDGES = np.concatenate(
    [np.arange(-1, 256) + 0.5, [-0.0, 0.0, -0.5, 255.0, 255.5, 1e300, -1e300]]
)


def quantize_oracle(x):
    return np.floor(np.clip(x, 0.0, 255.0) + 0.5)


def quantized_in_strips(a):
    """``a`` rounded by ``quantize_rows`` one row strip at a time into a
    fresh uint8 array, as ``fusion._product`` runs it."""
    q = np.empty(a.shape, np.uint8)
    for rows in row_strips(a.shape):
        quantize_rows(a[rows], q[rows])
    return q


def assert_quantized_like_the_oracle(x):
    expected = quantize_oracle(x)
    q = clamp_quantize(Raster(x))
    assert q.samples.tobytes() == expected.tobytes()
    for got in (quantized_in_strips(x.copy()), dn8(q)):
        assert got.tobytes() == expected.astype(np.uint8).tobytes()


def test_in_place_quantize_at_ties_and_edges():
    assert_quantized_like_the_oracle(QUANTIZE_EDGES.reshape(1, -1))
    assert_quantized_like_the_oracle(QUANTIZE_EDGES.reshape(-1, 1))


@given(
    shapes.flatmap(
        lambda s: arrays(
            np.float64, s, elements=st.floats(allow_nan=False, allow_infinity=False)
        )
    )
)
@settings(deadline=None)
def test_in_place_quantize_matches_the_oracle(x):
    assert_quantized_like_the_oracle(x)


def test_in_place_quantize_keeps_the_callers_buffer():
    """The clamp runs in the caller's buffer; the rounded samples are
    written straight into a fresh uint8 array, which the result holds."""
    a = np.array([[-3.0, 7.5, 300.0]])
    q = quantized_in_strips(a)
    assert a.tolist() == [[0.0, 7.5, 255.0]]
    assert not np.shares_memory(q, a)
    assert q.tolist() == [[0, 8, 255]]


def test_save_of_a_quantized_plane_allocates_no_float64_plane(tmp_path):
    """Quantizing a 512x512 plane and saving it reads only the uint8
    samples: the traced peak stays below one float64 plane (2 MiB)."""
    a = np.random.default_rng(3).uniform(-20.0, 280.0, (512, 512))
    tracemalloc.start()
    try:
        q = Raster(quantized_in_strips(a))
        assert (q.width, q.height) == (512, 512)
        save_pnm(q, tmp_path / "q.pgm")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 2
    assert load_pnm(tmp_path / "q.pgm").samples.tobytes() == quantize_oracle(a).tobytes()


def test_raster_values_survive_the_callers_uint8_array():
    owned = np.full((3, 4), 5, dtype=np.uint8)
    base = np.arange(24, dtype=np.uint8).reshape(4, 6)
    rasters = [Raster(owned), Raster(base[1:]), Raster(base[:, ::2])]
    before = [r.samples.copy() for r in rasters]
    with pytest.raises(ValueError):
        owned[0, 0] = 99  # frozen in place: it is the Raster's array now
    base[:] = 7  # views are copied
    for r, want in zip(rasters, before):
        assert r.samples.tobytes() == want.tobytes()
        assert dn8(r).tobytes() == want.astype(np.uint8).tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.array([[0, 1, 255]], dtype=np.uint8),
        np.array([[-32768, -1, 0, 32767]], dtype=np.int16),
        np.array([[True, False], [False, True]]),
        np.arange(12, dtype=np.int16).reshape(3, 4).T,  # a strided view
        np.asfortranarray(np.arange(6, dtype=np.uint8).reshape(2, 3)),
    ],
    ids=["uint8", "int16", "bool", "int16 view", "uint8 Fortran"],
)
def test_integer_samples_give_the_float64_cast(a):
    r = Raster(a)
    assert r.samples.flags.c_contiguous and not r.samples.flags.writeable
    assert r.samples.tobytes() == np.ascontiguousarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "a",
    [[[np.nan]], [[1.0, np.inf]], [[-np.inf, 2.0]], [[np.inf, -np.inf]], [[3e38, np.nan]]],
    ids=["nan", "inf", "-inf", "inf -inf", "3e38 nan"],
)
def test_non_finite_samples_are_rejected(a):
    for samples in (a, np.array(a), np.array(a, dtype=np.float32)):
        with pytest.raises(ValueError, match="raster samples must all be finite"):
            Raster(samples)
    with pytest.raises(ValueError, match="raster samples must all be finite"):
        quantized_in_strips(np.array(a))


def test_finite_samples_whose_sum_overflows_are_accepted():
    big = [[1e308, 1e308], [-1e308, -1e308]]
    assert Raster(big).samples.tolist() == big
    assert Raster([[1e308, 1e308]]).samples.tolist() == [[1e308, 1e308]]
    assert quantized_in_strips(np.array(big)).tolist() == [[255, 255], [0, 0]]


def pnm_files(a, d):
    """``a`` ((h, w) or (h, w, 3) uint8) written as binary and ASCII PNM."""
    h, w = a.shape[:2]
    binary, ascii_ = (b"P5", b"P2") if a.ndim == 2 else (b"P6", b"P3")
    header = f"\n{w} {h}\n255\n".encode()
    pb, pa = Path(d) / "b.pnm", Path(d) / "a.pnm"
    pb.write_bytes(binary + header + a.tobytes())
    pa.write_bytes(ascii_ + header + " ".join(map(str, a.ravel())).encode())
    return pb, pa


def bands_of(image):
    return image.bands if isinstance(image, MultiBandImage) else (image,)


@pytest.mark.parametrize("shape", [(5, 7), (5, 7, 3)], ids=["gray", "rgb"])
def test_maxval_255_loads_give_the_rescaled_bits(shape):
    a = np.random.default_rng(13).integers(0, 256, shape, dtype=np.uint8)
    a.flat[:2] = (0, 255)
    expected = a.astype(np.float64) * 255.0 / 255
    columns = (expected,) if a.ndim == 2 else tuple(expected[:, :, c] for c in range(3))
    with tempfile.TemporaryDirectory() as d:
        for path in pnm_files(a, d):
            bands = bands_of(load_pnm(path))
            assert len(bands) == len(columns)
            for band, want in zip(bands, columns):
                assert band.samples.tobytes() == np.ascontiguousarray(want).tobytes()
                assert dn8(band).tobytes() == want.astype(np.uint8).tobytes()


def old_save_bytes(image):
    """The bytes ``save_pnm`` wrote as header + ``np.stack(...).tobytes()``."""
    bands = bands_of(image)
    q = [dn8(clamp_quantize(b)) for b in bands]
    magic = b"P5" if len(bands) == 1 else b"P6"
    header = magic + f"\n{bands[0].width} {bands[0].height}\n255\n".encode()
    if len(bands) == 1:
        return header + q[0].tobytes()
    return header + np.stack(q, axis=-1).tobytes()


def test_save_writes_the_old_bytes():
    rng = np.random.default_rng(17)
    fractional = MultiBandImage(
        tuple(Raster(rng.uniform(-20.0, 280.0, (6, 9))) for _ in range(3))
    )
    with tempfile.TemporaryDirectory() as d:
        rgb_path, _ = pnm_files(rng.integers(0, 256, (6, 9, 3), dtype=np.uint8), d)
        loaded = load_pnm(rgb_path)  # bands whose uint8 samples are strided views
        quantized = MultiBandImage(tuple(clamp_quantize(b) for b in fractional.bands))
        cases = [fractional, quantized, loaded, fractional.bands[0], loaded.bands[1]]
        for k, image in enumerate(cases):
            out = Path(d) / f"{k}.pnm"
            save_pnm(image, out)
            assert out.read_bytes() == old_save_bytes(image), k


@st.composite
def fusion_inputs(draw):
    """A resampling factor and four uint8 planes at the fine size: the
    MS bands, sampled at that factor, and PAN."""
    f = draw(st.integers(1, 2))
    h, w = draw(shapes)
    return f, draw(arrays(np.uint8, (4, h * f, w * f), elements=st.integers(0, 255)))


def fused(method, ms, pan, quantize):
    """Each product band's float64 bytes and uint8 bytes (None when it
    holds none), or the message of the ValueError the method raised."""
    try:
        out = method(ms, pan, quantize=quantize)
    except ValueError as e:
        return str(e)
    return [(b.samples.tobytes(), None if dn8(b) is None else dn8(b).tobytes()) for b in out.bands]


def fine(a):
    return np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)


def binary_pnm(stored, maxval, path):
    """``stored`` ((h, w) or (h, w, 3) integers) as a binary PNM file."""
    h, w = stored.shape[:2]
    magic = b"P5" if stored.ndim == 2 else b"P6"
    dtype = "u1" if maxval <= 255 else ">u2"
    path.write_bytes(magic + f"\n{w} {h}\n{maxval}\n".encode() + stored.astype(dtype).tobytes())
    return path


# R = 0 against G = 255 and the other way round: r + g, r - g and -r
# would each wrap if taken in uint8.
@given(fusion_inputs())
@example((1, np.stack([np.zeros_like(SPREAD), np.full_like(SPREAD, 255), SPREAD, 255 - SPREAD])))
@example((2, np.stack([fine(x) for x in (EXTREMES, 255 - EXTREMES, EXTREMES, 255 - EXTREMES)])))
@example((1, np.stack([EXTREMES, 255 - EXTREMES, np.zeros_like(EXTREMES), EXTREMES])))
@settings(deadline=None, max_examples=40)
def test_fusion_on_loaded_8bit_inputs_matches_float64_copies(inputs):
    """MS and PAN loaded from maxval-255 binary and ASCII files and from
    16-bit files storing DN * 257 give the bytes of hand-built float64
    copies. So does a maxval-510 P6 whose first two bands store 2 * DN
    (exact, held as uint8) and whose third stores 2 * DN + 1 (DN + 0.5,
    held as float64, except where DN is 255)."""
    f, planes = inputs
    h, w = planes.shape[1:]
    coarse = np.ascontiguousarray(planes[:3, ::f, ::f].transpose(1, 2, 0))
    mixed = coarse.astype(np.uint16) * 2
    mixed[:, :, 2] = np.minimum(mixed[:, :, 2] + 1, 510)

    def copies(ms_planes):
        bands = tuple(hand_built(ms_planes[:, :, c]) for c in range(3))
        return resample_nearest(MultiBandImage(bands), w, h)

    ms, pan = copies(coarse), hand_built(planes[3])
    with tempfile.TemporaryDirectory() as dm, tempfile.TemporaryDirectory() as dp:
        ms_files, pan_files = pnm_files(coarse, dm), pnm_files(planes[3], dp)
        ms_files += (binary_pnm(coarse.astype(np.uint16) * 257, 65535, Path(dm) / "w.ppm"),)
        pan_files += (binary_pnm(planes[3].astype(np.uint16) * 257, 65535, Path(dp) / "w.pgm"),)
        loads = [(load_pnm(m), load_pnm(p), ms) for m, p in zip(ms_files, pan_files)]
        mixed_ms = load_pnm(binary_pnm(mixed, 510, Path(dm) / "m.ppm"))
    assert all(dn8(b) is not None for ms8, pan8, _ in loads for b in (*ms8.bands, pan8))
    fractional = bool(np.any(coarse[:, :, 2] < 255))
    assert [dn8(b) is None for b in mixed_ms.bands] == [False, False, fractional]
    loads.append((mixed_ms, loads[0][1], copies(mixed * 255.0 / 510)))
    for ms8, pan8, want_ms in loads:
        ms8 = resample_nearest(ms8, w, h)
        for name, method in FUSION_METHODS.items():
            for quantize in (True, False):
                want = fused(method, want_ms, pan, quantize)
                assert fused(method, ms8, pan8, quantize) == want, (name, quantize)


def test_no_uint8_raster_derives_float64_samples(tmp_path, monkeypatch):
    """Synthesis, the public DI/SNR/NRMSE, and fusing, saving and scoring
    with every method read 8-bit rasters through their uint8 samples and
    their Laplacians through their int16 samples: no Raster on the grid,
    and no int16 Laplacian of one, ever makes its float64 ``samples``."""
    derived = []
    derive = Raster.samples.fget

    def spy(r):
        if r.array.dtype != np.float64:
            derived.append(r)
        return derive(r)

    monkeypatch.setattr(Raster, "samples", property(spy))
    ms, pan, reference = synthesize(SyntheticSpec(seed=4, width=32, height=32))
    for f, m in zip(reference.bands, ms.bands):
        deviation_index(f, m), snr(f, m), nrmse(f, m)
    for name in FUSION_METHODS:
        product = fuse(name, ms, pan)
        save_pnm(product, tmp_path / f"{name}.ppm")
        evaluate_all(ms, pan, product, "p", name)
    assert laplacian_hp(pan).array.dtype == np.int16
    assert laplacian_hp(product.bands[0]).array.dtype == np.int16
    assert derived == []
