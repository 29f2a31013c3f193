"""Raster containers, PNM I/O, resampling, statistics, quantization."""

import dataclasses
import re
import gc
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.filtering import laplacian_hp
from panfuse.raster import (
    MultiBandImage,
    PnmError,
    Raster,
    clamp_quantize,
    dn8,
    load_pnm,
    moments,
    resample_nearest,
    save_pnm,
)


def stats_oracle(samples):
    # independent two-pass summation
    values = [float(v) for row in samples for v in row]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def resample_oracle(samples, target_w, target_h):
    h = len(samples)
    w = len(samples[0])
    return [
        [samples[(i * h) // target_h][(j * w) // target_w] for j in range(target_w)]
        for i in range(target_h)
    ]


def small_rasters():
    return (
        st.integers(min_value=1, max_value=6)
        .flatmap(
            lambda h: st.integers(min_value=1, max_value=6).flatmap(
                lambda w: st.lists(
                    st.lists(st.integers(min_value=0, max_value=255), min_size=w, max_size=w),
                    min_size=h,
                    max_size=h,
                )
            )
        )
        .map(lambda rows: Raster(np.array(rows, dtype=np.float64)))
    )


# Separators an ASCII PNM may put between tokens; "#c\n" right after a
# token gives "12#c\n34", a comment with no separator before it.
PNM_SEPARATORS = [b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"#c\n", b" # a 1\n\n", b"#\n"]


@st.composite
def ascii_and_binary_pnm(draw):
    """The same random image as an ASCII PNM with random separators and
    comments, and as a binary PNM (one byte per sample up to maxval 255,
    two big-endian bytes above); returns both encodings and the samples."""
    channels = draw(st.sampled_from([1, 3]))
    width = draw(st.integers(min_value=1, max_value=5))
    height = draw(st.integers(min_value=1, max_value=5))
    maxval = draw(st.integers(min_value=1, max_value=65535))
    count = width * height * channels
    samples = draw(
        st.lists(st.integers(min_value=0, max_value=maxval), min_size=count, max_size=count)
    )
    tokens = [b"P3" if channels == 3 else b"P2", b"%d" % width, b"%d" % height, b"%d" % maxval]
    tokens += [b"%d" % v for v in samples]
    seps = draw(
        st.lists(st.sampled_from(PNM_SEPARATORS), min_size=len(tokens), max_size=len(tokens))
    )
    ascii_pnm = b"".join(t + sep for t, sep in zip(tokens, seps))
    magic = b"P6" if channels == 3 else b"P5"
    dtype = "u1" if maxval <= 255 else ">u2"
    payload = np.array(samples, dtype=dtype).tobytes()
    binary_pnm = magic + b"\n%d %d\n%d\n" % (width, height, maxval) + payload
    return ascii_pnm, binary_pnm, np.array(samples, dtype=np.float64), maxval


class TestRaster:
    def test_wraps_float64_read_only(self):
        r = Raster(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert r.samples.dtype == np.float64
        with pytest.raises(ValueError):
            r.samples[0, 0] = 9.0

    def test_width_height(self):
        r = Raster(np.zeros((2, 5)))
        assert (r.width, r.height) == (5, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Raster(np.zeros(4))
        with pytest.raises(ValueError):
            Raster(np.zeros((2, 2, 3)))

    def test_owned_array_frozen_in_place(self):
        a = np.zeros((2, 3))
        r = Raster(a)
        assert r.samples is a
        assert not a.flags.writeable

    def test_view_of_a_writable_array_is_copied(self):
        base = np.zeros((3, 3))
        r = Raster(base[:])
        memo = laplacian_hp(r)
        base[1, 1] = 1000.0
        assert base.flags.writeable
        assert r.samples[1, 1] == 0.0
        assert np.array_equal(laplacian_hp(Raster(r.samples.copy())).samples, memo.samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="raster samples must all be finite"):
            Raster(np.array([[1.0, bad]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_rejects_empty_shape(self, shape):
        with pytest.raises(ValueError, match=r"raster dimensions must be >= 1, got \("):
            Raster(np.zeros(shape))

    @pytest.mark.parametrize(
        "a",
        [np.array([[0, 7, 255]], dtype=np.uint8), np.array([[-300, 0, 300]], dtype=np.int16)],
        ids=["uint8", "int16"],
    )
    def test_integer_raster_keeps_no_float64_samples(self, a):
        r = Raster(a)
        kept = r.array
        first = r.samples
        assert "samples" not in vars(r)
        second = r.samples
        assert second is not first
        assert np.array_equal(second, first) and second.dtype == np.float64
        assert r.array is kept and kept.dtype == a.dtype
        assert np.array_equal(kept, a)

    def test_repr_and_replace_keep_the_uint8_array(self):
        r = Raster(np.array([[0, 7, 255]], dtype=np.uint8))
        assert repr(r) == "Raster(array=array([[  0,   7, 255]], dtype=uint8))"
        copy = dataclasses.replace(r)
        assert dn8(copy) is r.array

    @pytest.mark.parametrize(
        "bad", [np.array([[1 + 2j, 3]]), [[1 + 2j, 3]]], ids=["array", "list"]
    )
    def test_rejects_complex_samples(self, bad):
        with pytest.raises(ValueError, match="raster samples must be real, got complex128"):
            Raster(bad)

    @pytest.mark.parametrize(
        "bad, dtype",
        [
            (np.array([["1.5", "2"]]), "<U3"),
            (np.array([[b"1", b"2"]]), "|S1"),
            (np.array([["2020-01-01"]], dtype="datetime64[D]"), "datetime64[D]"),
            (np.array([[3]], dtype="timedelta64[s]"), "timedelta64[s]"),
            ([[None, 1.0]], "object"),
        ],
        ids=["str", "bytes", "datetime64", "timedelta64", "object"],
    )
    def test_rejects_samples_that_are_not_numbers(self, bad, dtype):
        # Each of these once converted to float64 (or, for None, was
        # reported as non-finite); the dtype is named instead.
        with pytest.raises(ValueError, match=f"^raster samples must be real, got {re.escape(dtype)}$"):
            Raster(bad)


class TestMultiBandImage:
    def test_dims_must_agree(self):
        a = Raster(np.zeros((2, 2)))
        b = Raster(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MultiBandImage((a, b))

    def test_band_count_and_dims(self):
        img = MultiBandImage(tuple(Raster(np.zeros((4, 5))) for _ in range(3)))
        assert img.band_count == 3
        assert (img.width, img.height) == (5, 4)

    def test_requires_at_least_one_band(self):
        with pytest.raises(ValueError):
            MultiBandImage(())

    def test_rejects_a_band_that_is_not_a_raster(self):
        band = Raster(np.zeros((2, 2)))
        with pytest.raises(TypeError, match="band 1 is not a Raster"):
            MultiBandImage((band, np.zeros((2, 2))))

    def test_rejects_a_first_band_that_is_not_a_raster(self):
        band = Raster(np.zeros((2, 2)))
        with pytest.raises(TypeError, match="band 0 is not a Raster"):
            MultiBandImage((np.zeros((2, 2)), band))


class TestClampQuantize:
    def test_clamps_and_rounds(self):
        r = Raster(np.array([[-3.2, 12.5, 270.0]]))
        assert clamp_quantize(r).samples.tolist() == [[0.0, 13.0, 255.0]]

    def test_rounds_half_up(self):
        r = Raster(np.array([[127.49, 127.5]]))
        assert clamp_quantize(r).samples.tolist() == [[127.0, 128.0]]

    def test_identity_on_integral_in_range(self):
        r = Raster(np.array([[0.0, 1.0, 254.0, 255.0]]))
        assert np.array_equal(clamp_quantize(r).samples, r.samples)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    @settings(deadline=None)
    def test_idempotent(self, values):
        r = Raster(np.array([values]))
        once = clamp_quantize(r)
        twice = clamp_quantize(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_quantized_raster_returned_unchanged(self):
        q = clamp_quantize(Raster(np.array([[-3.2, 12.5, 270.0]])))
        assert clamp_quantize(q) is q

    def test_on_grid_raster_built_by_hand_gets_a_new_equal_raster(self):
        r = Raster(np.array([[0.0, 13.0, 255.0]]))
        q = clamp_quantize(r)
        assert q is not r
        assert np.array_equal(q.samples, r.samples)

    def test_quantized_raster_freed_by_reference_counting(self):
        # The quantized flag must not refer back to the Raster: a cycle
        # would keep every product alive until the cyclic GC ran.
        enabled = gc.isenabled()
        gc.disable()
        try:
            q = clamp_quantize(clamp_quantize(Raster(np.full((4, 4), 7.4))))
            ref = weakref.ref(q)
            del q
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_loaded_raster_freed_by_reference_counting(self, tmp_path):
        # The loaded band's uint8 samples are a view of the file payload,
        # which must not refer back to the Raster either.
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([10, 250]))
        enabled = gc.isenabled()
        gc.disable()
        try:
            r = clamp_quantize(load_pnm(p))
            ref = weakref.ref(r)
            del r
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @given(
        st.lists(st.floats(-500, 800), min_size=2, max_size=16),
    )
    @settings(deadline=None)
    def test_monotone(self, values):
        ordered = sorted(values)
        q = clamp_quantize(Raster(np.array([ordered]))).samples[0]
        assert all(q[i] <= q[i + 1] for i in range(len(q) - 1))


class TestBandStats:
    """Population moments of a band: ``moments`` gives (mean, centred
    samples, variance)."""

    def test_constant(self):
        mean, centred, variance = moments(Raster(np.full((4, 4), 9.0)).samples)
        assert (mean, variance) == (9.0, 0.0)
        assert np.array_equal(centred, np.zeros((4, 4)))

    def test_two_values(self):
        mean, centred, variance = moments(np.array([[0.0, 2.0]]))
        assert (mean, variance) == (1.0, 1.0)
        assert centred.tolist() == [[-1.0, 1.0]]

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(0, 255, (8, 8))
        got_mean, centred, variance = moments(Raster(samples).samples)
        mean, std = stats_oracle(samples.tolist())
        assert got_mean == pytest.approx(mean, rel=1e-12)
        assert math.sqrt(variance) == pytest.approx(std, rel=1e-12)
        np.testing.assert_allclose(centred, samples - mean, rtol=0, atol=1e-12)

    @given(small_rasters(), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_permutation_invariant(self, r, rand):
        flat = list(r.samples.ravel())
        rand.shuffle(flat)
        shuffled = Raster(np.array(flat).reshape(r.samples.shape))
        (a_mean, _, a_var), (b_mean, _, b_var) = moments(r.samples), moments(shuffled.samples)
        assert a_mean == pytest.approx(b_mean, abs=1e-9)
        assert math.sqrt(a_var) == pytest.approx(math.sqrt(b_var), abs=1e-9)


class TestResampleNearest:
    def test_one_pixel_fill(self):
        r = Raster(np.array([[7.0]]))
        out = resample_nearest(r, 3, 3)
        assert np.all(out.samples == 7.0)

    def test_integer_factor_blocks(self):
        r = Raster(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = resample_nearest(r, 4, 4)
        expected = [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]
        assert out.samples.tolist() == [[float(v) for v in row] for row in expected]

    def test_non_integer_target_matches_floor_oracle(self):
        r = Raster(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = resample_nearest(r, 3, 3)
        assert out.samples.tolist() == resample_oracle(r.samples.tolist(), 3, 3)

    def test_multiband(self):
        img = MultiBandImage(
            tuple(Raster(np.full((2, 2), float(k))) for k in range(3))
        )
        out = resample_nearest(img, 6, 4)
        assert (out.width, out.height, out.band_count) == (6, 4, 3)
        assert np.all(out.bands[2].samples == 2.0)

    def test_rejects_zero_and_shrinking_targets(self):
        r = Raster(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="zero target"):
            resample_nearest(r, 0, 4)
        with pytest.raises(ValueError, match="smaller than source"):
            resample_nearest(r, 1, 4)

    @given(
        small_rasters(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(deadline=None)
    def test_no_new_values_and_oracle_agreement(self, r, fw, fh):
        tw, th = r.width * fw, r.height * fh
        out = resample_nearest(r, tw, th)
        assert set(out.samples.ravel()) <= set(r.samples.ravel())
        assert out.samples.tolist() == resample_oracle(r.samples.tolist(), tw, th)


@st.composite
def resample_cases(draw):
    """A 1-7 x 1-7 Raster or 3-band image and a target up to 3x per axis,
    each axis drawn on its own, so ratios are non-integer and unequal."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    th, tw = draw(st.integers(h, 3 * h)), draw(st.integers(w, 3 * w))
    values = st.lists(st.floats(-1e6, 1e6), min_size=h * w, max_size=h * w)
    planes = [
        Raster(np.array(draw(values)).reshape(h, w))
        for _ in range(draw(st.sampled_from((1, 3))))
    ]
    image = planes[0] if len(planes) == 1 else MultiBandImage(tuple(planes))
    return image, tw, th


class TestResampleProperties:
    @given(resample_cases())
    @settings(deadline=None)
    def test_matches_oracle_and_owns_frozen_samples(self, case):
        image, tw, th = case
        out = resample_nearest(image, tw, th)
        assert type(out) is type(image)
        pairs = [(image, out)] if isinstance(image, Raster) else zip(image.bands, out.bands)
        for src, band in pairs:
            assert band.samples.tolist() == resample_oracle(src.samples.tolist(), tw, th)
            assert band.samples.base is None
            assert band.samples.flags.c_contiguous
            assert not band.samples.flags.writeable


class TestLoadPnm:
    def test_ascii_pgm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 255\n128 64\n")
        r = load_pnm(p)
        assert isinstance(r, Raster)
        assert r.samples.tolist() == [[0.0, 255.0], [128.0, 64.0]]

    def test_maxval_rescaling(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n1 1\n510\n510\n")
        assert load_pnm(p).samples.tolist() == [[255.0]]

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2 # magic\n# full line\n2 1 # dims\n255\n7 8\n")
        assert load_pnm(p).samples.tolist() == [[7.0, 8.0]]

    def test_ascii_ppm(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P3\n1 2\n255\n1 2 3\n4 5 6\n")
        img = load_pnm(p)
        assert isinstance(img, MultiBandImage)
        assert img.bands[0].samples.tolist() == [[1.0], [4.0]]
        assert img.bands[2].samples.tolist() == [[3.0], [6.0]]

    def test_binary_pgm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([10, 250]))
        assert load_pnm(p).samples.tolist() == [[10.0, 250.0]]

    def test_two_byte_big_endian(self, tmp_path):
        p = tmp_path / "a.pgm"
        # 65535 -> 255.0, 256 -> 256*255/65535
        p.write_bytes(b"P5\n2 1\n65535\n" + bytes([0xFF, 0xFF, 0x01, 0x00]))
        r = load_pnm(p)
        assert r.samples[0, 0] == 255.0
        assert r.samples[0, 1] == pytest.approx(256 * 255 / 65535)

    def test_unsupported_magic_with_offset(self, tmp_path):
        p = tmp_path / "a.pnm"
        p.write_bytes(b"  P7\n1 1\n255\n0")
        with pytest.raises(PnmError, match="unsupported magic") as info:
            load_pnm(p)
        assert info.value.offset == 2
        assert "byte offset 2" in str(info.value)

    def test_truncated_binary_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
        p.write_bytes(data)
        with pytest.raises(PnmError, match="truncated payload") as info:
            load_pnm(p)
        assert info.value.offset == len(data)

    def test_truncated_ascii_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n1 2 3\n")
        with pytest.raises(PnmError, match="truncated payload"):
            load_pnm(p)

    def test_junk_header_token(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\nxx 2\n255\n0 0\n")
        with pytest.raises(PnmError, match="malformed header: bad width"):
            load_pnm(p)

    def test_junk_ascii_sample(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 1\n255\n12 9q\n")
        with pytest.raises(PnmError, match="malformed payload: bad sample"):
            load_pnm(p)

    def test_binary_sample_above_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        head = b"P5\n3 1\n100\n"
        p.write_bytes(head + bytes([7, 200, 100]))
        with pytest.raises(PnmError, match="sample 200 exceeds maxval 100") as info:
            load_pnm(p)
        assert info.value.offset == len(head) + 1

    def test_two_byte_sample_above_maxval(self, tmp_path):
        p = tmp_path / "a.ppm"
        head = b"P6\n1 1\n1000\n"
        p.write_bytes(head + bytes([0x03, 0xE8, 0x03, 0xE9, 0x00, 0x00]))
        with pytest.raises(PnmError, match="sample 1001 exceeds maxval 1000") as info:
            load_pnm(p)
        assert info.value.offset == len(head) + 2

    @pytest.mark.parametrize(
        "samples, message, offset",
        [
            (b"100 101", "sample 101 exceeds maxval 100", 15),
            # A zero-padded 7 is within maxval however long it is.
            (b"0" * 4999 + b"7 101", "sample 101 exceeds maxval 100", 5012),
            (b"3 " + b"9" * 5000, r"bad sample \(5000 digits, too long\)", 13),
        ],
        ids=["short", "zero-padded", "5000-digit"],
    )
    def test_ascii_sample_above_maxval(self, tmp_path, samples, message, offset):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 1\n100\n" + samples + b"\n")
        with pytest.raises(PnmError, match=message) as info:
            load_pnm(p)
        assert info.value.offset == offset

    @pytest.mark.parametrize("token", [b"-5", b"+7", b"1_0"])
    def test_ascii_sample_must_be_plain_digits(self, tmp_path, token):
        p = tmp_path / "a.pgm"
        head = b"P2\n2 1\n255\n3 "
        p.write_bytes(head + token + b"\n")
        with pytest.raises(PnmError, match="malformed payload: bad sample") as info:
            load_pnm(p)
        assert info.value.offset == len(head)

    @pytest.mark.parametrize(
        "data, what, offset",
        [
            (b"P2\n+2 1\n255\n0 0\n", "width", 3),
            (b"P2\n2 -1\n255\n0 0\n", "height", 5),
            (b"P5 1 1 2_55\n\x00", "maxval", 7),
            pytest.param(
                b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n", "width", 3, id="5000-digit-width"
            ),
        ],
    )
    def test_header_integers_must_be_plain_digits(self, tmp_path, data, what, offset):
        p = tmp_path / "a.pgm"
        p.write_bytes(data)
        with pytest.raises(PnmError, match=f"malformed header: bad {what}") as info:
            load_pnm(p)
        assert info.value.offset == offset

    def test_maxval_out_of_range(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n1 1\n0\n0\n")
        with pytest.raises(PnmError, match="maxval 0 out of range") as info:
            load_pnm(p)
        assert info.value.offset == 7
        p.write_bytes(b"P2\n1 1\n70000\n0\n")
        with pytest.raises(PnmError, match="maxval 70000 out of range") as info:
            load_pnm(p)
        assert info.value.offset == 7
        p.write_bytes(b"P5\r\n1\r\n1\r\n70000\n\x00\x00")
        with pytest.raises(PnmError, match="maxval 70000 out of range") as info:
            load_pnm(p)
        assert info.value.offset == 10

    def test_bad_dimensions_point_at_the_width(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\r\n0\r\n1\r\n1000\n")
        with pytest.raises(PnmError, match="bad dimensions 0x1") as info:
            load_pnm(p)
        assert info.value.offset == 4

    def test_ascii_header_claiming_too_many_samples(self, tmp_path):
        # 10**10 claimed samples: nothing may be allocated for them.
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n100000 100000\n255\n1 2 3\n")
        with pytest.raises(
            PnmError, match="truncated payload: expected 10000000000 samples, got 3"
        ) as info:
            load_pnm(p)
        assert info.value.offset == p.stat().st_size

    @given(ascii_and_binary_pnm())
    @settings(deadline=None)
    def test_ascii_and_binary_encodings_load_equal(self, tmp_path_factory, case):
        ascii_pnm, binary_pnm, samples, maxval = case
        d = tmp_path_factory.mktemp("pnm")
        (d / "a.pnm").write_bytes(ascii_pnm)
        (d / "b.pnm").write_bytes(binary_pnm)
        a, b = load_pnm(d / "a.pnm"), load_pnm(d / "b.pnm")
        a_bands, b_bands = getattr(a, "bands", (a,)), getattr(b, "bands", (b,))
        assert len(a_bands) == len(b_bands)
        expected = samples * 255.0 / maxval
        for k, (x, y) in enumerate(zip(a_bands, b_bands)):
            assert np.array_equal(x.samples, y.samples)
            assert np.array_equal(x.samples.ravel(), expected[k :: len(a_bands)])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"")
        with pytest.raises(PnmError, match="empty file"):
            load_pnm(p)

    @pytest.mark.parametrize("data", [b"P5", b"P5\n4 4", b"P2 4 4\n# no maxval\n"])
    def test_header_cut_short(self, tmp_path, data):
        p = tmp_path / "a.pgm"
        p.write_bytes(data)
        with pytest.raises(PnmError, match="unexpected end of file") as info:
            load_pnm(p)
        assert info.value.offset == len(data)
        assert f"(byte offset {len(data)})" in str(info.value)

    @pytest.mark.parametrize(
        "data, offset", [(b"P5\n1 1\n255", 10), (b"P6 1 1 255#c\n\x00\x00\x00", 10)]
    )
    def test_missing_whitespace_before_payload(self, tmp_path, data, offset):
        p = tmp_path / "a.pnm"
        p.write_bytes(data)
        with pytest.raises(PnmError, match="missing whitespace before payload") as info:
            load_pnm(p)
        assert info.value.offset == offset
        assert f"(byte offset {offset})" in str(info.value)


EIGHT_BIT_FILES = {
    "P2": b"P2\n3 2\n255\n0 7 255\n128 64 1\n",
    "P3": b"P3\n2 1\n255\n0 7 255 128 64 1\n",
    "P5": b"P5\n3 2\n255\n" + bytes([0, 7, 255, 128, 64, 1]),
    "P6": b"P6\n2 1\n255\n" + bytes([0, 7, 255, 128, 64, 1]),
}


def bands_of(image):
    return [image] if isinstance(image, Raster) else list(image.bands)


class TestDn8:
    """Which Rasters carry their samples on the 8-bit grid as uint8."""

    @staticmethod
    def assert_on_grid(r):
        dn = dn8(r)
        assert dn.dtype == np.uint8
        assert not dn.flags.writeable
        with pytest.raises(ValueError):
            dn[0, 0] = 1
        assert np.array_equal(dn, r.samples)

    def test_clamp_quantize_result(self):
        self.assert_on_grid(clamp_quantize(Raster(np.array([[-3.2, 12.5, 270.0]]))))

    @pytest.mark.parametrize("magic", sorted(EIGHT_BIT_FILES))
    def test_maxval_255_loads(self, tmp_path, magic):
        p = tmp_path / "a.pnm"
        p.write_bytes(EIGHT_BIT_FILES[magic])
        loaded = load_pnm(p)
        for band in bands_of(loaded):
            self.assert_on_grid(band)
            assert clamp_quantize(band) is band

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 1\n65535\n" + bytes([0xFF, 0xFF, 0x01, 0x01]),
            b"P2\n2 1\n65535\n65535 257\n",
            b"P5\n2 1\n15\n" + bytes([15, 3]),
            b"P3\n1 1\n100\n100 0 50\n",
            b"P2\n2 1\n1\n1 0\n",
        ],
    )
    def test_absent_after_other_maxval_loads(self, tmp_path, data):
        """Other maxvals rescale by value * 255 / maxval, decided per band:
        a band whose rescaled DN are all integers (DN * 257 at maxval
        65535, any value at a maxval that divides 255) is on the grid;
        only one with a fractional DN (maxval 100's 50 -> 127.5) is not."""
        p = tmp_path / "a.pnm"
        p.write_bytes(data)
        bands = bands_of(load_pnm(p))
        fractional = [bool(np.any(b.samples % 1.0)) for b in bands]
        assert fractional == ([False, False, True] if data.startswith(b"P3") else [False])
        for band, off_grid in zip(bands, fractional):
            if off_grid:
                assert dn8(band) is None
            else:
                self.assert_on_grid(band)

    @given(
        st.integers(1, 65535),
        st.lists(st.integers(0, 65535), min_size=1, max_size=8),
        st.sampled_from([b"P2", b"P5"]),
    )
    @settings(deadline=None)
    def test_loaded_band_is_on_the_grid_iff_its_dn_are_integers(self, maxval, raw, magic):
        values = [v % (maxval + 1) for v in raw]
        header = magic + f"\n{len(values)} 1\n{maxval}\n".encode()
        if magic == b"P2":
            data = header + " ".join(map(str, values)).encode()
        else:
            data = header + np.array(values, ">u2" if maxval > 255 else "u1").tobytes()
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "a.pgm").write_bytes(data)
            band = load_pnm(Path(d) / "a.pgm")
        want = np.array([values], dtype=np.float64) * 255.0 / maxval
        assert band.samples.tobytes() == want.tobytes()
        assert (dn8(band) is not None) == all(v * 255 % maxval == 0 for v in values)

    def test_absent_on_float_rasters_and_kept_by_resampling(self, tmp_path):
        hand_built = Raster(np.array([[0.0, 13.0, 255.0]]))
        assert dn8(hand_built) is None
        assert dn8(resample_nearest(hand_built, 6, 2)) is None
        self.assert_on_grid(Raster(np.array([[0, 13, 255]], dtype=np.uint8)))
        p = tmp_path / "a.pgm"
        p.write_bytes(EIGHT_BIT_FILES["P5"])
        for r in (load_pnm(p), clamp_quantize(Raster(np.array([[1.0, 2.0]])))):
            assert dn8(r) is not None
            self.assert_on_grid(resample_nearest(r, 2 * r.width, 2 * r.height))

    @pytest.mark.parametrize("magic", ["P5", "P6"])
    def test_binary_files_round_trip_byte_identically(self, tmp_path, magic):
        src, out = tmp_path / "a.pnm", tmp_path / "b.pnm"
        src.write_bytes(EIGHT_BIT_FILES[magic])
        save_pnm(load_pnm(src), out)
        assert out.read_bytes() == src.read_bytes()


class TestSavePnm:
    def test_round_trip_single_band(self, tmp_path):
        p = tmp_path / "r.pgm"
        r = Raster(np.array([[0.0, 255.0], [128.0, 64.0]]))
        save_pnm(r, p)
        again = load_pnm(p)
        assert np.array_equal(again.samples, r.samples)
        assert p.read_bytes().startswith(b"P5\n2 2\n255\n")

    def test_round_trip_three_bands(self, tmp_path):
        p = tmp_path / "r.ppm"
        rng = np.random.default_rng(3)
        img = MultiBandImage(
            tuple(Raster(np.floor(rng.uniform(0, 256, (3, 3)))) for _ in range(3))
        )
        save_pnm(img, p)
        again = load_pnm(p)
        for a, b in zip(again.bands, img.bands):
            assert np.array_equal(a.samples, b.samples)

    def test_save_quantizes_like_clamp_quantize(self, tmp_path):
        p = tmp_path / "r.pgm"
        r = Raster(np.array([[-5.0, 12.5, 300.0]]))
        save_pnm(r, p)
        assert np.array_equal(load_pnm(p).samples, clamp_quantize(r).samples)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16))
    @settings(deadline=None)
    def test_round_trip_is_clamp_quantize_once_or_twice(self, values):
        r = Raster(np.array([values]))
        want = clamp_quantize(r).samples
        with tempfile.TemporaryDirectory() as d:
            for x in (r, clamp_quantize(r)):
                path = Path(d) / "r.pgm"
                save_pnm(x, path)
                assert np.array_equal(load_pnm(path).samples, want)

    def test_rejects_other_band_counts(self, tmp_path):
        two = MultiBandImage(tuple(Raster(np.zeros((2, 2))) for _ in range(2)))
        with pytest.raises(ValueError, match="unsupported band count"):
            save_pnm(two, tmp_path / "x.ppm")

    def test_integral_round_trip_many_shapes(self, tmp_path):
        rng = np.random.default_rng(17)
        for w, h in ((1, 1), (1, 7), (7, 1), (5, 3), (16, 16)):
            r = Raster(np.floor(rng.uniform(0, 256, (h, w))))
            path = tmp_path / f"{w}x{h}.pgm"
            save_pnm(r, path)
            assert np.array_equal(load_pnm(path).samples, r.samples)
