"""Raster containers, PNM I/O, resampling, statistics, quantization."""

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
        .map(Raster.from_rows)
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

    def test_constant_and_from_rows(self):
        c = Raster.constant(3, 2, 7.5)
        assert c.samples.shape == (2, 3)
        assert np.all(c.samples == 7.5)
        r = Raster.from_rows([[1, 2], [3, 4]])
        assert r.samples[1, 0] == 3.0


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
        mean, centred, variance = moments(Raster.constant(4, 4, 9.0).samples)
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
