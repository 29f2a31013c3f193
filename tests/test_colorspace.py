"""IHS (linear triangular) and HSV (hexcone) transform round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.colorspace import hsv_forward, hsv_inverse, ihs_forward, ihs_inverse
from panfuse.raster import MultiBandImage, Raster

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def rgb_image(r, g, b):
    return MultiBandImage(
        (
            Raster(np.atleast_2d(np.asarray(r, dtype=np.float64))),
            Raster(np.atleast_2d(np.asarray(g, dtype=np.float64))),
            Raster(np.atleast_2d(np.asarray(b, dtype=np.float64))),
        )
    )


def single_pixel(r, g, b):
    return rgb_image([[r]], [[g]], [[b]])


def seeded_rgb(w, h, seed, integral=True):
    rng = np.random.default_rng(seed)
    bands = []
    for _ in range(3):
        plane = rng.uniform(0.0, 255.0, (h, w))
        if integral:
            plane = np.floor(plane)
        bands.append(Raster(plane))
    return MultiBandImage(tuple(bands))


def max_band_error(a, b):
    return max(
        float(np.max(np.abs(x.samples - y.samples))) for x, y in zip(a.bands, b.bands)
    )


def first_pixels(image):
    return tuple(b.samples[0, 0] for b in image.bands)


class TestIhsForward:
    def test_gray_axis(self):
        assert first_pixels(ihs_forward(single_pixel(90, 90, 90))) == (90.0, 0.0, 0.0)

    def test_pure_red(self):
        got = first_pixels(ihs_forward(single_pixel(255, 0, 0)))
        assert got == pytest.approx((85.0, -255.0 / SQRT6, 255.0 / SQRT2))

    def test_intensity_is_band_mean(self):
        img = seeded_rgb(8, 8, 0)
        mean = (img.bands[0].samples + img.bands[1].samples + img.bands[2].samples) / 3.0
        assert np.array_equal(ihs_forward(img).bands[0].samples, mean)

    def test_requires_three_bands(self):
        one = MultiBandImage((Raster(np.zeros((2, 2))),))
        with pytest.raises(ValueError, match="exactly 3 bands"):
            ihs_forward(one)


class TestIhsInverse:
    def test_gray(self):
        assert first_pixels(ihs_inverse(single_pixel(90.0, 0.0, 0.0))) == (90.0, 90.0, 90.0)

    def test_round_trip(self):
        img = seeded_rgb(16, 16, 1)
        assert max_band_error(ihs_inverse(ihs_forward(img)), img) <= 1e-9

    def test_matrix_product_is_identity(self):
        forward = np.array(
            [
                [1 / 3, 1 / 3, 1 / 3],
                [-1 / SQRT6, -1 / SQRT6, 2 / SQRT6],
                [1 / SQRT2, -1 / SQRT2, 0.0],
            ]
        )
        inverse = np.array(
            [
                [1.0, -1 / SQRT6, 1 / SQRT2],
                [1.0, -1 / SQRT6, -1 / SQRT2],
                [1.0, 2 / SQRT6, 0.0],
            ]
        )
        assert np.allclose(inverse @ forward, np.eye(3), atol=1e-12)

    def test_intensity_shift_moves_all_bands_equally(self):
        img = seeded_rgb(4, 4, 2)
        i, v1, v2 = ihs_forward(img).bands
        out = ihs_inverse(MultiBandImage((Raster(i.samples + 10.0), v1, v2)))
        for a, b in zip(out.bands, img.bands):
            assert np.allclose(a.samples - b.samples, 10.0, atol=1e-9)

    def test_output_not_clamped(self):
        assert ihs_inverse(single_pixel(300.0, 0.0, 0.0)).bands[0].samples[0, 0] == 300.0


class TestIhsPlanes:
    def test_dims_must_agree(self):
        with pytest.raises(ValueError, match="^band 1 is 3x2, expected 2x2$"):
            MultiBandImage(
                (Raster(np.zeros((2, 2))), Raster(np.zeros((2, 3))), Raster(np.zeros((2, 2))))
            )


@pytest.mark.parametrize("inverse", [ihs_inverse, hsv_inverse])
@pytest.mark.parametrize("bands", [2, 4])
def test_inverses_require_three_bands(inverse, bands):
    image = MultiBandImage(tuple(Raster(np.zeros((2, 2))) for _ in range(bands)))
    with pytest.raises(ValueError, match=f"^{inverse.__name__} requires exactly 3 bands, got {bands}$"):
        inverse(image)


class TestHsvForward:
    @pytest.mark.parametrize(
        "rgb,expected",
        [
            ((255, 0, 0), (0.0, 1.0, 255.0)),
            ((0, 255, 0), (120.0, 1.0, 255.0)),
            ((0, 0, 255), (240.0, 1.0, 255.0)),
            ((255, 255, 0), (60.0, 1.0, 255.0)),
            ((0, 255, 255), (180.0, 1.0, 255.0)),
            ((255, 0, 255), (300.0, 1.0, 255.0)),
            ((128, 128, 128), (0.0, 0.0, 128.0)),
            ((0, 0, 0), (0.0, 0.0, 0.0)),
        ],
    )
    def test_known_colors(self, rgb, expected):
        got = first_pixels(hsv_forward(single_pixel(*rgb)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_hue_range(self):
        h, s, _ = (b.samples for b in hsv_forward(seeded_rgb(32, 32, 7)).bands)
        assert np.all((h >= 0.0) & (h < 360.0))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_max_tie_prefers_red_then_green(self):
        # v == r branch wins the (200, 200, 100) tie
        assert first_pixels(hsv_forward(single_pixel(200, 200, 100)))[0] == pytest.approx(60.0)
        # v == g branch for (100, 200, 200)
        assert first_pixels(hsv_forward(single_pixel(100, 200, 200)))[0] == pytest.approx(180.0)


class TestHsvInverse:
    def test_pure_red(self):
        assert first_pixels(hsv_inverse(single_pixel(0.0, 1.0, 255.0))) == (255.0, 0.0, 0.0)

    def test_zero_saturation_gives_gray(self):
        assert first_pixels(hsv_inverse(single_pixel(123.0, 0.0, 77.0))) == (77.0, 77.0, 77.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range saturation"):
            hsv_inverse(single_pixel(0.0, 1.5, 1.0))
        with pytest.raises(ValueError, match="out-of-range value"):
            hsv_inverse(single_pixel(0.0, 0.5, 300.0))
        with pytest.raises(ValueError, match="out-of-range value"):
            hsv_inverse(single_pixel(0.0, 0.5, -1.0))

    def test_round_trip_integral(self):
        img = seeded_rgb(64, 64, 8)
        assert max_band_error(hsv_inverse(hsv_forward(img)), img) <= 1e-6

    def test_round_trip_real_valued(self):
        img = seeded_rgb(64, 64, 9, integral=False)
        assert max_band_error(hsv_inverse(hsv_forward(img)), img) <= 1e-6

    def test_gray_round_trip_exact(self):
        img = rgb_image([[5.0, 200.0]], [[5.0, 200.0]], [[5.0, 200.0]])
        out = hsv_inverse(hsv_forward(img))
        for a, b in zip(out.bands, img.bands):
            assert np.array_equal(a.samples, b.samples)

    @given(
        st.integers(0, 255),
        st.integers(0, 255),
        st.integers(0, 255),
    )
    @settings(deadline=None)
    def test_round_trip_property(self, r, g, b):
        img = single_pixel(r, g, b)
        out = hsv_inverse(hsv_forward(img))
        for got, want in zip(out.bands, img.bands):
            assert abs(got.samples[0, 0] - want.samples[0, 0]) <= 1e-6
