"""IHS (linear triangular) and HSV (hexcone) transform round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.colorspace import (
    HsvPlanes,
    IhsPlanes,
    hsv_forward,
    hsv_inverse,
    ihs_forward,
    ihs_inverse,
)
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


class TestIhsForward:
    def test_gray_axis(self):
        planes = ihs_forward(single_pixel(90, 90, 90))
        assert planes.i.samples[0, 0] == 90.0
        assert planes.v1.samples[0, 0] == 0.0
        assert planes.v2.samples[0, 0] == 0.0

    def test_pure_red(self):
        planes = ihs_forward(single_pixel(255, 0, 0))
        assert planes.i.samples[0, 0] == pytest.approx(85.0)
        assert planes.v1.samples[0, 0] == pytest.approx(-255.0 / SQRT6)
        assert planes.v2.samples[0, 0] == pytest.approx(255.0 / SQRT2)

    def test_intensity_is_band_mean(self):
        img = seeded_rgb(8, 8, 0)
        planes = ihs_forward(img)
        mean = (img.bands[0].samples + img.bands[1].samples + img.bands[2].samples) / 3.0
        assert np.array_equal(planes.i.samples, mean)

    def test_requires_three_bands(self):
        one = MultiBandImage((Raster(np.zeros((2, 2))),))
        with pytest.raises(ValueError, match="exactly 3 bands"):
            ihs_forward(one)


class TestIhsInverse:
    def test_gray(self):
        planes = IhsPlanes(
            i=Raster(np.array([[90.0]])),
            v1=Raster(np.array([[0.0]])),
            v2=Raster(np.array([[0.0]])),
        )
        out = ihs_inverse(planes)
        for band in out.bands:
            assert band.samples[0, 0] == 90.0

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
        planes = ihs_forward(img)
        shifted = planes.with_intensity(Raster(planes.i.samples + 10.0))
        out = ihs_inverse(shifted)
        for a, b in zip(out.bands, img.bands):
            assert np.allclose(a.samples - b.samples, 10.0, atol=1e-9)

    def test_output_not_clamped(self):
        planes = IhsPlanes(
            i=Raster(np.array([[300.0]])),
            v1=Raster(np.array([[0.0]])),
            v2=Raster(np.array([[0.0]])),
        )
        assert ihs_inverse(planes).bands[0].samples[0, 0] == 300.0


class TestIhsPlanes:
    def test_dims_must_agree(self):
        with pytest.raises(ValueError, match="disagree"):
            IhsPlanes(
                i=Raster(np.zeros((2, 2))),
                v1=Raster(np.zeros((2, 3))),
                v2=Raster(np.zeros((2, 2))),
            )

    def test_substitution_shares_chromatic_planes(self):
        planes = ihs_forward(seeded_rgb(4, 4, 5))
        swapped = planes.with_intensity(Raster(np.full((4, 4), 10.0)))
        assert swapped.v1 is planes.v1
        assert swapped.v2 is planes.v2

    def test_hue_saturation_views(self):
        planes = ihs_forward(single_pixel(255, 0, 0))
        v1 = -255.0 / SQRT6
        v2 = 255.0 / SQRT2
        assert planes.hue().samples[0, 0] == pytest.approx(math.atan2(v2, v1))
        assert planes.saturation().samples[0, 0] == pytest.approx(math.hypot(v1, v2))

    def test_gray_hue_fixed_at_zero(self):
        planes = ihs_forward(single_pixel(30, 30, 30))
        assert planes.hue().samples[0, 0] == 0.0
        assert planes.saturation().samples[0, 0] == 0.0


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
        planes = hsv_forward(single_pixel(*rgb))
        got = (
            planes.h.samples[0, 0],
            planes.s.samples[0, 0],
            planes.v.samples[0, 0],
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_hue_range(self):
        planes = hsv_forward(seeded_rgb(32, 32, 7))
        h = planes.h.samples
        assert np.all((h >= 0.0) & (h < 360.0))
        assert np.all((planes.s.samples >= 0.0) & (planes.s.samples <= 1.0))

    def test_max_tie_prefers_red_then_green(self):
        # v == r branch wins the (200, 200, 100) tie
        planes = hsv_forward(single_pixel(200, 200, 100))
        assert planes.h.samples[0, 0] == pytest.approx(60.0)
        # v == g branch for (100, 200, 200)
        planes = hsv_forward(single_pixel(100, 200, 200))
        assert planes.h.samples[0, 0] == pytest.approx(180.0)


class TestHsvInverse:
    def test_pure_red(self):
        planes = HsvPlanes(
            h=Raster(np.array([[0.0]])),
            s=Raster(np.array([[1.0]])),
            v=Raster(np.array([[255.0]])),
        )
        out = hsv_inverse(planes)
        assert [b.samples[0, 0] for b in out.bands] == [255.0, 0.0, 0.0]

    def test_zero_saturation_gives_gray(self):
        planes = HsvPlanes(
            h=Raster(np.array([[123.0]])),
            s=Raster(np.array([[0.0]])),
            v=Raster(np.array([[77.0]])),
        )
        out = hsv_inverse(planes)
        assert all(b.samples[0, 0] == 77.0 for b in out.bands)

    def test_out_of_range_rejected(self):
        h = Raster(np.array([[0.0]]))
        with pytest.raises(ValueError, match="out-of-range saturation"):
            hsv_inverse(HsvPlanes(h=h, s=Raster(np.array([[1.5]])), v=Raster(np.array([[1.0]]))))
        with pytest.raises(ValueError, match="out-of-range value"):
            hsv_inverse(HsvPlanes(h=h, s=Raster(np.array([[0.5]])), v=Raster(np.array([[300.0]]))))
        with pytest.raises(ValueError, match="out-of-range value"):
            hsv_inverse(HsvPlanes(h=h, s=Raster(np.array([[0.5]])), v=Raster(np.array([[-1.0]]))))

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
