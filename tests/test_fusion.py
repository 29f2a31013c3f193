"""Fusion methods: identities, guards, and straight-line pipeline oracles.

The oracles here re-derive each method from its formula with plain Python
loops (and colorsys for the hexcone transform), sharing no code with the
library implementations. The closed-form IHS and HSV are also checked
against ``colorspace``'s transform round trips, their specification.
"""

import colorsys
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panfuse.colorspace import HsvPlanes, hsv_forward, hsv_inverse, ihs_forward, ihs_inverse
from panfuse.fusion import (
    FUSION_METHODS,
    METHOD_NAMES,
    _moments,
    fuse,
    fuse_ef,
    fuse_hfa,
    fuse_hfm,
    fuse_hsv,
    fuse_ihs,
    fuse_rvs,
    fuse_sf,
    match_mean_std,
    normalize_method,
)
from panfuse.raster import (
    MultiBandImage,
    Raster,
    clamp_quantize,
    load_pnm,
    resample_nearest,
    save_pnm,
)
from panfuse.synthetic import SyntheticSpec, synthesize

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def box_oracle(a):
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    acc += a[min(max(i + du, 0), h - 1), min(max(j + dv, 0), w - 1)]
            out[i, j] = acc / 9.0
    return out


def laplacian_oracle(a):
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 8.0 * a[i, j]
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    if du == 0 and dv == 0:
                        continue
                    acc -= a[min(max(i + du, 0), h - 1), min(max(j + dv, 0), w - 1)]
            out[i, j] = acc
    return out


def mean_std_oracle(a):
    flat = [float(v) for v in a.ravel()]
    mean = sum(flat) / len(flat)
    var = sum((v - mean) ** 2 for v in flat) / len(flat)
    return mean, math.sqrt(var)


def match_oracle(src, ref_mean, ref_std):
    mean, std = mean_std_oracle(src)
    if std < 1e-9:
        return np.full_like(src, ref_mean)
    return ref_mean + (src - mean) * ref_std / std


def sf_oracle(ms, pan):
    r, g, b = (band.samples for band in ms.bands)
    i = (r + g + b) / 3.0
    v1 = (-r - g + 2.0 * b) / SQRT6
    v2 = (r - g) / SQRT2
    i_star = box_oracle(i) + (pan.samples - box_oracle(pan.samples))
    i_mean, i_std = mean_std_oracle(i)
    i_new = match_oracle(i_star, i_mean, i_std)
    return (
        i_new - v1 / SQRT6 + v2 / SQRT2,
        i_new - v1 / SQRT6 - v2 / SQRT2,
        i_new + 2.0 * v1 / SQRT6,
    )


def ihs_oracle(ms, pan):
    r, g, b = (band.samples for band in ms.bands)
    i = (r + g + b) / 3.0
    v1 = (-r - g + 2.0 * b) / SQRT6
    v2 = (r - g) / SQRT2
    i_mean, i_std = mean_std_oracle(i)
    matched = match_oracle(pan.samples, i_mean, i_std)
    return (
        matched - v1 / SQRT6 + v2 / SQRT2,
        matched - v1 / SQRT6 - v2 / SQRT2,
        matched + 2.0 * v1 / SQRT6,
    )


def hsv_oracle(ms, pan):
    h_img, w_img = ms.height, ms.width
    r, g, b = (band.samples for band in ms.bands)
    hh = np.zeros((h_img, w_img))
    ss = np.zeros((h_img, w_img))
    vv = np.zeros((h_img, w_img))
    for i in range(h_img):
        for j in range(w_img):
            h01, s, v01 = colorsys.rgb_to_hsv(
                r[i, j] / 255.0, g[i, j] / 255.0, b[i, j] / 255.0
            )
            hh[i, j], ss[i, j], vv[i, j] = h01, s, v01 * 255.0
    v_mean, v_std = mean_std_oracle(vv)
    matched = np.clip(match_oracle(pan.samples, v_mean, v_std), 0.0, 255.0)
    out = [np.zeros((h_img, w_img)) for _ in range(3)]
    for i in range(h_img):
        for j in range(w_img):
            rr, gg, bb = colorsys.hsv_to_rgb(hh[i, j], ss[i, j], matched[i, j] / 255.0)
            out[0][i, j] = rr * 255.0
            out[1][i, j] = gg * 255.0
            out[2][i, j] = bb * 255.0
    return tuple(out)


def normal_equations_oracle(p, m):
    ps = p.ravel()
    ms_ = m.ravel()
    n = float(ps.size)
    lhs = np.array([[n, ps.sum()], [ps.sum(), (ps * ps).sum()]])
    rhs = np.array([ms_.sum(), (ps * ms_).sum()])
    intercept, slope = np.linalg.solve(lhs, rhs)
    return float(slope), float(intercept)


def synthetic_pair(seed, size=16, scale=4):
    ms, pan, _ = synthesize(SyntheticSpec(seed=seed, width=size, height=size, scale_factor=scale))
    return ms, pan


def bands_equal(img: MultiBandImage, other: MultiBandImage) -> bool:
    return all(
        np.array_equal(a.samples, b.samples) for a, b in zip(img.bands, other.bands)
    )


def constant_ms(w, h, values=(40.0, 90.0, 200.0)):
    return MultiBandImage(tuple(Raster(np.full((h, w), v)) for v in values))


class TestMatchMeanStd:
    def test_identity_when_stats_already_match(self):
        src = np.array([[0.0, 2.0]])
        out = match_mean_std(src, np.array([[2.0, 0.0]]))  # mean 1, std 1
        assert np.allclose(out, src, atol=1e-12)

    def test_hand_computed(self):
        out = match_mean_std(np.array([[0.0, 2.0]]), np.array([[12.0, 8.0]]))  # mean 10, std 2
        assert np.allclose(out, [[8.0, 12.0]], atol=1e-12)

    def test_degenerate_source_maps_to_constant(self):
        out = match_mean_std(np.full((3, 3), 42.0), np.array([[45.0, 55.0]]))  # mean 50
        assert out.shape == (3, 3)
        assert np.all(out == 50.0)

    def test_result_stats(self):
        rng = np.random.default_rng(2)
        src = rng.uniform(0, 255, (12, 12))
        out = match_mean_std(src, np.array([[70.0, 130.0]]))  # mean 100, std 30
        assert out.shape == src.shape
        mean, std = mean_std_oracle(out)
        assert mean == pytest.approx(100.0, abs=1e-9)
        assert std == pytest.approx(30.0, abs=1e-9)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
               elements=st.floats(-300.0, 300.0)),
        arrays(np.float64, (2, 3), elements=st.floats(0.0, 255.0)),
    )
    @example(np.full((2, 2), 42.0), np.array([[45.0, 55.0, 50.0]] * 2))  # degenerate std
    @example(np.array([[0.0, 1e-10]]), np.array([[0.0, 2.0, 4.0]] * 2))  # std 5e-11
    @settings(deadline=None)
    def test_bits_of_the_formula_written_out(self, src, ref):
        """The map is scaled and shifted in place in a centred copy of
        ``src``; it must keep the bits of the formula, return an array
        of its own and leave both inputs unchanged."""
        src_before, ref_before = src.copy(), ref.copy()
        ref_mean = float(np.mean(ref))
        ref_std = math.sqrt(float(np.mean((ref - ref_mean) ** 2)))
        centred = src - float(np.mean(src))
        src_std = math.sqrt(float(np.mean(centred ** 2)))
        if src_std < 1e-9:
            expected = np.full(src.shape, ref_mean)
        else:
            expected = ref_mean + centred * (ref_std / src_std)
        out = match_mean_std(src, ref)
        assert out.tobytes() == expected.tobytes()
        assert out.flags.owndata
        assert src.tobytes() == src_before.tobytes()
        assert ref.tobytes() == ref_before.tobytes()


def rounded_once(a, divisor=1):
    """The mean and variance of the integers ``a / divisor`` as exact
    fractions, each rounded once to a float."""
    xs = [int(x) for x in a.flat]
    n = len(xs)
    mean = Fraction(sum(xs), n * divisor)
    return float(mean), float(Fraction(sum(x * x for x in xs), n * divisor ** 2) - mean ** 2)


def exact_rvs_fit(p, m):
    """``fuse_rvs``'s prediction of the uint8 band ``m`` from the uint8 PAN
    ``p``, with the slope the exact fraction of integer sums rounded once
    and the intercept the float mean(m) - slope * mean(p)."""
    ps, ms = [int(x) for x in p.flat], [int(x) for x in m.flat]
    n, sp, sm = len(ps), sum(ps), sum(ms)
    den = n * sum(x * x for x in ps) - sp * sp
    slope = float(Fraction(n * sum(x * y for x, y in zip(ps, ms)) - sp * sm, den)) if den else 0.0
    return (sm / n - slope * (sp / n)) + slope * p.astype(np.float64)


dn_shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))


class TestExactMoments:
    """On integers ``fusion._moments`` and the on-grid RVS slope are exact
    fractions rounded once. The examples are planes where the float path
    (a centred float64 plane, or an intensity plane S / 3) misses the last
    bit of the variance, or of the mean too."""

    @given(dn_shapes.flatmap(lambda s: arrays(np.uint8, s, elements=st.integers(0, 255))))
    @example(np.zeros((1, 1), np.uint8))
    @example(np.full((1, 1), 255, np.uint8))
    @example(np.full((3, 7), 131, np.uint8))
    @example(np.array([[0, 255, 0], [255, 0, 255]], np.uint8))
    @example(np.array([[56, 18, 149]], np.uint8))
    @settings(deadline=None)
    def test_uint8_plane(self, a):
        assert _moments(a) == rounded_once(a)

    @given(dn_shapes.flatmap(lambda s: arrays(np.uint8, (3, *s), elements=st.integers(0, 255))))
    @example(np.full((3, 1, 1), 255, np.uint8))
    @example(np.array([[[249, 11, 36]], [[152, 66, 148]], [[33, 129, 158]]], np.uint8))
    @settings(deadline=None)
    def test_int16_band_sum_with_divisor_3(self, bands):
        total = bands.sum(axis=0, dtype=np.int16)
        assert _moments(total, 3) == rounded_once(total, 3)

    def test_sums_past_float64_precision(self):
        """At 1024x1024, n * sum(a**2) and sum(a)**2 exceed 2**53: float64
        sums would round them, the int sums do not."""
        a = np.random.default_rng(0).integers(0, 256, (1024, 1024), dtype=np.uint8)
        assert _moments(a) == rounded_once(a)

    @given(dn_shapes.flatmap(lambda s: arrays(np.uint8, (2, *s), elements=st.integers(0, 255))))
    @example(np.array([[[1, 0, 1, 1, 1]], [[3, 1, 1, 1, 1]]], np.uint8))
    @example(np.full((2, 2, 3), 7, np.uint8))
    @settings(deadline=None)
    def test_rvs_slope(self, planes):
        p, m = planes
        got = rvs_band(Raster(p), Raster(m))
        assert got.tobytes() == exact_rvs_fit(p, m).tobytes()


def rvs_band(pan, band):
    """``fuse_rvs``'s real-valued prediction of one band from PAN."""
    return fuse_rvs(MultiBandImage((band,)), pan, quantize=False).bands[0].samples


class TestFitBandRegression:
    """The least-squares fit inside ``fuse_rvs``, seen through the band
    values it predicts."""

    def test_exact_linear_relation(self):
        rng = np.random.default_rng(4)
        p = Raster(rng.uniform(0, 100, (8, 8)))
        m = Raster(2.0 * p.samples + 5.0)
        assert np.allclose(rvs_band(p, m), 5.0 + 2.0 * p.samples, rtol=0, atol=1e-9)

    def test_constant_pan_degenerates(self):
        p = Raster(np.full((4, 4), 9.0))
        m = Raster(np.arange(16, dtype=np.float64).reshape(4, 4))
        assert np.all(rvs_band(p, m) == 7.5)  # slope 0, intercept the band mean

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        p = Raster(rng.uniform(0, 255, (32, 32)))
        m = Raster(1.5 * p.samples + 20.0 + rng.normal(0, 4, (32, 32)))
        slope, intercept = normal_equations_oracle(p.samples, m.samples)
        np.testing.assert_allclose(
            rvs_band(p, m), intercept + slope * p.samples, rtol=0, atol=1e-9
        )


class TestFuseSf:
    def test_self_fusion_identity(self):
        ms, _ = synthetic_pair(0, size=16)
        pan = Raster(ihs_forward(ms).i.samples.copy())
        assert bands_equal(fuse_sf(ms, pan), MultiBandImage(tuple(clamp_quantize(b) for b in ms.bands)))

    def test_constant_pair_passthrough(self):
        ms = constant_ms(6, 6)
        pan = Raster(np.full((6, 6), 120.0))
        assert bands_equal(fuse_sf(ms, pan), ms)

    def test_matches_straight_line_oracle(self):
        ms, pan = synthetic_pair(3, size=16)
        out = fuse_sf(ms, pan, quantize=False)
        want = sf_oracle(ms, pan)
        for got, expected in zip(out.bands, want):
            assert np.allclose(got.samples, expected, atol=1e-9, rtol=0)

    def test_band_count_enforced(self):
        one = MultiBandImage((Raster(np.zeros((2, 2))),))
        with pytest.raises(ValueError, match="^ihs_forward requires exactly 3 bands, got 1$"):
            fuse_sf(one, Raster(np.zeros((2, 2))))

    def test_dim_mismatch_rejected(self):
        ms = constant_ms(4, 4)
        with pytest.raises(ValueError, match="does not match"):
            fuse_sf(ms, Raster(np.zeros((8, 8))))

    def test_quantize_flag(self):
        ms, pan = synthetic_pair(5, size=16)
        raw = fuse_sf(ms, pan, quantize=False)
        assert any(
            np.any(b.samples != np.floor(b.samples)) for b in raw.bands
        )
        cooked = fuse_sf(ms, pan)
        for b in cooked.bands:
            assert np.array_equal(b.samples, np.floor(b.samples))
            assert b.samples.min() >= 0.0 and b.samples.max() <= 255.0


class TestFuseIhs:
    def test_self_fusion_identity(self):
        ms, _ = synthetic_pair(1, size=16)
        pan = Raster(ihs_forward(ms).i.samples.copy())
        assert bands_equal(fuse_ihs(ms, pan), ms)

    def test_gray_ms_bands_become_matched_pan(self):
        rng = np.random.default_rng(8)
        gray = Raster(np.floor(rng.uniform(0, 256, (8, 8))))
        ms = MultiBandImage((gray, gray, gray))
        pan = Raster(np.floor(rng.uniform(0, 256, (8, 8))))
        out = fuse_ihs(ms, pan, quantize=False)
        matched = match_mean_std(pan.samples, gray.samples)
        for band in out.bands:
            assert np.allclose(band.samples, matched, atol=1e-9)

    def test_matches_straight_line_oracle(self):
        ms, pan = synthetic_pair(9, size=16)
        out = fuse_ihs(ms, pan, quantize=False)
        for got, expected in zip(out.bands, ihs_oracle(ms, pan)):
            assert np.allclose(got.samples, expected, atol=1e-9, rtol=0)

    def test_band_count_enforced(self):
        one = MultiBandImage((Raster(np.zeros((2, 2))),))
        with pytest.raises(ValueError, match="^fuse_ihs requires exactly 3 bands, got 1$"):
            fuse_ihs(one, Raster(np.zeros((2, 2))))


class TestFuseHsv:
    def test_self_fusion_identity(self):
        ms, _ = synthetic_pair(2, size=16)
        pan = Raster(hsv_forward(ms).v.samples.copy())
        assert bands_equal(fuse_hsv(ms, pan), ms)

    def test_matches_straight_line_oracle(self):
        ms, pan = synthetic_pair(11, size=12, scale=4)
        out = fuse_hsv(ms, pan, quantize=False)
        for got, expected in zip(out.bands, hsv_oracle(ms, pan)):
            assert np.allclose(got.samples, expected, atol=1e-6, rtol=0)

    def test_matched_value_clipped_into_range(self):
        # extreme pan pushes the matched V outside [0,255]; the method
        # must still produce a valid product instead of erroring
        ms, _ = synthetic_pair(12, size=16)
        spike = np.full((16, 16), 1.0)
        spike[0, 0] = 255.0
        out = fuse_hsv(ms, Raster(spike))
        for b in out.bands:
            assert b.samples.min() >= 0.0 and b.samples.max() <= 255.0

    def test_band_count_enforced(self):
        one = MultiBandImage((Raster(np.zeros((2, 2))),))
        with pytest.raises(ValueError, match="^fuse_hsv requires exactly 3 bands, got 1$"):
            fuse_hsv(one, Raster(np.zeros((2, 2))))

    @pytest.mark.parametrize("pixel", [(-3.0, -3.0, -3.0), (10.0, -1.0, 0.0)])
    def test_negative_sample_rejected(self, pixel):
        ms = MultiBandImage(tuple(Raster(np.array([[v, 50.0]])) for v in pixel))
        with pytest.raises(ValueError, match="^fuse_hsv requires non-negative MS samples"):
            fuse_hsv(ms, Raster(np.array([[10.0, 20.0]])))


def transform_ihs(ms, pan):
    """IHS fusion by colorspace's forward and inverse transforms."""
    planes = ihs_forward(ms)
    matched = match_mean_std(pan.samples, planes.i.samples)
    return ihs_inverse(planes.with_intensity(Raster(matched)))


def transform_hsv(ms, pan):
    """HSV fusion by colorspace's hexcone forward and inverse transforms."""
    planes = hsv_forward(ms)
    matched = np.clip(match_mean_std(pan.samples, planes.v.samples), 0.0, 255.0)
    return hsv_inverse(HsvPlanes(h=planes.h, s=planes.s, v=Raster(matched)))


DN = st.integers(0, 255)
# Black pixels (V = 0), gray pixels (S = 0) and coloured ones.
PIXEL = st.one_of(st.just((0, 0, 0)), DN.map(lambda t: (t, t, t)), st.tuples(DN, DN, DN))


@st.composite
def ms_pan_pairs(draw):
    """A small MS image and a PAN with one spike far below and one far
    above a narrow band, which on the larger images push the matched
    value plane past 0 and 255."""
    h, w = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    n = h * w
    pixels = np.array(draw(st.lists(PIXEL, min_size=n, max_size=n)), dtype=np.float64)
    pan = np.array(draw(st.lists(st.integers(100, 110), min_size=n, max_size=n)), dtype=np.float64)
    lo, hi = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    pan[lo], pan[hi] = draw(st.integers(0, 20)), draw(st.integers(200, 255))
    ms = MultiBandImage(tuple(Raster(pixels[:, k].reshape(h, w)) for k in range(3)))
    return ms, Raster(pan.reshape(h, w))


def _row(values):
    return Raster(np.array([values], dtype=np.float64))


# A black pixel, a gray one, three coloured ones and a gray field, with a
# PAN whose matched value plane reaches -13.8 and 262.9.
BLACK_GRAY_CLIPPED = (
    MultiBandImage(
        (
            _row([0, 90, 200, 30, 120] + [120] * 7),
            _row([0, 90, 10, 60, 250] + [120] * 7),
            _row([0, 90, 40, 250, 5] + [120] * 7),
        )
    ),
    _row([128] * 4 + [0] + [128] * 6 + [255]),
)


class TestClosedFormsMatchTransforms:
    """fuse_ihs and fuse_hsv against colorspace's transform round trips."""

    def test_example_clips_at_both_ends(self):
        ms, pan = BLACK_GRAY_CLIPPED
        v = hsv_forward(ms).v
        matched = match_mean_std(pan.samples, v.samples)
        assert matched.min() < 0.0 and matched.max() > 255.0
        assert np.any(v.samples == 0.0)
        assert np.any((v.samples > 0.0) & (hsv_forward(ms).s.samples == 0.0))

    @given(ms_pan_pairs())
    @example(BLACK_GRAY_CLIPPED)
    @settings(deadline=None, max_examples=150)
    def test_equal_to_transform_round_trip(self, pair):
        ms, pan = pair
        for closed, transform in ((fuse_ihs, transform_ihs), (fuse_hsv, transform_hsv)):
            real = closed(ms, pan, quantize=False)
            want = transform(ms, pan)
            for got, ref in zip(real.bands, want.bands):
                np.testing.assert_allclose(got.samples, ref.samples, rtol=0, atol=1e-9)
            for got, ref in zip(closed(ms, pan).bands, want.bands):
                # 1e-9 apart, the two products can round apart only where
                # one lies on a tie k + 0.5 and the other just below it.
                quantized = clamp_quantize(ref).samples
                tie = np.abs(ref.samples - np.floor(ref.samples) - 0.5) <= 1e-9
                np.testing.assert_array_equal(got.samples[~tie], quantized[~tie])
                assert np.all(np.abs(got.samples - quantized)[tie] <= 1.0)


class TestFuseHfa:
    def test_constant_pan_passthrough(self):
        ms, _ = synthetic_pair(4, size=16)
        assert bands_equal(fuse_hfa(ms, Raster(np.full((16, 16), 99.0))), ms)

    def test_adds_pan_detail_per_band(self):
        ms = constant_ms(8, 4, (10.0, 50.0, 90.0))
        step = np.zeros((4, 8))
        step[:, 4:] = 80.0
        pan = Raster(step)
        out = fuse_hfa(ms, pan, quantize=False)
        usm = step - box_oracle(step)
        for band, base in zip(out.bands, (10.0, 50.0, 90.0)):
            assert np.allclose(band.samples, base + usm, atol=1e-12)

    def test_additivity_before_clamping(self):
        a, pan = synthetic_pair(13, size=16)
        b, _ = synthetic_pair(14, size=16)
        summed = MultiBandImage(
            tuple(Raster(x.samples + y.samples) for x, y in zip(a.bands, b.bands))
        )
        double_pan = Raster(2.0 * pan.samples)
        lhs = fuse_hfa(summed, double_pan, quantize=False)
        rhs_a = fuse_hfa(a, pan, quantize=False)
        rhs_b = fuse_hfa(b, pan, quantize=False)
        for fused, x, y in zip(lhs.bands, rhs_a.bands, rhs_b.bands):
            assert np.allclose(fused.samples, x.samples + y.samples, atol=1e-9)

    def test_accepts_any_band_count(self):
        one = MultiBandImage((Raster(np.full((4, 4), 10.0)),))
        out = fuse_hfa(one, Raster(np.full((4, 4), 10.0)))
        assert out.band_count == 1


class TestFuseHfm:
    def test_constant_positive_pan_passthrough(self):
        ms, _ = synthetic_pair(5, size=16)
        assert bands_equal(fuse_hfm(ms, Raster(np.full((16, 16), 64.0))), ms)

    def test_ratio_formula(self):
        _, pan = synthetic_pair(15, size=16)
        pan = Raster(pan.samples + 1.0)  # keep the denominator comfortably positive
        ms = MultiBandImage((pan, pan, pan))
        out = fuse_hfm(ms, pan, quantize=False)
        expected = pan.samples * pan.samples / box_oracle(pan.samples)
        for band in out.bands:
            assert np.allclose(band.samples, expected, atol=1e-9)

    def test_zero_region_passes_ms_through(self):
        samples = np.zeros((8, 8))
        samples[:, 6:] = 100.0
        pan = Raster(samples)
        ms, _ = synthetic_pair(16, size=8, scale=2)
        out = fuse_hfm(ms, pan, quantize=False)
        # columns 0-4 have an all-zero 3x3 neighborhood, so the box LPF is
        # exactly 0 there and the guard passes the MS band through
        for fused, band in zip(out.bands, ms.bands):
            assert np.array_equal(fused.samples[:, :5], band.samples[:, :5])
            assert not np.allclose(fused.samples[:, 5:], band.samples[:, 5:])


class TestFuseRvs:
    def test_reproduces_exact_linear_band(self):
        rng = np.random.default_rng(18)
        pan = Raster(rng.uniform(0, 100, (8, 8)))
        band = Raster(2.0 * pan.samples + 5.0)
        ms = MultiBandImage((band, band, band))
        out = fuse_rvs(ms, pan, quantize=False)
        for fused in out.bands:
            assert np.allclose(fused.samples, band.samples, atol=1e-9)

    def test_constant_pan_gives_band_means(self):
        ms, _ = synthetic_pair(6, size=16)
        out = fuse_rvs(ms, Raster(np.full((16, 16), 50.0)), quantize=False)
        for fused, band in zip(out.bands, ms.bands):
            assert np.allclose(fused.samples, np.mean(band.samples), atol=1e-12)

    @staticmethod
    def assert_fits(ms, pan, want):
        real, quantized = fuse_rvs(ms, pan, quantize=False), fuse_rvs(ms, pan)
        for w, r, q in zip(want, real.bands, quantized.bands):
            np.testing.assert_array_equal(r.samples, w)
            np.testing.assert_array_equal(q.samples, clamp_quantize(Raster(w)).samples)

    def test_same_bits_as_a_fit_per_band(self):
        # Float64 copies of the bands and PAN take the float path. PAN's
        # moments are shared by the bands; each band must still get the
        # bits of a fit that recentres PAN on its own.
        grid_ms, grid_pan = synthetic_pair(7, size=32)
        ms = MultiBandImage(tuple(Raster(b.samples) for b in grid_ms.bands))
        pan = Raster(grid_pan.samples)
        p = pan.samples.ravel()
        want = []
        for b in ms.bands:
            m = b.samples.ravel()
            p_mean, m_mean = np.mean(p), np.mean(m)
            slope = float(np.mean((p - p_mean) * (m - m_mean)) / np.mean((p - p_mean) ** 2))
            want.append(float(m_mean - slope * p_mean) + slope * pan.samples)
        self.assert_fits(ms, pan, want)

    def test_on_grid_bits_are_the_exact_fit(self):
        # uint8 bands and PAN: the slope is the exact ratio of integer
        # sums, rounded once, and the intercept uses the means sum / n.
        ms, pan = synthetic_pair(7, size=32)
        p = [int(x) for x in pan.array.ravel()]
        n, sp = len(p), sum(p)
        want = []
        for b in ms.bands:
            m = [int(x) for x in b.array.ravel()]
            sm, spm = sum(m), sum(x * y for x, y in zip(p, m))
            slope = float(Fraction(n * spm - sp * sm, n * sum(x * x for x in p) - sp * sp))
            want.append((sm / n - slope * (sp / n)) + slope * pan.samples)
        self.assert_fits(ms, pan, want)


class TestFuseEf:
    def test_constant_pan_passthrough(self):
        ms, _ = synthetic_pair(7, size=16)
        assert bands_equal(fuse_ef(ms, Raster(np.full((16, 16), 10.0))), ms)

    def test_impulse_response(self):
        ms = constant_ms(5, 5, (100.0, 100.0, 100.0))
        z = np.zeros((5, 5))
        z[2, 2] = 1.0
        out = fuse_ef(ms, Raster(z), quantize=False)
        expected = 100.0 + laplacian_oracle(z)
        for band in out.bands:
            assert np.allclose(band.samples, expected, atol=1e-12)

    def test_ramp_pan_leaves_interior_untouched(self):
        ms, _ = synthetic_pair(8, size=8, scale=2)
        ramp = Raster(np.tile(np.arange(8, dtype=np.float64), (8, 1)))
        out = fuse_ef(ms, ramp, quantize=False)
        for fused, band in zip(out.bands, ms.bands):
            assert np.array_equal(fused.samples[1:-1, 1:-1], band.samples[1:-1, 1:-1])


class TestDispatch:
    def test_method_table_order(self):
        assert METHOD_NAMES == ("SF", "IHS", "HSV", "HFA", "HFM", "RVS", "EF")
        assert tuple(FUSION_METHODS) == METHOD_NAMES

    def test_case_insensitive(self):
        assert normalize_method("sf") == "SF"
        assert normalize_method(" Rvs ") == "RVS"

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            normalize_method("WT")
        with pytest.raises(ValueError, match="SF, IHS, HSV"):
            fuse("WT", constant_ms(2, 2), Raster(np.full((2, 2), 0.0)))

    def test_dispatch_equals_direct_call(self):
        ms, pan = synthetic_pair(19, size=16)
        assert bands_equal(fuse("SF", ms, pan), fuse_sf(ms, pan))

    def test_dispatch_resamples_smaller_ms(self):
        full, pan = synthetic_pair(20, size=16)
        coarse = MultiBandImage(
            tuple(Raster(b.samples[::4, ::4].copy()) for b in full.bands)
        )
        via_dispatch = fuse("HFA", coarse, pan)
        direct = fuse_hfa(resample_nearest(coarse, 16, 16), pan)
        assert bands_equal(via_dispatch, direct)


class TestSaveFusedProduct:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_saved_without_building_a_raster(self, method, tmp_path, monkeypatch):
        ms, pan = synthetic_pair(9, size=16)
        fused, real = fuse(method, ms, pan), fuse_ef(ms, pan, quantize=False)
        built = []
        post_init = Raster.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(Raster, "__post_init__", counting)
        save_pnm(fused, tmp_path / "product.ppm")
        assert built == []
        save_pnm(real, tmp_path / "real.ppm")
        assert built == [1, 1, 1]  # an unquantized product is quantized first
        monkeypatch.undo()
        assert bands_equal(load_pnm(tmp_path / "product.ppm"), fused)


class TestInPlaceQuantize:
    """Each method quantizes its fresh bands in their own buffers, so none
    may write to, or hand back, the memory of its inputs."""

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_inputs_untouched_and_unshared(self, method, quantize, tmp_path):
        ms, pan = synthetic_pair(23, size=16)
        save_pnm(ms, tmp_path / "ms.ppm")  # on the grid, with uint8 samples
        for inputs in ((ms, pan), (load_pnm(tmp_path / "ms.ppm"), pan)):
            rasters = (*inputs[0].bands, inputs[1])
            before = [r.samples.tobytes() for r in rasters]
            out = FUSION_METHODS[method](*inputs, quantize=quantize)
            assert [r.samples.tobytes() for r in rasters] == before
            for band in out.bands:
                assert not any(np.shares_memory(band.samples, r.samples) for r in rasters)

    def test_overflowing_product_is_rejected_not_clamped(self):
        ms = MultiBandImage((Raster(np.full((5, 5), 1.7e308)),))
        spike = np.zeros((5, 5))
        spike[2, 2] = 1e308
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="raster samples must all be finite"):
                fuse_hfa(ms, Raster(spike))


class TestSelfFusionAcrossMethods:
    def test_no_detail_in_means_no_detail_out(self):
        ms, _ = synthetic_pair(21, size=16)
        quantized = MultiBandImage(tuple(clamp_quantize(b) for b in ms.bands))
        constant = Raster(np.full((16, 16), 75.0))
        cases = [
            fuse_sf(ms, Raster(ihs_forward(ms).i.samples.copy())),
            fuse_ihs(ms, Raster(ihs_forward(ms).i.samples.copy())),
            fuse_hsv(ms, Raster(hsv_forward(ms).v.samples.copy())),
            fuse_hfa(ms, constant),
            fuse_hfm(ms, constant),
            fuse_ef(ms, constant),
        ]
        for out in cases:
            assert bands_equal(out, quantized)
