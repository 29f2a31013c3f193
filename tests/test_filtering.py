"""The box / unsharp-mask / Laplacian filters against a direct 3x3
convolution oracle."""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.filtering import box_lpf, laplacian_hp, unsharp_mask
from panfuse.raster import Raster

BOX_WEIGHTS = [[1.0 / 9.0] * 3] * 3
LAPLACIAN_WEIGHTS = [[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]]


def convolve_oracle(samples, weights):
    # direct nine-term summation with clamp-to-border indexing
    h = len(samples)
    w = len(samples[0])
    out = [[0.0] * w for _ in range(h)]
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    u = min(max(i + du, 0), h - 1)
                    v = min(max(j + dv, 0), w - 1)
                    acc += weights[du + 1][dv + 1] * samples[u][v]
            out[i][j] = acc
    return out


def seeded(w, h, seed):
    return Raster(np.floor(np.random.default_rng(seed).uniform(0, 256, (h, w))))


class TestConvolve3x3:
    """The 3x3 window arithmetic shared by box_lpf and laplacian_hp."""

    def test_constant_box_exact(self):
        c = Raster(np.full((4, 6), 13.0))
        out = box_lpf(c)
        assert np.array_equal(out.samples, c.samples)

    def test_constant_laplacian_exact_zero(self):
        c = Raster(np.full((5, 5), 201.0))
        assert np.all(laplacian_hp(c).samples == 0.0)

    def test_three_by_three_box_values(self):
        r = Raster(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.float64))
        out = box_lpf(r)
        # nine-term window sums under replicate padding, divided once
        expected = np.array([[21, 27, 33], [39, 45, 51], [57, 63, 69]]) / 9.0
        assert np.array_equal(out.samples, expected)
        assert out.samples[1, 1] == 5.0

    def test_matches_oracle_on_seeded_rasters(self):
        cases = ((5, box_lpf, BOX_WEIGHTS), (6, laplacian_hp, LAPLACIAN_WEIGHTS))
        for seed, filt, weights in cases:
            r = seeded(16, 16, seed)
            got = filt(r)
            want = convolve_oracle(r.samples.tolist(), weights)
            assert np.allclose(got.samples, np.array(want), rtol=1e-12, atol=1e-9)

    def test_single_pixel(self):
        r = Raster(np.array([[42.0]]))
        assert box_lpf(r).samples.tolist() == [[42.0]]
        assert laplacian_hp(r).samples.tolist() == [[0.0]]

    @given(st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    @settings(deadline=None, max_examples=30)
    def test_linearity(self, seed_a, seed_b):
        x = seeded(7, 5, seed_a)
        y = seeded(7, 5, seed_b)
        mix = Raster(2.0 * x.samples + 3.0 * y.samples)
        lhs = laplacian_hp(mix).samples
        rhs = 2.0 * laplacian_hp(x).samples + 3.0 * laplacian_hp(y).samples
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestBoxLpf:
    def test_constant_exact(self):
        c = Raster(np.full((3, 9), 77.0))
        assert np.array_equal(box_lpf(c).samples, c.samples)

    def test_interior_impulse_footprint(self):
        z = np.zeros((5, 5))
        z[2, 2] = 1.0
        out = box_lpf(Raster(z)).samples
        footprint = np.zeros((5, 5))
        footprint[1:4, 1:4] = 1.0 / 9.0
        assert np.array_equal(out, footprint)

    def test_equals_convolve_with_box(self):
        # integral input: the nine-term window sum is exact in any order,
        # so box_lpf equals the oracle's sum of the unit grid divided by 9
        r = seeded(16, 16, 9)
        window_sums = convolve_oracle(r.samples.tolist(), [[1.0] * 3] * 3)
        assert np.array_equal(box_lpf(r).samples, np.array(window_sums) / 9.0)

    @given(st.integers(0, 2 ** 31))
    @settings(deadline=None, max_examples=30)
    def test_output_within_input_range(self, seed):
        r = seeded(6, 6, seed)
        out = box_lpf(r).samples
        assert out.min() >= r.samples.min() - 1e-12
        assert out.max() <= r.samples.max() + 1e-12


class TestUnsharpMask:
    def test_constant_is_zero(self):
        assert np.all(unsharp_mask(Raster(np.full((4, 4), 50.0))).samples == 0.0)

    def test_step_edge_localized(self):
        samples = np.zeros((4, 8))
        samples[:, 4:] = 90.0
        r = Raster(samples)
        out = unsharp_mask(r).samples
        direct = samples - np.array(
            convolve_oracle(samples.tolist(), BOX_WEIGHTS)
        )
        assert np.allclose(out, direct, rtol=1e-12, atol=1e-12)
        # response confined to one pixel either side of the edge
        assert np.all(out[:, :3] == 0.0)
        assert np.all(out[:, 6:] == 0.0)
        assert np.any(out[:, 3:6] != 0.0)

    def test_decomposition_identity(self):
        r = seeded(12, 10, 21)
        recombined = box_lpf(r).samples + unsharp_mask(r).samples
        assert np.array_equal(recombined, r.samples)


class TestLaplacianHp:
    def test_constant_zero(self):
        assert np.all(laplacian_hp(Raster(np.full((7, 7), 3.0))).samples == 0.0)

    def test_ramp_interior_zero(self):
        cols = np.tile(np.arange(6, dtype=np.float64), (6, 1))
        out = laplacian_hp(Raster(cols)).samples
        assert np.all(out[1:-1, 1:-1] == 0.0)

    def test_matches_oracle(self):
        r = seeded(8, 8, 30)
        want = convolve_oracle(r.samples.tolist(), LAPLACIAN_WEIGHTS)
        assert np.allclose(laplacian_hp(r).samples, np.array(want), rtol=1e-12, atol=1e-9)

    def test_memoised_per_raster(self):
        r = seeded(9, 7, 32)
        first = laplacian_hp(r)
        assert laplacian_hp(r) is first
        want = np.array(convolve_oracle(r.samples.tolist(), LAPLACIAN_WEIGHTS))
        assert np.array_equal(first.samples, want)
        # an equal-valued but distinct raster gets its own, equal result
        twin = laplacian_hp(Raster(r.samples.copy()))
        assert twin is not first
        assert np.array_equal(twin.samples, want)

    def test_memo_race_keeps_one_result(self):
        r = seeded(64, 64, 33)
        barrier = threading.Barrier(4, timeout=10)
        results = []

        def worker():
            barrier.wait()
            results.append(laplacian_hp(r))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        assert all(hp is results[0] for hp in results)
        assert laplacian_hp(r) is results[0]

    def test_shift_covariance_on_interior(self):
        r = seeded(10, 10, 31)
        shifted = Raster(np.roll(r.samples, 1, axis=1))
        a = laplacian_hp(r).samples
        b = laplacian_hp(shifted).samples
        assert np.allclose(a[2:-2, 2:-3], b[2:-2, 3:-2], rtol=0, atol=1e-12)
