"""Synthetic pair generation: determinism and structural guarantees."""

import numpy as np
import pytest

from panfuse.raster import load_pnm
from panfuse.synthetic import SyntheticSpec, _block_average, generate_pair, synthesize


def block_average_oracle(a, factor):
    h, w = a.shape
    out = np.zeros((h // factor, w // factor))
    for bi in range(h // factor):
        for bj in range(w // factor):
            total = 0.0
            for i in range(factor):
                for j in range(factor):
                    total += a[bi * factor + i, bj * factor + j]
            out[bi, bj] = total / factor ** 2
    return out


class TestSyntheticSpec:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            SyntheticSpec(seed=0, width=10, height=8, scale_factor=4)

    def test_scale_factor_minimum(self):
        with pytest.raises(ValueError, match="scale_factor"):
            SyntheticSpec(seed=0, width=8, height=8, scale_factor=1)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing_passes"):
            SyntheticSpec(seed=0, width=8, height=8, scale_factor=2, smoothing_passes=-1)


class TestSynthesize:
    def test_shapes_and_integrality(self):
        ms, pan, reference = synthesize(SyntheticSpec(seed=5, width=16, height=12, scale_factor=4))
        assert (ms.width, ms.height, ms.band_count) == (16, 12, 3)
        assert (pan.width, pan.height) == (16, 12)
        assert (reference.width, reference.height) == (16, 12)
        for band in (*ms.bands, pan, *reference.bands):
            s = band.samples
            assert np.array_equal(s, np.floor(s))
            assert s.min() >= 0.0 and s.max() <= 255.0

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(seed=9, width=16, height=16, scale_factor=4)
        a = synthesize(spec)
        b = synthesize(spec)
        assert np.array_equal(a[1].samples, b[1].samples)
        for x, y in zip(a[0].bands, b[0].bands):
            assert np.array_equal(x.samples, y.samples)

    def test_seeds_differ(self):
        base = SyntheticSpec(seed=1, width=16, height=16, scale_factor=4)
        other = SyntheticSpec(seed=2, width=16, height=16, scale_factor=4)
        assert not np.array_equal(synthesize(base)[1].samples, synthesize(other)[1].samples)

    def test_pan_is_quantized_reference_intensity(self):
        ms, pan, reference = synthesize(SyntheticSpec(seed=1, width=64, height=64, scale_factor=4))
        intensity = (
            reference.bands[0].samples
            + reference.bands[1].samples
            + reference.bands[2].samples
        ) / 3.0
        recomputed = np.floor(np.clip(intensity, 0, 255) + 0.5)
        assert np.array_equal(pan.samples, recomputed)

    def test_ms_block_structure(self):
        ms, _, _ = synthesize(SyntheticSpec(seed=3, width=4, height=4, scale_factor=2))
        for band in ms.bands:
            assert len(set(band.samples.ravel())) <= 4
            # each 2x2 block is a single replicated value
            for bi in (0, 2):
                for bj in (0, 2):
                    block = band.samples[bi:bi + 2, bj:bj + 2]
                    assert len(set(block.ravel())) == 1

    def test_ms_blocks_average_the_reference(self):
        for f, (w, h) in {2: (8, 8), 3: (12, 9), 17: (34, 17)}.items():
            spec = SyntheticSpec(seed=7, width=w, height=h, scale_factor=f)
            ms, _, reference = synthesize(spec)
            for ms_band, ref_band in zip(ms.bands, reference.bands):
                coarse = block_average_oracle(ref_band.samples, f)
                quantized = np.floor(np.clip(coarse, 0, 255) + 0.5)
                assert np.array_equal(ms_band.samples[::f, ::f], quantized)

    def test_bright_block_sums_beyond_uint16_are_exact(self):
        # A smoothed reference stays near mid-grey, so its 17x17 block
        # sums fit uint16; these reach 17 * 17 * 255 = 73,695.
        bright = np.random.default_rng(3).integers(200, 256, (34, 51)).astype(np.uint8)
        bright[:17, :17] = 255
        means = _block_average(bright, 17)
        assert means[0, 0] == 255.0
        assert np.array_equal(means, block_average_oracle(bright.astype(np.float64), 17))

    def test_zero_smoothing_passes(self):
        ms, pan, reference = synthesize(
            SyntheticSpec(seed=2, width=8, height=8, scale_factor=2, smoothing_passes=0)
        )
        assert pan.samples.std() > 0


class TestGeneratePair:
    def test_writes_three_loadable_files(self, tmp_path):
        spec = SyntheticSpec(seed=4, width=16, height=16, scale_factor=4)
        ms_path, pan_path, ref_path = generate_pair(spec, tmp_path / "out")
        assert ms_path.name == "ms.ppm"
        assert pan_path.name == "pan.pgm"
        assert ref_path.name == "reference.ppm"
        ms, pan, reference = synthesize(spec)
        loaded_ms = load_pnm(ms_path)
        for got, want in zip(loaded_ms.bands, ms.bands):
            assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(load_pnm(pan_path).samples, pan.samples)

    def test_byte_identical_across_runs(self, tmp_path):
        spec = SyntheticSpec(seed=6, width=16, height=16, scale_factor=4)
        first = generate_pair(spec, tmp_path / "a")
        second = generate_pair(spec, tmp_path / "b")
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes()
