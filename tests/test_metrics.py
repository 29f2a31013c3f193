"""Quality metrics against direct double-loop oracles."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panfuse.filtering import laplacian_hp
from panfuse.metrics import (
    METRIC_ORDER,
    MetricRecord,
    csa,
    deviation_index,
    evaluate_all,
    fcc,
    hpdi,
    nrmse,
    pearson,
    snr,
)
from panfuse.raster import MultiBandImage, Raster, resample_nearest
from panfuse.fusion import fuse_sf
from panfuse.synthetic import SyntheticSpec, synthesize


def lap_oracle(a):
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 8.0 * a[i, j]
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    if (du, dv) != (0, 0):
                        acc -= a[min(max(i + du, 0), h - 1), min(max(j + dv, 0), w - 1)]
            out[i, j] = acc
    return out


def di_oracle(f, m):
    total = 0.0
    used = 0
    excluded = 0
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            if m[i, j] == 0.0:
                excluded += 1
            else:
                total += abs(f[i, j] - m[i, j]) / m[i, j]
                used += 1
    return total / used, excluded


def snr_oracle(f, m):
    signal = 0.0
    noise = 0.0
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            signal += f[i, j] ** 2
            noise += (f[i, j] - m[i, j]) ** 2
    return math.inf if noise == 0.0 else math.sqrt(signal / noise)


def nrmse_oracle(f, m):
    total = 0.0
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            total += (f[i, j] - m[i, j]) ** 2
    return math.sqrt(total / (f.size * 255.0 ** 2))


def pearson_oracle(a, b):
    n = a.size
    ma = a.sum() / n
    mb = b.sum() / n
    cov = sxx = syy = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            da = a[i, j] - ma
            db = b[i, j] - mb
            cov += da * db
            sxx += da * da
            syy += db * db
    return cov / math.sqrt(sxx * syy)


def hpdi_oracle(f, p):
    hf = lap_oracle(f)
    hp = lap_oracle(p)
    total = 0.0
    used = 0
    excluded = 0
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            if p[i, j] == 0.0:
                excluded += 1
            else:
                total += abs(hf[i, j] - hp[i, j]) / p[i, j]
                used += 1
    return total / used, excluded


def michelson_oracle(a):
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            window = [
                a[min(max(i + du, 0), h - 1), min(max(j + dv, 0), w - 1)]
                for du in (-1, 0, 1)
                for dv in (-1, 0, 1)
            ]
            hi, lo = max(window), min(window)
            out[i, j] = 0.0 if hi + lo == 0.0 else (hi - lo) / (hi + lo)
    return out


def csa_oracle(band, pan):
    magnitude = np.abs(lap_oracle(pan))
    threshold = np.percentile(magnitude, 90.0)
    contrast = michelson_oracle(band)
    edge = [contrast[i, j] for i in range(band.shape[0]) for j in range(band.shape[1]) if magnitude[i, j] >= threshold]
    homog = [contrast[i, j] for i in range(band.shape[0]) for j in range(band.shape[1]) if magnitude[i, j] < threshold]
    return sum(edge) / len(edge), sum(homog) / len(homog)


def seeded(w, h, seed, lo=0.0, hi=256.0):
    return Raster(np.floor(np.random.default_rng(seed).uniform(lo, hi, (h, w))))


class TestDeviationIndex:
    def test_identical_is_zero(self):
        m = seeded(8, 8, 0, lo=1.0)
        assert deviation_index(m, m) == (0.0, 0)

    def test_doubling_gives_one(self):
        m = seeded(8, 8, 1, lo=1.0)
        f = Raster(2.0 * m.samples)
        value, excluded = deviation_index(f, m)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert excluded == 0

    def test_zero_pixels_excluded_and_counted(self):
        m = np.full((4, 4), 10.0)
        m[0, 0] = 0.0
        m[3, 3] = 0.0
        f = np.full((4, 4), 15.0)
        value, excluded = deviation_index(Raster(f), Raster(m))
        assert excluded == 2
        assert value == pytest.approx(0.5)

    def test_all_zero_reference_errors(self):
        z = Raster(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="undefined DI"):
            deviation_index(z, z)

    def test_matches_oracle(self):
        for seed in range(8):
            f = seeded(8, 8, seed * 2 + 100)
            m = seeded(8, 8, seed * 2 + 101)
            value, excluded = deviation_index(f, m)
            want_value, want_excluded = di_oracle(f.samples, m.samples)
            assert value == pytest.approx(want_value, rel=1e-12)
            assert excluded == want_excluded

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            deviation_index(Raster(np.zeros((2, 2))), Raster(np.zeros((3, 3))))


class TestSnr:
    def test_identical_is_infinite_sentinel(self):
        m = seeded(6, 6, 3)
        assert snr(m, m) == math.inf

    def test_doubling(self):
        m = seeded(6, 6, 4, lo=1.0)
        assert snr(Raster(2.0 * m.samples), m) == pytest.approx(2.0, rel=1e-12)

    def test_matches_oracle(self):
        f = seeded(8, 8, 5)
        m = seeded(8, 8, 6)
        assert snr(f, m) == pytest.approx(snr_oracle(f.samples, m.samples), rel=1e-12)


class TestNrmse:
    def test_identical_is_zero(self):
        m = seeded(5, 5, 7)
        assert nrmse(m, m) == 0.0

    def test_maximal_uniform_error(self):
        m = Raster(np.zeros((4, 4)))
        f = Raster(np.full((4, 4), 255.0))
        assert nrmse(f, m) == pytest.approx(1.0)

    def test_half_uniform_error(self):
        m = Raster(np.zeros((4, 4)))
        f = Raster(np.full((4, 4), 127.5))
        assert nrmse(f, m) == pytest.approx(0.5)

    def test_matches_oracle(self):
        f = seeded(8, 8, 8)
        m = seeded(8, 8, 9)
        assert nrmse(f, m) == pytest.approx(nrmse_oracle(f.samples, m.samples), rel=1e-12)


class TestPearson:
    def test_self_correlation(self):
        a = seeded(6, 6, 10)
        assert pearson(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self):
        a = seeded(6, 6, 11)
        assert pearson(a, Raster(-a.samples)) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_errors(self):
        a = seeded(4, 4, 12)
        flat = Raster(np.full((4, 4), 5.0))
        with pytest.raises(ValueError, match="undefined correlation"):
            pearson(a, flat)
        with pytest.raises(ValueError, match="undefined correlation"):
            pearson(flat, a)

    def test_matches_oracle(self):
        a = seeded(8, 8, 13)
        b = seeded(8, 8, 14)
        assert pearson(a, b) == pytest.approx(pearson_oracle(a.samples, b.samples), rel=1e-12)


class TestFcc:
    def test_band_equal_to_pan(self):
        pan = seeded(8, 8, 15)
        assert fcc(pan, pan) == pytest.approx(1.0, abs=1e-12)

    def test_constant_band_errors(self):
        pan = seeded(8, 8, 16)
        with pytest.raises(ValueError, match="undefined correlation"):
            fcc(Raster(np.full((8, 8), 40.0)), pan)

    def test_matches_compose_and_correlate_oracle(self):
        band = seeded(8, 8, 17)
        pan = seeded(8, 8, 18)
        want = pearson_oracle(lap_oracle(band.samples), lap_oracle(pan.samples))
        assert fcc(band, pan) == pytest.approx(want, rel=1e-10)

    def test_shift_and_scale_invariance(self):
        band = seeded(8, 8, 19)
        pan = seeded(8, 8, 20)
        base = fcc(band, pan)
        shifted = fcc(Raster(band.samples + 11.0), pan)
        scaled = fcc(band, Raster(3.0 * pan.samples))
        assert shifted == pytest.approx(base, abs=1e-9)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestFccMemo:
    def test_same_bits_as_unmemoised_pearson(self):
        pan = seeded(12, 12, 50)
        for k in range(3):
            band = seeded(12, 12, 51 + k)
            fresh = laplacian_hp(Raster(pan.samples.copy()))
            assert fcc(band, pan) == pearson(laplacian_hp(band), fresh)

    def test_zero_variance_pan_fails_on_every_call(self):
        band = seeded(8, 8, 54)
        pan = Raster(np.full((8, 8), 100.0))
        for _ in range(3):
            with pytest.raises(ValueError, match="undefined correlation"):
                fcc(band, pan)

    def test_memo_holds_the_pan_side_only(self):
        band = seeded(8, 8, 55)
        pan = seeded(8, 8, 56)
        fcc(band, pan)
        assert "_centred" in vars(laplacian_hp(pan))
        assert "_centred" not in vars(laplacian_hp(band))

    def test_memo_race_gives_equal_results(self):
        bands = [seeded(64, 64, 57 + k) for k in range(4)]
        pan = seeded(64, 64, 61)
        barrier = threading.Barrier(4, timeout=10)
        results = {}

        def worker(k):
            barrier.wait()
            results[k] = fcc(bands[k], pan)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for k, band in enumerate(bands):
            assert results[k] == fcc(band, Raster(pan.samples.copy()))


class TestHpdi:
    def test_band_equal_to_pan(self):
        pan = seeded(8, 8, 21, lo=1.0)
        value, excluded = hpdi(pan, pan)
        assert value == 0.0
        assert excluded == 0

    def test_constant_band_against_seeded_pan(self):
        pan = seeded(8, 8, 22, lo=1.0)
        flat = Raster(np.full((8, 8), 50.0))
        value, _ = hpdi(flat, pan)
        want, _ = hpdi_oracle(flat.samples, pan.samples)
        assert value == pytest.approx(want, rel=1e-12)

    def test_zero_pan_pixels_excluded(self):
        pan = np.full((4, 4), 10.0)
        pan[1, 1] = 0.0
        f = seeded(4, 4, 23)
        _, excluded = hpdi(f, Raster(pan))
        assert excluded == 1

    def test_all_zero_pan_errors(self):
        with pytest.raises(ValueError, match="undefined HPDI"):
            hpdi(seeded(4, 4, 24), Raster(np.zeros((4, 4))))

    def test_matches_oracle(self):
        f = seeded(8, 8, 25)
        pan = seeded(8, 8, 26, lo=1.0)
        value, excluded = hpdi(f, pan)
        want_value, want_excluded = hpdi_oracle(f.samples, pan.samples)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert excluded == want_excluded


class TestCsa:
    def test_constant_band_gives_zero_contrast(self):
        pan = seeded(8, 8, 27)
        edge, homog = csa(Raster(np.full((8, 8), 90.0)), pan)
        assert (edge, homog) == (0.0, 0.0)

    def test_checkerboard_contrast_is_one(self):
        idx = np.indices((8, 8)).sum(axis=0)
        board = Raster(np.where(idx % 2 == 0, 255.0, 0.0))
        pan = seeded(8, 8, 28)
        edge, homog = csa(board, pan)
        assert edge == pytest.approx(1.0)
        assert homog == pytest.approx(1.0)

    def test_degenerate_pan_errors(self):
        band = seeded(8, 8, 29)
        with pytest.raises(ValueError, match="class empty"):
            csa(band, Raster(np.full((8, 8), 100.0)))

    def test_matches_classify_then_average_oracle(self):
        band = seeded(8, 8, 30)
        pan = seeded(8, 8, 31)
        got = csa(band, pan)
        want = csa_oracle(band.samples, pan.samples)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)


class TestCsaMemo:
    def test_degenerate_pan_fails_on_every_call(self):
        band = seeded(8, 8, 42)
        pan = Raster(np.full((8, 8), 100.0))
        for _ in range(3):
            with pytest.raises(ValueError, match="class empty"):
                csa(band, pan)

    def test_memo_race_gives_equal_results(self):
        bands = [seeded(64, 64, 43 + k) for k in range(4)]
        pan = seeded(64, 64, 47)
        barrier = threading.Barrier(4, timeout=10)
        results = {}

        def worker(k):
            barrier.wait()
            results[k] = csa(bands[k], pan)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for k, band in enumerate(bands):
            # A fresh PAN twin shares no memo with the raced one.
            assert results[k] == csa(band, Raster(pan.samples.copy()))
            assert csa(band, pan) == results[k]

    def test_laplacian_hp_keeps_returning_one_object(self):
        band = seeded(12, 12, 48)
        pan = seeded(12, 12, 49)
        first = laplacian_hp(pan)
        csa(band, pan)
        csa(band, pan)
        assert laplacian_hp(pan) is first


def mask_deviation_index(f, m):
    valid = m != 0.0
    return float(np.mean(np.abs(f[valid] - m[valid]) / m[valid]))


def mask_hpdi(hf, hp, p):
    valid = p != 0.0
    return float(np.mean(np.abs(hf - hp)[valid] / p[valid]))


def mask_csa(contrast, hp):
    magnitude = np.abs(hp)
    edge = magnitude >= float(np.percentile(magnitude, 90.0))
    return float(np.mean(contrast[edge])), float(np.mean(contrast[~edge]))


class TestBooleanMaskBitIdentity:
    """DI, HPDI and CSA give the same bits as a boolean-mask gather.

    ``metrics.csv`` holds each value's float ``repr``, so the comparison is
    ``==``. Images up to 40x40 span several 128-element blocks of numpy's
    pairwise summation; some images have zero pixels, so both the compacted
    and the whole-array ratio paths run.
    """

    @given(
        st.integers(0, 2 ** 31),
        st.integers(2, 40),
        st.integers(2, 40),
        st.sampled_from([0.0, 0.02]),
    )
    @settings(deadline=None, max_examples=25)
    def test_matches_mask_formulation(self, seed, h, w, zero_frac):
        rng = np.random.default_rng(seed)

        def image():
            a = rng.integers(0 if zero_frac else 1, 256, (h, w)).astype(np.float64)
            a[rng.random((h, w)) < zero_frac] = 0.0
            return Raster(a)

        f, m, pan = image(), image(), image()
        hf, hp = laplacian_hp(f).samples, laplacian_hp(pan).samples
        assert deviation_index(f, m)[0] == mask_deviation_index(f.samples, m.samples)
        assert hpdi(f, pan)[0] == mask_hpdi(hf, hp, pan.samples)
        magnitude = np.abs(hp)
        edge = magnitude >= float(np.percentile(magnitude, 90.0))
        if edge.all():
            with pytest.raises(ValueError, match="class empty"):
                csa(f, pan)
            return
        want = mask_csa(michelson_oracle(f.samples), hp)
        assert csa(f, pan) == want
        assert csa(f, pan) == want  # a memo hit


class TestPermutationInvariance:
    def test_spectral_metrics_ignore_arrangement(self):
        rng = np.random.default_rng(34)
        f = seeded(6, 6, 35, lo=1.0)
        m = seeded(6, 6, 36, lo=1.0)
        perm = rng.permutation(36)
        fp = Raster(f.samples.ravel()[perm].reshape(6, 6))
        mp = Raster(m.samples.ravel()[perm].reshape(6, 6))
        assert deviation_index(fp, mp)[0] == pytest.approx(deviation_index(f, m)[0], rel=1e-12)
        assert snr(fp, mp) == pytest.approx(snr(f, m), rel=1e-12)
        assert nrmse(fp, mp) == pytest.approx(nrmse(f, m), rel=1e-12)


class TestEvaluateAll:
    @staticmethod
    def _pair(seed, size=16):
        ms, pan, _ = synthesize(SyntheticSpec(seed=seed, width=size, height=size, scale_factor=4))
        return ms, pan

    def test_record_layout(self):
        ms, pan = self._pair(0)
        records = evaluate_all(ms, pan, ms, "p", "SF")
        assert len(records) == len(METRIC_ORDER) * 4
        bands = [r.band for r in records]
        assert bands == [1] * 7 + [2] * 7 + [3] * 7 + ["avg"] * 7
        per_band = [r.metric for r in records[:7]]
        assert tuple(per_band) == METRIC_ORDER

    def test_fused_equal_ms_is_spectrally_perfect(self):
        ms, pan = self._pair(1)
        records = evaluate_all(ms, pan, ms, "p", "X")
        by_key = {(r.band, r.metric): r.value for r in records}
        for band in (1, 2, 3):
            assert by_key[(band, "DI")] == 0.0
            assert by_key[(band, "NRMSE")] == 0.0
            assert by_key[(band, "SNR")] == math.inf

    def test_snr_avg_row_drops_and_counts_infinities(self):
        ms, pan = self._pair(2)
        records = evaluate_all(ms, pan, ms, "p", "X")
        avg_snr = next(r for r in records if r.band == "avg" and r.metric == "SNR")
        assert avg_snr.value == math.inf
        assert avg_snr.excluded_pixels == 3

    def test_fused_equal_pan_is_spatially_perfect(self):
        _, pan = self._pair(3)
        fused = MultiBandImage((pan, pan, pan))
        ms = MultiBandImage(
            tuple(Raster(pan.samples + d) for d in (1.0, 2.0, 3.0))
        )
        records = evaluate_all(ms, pan, fused, "p", "X")
        for r in records:
            if r.metric == "FCC":
                assert r.value == pytest.approx(1.0, abs=1e-9)
            if r.metric == "HPDI":
                assert r.value == 0.0

    def test_avg_rows_are_band_means(self):
        ms, pan = self._pair(4)
        fused = fuse_sf(ms, pan)
        records = evaluate_all(ms, pan, fused, "p", "SF")
        for metric in ("DI", "NRMSE", "FCC", "HPDI", "CSA_edge", "CSA_homog"):
            values = [r.value for r in records if r.metric == metric and r.band != "avg"]
            avg = next(r.value for r in records if r.metric == metric and r.band == "avg")
            assert avg == pytest.approx(sum(values) / 3.0, rel=1e-12)

    def test_avg_rows_excluded_pixels(self):
        ms, pan = self._pair(9)
        pan_s = pan.samples.copy()
        pan_s[0, :5] = 0.0
        pan = Raster(pan_s)
        bands = []
        for k, b in enumerate(ms.bands, start=1):
            s = b.samples.copy()
            s[k, :k] = 0.0  # band k has k zero pixels
            bands.append(Raster(s))
        ms = MultiBandImage(tuple(bands))
        # Bands 1 and 3 equal the MS, so their SNR is infinite.
        fused = MultiBandImage((bands[0], Raster(bands[1].samples + 1.0), bands[2]))
        records = evaluate_all(ms, pan, fused, "p", "X")
        excluded = {(r.band, r.metric): r.excluded_pixels for r in records}
        assert [excluded[(k, "DI")] for k in (1, 2, 3)] == [1, 2, 3]
        assert [excluded[(k, "HPDI")] for k in (1, 2, 3)] == [5, 5, 5]
        assert excluded[("avg", "DI")] == 6
        assert excluded[("avg", "HPDI")] == 15
        for metric in ("NRMSE", "FCC", "CSA_edge", "CSA_homog"):
            assert excluded[("avg", metric)] == 0
        assert excluded[("avg", "SNR")] == 2

    def test_any_avg_row_drops_and_counts_an_infinite_band(self):
        """Every avg row follows SNR's rule: a DI that overflows to inf
        (a float band of 1e10 over a reference of 1e-300) is left out of
        the mean and counted, on top of the bands' excluded pixels."""
        ms, pan = self._pair(10)
        m, f = ms.bands[0].samples.copy(), ms.bands[0].samples.copy()
        m[0, 0], f[0, 0] = 1e-300, 1e10
        m[1, :2] = 0.0  # two excluded pixels in band 1
        ms = MultiBandImage((Raster(m),) + ms.bands[1:])
        fused = MultiBandImage((Raster(f),) + ms.bands[1:])
        with np.errstate(over="ignore"):
            records = evaluate_all(ms, pan, fused, "p", "X")
        di = {r.band: r for r in records if r.metric == "DI"}
        assert di[1].value == math.inf and di[1].excluded_pixels == 2
        assert di["avg"].value == (di[2].value + di[3].value) / 2
        assert di["avg"].excluded_pixels == 2 + 1
        assert all(type(r.excluded_pixels) is int for r in records)

    def test_matches_metric_by_metric_recomputation(self):
        ms, pan = self._pair(5)
        fused = fuse_sf(ms, pan)
        records = evaluate_all(ms, pan, fused, "pair", "SF")
        for k, (fband, mband) in enumerate(zip(fused.bands, ms.bands), start=1):
            by_metric = {r.metric: r for r in records if r.band == k}
            assert by_metric["DI"].value == deviation_index(fband, mband)[0]
            assert by_metric["SNR"].value == snr(fband, mband)
            assert by_metric["NRMSE"].value == nrmse(fband, mband)
            assert by_metric["FCC"].value == fcc(fband, pan)
            assert by_metric["HPDI"].value == hpdi(fband, pan)[0]
            edge, homog = csa(fband, pan)
            assert by_metric["CSA_edge"].value == edge
            assert by_metric["CSA_homog"].value == homog

    def test_band_count_mismatch(self):
        ms, pan = self._pair(6)
        fused = MultiBandImage(ms.bands[:2])
        with pytest.raises(ValueError, match="band count mismatch"):
            evaluate_all(ms, pan, fused, "p", "X")

    def test_requires_resampled_ms(self):
        ms, pan = self._pair(7)
        small = MultiBandImage(
            tuple(Raster(b.samples[::2, ::2].copy()) for b in ms.bands)
        )
        with pytest.raises(ValueError, match="resample first"):
            evaluate_all(small, pan, ms, "p", "X")

    def test_pair_and_method_recorded(self):
        ms, pan = self._pair(8)
        records = evaluate_all(ms, pan, ms, "scene-9", "HFA")
        assert all(r.pair_id == "scene-9" and r.method == "HFA" for r in records)
