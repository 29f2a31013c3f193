"""Acceptance gate for the fusion toolkit.

Each test checks one release criterion end to end and prints a single
[PASS]/[FAIL] line so the verdicts are visible in any test run. The
metric checks use fresh pure-Python oracles local to this file rather
than anything from the library or the unit tests.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from panfuse.cli import main
from panfuse.colorspace import hsv_forward, hsv_inverse, ihs_forward, ihs_inverse
from panfuse.fusion import (
    METHOD_NAMES,
    fuse,
    fuse_hfm,
    fuse_ihs,
    fuse_rvs,
    fuse_sf,
)
from panfuse.metrics import csa, deviation_index, fcc, hpdi, nrmse, pearson, snr
from panfuse.raster import MultiBandImage, Raster, clamp_quantize
from panfuse.synthetic import SyntheticSpec, synthesize


@pytest.fixture()
def verdict(capsys):
    def emit(number: int, label: str, ok: bool) -> bool:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
        return ok

    return emit


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def random_rgb(seed: int, size: int = 64, integral: bool = True) -> MultiBandImage:
    rng = np.random.default_rng(seed)
    if integral:
        bands = rng.integers(0, 256, (3, size, size)).astype(np.float64)
    else:
        bands = rng.uniform(0.0, 255.0, (3, size, size))
    return MultiBandImage(tuple(Raster(b) for b in bands))


def random_gray(seed: int, size: int = 64) -> Raster:
    rng = np.random.default_rng(seed)
    return Raster(rng.integers(0, 256, (size, size)).astype(np.float64))


def constant_rgb(values=(60.0, 120.0, 180.0), size: int = 16) -> MultiBandImage:
    return MultiBandImage(tuple(Raster(np.full((size, size), v)) for v in values))


# -- criterion 1: metric implementations against loop oracles -----------------

def _at(a: np.ndarray, y: int, x: int) -> float:
    h, w = a.shape
    y = min(max(y, 0), h - 1)
    x = min(max(x, 0), w - 1)
    return float(a[y, x])


def lap_oracle(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            acc = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        acc += 8.0 * _at(a, y, x)
                    else:
                        acc -= _at(a, y + dy, x + dx)
            out[y, x] = acc
    return out


def di_oracle(f: np.ndarray, m: np.ndarray) -> tuple[float, int]:
    total, n, excluded = 0.0, 0, 0
    for fv, mv in zip(f.flat, m.flat):
        if mv == 0.0:
            excluded += 1
        else:
            total += abs(fv - mv) / mv
            n += 1
    return total / n, excluded


def snr_oracle(f: np.ndarray, m: np.ndarray) -> float:
    signal = sum(fv * fv for fv in f.flat)
    noise = sum((fv - mv) ** 2 for fv, mv in zip(f.flat, m.flat))
    if noise == 0.0:
        return math.inf
    return math.sqrt(signal / noise)


def nrmse_oracle(f: np.ndarray, m: np.ndarray) -> float:
    noise = sum((fv - mv) ** 2 for fv, mv in zip(f.flat, m.flat))
    return math.sqrt(noise / (f.size * 255.0**2))


def pearson_oracle(a: np.ndarray, b: np.ndarray) -> float:
    n = a.size
    ma = sum(a.flat) / n
    mb = sum(b.flat) / n
    cov = sum((av - ma) * (bv - mb) for av, bv in zip(a.flat, b.flat)) / n
    va = sum((av - ma) ** 2 for av in a.flat) / n
    vb = sum((bv - mb) ** 2 for bv in b.flat) / n
    return cov / math.sqrt(va * vb)


def hpdi_oracle(hb: np.ndarray, hp: np.ndarray, pan: np.ndarray) -> tuple[float, int]:
    """HPDI from the band's and PAN's oracle Laplacians."""
    total, n, excluded = 0.0, 0, 0
    for y in range(pan.shape[0]):
        for x in range(pan.shape[1]):
            if pan[y, x] == 0.0:
                excluded += 1
            else:
                total += abs(hb[y, x] - hp[y, x]) / pan[y, x]
                n += 1
    return total / n, excluded


def michelson_oracle(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            window = [
                _at(a, y + dy, x + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
            ]
            mx, mn = max(window), min(window)
            out[y, x] = 0.0 if mx + mn == 0.0 else (mx - mn) / (mx + mn)
    return out


def csa_oracle(band: np.ndarray, hp: np.ndarray):
    """CSA from the band and PAN's oracle Laplacian, edge class at the
    90th percentile."""
    magnitude = np.abs(hp)
    threshold = float(np.percentile(magnitude, 90.0))
    contrast = michelson_oracle(band)
    edge = [c for c, m in zip(contrast.flat, magnitude.flat) if m >= threshold]
    homog = [c for c, m in zip(contrast.flat, magnitude.flat) if m < threshold]
    return sum(edge) / len(edge), sum(homog) / len(homog)


def test_criterion_1_metric_oracle_equivalence(verdict):
    ok = False
    failures: list[str] = []
    started = time.perf_counter()
    try:
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = rng.integers(0, 256, (16, 16)).astype(np.float64)
            pan = rng.integers(1, 256, (16, 16)).astype(np.float64)
            # two pairs exercise the identical-image path and its
            # infinite SNR sentinel
            f = m.copy() if seed >= 18 else rng.integers(0, 256, (16, 16)).astype(np.float64)
            fr, mr, pr = Raster(f.copy()), Raster(m.copy()), Raster(pan.copy())
            # FCC, HPDI and CSA share these; the loop oracles dominate the budget.
            lap_f, lap_pan = lap_oracle(f), lap_oracle(pan)

            checks = [
                ("DI", deviation_index(fr, mr), di_oracle(f, m)),
                ("SNR", snr(fr, mr), snr_oracle(f, m)),
                ("NRMSE", nrmse(fr, mr), nrmse_oracle(f, m)),
                ("Pearson", pearson(fr, pr), pearson_oracle(f, pan)),
                ("FCC", fcc(fr, pr), pearson_oracle(lap_f, lap_pan)),
                ("HPDI", hpdi(fr, pr), hpdi_oracle(lap_f, lap_pan, pan)),
                ("CSA", csa(fr, pr), csa_oracle(f, lap_pan)),
            ]
            for name, got, want in checks:
                got = got if isinstance(got, tuple) else (got,)
                want = want if isinstance(want, tuple) else (want,)
                for g, w in zip(got, want):
                    agree = g == w if isinstance(w, int) else close(float(g), float(w))
                    if not agree:
                        failures.append(f"seed {seed} {name}: {g} != {w}")
            if seed >= 18 and snr(fr, mr) != math.inf:
                failures.append(f"seed {seed}: expected infinite SNR sentinel")
        elapsed = time.perf_counter() - started
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.2f}s, budget 1s")
        ok = not failures
    finally:
        verdict(1, "metric oracle equivalence", ok)
    assert not failures, failures


def test_criterion_2_identity_self_fusion(verdict):
    ok = False
    worst = math.inf
    started = time.perf_counter()
    try:
        worst = 0.0
        for seed in range(10):
            ms = random_rgb(1000 + seed)
            pan = Raster(ihs_forward(ms).bands[0].samples.copy())
            fused = fuse_sf(ms, pan)
            for got, band in zip(fused.bands, ms.bands):
                dev = float(np.max(np.abs(got.samples - clamp_quantize(band).samples)))
                worst = max(worst, dev)
        elapsed = time.perf_counter() - started
        ok = worst <= 1.0 and elapsed < 1.0
    finally:
        verdict(2, "identity self-fusion", ok)
    assert worst <= 1.0, f"worst deviation {worst} digital numbers"
    assert time.perf_counter() - started < 1.0


def test_criterion_3_color_space_round_trips(verdict):
    ok = False
    ihs_err = hsv_err = math.inf
    try:
        ihs_err = hsv_err = 0.0
        for seed in (0, 1):
            for integral in (True, False):
                rgb = random_rgb(2000 + seed, integral=integral)
                assert rgb.width * rgb.height >= 4096
                back = ihs_inverse(ihs_forward(rgb))
                for a, b in zip(back.bands, rgb.bands):
                    ihs_err = max(ihs_err, float(np.max(np.abs(a.samples - b.samples))))
                back = hsv_inverse(hsv_forward(rgb))
                for a, b in zip(back.bands, rgb.bands):
                    hsv_err = max(hsv_err, float(np.max(np.abs(a.samples - b.samples))))
        ok = ihs_err <= 1e-9 and hsv_err <= 1e-6
    finally:
        verdict(3, "color space round trips", ok)
    assert ihs_err <= 1e-9, f"triangular model round trip error {ihs_err}"
    assert hsv_err <= 1e-6, f"hexcone model round trip error {hsv_err}"


def test_criterion_4_hue_preservation(verdict):
    ok = False
    worst = math.inf
    try:
        worst = 0.0
        for seed in range(10):
            ms = random_rgb(3000 + seed)
            pan = random_gray(4000 + seed)
            _, v1, v2 = (b.samples for b in ihs_forward(ms).bands)
            hue0 = np.arctan2(v2, v1)
            mask = np.hypot(v1, v2) > 1e-6
            for method in (fuse_sf, fuse_ihs):
                _, v1, v2 = (b.samples for b in ihs_forward(method(ms, pan, quantize=False)).bands)
                hue1 = np.arctan2(v2, v1)
                delta = np.arctan2(np.sin(hue1 - hue0), np.cos(hue1 - hue0))
                worst = max(worst, float(np.max(np.abs(delta[mask]))))
        ok = worst <= 1e-9
    finally:
        verdict(4, "hue preservation", ok)
    assert worst <= 1e-9, f"worst hue deviation {worst} rad"


def _band_mean(pairs, metric) -> float:
    return float(np.mean([metric(f, r) for f, r in pairs]))


def test_criterion_5_spectral_quality_ranking(verdict):
    ok = False
    wins = 0
    started = time.perf_counter()
    try:
        for seed in range(10):
            spec = SyntheticSpec(seed=seed, width=128, height=128, scale_factor=4)
            ms, pan, _ = synthesize(spec)
            scores = {}
            for name in ("SF", "IHS", "HSV"):
                fused = fuse(name, ms, pan)
                # spectral fidelity is judged against the multispectral
                # original, as the three metrics are defined
                pairs = list(zip(fused.bands, ms.bands))
                scores[name] = (
                    _band_mean(pairs, lambda f, r: deviation_index(f, r)[0]),
                    _band_mean(pairs, nrmse),
                    _band_mean(pairs, snr),
                )
            sf = scores["SF"]
            if all(
                sf[0] < other[0] and sf[1] < other[1] and sf[2] > other[2]
                for other in (scores["IHS"], scores["HSV"])
            ):
                wins += 1
        elapsed = time.perf_counter() - started
        ok = wins >= 8 and elapsed < 10.0
    finally:
        verdict(5, "spectral quality ranking", ok)
    assert wins >= 8, f"best spectral scores on {wins}/10 scenes"
    assert time.perf_counter() - started < 10.0


def test_criterion_6_spatial_quality_gain(verdict):
    ok = False
    methods = ("SF", "HFA", "HFM", "IHS")
    wins = dict.fromkeys(methods, 0)
    try:
        for seed in range(10):
            spec = SyntheticSpec(seed=seed, width=128, height=128, scale_factor=4)
            ms, pan, _ = synthesize(spec)
            baseline = float(np.mean([fcc(b, pan) for b in ms.bands]))
            for name in methods:
                fused = fuse(name, ms, pan)
                score = float(np.mean([fcc(b, pan) for b in fused.bands]))
                if score > baseline:
                    wins[name] += 1
        ok = all(w >= 9 for w in wins.values())
    finally:
        verdict(6, "spatial quality gain", ok)
    assert all(w >= 9 for w in wins.values()), f"correlation gains: {wins}"


def test_criterion_7_degenerate_input_handling(verdict):
    ok = False
    failures: list[str] = []

    def expect(label, condition):
        if not condition:
            failures.append(label)

    def expect_raises(label, fn, fragment):
        try:
            fn()
        except ValueError as e:
            if fragment not in str(e):
                failures.append(f"{label}: message {e!r} lacks {fragment!r}")
        else:
            failures.append(f"{label}: no error raised")

    try:
        ms = constant_rgb()
        pan = Raster(np.full((16, 16), 99.0))
        quantized = [clamp_quantize(b).samples for b in ms.bands]
        for name in METHOD_NAMES:
            fused = fuse(name, ms, pan)
            expect(
                f"{name} constant pass-through",
                all(
                    np.array_equal(a.samples, q)
                    for a, q in zip(fused.bands, quantized)
                ),
            )

        rng = np.random.default_rng(7)
        noisy = Raster(rng.integers(1, 256, (16, 16)).astype(np.float64))
        zeros = Raster(np.zeros((16, 16)))
        expect_raises("all-zero reference DI", lambda: deviation_index(noisy, zeros), "undefined DI")

        holed = rng.integers(1, 256, (16, 16)).astype(np.float64)
        holed[:2, :3] = 0.0
        value, excluded = deviation_index(noisy, Raster(holed))
        expect("zero pixels excluded from DI", excluded == 6 and math.isfinite(value))

        textured = random_rgb(8, size=16)
        passthrough = fuse_hfm(textured, zeros)
        expect(
            "zero-signal modulation pass-through",
            all(
                np.array_equal(a.samples, clamp_quantize(b).samples)
                for a, b in zip(passthrough.bands, textured.bands)
            ),
        )

        flat = fuse_rvs(textured, pan)
        expect(
            "flat regression prediction",
            all(
                np.array_equal(
                    a.samples,
                    clamp_quantize(
                        Raster(np.full((16, 16), float(b.samples.mean())))
                    ).samples,
                )
                for a, b in zip(flat.bands, textured.bands)
            ),
        )

        expect_raises(
            "flat image correlation", lambda: fcc(noisy, pan), "undefined correlation"
        )
        expect_raises(
            "flat signal pearson", lambda: pearson(noisy, Raster(np.full((16, 16), 5.0))), "undefined correlation"
        )
        expect_raises("flat edge classes", lambda: csa(noisy, pan), "class empty")
        expect_raises("all-zero detail ratio", lambda: hpdi(noisy, zeros), "undefined HPDI")
        expect("infinite SNR sentinel", snr(noisy, noisy) == math.inf)
        ok = not failures
    finally:
        verdict(7, "degenerate input handling", ok)
    assert not failures, failures


def test_criterion_8_pipeline_determinism(verdict, tmp_path, capsys):
    ok = False
    started = time.perf_counter()
    first = second = None

    def pipeline(run_dir):
        run_dir.mkdir()
        entries = []
        for seed in (0, 1, 2):
            code = main(
                [
                    "gen-synthetic",
                    "--seed", str(seed),
                    "--width", "64",
                    "--height", "64",
                    "--out", str(run_dir / f"pair{seed}"),
                ]
            )
            assert code == 0
            entries.append(
                {
                    "pair_id": f"pair{seed}",
                    "ms_path": f"pair{seed}/ms.ppm",
                    "pan_path": f"pair{seed}/pan.pgm",
                }
            )
        manifest = run_dir / "manifest.json"
        manifest.write_text(
            json.dumps({"pairs": entries, "methods": list(METHOD_NAMES), "output_dir": "fused"}),
            encoding="utf-8",
        )
        assert main(["batch", "--manifest", str(manifest)]) == 0
        csv = run_dir / "fused" / "metrics.csv"
        assert main(["report", "--csv", str(csv), "--out", str(run_dir / "charts")]) == 0
        digests = {}
        for p in sorted(run_dir.rglob("*")):
            if p.is_file() and p.suffix in (".ppm", ".pgm", ".csv", ".svg"):
                rel = str(p.relative_to(run_dir))
                digests[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
        return digests

    try:
        first = pipeline(tmp_path / "runA")
        second = pipeline(tmp_path / "runB")
        capsys.readouterr()
        elapsed = time.perf_counter() - started
        # 3 pairs x 3 generated files, 3 x 7 products, the metrics
        # table, and one chart per metric
        ok = first == second and len(first) == 38 and elapsed < 30.0
    finally:
        verdict(8, "pipeline determinism", ok)
    assert first == second
    assert len(first) == 38, sorted(first)
    assert time.perf_counter() - started < 30.0
