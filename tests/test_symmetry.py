"""Fusion commutes with the symmetries of the pixel grid.

The 3x3 stencils are symmetric and replicate-padded, and every method is
elementwise apart from them and its global sums. So fusing a flipped,
transposed or rotated pair must give the same transform of the quantized
product, byte for byte, for all seven methods; and fusing the MS bands
in reverse order must give the product's bands in reverse order. A
change that re-lays planes, strips or halos and treats one edge, one
axis or one band differently from its mirror shows here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panfuse.fusion import METHOD_NAMES, fuse
from panfuse.metrics import evaluate_all
from panfuse.raster import MultiBandImage, Raster, resample_nearest
from panfuse.synthetic import SyntheticSpec, synthesize

TRANSFORMS = {
    "flipud": np.flipud,
    "fliplr": np.fliplr,
    "transpose": np.transpose,
    "rot90": np.rot90,
}


def transformed(image, t):
    """``image`` (a Raster or a MultiBandImage) with ``t`` applied to
    each band."""
    if isinstance(image, Raster):
        return Raster(np.ascontiguousarray(t(image.array)))
    return MultiBandImage(tuple(transformed(b, t) for b in image.bands))


def band_bytes(image):
    return [b.array.tobytes() for b in image.bands]


def assert_symmetric(ms, pan):
    """Every method's product of ``(ms, pan)`` against those of its
    transformed and band-reversed copies; the failures are listed as
    ``(method, transform)``."""
    failures = []
    for method in METHOD_NAMES:
        product = fuse(method, ms, pan)
        for name, t in TRANSFORMS.items():
            got = fuse(method, transformed(ms, t), transformed(pan, t))
            if band_bytes(got) != band_bytes(transformed(product, t)):
                failures.append((method, name))
        reversed_bands = fuse(method, MultiBandImage(ms.bands[::-1]), pan)
        if band_bytes(reversed_bands) != band_bytes(product)[::-1]:
            failures.append((method, "band reversal"))
    assert failures == []


# Four planes (three MS bands and PAN) of DN on a small grid; 1x1, 1xn
# and nx1 are all drawn.
dn_planes = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda s: arrays(np.uint8, (4, *s), elements=st.integers(0, 255))
)


@given(dn_planes)
@settings(deadline=None, max_examples=40)
def test_random_dn_fuse_symmetrically(planes):
    assert_symmetric(MultiBandImage(tuple(Raster(p) for p in planes[:3])), Raster(planes[3]))


@pytest.mark.parametrize("width, height", [(128, 128), (124, 96)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_synthetic_pairs_fuse_symmetrically(seed, width, height):
    ms, pan, _ = synthesize(SyntheticSpec(seed=seed, width=width, height=height))
    assert_symmetric(ms, pan)


# Exact on the 8-bit grid: SNR and NRMSE are ratios of exact integer sums
# of squares, and excluded_pixels counts zeros. DI, HPDI and the two CSA
# contrasts are float means of ratios, whose bits depend on the order they
# are summed in, which a flip or transpose changes; FCC's variances are
# float sums too, in no fixed order. Those five are left out.
ORDER_FREE = ("SNR", "NRMSE")


def order_free_rows(ms, pan, product, method):
    """(band, metric, excluded_pixels, value hex or None) of every row of
    ``evaluate_all``; the value only for the ORDER_FREE metrics."""
    return [
        (r.band, r.metric, r.excluded_pixels, r.value.hex() if r.metric in ORDER_FREE else None)
        for r in evaluate_all(ms, pan, product, "p", method)
    ]


@pytest.mark.parametrize("width, height", [(128, 128), (124, 96)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order_free_metrics_are_symmetric(seed, width, height):
    """Transforming MS, PAN and product together leaves SNR, NRMSE and
    every row's excluded_pixels bit-identical, for all seven methods."""
    ms, pan, _ = synthesize(SyntheticSpec(seed=seed, width=width, height=height))
    ms = resample_nearest(ms, pan.width, pan.height)
    failures = []
    for method in METHOD_NAMES:
        product = fuse(method, ms, pan)
        want = order_free_rows(ms, pan, product, method)
        for name, t in TRANSFORMS.items():
            got = order_free_rows(*(transformed(x, t) for x in (ms, pan, product)), method)
            if got != want:
                failures.append((method, name))
    assert failures == []
