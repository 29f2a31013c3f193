"""Pan-sharpening toolkit: fusion methods, quality metrics, PNM I/O."""

from .raster import (
    MultiBandImage,
    PnmError,
    Raster,
    clamp_quantize,
    load_pnm,
    resample_nearest,
    save_pnm,
)
from .filtering import box_lpf, laplacian_hp, unsharp_mask
from .colorspace import HsvPlanes, IhsPlanes, hsv_forward, hsv_inverse, ihs_forward, ihs_inverse
from .fusion import (
    FUSION_METHODS,
    METHOD_NAMES,
    fuse,
    fuse_ef,
    fuse_hfa,
    fuse_hfm,
    fuse_hsv,
    fuse_ihs,
    fuse_rvs,
    fuse_sf,
    match_mean_std,
)
from .metrics import METRIC_ORDER, MetricRecord, evaluate_all
from .synthetic import SyntheticSpec, generate_pair, synthesize

__version__ = "0.1.0"
