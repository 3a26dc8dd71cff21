"""Analytic X-ray / Radon transform toolkit with dual inversion branches."""

from .geometry import (
    SphereQuadrature,
    VolumeGrid,
    cube_grid,
    fibonacci_sphere,
)
from .phantom import (
    BALL,
    GAUSSIAN,
    Phantom,
    Primitive,
    evaluate,
    gaussian_phantom,
    halfline_integral,
    line_integral,
    load_phantom,
    plane_integral,
    ray_differences,
    save_phantom,
)
from .xform import RadonProfile
from .hilbert import (
    derivative_rows,
    hilbert_pv_direct,
    hilbert_rows,
    sample_rows,
)
from .inversion import (
    BRANCH_CLASSICAL,
    BRANCH_RADON,
    BRANCH_XRAY,
    CLASSICAL_RADON_CONSTANT,
    RADON_BRANCH_FACTOR,
    SPHERICAL_REFERENCE_CONSTANT,
    XRAY_BRANCH_CONSTANT,
    CalibrationResult,
    Lemma9Report,
    RadonDataset,
    ReconstructionConfig,
    build_radon_dataset,
    calibration_points,
    fit_scale,
    grangeat_convert,
    lemma9_diagnostic,
    lift_xray_data,
    make_phantom_xray_data,
    phantom_data,
    read_volume,
    reconstruct,
    write_volume,
)

__version__ = "0.1.0"
