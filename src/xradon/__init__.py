"""Analytic X-ray / Radon transform toolkit with dual inversion branches."""

from .geometry import (
    SphereQuadrature,
    VolumeGrid,
    fibonacci_sphere,
)
from .phantom import (
    BALL,
    GAUSSIAN,
    Phantom,
    Primitive,
    evaluate,
    gaussian_phantom,
    gaussian_sphere_mean,
    halfline_integral,
    line_integral,
    load_phantom,
    plane_integral,
    plane_integral_derivative,
    ray_differences,
    riesz_potential,
    save_phantom,
    xray_step_target,
)
from .xform import RadonProfile
from .hilbert import (
    HILBERT,
    HILBERT_DERIVATIVE,
    SECOND_DIFFERENCE,
    convolve_rows,
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
    PhantomProfiles,
    RadonDataset,
    ReconstructionConfig,
    build_radon_dataset,
    calibration_points,
    fit_scale,
    grangeat_convert,
    lemma9_diagnostic,
    lift_xray_data,
    phantom_data,
    read_volume,
    reconstruct,
    write_volume,
)

__version__ = "0.1.0"
