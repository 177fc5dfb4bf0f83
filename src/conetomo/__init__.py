"""Tomography of cone (V-line) ray data.

Analytic disk/Gaussian phantoms with closed-form ray, line, and cone
integrals; Radon tools (backprojection, fractional |xi| filters,
ramp-filtered inversion); circle spectral operators; integral-identity
checks tying the cone transform to the Radon transform; and three inversion
routes, including a boundary-camera pipeline that rebins cone data into an
ordinary sinogram.
"""

from .circle_ops import (
    CircleFunction,
    beltrami_poly_apply,
    beltrami_poly_multipliers,
    cosine_kernel_eigenvalues,
    funk_hecke_lambda,
    funk_transform_s1,
)
from .cone import (
    IDENTITY_NAMES,
    GaussianMixture3,
    IdentityResult,
    check_asgeirsson,
    check_cone_radon_3d,
    check_identity_bpr,
    check_identity_psi_integral,
    check_identity_sine_weighted,
    check_sph_harm_relation,
    cone_forward_sinogram,
    cone_forward_vertical,
    identity_suite,
)
from .formats import (
    read_cone_sinogram,
    read_image_raw,
    read_radon_sinogram,
    write_cone_sinogram,
    write_image_raw,
    write_pgm16,
    write_radon_sinogram,
)
from .geometry import (
    ConeSinogram,
    ImageGrid,
    RadonSinogram,
    sphere_area,
)
from .inversion import (
    CameraConfig,
    MuWeight,
    compton_radon_sinogram,
    compton_reconstruct,
    cone_to_radon_even,
    detector_positions,
    invert_mu_weighted,
    invert_sine_weighted,
)
from .phantoms import (
    Disk,
    GaussianBlob,
    Phantom,
    centered_disk_phantom,
    cone_analytic_2d,
    cone_block_analytic,
    eval_phantom,
    load_phantom_file,
    overlapping_disks_phantom,
    parse_phantom_text,
    radon_analytic,
    rasterize,
    ray_integral,
    rotated,
    translated,
)
from .radon import (
    backprojection,
    fbp_radon_inversion,
    riesz_apply_2d,
)

__version__ = "1.0.0"

__all__ = [
    "CameraConfig",
    "CircleFunction",
    "ConeSinogram",
    "Disk",
    "GaussianBlob",
    "GaussianMixture3",
    "IDENTITY_NAMES",
    "IdentityResult",
    "ImageGrid",
    "MuWeight",
    "Phantom",
    "RadonSinogram",
    "backprojection",
    "beltrami_poly_apply",
    "beltrami_poly_multipliers",
    "centered_disk_phantom",
    "check_asgeirsson",
    "check_cone_radon_3d",
    "check_identity_bpr",
    "check_identity_psi_integral",
    "check_identity_sine_weighted",
    "check_sph_harm_relation",
    "compton_radon_sinogram",
    "compton_reconstruct",
    "cone_analytic_2d",
    "cone_block_analytic",
    "cone_forward_sinogram",
    "cone_forward_vertical",
    "cone_to_radon_even",
    "cosine_kernel_eigenvalues",
    "detector_positions",
    "eval_phantom",
    "fbp_radon_inversion",
    "funk_hecke_lambda",
    "funk_transform_s1",
    "identity_suite",
    "invert_mu_weighted",
    "invert_sine_weighted",
    "load_phantom_file",
    "overlapping_disks_phantom",
    "parse_phantom_text",
    "radon_analytic",
    "rasterize",
    "ray_integral",
    "read_cone_sinogram",
    "read_image_raw",
    "read_radon_sinogram",
    "riesz_apply_2d",
    "rotated",
    "sphere_area",
    "translated",
    "write_cone_sinogram",
    "write_image_raw",
    "write_pgm16",
    "write_radon_sinogram",
]
