"""Tomography of cone (V-line) ray data.

Analytic disk/Gaussian phantoms with closed-form ray, line, and cone
integrals; Radon tools (backprojection, fractional |xi| filters,
ramp-filtered inversion); circle spectral operators; integral-identity
checks tying the cone transform to the Radon transform; and three inversion
routes, including a boundary-camera pipeline that rebins cone data into an
ordinary sinogram.

The package root exports the pipeline entry points and their input types. The
identity checks, the circle operators and the forward-model internals live in
their modules (``conetomo.cone``, ``conetomo.circle_ops``,
``conetomo.phantoms``), and so do the conveniences no pipeline or CLI path
calls: the figure phantoms ``centered_disk_phantom`` and
``overlapping_disks_phantom`` and the rigid motions ``rotated`` and
``translated`` in ``conetomo.phantoms``, and the identity families'
``IDENTITY_NAMES`` in ``conetomo.cone``.
"""

import types

from .circle_ops import (
    funk_hecke_lambda,
)
from .cone import (
    IdentityResult,
    cone_forward_sinogram,
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
    detector_positions,
    invert_mu_weighted,
    invert_sine_weighted,
)
from .phantoms import (
    Disk,
    GaussianBlob,
    Phantom,
    load_phantom_file,
    parse_phantom_text,
    radon_analytic,
    rasterize,
)
from .radon import (
    backprojection,
    fbp_radon_inversion,
)

__version__ = "1.0.0"

# the names imported above and nothing else; tests/test_public_surface.py
# pins the set, so an addition or removal is deliberate
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, types.ModuleType))
