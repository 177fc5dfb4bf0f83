import dataclasses
import inspect

import conetomo

from conftest import run_child

# Every name the package exports. A change to the public surface has to edit
# this list, so additions and removals are deliberate.
PUBLIC_NAMES = {
    # geometry
    "ConeSinogram",
    "ImageGrid",
    "RadonSinogram",
    "sphere_area",
    # phantoms
    "Disk",
    "GaussianBlob",
    "Phantom",
    "centered_disk_phantom",
    "cone_block_analytic",
    "load_phantom_file",
    "overlapping_disks_phantom",
    "parse_phantom_text",
    "radon_analytic",
    "rasterize",
    "ray_integral",
    "rotated",
    "translated",
    # radon
    "backprojection",
    "fbp_radon_inversion",
    "riesz_apply_2d",
    # circle_ops
    "CircleFunction",
    "beltrami_poly_apply",
    "beltrami_poly_multipliers",
    "funk_hecke_lambda",
    "funk_transform_s1",
    # cone
    "GaussianMixture3",
    "IDENTITY_NAMES",
    "IdentityResult",
    "check_asgeirsson",
    "check_cone_radon_3d",
    "check_identity_bpr",
    "check_identity_psi_integral",
    "check_identity_sine_weighted",
    "check_sph_harm_relation",
    "cone_forward_sinogram",
    "cone_forward_vertical",
    "identity_suite",
    # inversion
    "CameraConfig",
    "MuWeight",
    "compton_radon_sinogram",
    "compton_reconstruct",
    "cone_to_radon_even",
    "detector_positions",
    "invert_mu_weighted",
    "invert_sine_weighted",
    # formats
    "read_cone_sinogram",
    "read_image_raw",
    "read_radon_sinogram",
    "write_cone_sinogram",
    "write_image_raw",
    "write_pgm16",
    "write_radon_sinogram",
}


def test_public_surface_is_pinned():
    assert len(conetomo.__all__) == len(set(conetomo.__all__))
    assert set(conetomo.__all__) == PUBLIC_NAMES
    for name in conetomo.__all__:
        assert getattr(conetomo, name) is not None


# The reconstruction entry points' parameters and the camera's fields. A
# setting no pipeline uses comes back only by editing these lists.
RECONSTRUCTION_PARAMETERS = {
    "compton_radon_sinogram": ["phantom", "cam", "n_theta", "n_s", "s_max"],
    "compton_reconstruct": ["phantom", "cam", "n_px", "half_extent", "n_theta", "n_s", "s_max"],
    "cone_to_radon_even": ["block"],
    "fbp_radon_inversion": ["sino", "n_px", "half_extent"],
}


def test_reconstruction_surface_is_pinned():
    assert [f.name for f in dataclasses.fields(conetomo.CameraConfig)] == ["half_extent", "per_side", "n_beta", "n_psi"]
    for name, params in RECONSTRUCTION_PARAMETERS.items():
        assert list(inspect.signature(getattr(conetomo, name)).parameters) == params, name


def test_import_loads_neither_integrate_nor_sparse():
    # funk_hecke_lambda imports scipy.integrate and backprojection
    # scipy.sparse on use, which keeps the package's import time low
    probe = "import sys, conetomo; print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.sparse'))))"
    child = run_child(["-c", probe])
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
