import dataclasses
import inspect
import json

import conetomo
from conetomo import circle_ops, cli, inversion

from conftest import run_child

# Every name the package exports: the pipeline entry points and their input
# types. Identity checks, circle operators, forward-model internals, the
# figure phantoms and the rigid motions are reached through their modules.
# A change to the public surface has to edit
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
    "load_phantom_file",
    "parse_phantom_text",
    "radon_analytic",
    "rasterize",
    # radon
    "backprojection",
    "fbp_radon_inversion",
    # circle_ops
    "funk_hecke_lambda",
    # cone
    "IdentityResult",
    "cone_forward_sinogram",
    "identity_suite",
    # inversion
    "CameraConfig",
    "MuWeight",
    "compton_radon_sinogram",
    "compton_reconstruct",
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


# The reconstruction entry points' parameters, the camera's fields, the R^n
# operator's parameters and each subcommand's option keys. A setting no
# pipeline uses comes back only by editing these lists.
RECONSTRUCTION_PARAMETERS = {
    conetomo.compton_radon_sinogram: ["phantom", "cam", "n_theta", "n_s", "s_max"],
    conetomo.compton_reconstruct: ["phantom", "cam", "n_px", "half_extent", "n_theta", "n_s", "s_max"],
    inversion.cone_to_radon_even: ["block"],
    conetomo.fbp_radon_inversion: ["sino", "n_px", "half_extent"],
    circle_ops.beltrami_poly_apply: ["f", "n", "r"],
    conetomo.rasterize: ["phantom", "n_px", "half_extent"],
}

CLI_OPTIONS = {
    "phantom": ["phantom", "npx", "extent"],
    "forward": ["phantom", "method", "extent", "nbeta", "npsi", "perside", "vertex", "ntheta", "ns", "smax"],
    "reconstruct": ["phantom", "method", "npx", "extent", "nbeta", "npsi", "perside", "ntheta", "ns", "smax", "threshold"],
    "verify": ["seed", "count", "identity"],
    "lambda": ["n", "mmax"],
}


def test_reconstruction_surface_is_pinned():
    assert [f.name for f in dataclasses.fields(conetomo.CameraConfig)] == ["half_extent", "per_side", "n_beta", "n_psi"]
    for func, params in RECONSTRUCTION_PARAMETERS.items():
        assert list(inspect.signature(func).parameters) == params, func.__name__


def test_cli_options_are_pinned():
    # every subcommand also takes --out and --config
    assert {command: list(options) for command, (_, options) in cli._OPTIONS.items()} == CLI_OPTIONS


# the scipy modules a child process has loaded, printed as a sorted list
_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_import_loads_no_scipy():
    # every scipy module is loaded on use, and only as an extension file
    # without its package: blobs and the 3-D identities load
    # scipy.special._special_ufuncs, backprojection scipy.sparse._sparsetools.
    # The eigenvalues of every dimension have a closed form and load none.
    # Loading scipy.special alone nearly doubled the import's RSS
    child = run_child(["-c", f"import sys, conetomo, conetomo.cli; print({_SCIPY_LOADED})"])
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_disk_only_cli_steps_load_no_scipy(tmp_path):
    # each run is one fresh process that prints the scipy modules loaded so
    # far after each step, so a step that loads one is named. Each
    # reconstruction backprojects, which loads scipy's COO kernel from its
    # extension file alone: the scipy.sparse package's init loaded about 325
    # more modules. The eigenvalues have a closed form for every n, so lambda
    # --n 3 loads none (355 while its quadrature imported scipy.integrate).
    # A blob needs erfc or Dawson's function and the 3-D identities erfc and
    # i0e, all from scipy.special's ufunc extension, loaded alone too: the
    # package's init loaded 66 more modules. The camera route reads a blob
    # through its line integrals, Gaussians in closed form, so compton on a
    # blob inside the camera square loads no special function (it took
    # erfc for the rays' tails)
    disk, blob, small = tmp_path / "disk.txt", tmp_path / "blob.txt", tmp_path / "small.txt"
    disk.write_text("disk 0.1 0 0.4 1.0\n")
    blob.write_text("disk 0 0 0.5 1.0\ngauss 0.1 0 0.2 1.0\n")
    small.write_text("disk 0 0 0.5 1.0\ngauss 0.1 0 0.1 1.0\n")
    out = str(tmp_path / "o")
    on_disk = ["--phantom", str(disk), "--out", out]
    on_blob = ["--phantom", str(blob), "--out", out]
    on_small = ["--phantom", str(small), "--out", out]
    sparse, ufuncs = "scipy.sparse._sparsetools", "scipy.special._special_ufuncs"
    runs = [
        [
            (["phantom", "--npx", "64", *on_disk], []),
            (["forward", "--method", "cone", "--perside", "5", "--nbeta", "16", "--npsi", "16", *on_disk], []),
            (["forward", "--method", "radon", "--ntheta", "32", "--ns", "65", *on_disk], []),
            (["lambda", "--n", "2", "--out", out], []),
            (["lambda", "--n", "3", "--out", out], []),
            (["reconstruct", "--method", "compton", "--npx", "16", "--perside", "5", "--nbeta", "16", "--npsi", "16", *on_disk], [sparse]),
            (["reconstruct", "--method", "fbp", "--npx", "16", "--ntheta", "16", "--ns", "33", *on_disk], [sparse]),
            (["reconstruct", "--method", "thm2", "--npx", "16", "--nbeta", "8", "--npsi", "16", *on_disk], [sparse]),
            (["reconstruct", "--method", "thm2", "--npx", "16", *on_blob], [sparse, ufuncs]),
        ],
        [(["forward", "--method", "cone", "--perside", "5", "--nbeta", "16", "--npsi", "16", *on_blob], [ufuncs])],
        [(["reconstruct", "--method", "compton", "--npx", "16", "--perside", "5", "--nbeta", "16", "--npsi", "16", *on_small], [sparse])],
        [(["verify", "--identity", "asgeirsson-3d", "--count", "1", "--out", out], [ufuncs])],
    ]
    probe = (
        "import json, sys; from conetomo.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        f"    print('step', argv[0], main(argv), {_SCIPY_LOADED})"
    )
    for run in runs:
        child = run_child(["-c", probe, json.dumps([argv for argv, _ in run])])
        assert child.returncode == 0, child.stderr
        got = [line.split(" ", 3)[1:] for line in child.stdout.splitlines() if line.startswith("step ")]
        assert got == [[argv[0], "0", str(loaded)] for argv, loaded in run]


def test_n2_eigenvalues_do_not_load_integrate():
    # the n = 2 eigenvalues have a closed form and need no quadrature
    probe = (
        "import sys; from conetomo.circle_ops import funk_hecke_lambda; "
        "[funk_hecke_lambda(m, 2) for m in range(41)]; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    )
    child = run_child(["-c", probe])
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
