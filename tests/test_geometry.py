import importlib.machinery
import importlib.util
import json
import math
import re

import numpy as np
import pytest

from conetomo import geometry
from conetomo.geometry import (
    ConeSinogram,
    ImageGrid,
    TWO_PI,
    RadonSinogram,
    _ray_lattice,
    axis_angles,
    opening_midpoints,
    pixel_centers,
    sphere_area,
)
from conetomo.phantoms import Disk, Phantom, ray_integral

from conftest import run_child


def test_direction_convention():
    # angle a maps to (sin a, cos a): 0 -> +y, pi/2 -> +x, pi -> -y. A unit
    # disk of radius 0.5 two units out on one axis gives a full 1.0 chord
    # only to the ray along that axis.
    on_y = Phantom(disks=(Disk((0.0, 2.0), 0.5, 1.0),))
    on_x = Phantom(disks=(Disk((2.0, 0.0), 0.5, 1.0),))
    assert ray_integral(on_y, (0.0, 0.0), 0.0) == pytest.approx(1.0)
    assert ray_integral(on_x, (0.0, 0.0), 0.0) == 0.0
    assert ray_integral(on_x, (0.0, 0.0), math.pi / 2) == pytest.approx(1.0)
    assert ray_integral(on_y, (0.0, 0.0), math.pi / 2) == 0.0
    assert ray_integral(on_y, (0.0, 0.0), math.pi) == 0.0
    assert ray_integral(on_y, (0.0, 4.0), math.pi) == pytest.approx(1.0)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_pixel_centers():
    c = pixel_centers(4, 1.0)
    assert np.allclose(c, [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(c, -c[::-1])  # symmetric about 0


def test_lattices():
    b = axis_angles(8)
    assert b[0] == 0.0 and len(b) == 8
    assert np.allclose(np.diff(b), math.pi / 4)
    p = opening_midpoints(4)
    assert np.allclose(p, [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8])
    assert 0.0 < p[0] and p[-1] < math.pi


def test_image_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid(2, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ImageGrid(2, -1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ImageGrid(2, 1.0, np.full((2, 2), np.nan))
    g = ImageGrid(4, 2.0, np.zeros((4, 4)))
    assert g.pixel_size == pytest.approx(1.0)
    assert np.allclose(g.coords, pixel_centers(4, 2.0))


def test_sinogram_containers():
    r = RadonSinogram(3, 5, 1.0, np.zeros((3, 5)))
    assert np.allclose(r.thetas, [0, math.pi / 3, 2 * math.pi / 3])
    assert np.allclose(r.offsets, np.linspace(-1, 1, 5))
    with pytest.raises(ValueError):
        RadonSinogram(3, 5, 1.0, np.zeros((5, 3)))
    c = ConeSinogram(np.zeros((2, 2)), 4, 3, np.zeros((2, 4, 3)))
    assert (c.n_beta, c.n_psi) == (4, 3)
    with pytest.raises(ValueError):
        ConeSinogram(np.zeros((2, 3)), 4, 3, np.zeros((2, 4, 3)))
    with pytest.raises(ValueError):
        ConeSinogram(np.zeros((2, 2)), 4, 3, np.zeros((1, 4, 3)))


def test_containers_copy_input():
    vals = np.zeros((2, 2))
    g = ImageGrid(2, 1.0, vals)
    vals[0, 0] = 5.0
    assert g.values[0, 0] == 0.0
    # a read-only view of a writeable array is copied too: its owner can
    # still write through the base
    view = vals.view()
    view.setflags(write=False)
    g = ImageGrid(2, 1.0, view)
    vals[0, 0] = 7.0
    assert g.values[0, 0] == 5.0
    assert not np.shares_memory(g.values, vals)


def test_containers_adopt_frozen_arrays():
    # a read-only float64 array that owns its data has no other writer, so
    # every container takes it as is
    def frozen(shape):
        arr = np.zeros(shape)
        arr.setflags(write=False)
        return arr

    vals = frozen((2, 2))
    assert ImageGrid(2, 1.0, vals).values is vals
    vals = frozen((3, 5))
    assert RadonSinogram(3, 5, 1.0, vals).values is vals
    vals = frozen((2, 4, 3))
    assert ConeSinogram(np.zeros((2, 2)), 4, 3, vals).values is vals
    # another dtype is still converted into a copy
    ints = np.zeros((2, 2), dtype=np.int64)
    ints.setflags(write=False)
    assert ImageGrid(2, 1.0, ints).values.dtype == np.float64


def test_containers_reject_non_finite_extents():
    # an extent whose squared span (2 * extent)^2 overflows is rejected too:
    # the bound is sqrt(float max) / 2 = 6.7039e153
    for bad in (math.inf, -math.inf, math.nan, 0.0, 1e200, 6.704e153):
        with pytest.raises(ValueError):
            ImageGrid(2, bad, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RadonSinogram(3, 5, bad, np.zeros((3, 5)))
    assert ImageGrid(2, 6.7e153, np.zeros((2, 2))).half_extent == 6.7e153
    assert RadonSinogram(3, 5, 6.7e153, np.zeros((3, 5))).s_max == 6.7e153


def test_ray_lattice_collapse(rng):
    lat = _ray_lattice(64, 256)
    assert _ray_lattice(64, 256) is lat  # built once per lattice
    assert np.all(np.diff(lat.angles) > 0)
    assert lat.angles.min() >= 0.0 and lat.angles.max() < TWO_PI
    pair_w = np.full((64, 256), 0.5)
    half_step, row_w = lat.line_rows(pair_w)
    # 2*64*256 lattice rays lie in 512 directions, i.e. on 256 lines, and
    # each pair weight counts once, for the line through both its rays
    assert row_w.size == 256 and half_step
    assert row_w.sum() == pytest.approx(64 * 256 * 0.5, rel=1e-12)
    # on 63 x 256 no two lines coincide, so a row of zero pair weights zeros
    # 256 of its lines
    pair_w = rng.standard_normal((63, 256))
    pair_w = pair_w + pair_w[:, ::-1]
    pair_w[5] = 0.0
    _, row_w = _ray_lattice(63, 256).line_rows(pair_w)
    assert row_w.sum() == pytest.approx(pair_w.sum(), rel=1e-12)
    assert row_w.size == 63 * 256 and np.count_nonzero(row_w) == 62 * 256
    # weights not symmetric in the opening are rejected
    pair_w[0, 0] += 1.0
    with pytest.raises(ValueError):
        _ray_lattice(63, 256).line_rows(pair_w)


@pytest.mark.parametrize("n_beta, n_psi, distinct", [(200, 200, 400), (256, 2000, 32000), (63, 256, 32256)])
def test_ray_lattice_gathers_every_ray(n_beta, n_psi, distinct):
    lat = _ray_lattice(n_beta, n_psi)
    assert lat.angles.size == distinct
    assert lat.plus.shape == lat.minus.shape == (n_beta, n_psi)
    phis = axis_angles(n_beta)[:, None]
    psis = opening_midpoints(n_psi)
    for idx, ang in ((lat.plus, phis + psis), (lat.minus, phis - psis)):
        got = lat.angles[idx]
        assert np.abs(np.sin(got) - np.sin(ang)).max() < 1e-12
        assert np.abs(np.cos(got) - np.cos(ang)).max() < 1e-12
    for arr in (lat.angles, lat.plus, lat.minus):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("n_beta, n_psi, lines", [(200, 200, 200), (64, 256, 256), (63, 256, 16128), (64, 255, 8160)])
def test_ray_lattice_antipodes(n_beta, n_psi, lines):
    # the minus ray at (j, n_psi - 1 - k) is the plus ray at (j, k) turned by pi
    lat = _ray_lattice(n_beta, n_psi)
    turns = (lat.angles[lat.minus[:, ::-1]] - lat.angles[lat.plus] - math.pi) / TWO_PI
    assert np.abs(turns - np.round(turns)).max() < 1e-12
    # so the rays pair into lines, one per direction mod pi, each on its
    # own Radon row
    _, row_w = lat.line_rows(np.ones((n_beta, n_psi)))
    assert row_w.size == lines
    assert np.all(row_w > 0.0)


@pytest.mark.parametrize("n_beta, n_psi, n_orbits", [(200, 200, 2), (200, 199, 199), (63, 256, 512), (64, 63, 63)])
def test_ray_lattice_orbits(rng, n_beta, n_psi, n_orbits):
    lat = _ray_lattice(n_beta, n_psi)
    assert lat.orbits.shape == (n_orbits, n_beta)
    assert not lat.orbits.flags.writeable
    # every distinct ray fills exactly one slot
    assert np.array_equal(np.sort(lat.orbits.ravel()), np.arange(lat.angles.size))
    # along a row the angle advances one axis step, 2 pi / n_beta
    turns = np.diff(lat.angles[lat.orbits], axis=1) / TWO_PI - 1.0 / n_beta
    assert np.abs(turns - np.round(turns)).max() < 1e-12
    # the FFT correlation with the opening kernel is the opening integral
    # (r[plus] + r[minus]) @ w_psi, for one ray vector and for a stack
    w_psi = rng.uniform(0.0, 1.0, n_psi)
    kernel = np.conj(np.fft.rfft(lat.opening_kernel(w_psi)))
    rays = rng.standard_normal((3, lat.angles.size))
    rays[1] *= -2.0
    want = (rays[:, lat.plus] + rays[:, lat.minus]) @ w_psi
    stack = np.fft.irfft(np.einsum("cof,of->cf", np.fft.rfft(rays[:, lat.orbits]), kernel), n=n_beta)
    one = np.fft.irfft((np.fft.rfft(rays[0, lat.orbits]) * kernel).sum(axis=0), n=n_beta)
    for got, ref in ((stack, want), (one, want[0])):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


LINE_LATTICES = [(b, p) for b in range(1, 41) for p in range(2, 41)] + [(63, 256), (64, 256), (97, 101)]


def test_ray_lattice_lines_sit_on_a_uniform_angle_lattice(rng):
    # the lattice is built from integers; float geometry must agree with it.
    # The direct routes backproject its lines with the orbit stencil, which
    # needs them at (m + c) pi / L, c = 0 or 1/2. In units of pi the lines
    # are 2 j / n_beta + (2 k + 1) / (2 n_psi) mod 1, a coset of the group of
    # order L = lcm(n_beta / gcd(n_beta, 2), n_psi)
    for n_beta, n_psi in LINE_LATTICES:
        lat = _ray_lattice(n_beta, n_psi)
        phis = axis_angles(n_beta)[:, None]
        psis = opening_midpoints(n_psi)
        for idx, ang in ((lat.plus, phis + psis), (lat.minus, phis - psis)):
            got = lat.angles[idx]
            assert np.abs(np.sin(got) - np.sin(ang)).max() < 1e-12, (n_beta, n_psi)
            assert np.abs(np.cos(got) - np.cos(ang)).max() < 1e-12, (n_beta, n_psi)
        turns = (lat.angles[lat.minus[:, ::-1]] - lat.angles[lat.plus] - math.pi) / TWO_PI
        assert np.abs(turns - np.round(turns)).max() < 1e-12, (n_beta, n_psi)
        assert np.array_equal(np.sort(lat.orbits.ravel()), np.arange(lat.angles.size))
        turns = np.diff(lat.angles[lat.orbits], axis=1) / TWO_PI - 1.0 / n_beta
        assert np.abs(turns - np.round(turns)).max(initial=0.0) < 1e-12, (n_beta, n_psi)
        # each pair's line, through its plus ray, is the Radon row at the ray
        # angle + pi / 2 mod pi, (row + half / 2) pi / L
        pair_w = rng.uniform(0.5, 1.5, (n_beta, n_psi))
        pair_w = pair_w + pair_w[:, ::-1]
        half_step, row_w = lat.line_rows(pair_w)
        n_lines = math.lcm(n_beta // math.gcd(n_beta, 2), n_psi)
        assert row_w.size == n_lines, (n_beta, n_psi)
        pos = np.mod(phis + psis + 0.5 * math.pi, math.pi) * (n_lines / math.pi) - 0.5 * half_step
        row = np.rint(pos)
        assert np.abs(pos - row).max() * (math.pi / n_lines) < 1e-12, (n_beta, n_psi)
        want = np.bincount(row.astype(np.intp).ravel() % n_lines, pair_w.ravel(), n_lines)
        assert np.array_equal(row_w, want), (n_beta, n_psi)


# (folder, extension, module that exports the function, function): every
# function src/ takes from a scipy extension loaded alone
_SCIPY_FUNCTIONS = [
    ("sparse", "_sparsetools", "scipy.sparse._sparsetools", "coo_matmat_dense"),
    ("special", "_special_ufuncs", "scipy.special", "dawsn"),
    ("special", "_special_ufuncs", "scipy.special", "erfc"),
    ("special", "_special_ufuncs", "scipy.special", "i0e"),
]


def test_scipy_extension_is_scipys_own():
    # backprojection's COO kernel and the blobs' special functions come from
    # scipy's extension files loaded without their packages; importing the
    # package before the loader runs, or after, yields the very same
    # functions, so the arithmetic is scipy's. A fresh process each, so the
    # order is the one named
    probe = (
        "import importlib, json, sys\n"
        "from conetomo.geometry import _scipy_extension\n"
        "cases, order = json.loads(sys.argv[1]), sys.argv[2]\n"
        "def public(): return [getattr(importlib.import_module(m), f) for _, _, m, f in cases]\n"
        "ref = public() if order == 'before' else None\n"
        "got = [getattr(_scipy_extension(d, e), f) for d, e, _, f in cases]\n"
        "print([a is b for a, b in zip(got, ref or public())])"
    )
    for order in ("before", "after"):
        child = run_child(["-c", probe, json.dumps(_SCIPY_FUNCTIONS), order])
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == str([True] * len(_SCIPY_FUNCTIONS)), order


def test_scipy_extension_missing_file_names_it(monkeypatch, tmp_path):
    # no fallback: a scipy whose folder lacks the extension file fails with
    # an ImportError naming the file and the folder searched, and a missing
    # scipy says so
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    for folder, extension in {(d, e) for d, e, _, _ in _SCIPY_FUNCTIONS}:
        with pytest.raises(ImportError, match=f"{extension}.*not found in {re.escape(str(tmp_path / folder))}"):
            geometry._scipy_extension.__wrapped__(folder, extension)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"_special_ufuncs.*\(scipy is not installed\)"):
        geometry._scipy_extension.__wrapped__("special", "_special_ufuncs")
