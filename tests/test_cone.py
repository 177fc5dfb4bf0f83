import math

import numpy as np
import pytest
from scipy.integrate import simpson

from conetomo import cone
from conetomo.cone import (
    GaussianMixture3,
    IDENTITY_NAMES,
    check_asgeirsson,
    check_cone_radon_3d,
    check_identity_bpr,
    check_identity_psi_integral,
    check_identity_sine_weighted,
    check_sph_harm_relation,
    cone_forward_sinogram,
    cone_forward_vertical,
    identity_suite,
    random_mixture_3d,
    random_phantom,
    sphere_product_nodes,
)
from conetomo.geometry import axis_angles, opening_midpoints, sphere_area
from conetomo.phantoms import overlapping_disks_phantom, rotated, translated

from conftest import cone_analytic_2d, traced_peak


def rot_ccw(alpha, p):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1]])


def unit_gaussian_3d():
    # exp(-|x|^2): amplitude 1, sigma = 1/sqrt(2)
    return GaussianMixture3([[0.0, 0.0, 0.0]], [math.sqrt(0.5)], [1.0])


def test_cone_forward_sinogram_shape(rng):
    p = random_phantom(rng)
    sino = cone_forward_sinogram(p, [[0.0, 1.0], [1.0, 0.0]], 8, 6)
    assert sino.values.shape == (2, 8, 6)
    got = sino.values[1, 3, 2]
    want = cone_analytic_2d(p, (1.0, 0.0), axis_angles(8)[3], opening_midpoints(6)[2])
    assert got == pytest.approx(want, abs=1e-13)
    with pytest.raises(ValueError):
        cone_forward_sinogram(p, [[0.0, 0.0]], 8, 1)


def test_cone_forward_sinogram_adopts_its_values():
    # the container takes the frozen result as is, so the peak is one values
    # array plus a vertex's gathers, not two values arrays
    verts = np.random.default_rng(3).uniform(-1.0, 1.0, (64, 2))
    p = overlapping_disks_phantom()
    cone_forward_sinogram(p, verts[:1], 200, 200)  # builds the cached ray lattice
    sinos = []
    peak = traced_peak(lambda: sinos.append(cone_forward_sinogram(p, verts, 200, 200)))
    sino = sinos.pop()
    assert not sino.values.flags.writeable
    assert peak <= 1.1 * sino.values.nbytes


def test_cone_evenness_invariance(rng):
    # same V under axis flip with complemented opening
    for _ in range(100):
        p = random_phantom(rng)
        u = rng.uniform(-1, 1, 2)
        phi = rng.uniform(0, 2 * math.pi)
        psi = rng.uniform(0.05, math.pi - 0.05)
        a = cone_analytic_2d(p, u, phi, psi)
        b = cone_analytic_2d(p, u, phi + math.pi, math.pi - psi)
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_cone_shift_equivariance(rng):
    for _ in range(100):
        p = random_phantom(rng)
        u = rng.uniform(-1, 1, 2)
        t = rng.uniform(-0.5, 0.5, 2)
        phi = rng.uniform(0, 2 * math.pi)
        psi = rng.uniform(0.05, math.pi - 0.05)
        a = cone_analytic_2d(p, u, phi, psi)
        b = cone_analytic_2d(translated(p, t), u + t, phi, psi)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_cone_rotation_equivariance(rng):
    for _ in range(100):
        p = random_phantom(rng)
        u = rng.uniform(-1, 1, 2)
        alpha = rng.uniform(0, 2 * math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        psi = rng.uniform(0.05, math.pi - 0.05)
        a = cone_analytic_2d(p, u, phi, psi)
        b = cone_analytic_2d(rotated(p, alpha), rot_ccw(alpha, u), phi - alpha, psi)
        assert abs(a - b) <= 1e-10 * (1 + abs(a))


def test_mixture3_validation_and_eval():
    with pytest.raises(ValueError):
        GaussianMixture3([[0, 0, 0]], [0.0], [1.0])
    f = GaussianMixture3([[0, 0, 0], [0.5, 0, 0]], [0.5, 0.3], [1.0, 2.0])
    v = f(np.zeros(3))
    assert v == pytest.approx(1.0 + 2.0 * math.exp(-0.25 / (2 * 0.09)))
    pts = np.zeros((4, 5, 3))
    assert f(pts).shape == (4, 5)
    assert f.support_radius >= 0.5 + 6 * 0.3


def test_plane_integral_closed_form(rng):
    # oracle: 2d gauss-legendre quadrature over the plane
    from numpy.polynomial.legendre import leggauss

    f = random_mixture_3d(rng)
    for _ in range(4):
        nrm = rng.normal(size=3)
        nrm /= np.linalg.norm(nrm)
        s = rng.uniform(-0.5, 0.5)
        b1 = np.cross(nrm, [1.0, 0.3, -0.2])
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(nrm, b1)
        half = f.support_radius + abs(s) + 1.0
        x, w = leggauss(220)
        x = x * half
        w = w * half
        pts = s * nrm + x[:, None, None] * b1 + x[None, :, None] * b2
        want = float(np.einsum("i,j,ij->", w, w, f(pts)))
        got = float(f.plane_integral(nrm, s))
        assert got == pytest.approx(want, rel=1e-8)


def test_cone_forward_vertical_frozen_value():
    # for exp(-|x|^2) the flat cone (psi = pi/2) through the origin gives pi
    f = unit_gaussian_3d()
    got = cone_forward_vertical(f, np.zeros(3), math.pi / 2)
    assert got == pytest.approx(math.pi, rel=1e-7)


def test_cone_forward_vertical_off_origin():
    # vertex on the z axis, narrow cone: compare against an independent
    # Simpson sum in rho (4001 points up to |vertex| + support radius) over
    # 16 ring angles. The center sits on the axis, so the ring term is
    # constant in the angle; measured gap 1.6e-13.
    f = unit_gaussian_3d()
    psi = math.pi / 3
    vertex = np.array([0.0, 0.0, 0.4])
    got = cone_forward_vertical(f, vertex, psi)
    rho = np.linspace(0.0, np.linalg.norm(vertex) + f.support_radius, 4001)
    alpha = axis_angles(16)
    ring = np.stack(
        [math.sin(psi) * np.cos(alpha), math.sin(psi) * np.sin(alpha), np.full_like(alpha, math.cos(psi))],
        axis=-1,
    )
    pts = vertex + rho[:, None, None] * ring[None, :, :]
    want = simpson(f(pts).mean(axis=1) * math.sin(psi) * 2 * math.pi * rho, x=rho)
    assert got == pytest.approx(float(want), rel=1e-7)


def test_cone_forward_vertical_off_axis():
    # centers and vertex off the z axis, so the ring term's Bessel factor
    # I0(a) is not 1; the oracle is a brute-force sum over ring angle x rho
    # (128 angles, Simpson in rho on 4001 points) over the same rho range.
    # Measured gap 3.9e-13 at psi = 1.0; the bound leaves a 25x margin, and
    # dropping the Bessel factor moves the value by 4e-2 to 0.37.
    f = GaussianMixture3([[0.3, -0.2, 0.1], [-0.25, 0.35, -0.2]], [0.3, 0.5], [1.0, 0.7])
    vertex = np.array([0.1, 0.05, 0.4])
    rho = np.linspace(0.0, np.linalg.norm(vertex) + f.support_radius, 4001)
    alpha = axis_angles(128)
    for psi in (0.4, 1.0, 2.2):
        ring = np.stack(
            [math.sin(psi) * np.cos(alpha), math.sin(psi) * np.sin(alpha), np.full_like(alpha, math.cos(psi))],
            axis=-1,
        )
        pts = vertex + rho[:, None, None] * ring[None, :, :]
        want = simpson(f(pts).mean(axis=1) * math.sin(psi) * 2 * math.pi * rho, x=rho)
        assert cone_forward_vertical(f, vertex, psi) == pytest.approx(float(want), rel=1e-11)


def test_sphere_product_nodes_weights():
    pts, w = sphere_product_nodes()
    assert pts.shape == (w.size, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert w.sum() == pytest.approx(sphere_area(3), rel=1e-12)
    # integrates z^2 to |S^2|/3
    assert (w @ pts[:, 2] ** 2) == pytest.approx(sphere_area(3) / 3.0, rel=1e-10)


def test_identity_psi_integral_tight(rng):
    p = random_phantom(rng)
    u = rng.uniform(-0.5, 0.5, 2)
    lhs, rhs, err = check_identity_psi_integral(p, u, phi=0.7)
    assert err <= 1e-3
    assert lhs == pytest.approx(rhs, rel=5e-3)


def test_identity_sine_weighted_tight(rng):
    p = random_phantom(rng)
    u = rng.uniform(-0.5, 0.5, 2)
    _, _, err = check_identity_sine_weighted(p, u, phi=2.1)
    assert err <= 1e-3


def test_identity_bpr_tight(rng):
    p = random_phantom(rng)
    u = rng.uniform(-0.5, 0.5, 2)
    _, _, err = check_identity_bpr(p, u)
    assert err <= 1e-3


def test_harmonic_relation_m0_matches_bpr(rng):
    # degree-0 harmonic relation is the beta-psi identity up to the constant:
    # lhs agree exactly, rhs of the harmonic row uses lambda_0 / |S^1| = 2/pi
    p = random_phantom(rng)
    u = rng.uniform(-0.5, 0.5, 2)
    lhs_h, rhs_h, err_h = check_sph_harm_relation(p, u, m=0)
    lhs_b, rhs_b, _ = check_identity_bpr(p, u)
    assert err_h <= 1e-3
    assert lhs_h == pytest.approx(lhs_b, rel=1e-12)
    assert rhs_h == pytest.approx(rhs_b, rel=1e-12)


def test_harmonic_relation_odd_m_annihilates(rng):
    p = random_phantom(rng)
    u = rng.uniform(-0.5, 0.5, 2)
    lhs, rhs, err = check_sph_harm_relation(p, u, m=3, kind="sin")
    assert abs(lhs) < 1e-9 and abs(rhs) < 1e-9
    assert err == 0.0  # both sides below the relative-error floor
    with pytest.raises(ValueError):
        check_sph_harm_relation(p, u, m=2, kind="tan")


def test_asgeirsson_2d(rng):
    p = random_phantom(rng)
    u = rng.uniform(-0.4, 0.4, 2)
    for pval in (0.0, 0.2):
        _, _, err = check_asgeirsson(p, u, pval, n=2)
        assert err <= 1e-3
    with pytest.raises(ValueError):
        check_asgeirsson(p, u, -0.1, n=2)
    with pytest.raises(ValueError):
        check_asgeirsson(p, u, 0.0, n=4)


def test_asgeirsson_3d(rng):
    f = random_mixture_3d(rng)
    u = rng.uniform(-0.3, 0.3, 3)
    for pval in (0.0, 0.2):
        _, _, err = check_asgeirsson(f, u, pval, n=3)
        assert err <= 1e-6


def test_cone_radon_3d_frozen_value():
    f = unit_gaussian_3d()
    lhs, rhs, err = check_cone_radon_3d(f, math.pi / 4)
    assert err <= 1e-6
    assert lhs == pytest.approx(math.pi**2, rel=1e-6)
    assert rhs == pytest.approx(math.pi**2, rel=1e-6)
    with pytest.raises(ValueError):
        check_cone_radon_3d(f, 0.0)
    with pytest.raises(ValueError):
        check_cone_radon_3d(f, math.pi / 2)


def test_identity_suite_filter_and_determinism():
    rows_a = identity_suite(seed=3, count=2, which="asgeirsson")
    assert {r.identity for r in rows_a} == {"asgeirsson-2d", "asgeirsson-3d"}
    rows_b = identity_suite(seed=3, count=2, which="asgeirsson")
    assert [(r.identity, r.case, r.lhs, r.rhs) for r in rows_a] == [
        (r.identity, r.case, r.lhs, r.rhs) for r in rows_b
    ]
    rows_c = identity_suite(seed=3, count=1, which="cone-radon-3d")
    assert [r.case for r in rows_c] == [
        "mixture 0 psi0=pi/6",
        "mixture 0 psi0=pi/4",
        "mixture 0 psi0=pi/3",
    ]
    with pytest.raises(ValueError):
        identity_suite(which="not-a-name")


def test_identity_names_cover_suite():
    rows = identity_suite(seed=1, count=1)
    assert {r.identity for r in rows} == set(IDENTITY_NAMES)


def test_identity_rows_share_one_cone_block(monkeypatch):
    # a phantom's beta-psi-integral row and its ten harmonic rows build the
    # 256 x 2000 cone block once, and each row is bit-identical to a direct
    # call made with the cache emptied first
    seed, count = 4, 2
    rng = np.random.default_rng(seed)
    phantoms = [random_phantom(rng) for _ in range(count)]
    for _ in range(count):
        random_mixture_3d(rng)  # the suite draws its 3D mixtures before the points
    points = rng.uniform(-0.5, 0.5, (count, 2))

    def uncached(check, *args, **kwargs):
        cone._opening_profile.cache_clear()
        return check(*args, **kwargs)

    want = []
    for i in range(count):
        want.append(("beta-psi-integral", uncached(check_identity_bpr, phantoms[i], points[i])))
        for m in range(5):
            for kind in ("cos", "sin"):
                want.append(("harmonic", uncached(check_sph_harm_relation, phantoms[i], points[i], m, kind=kind)))
    rows = identity_suite(seed, count, which="beta-psi-integral") + identity_suite(seed, count, which="harmonic")
    got = [(r.identity, (r.lhs, r.rhs, r.rel_err)) for r in rows]
    assert sorted(got, key=repr) == sorted(want, key=repr)

    blocks = []
    real = cone.cone_block_analytic
    monkeypatch.setattr(cone, "cone_block_analytic", lambda *args: blocks.append(args) or real(*args))
    cone._opening_profile.cache_clear()
    check_identity_bpr(phantoms[0], points[0])
    for m in range(5):
        for kind in ("cos", "sin"):
            check_sph_harm_relation(phantoms[0], points[0], m, kind=kind)
    assert len(blocks) == 1
