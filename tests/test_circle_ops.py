import math

import numpy as np
import pytest
from scipy.integrate import quad

from conetomo.circle_ops import (
    CircleFunction,
    beltrami_poly_apply,
    beltrami_poly_multipliers,
    funk_hecke_lambda,
    funk_transform_s1,
)
from conetomo.geometry import sphere_area

from conftest import cosine_kernel_eigenvalues


def cosine_transform_s1(f: CircleFunction) -> CircleFunction:
    """Cosine transform on the circle: average of f against |dot product|.

    Computed exactly on the trigonometric interpolant of the samples: the
    |t| kernel is diagonal in frequency with the closed-form eigenvalues of
    ``cosine_kernel_eigenvalues``. Annihilates odd harmonics.
    """
    spec = np.fft.rfft(f.samples)
    lam = cosine_kernel_eigenvalues(spec.shape[-1])
    return CircleFunction(np.fft.irfft(spec * lam, n=f.size))


def cosine_transform_s1_quadrature(f: CircleFunction) -> CircleFunction:
    """Lattice Riemann-sum form of the cosine transform.

    (1/2pi) (2pi/M) sum_k f_k |cos(a_k - a_j)|. An independent cross-check of
    the spectral route; the kernel kinks limit it to roughly O(M^-2) accuracy
    per mode.
    """
    kernel = np.abs(np.cos(f.angles))
    spec = np.fft.rfft(f.samples) * np.fft.rfft(kernel)
    return CircleFunction(np.fft.irfft(spec, n=f.size) / f.size)


def beltrami_poly_apply_fd5(f: CircleFunction, n: int = 2, r: int = 1) -> CircleFunction:
    """The sphere-Laplacian polynomial with the Laplacian realized by the
    periodic 5-point stencil: an independent cross-check of the spectral form."""
    h = 2 * math.pi / f.size
    g = np.array(f.samples)
    for k in range(r):
        second = (
            -np.roll(g, -2) + 16.0 * np.roll(g, -1) - 30.0 * g + 16.0 * np.roll(g, 1) - np.roll(g, 2)
        ) / (12.0 * h * h)
        g = 0.25 * (-second + (2 * k - 1) * (n - 1 - 2 * k) * g)
    return CircleFunction(g)


def harmonic(m, M=512, kind="cos", phase=0.0):
    a = np.arange(M) * (2 * math.pi / M) + phase
    return CircleFunction(np.cos(m * a) if kind == "cos" else np.sin(m * a))


def test_circle_function_validation():
    with pytest.raises(ValueError):
        CircleFunction(np.zeros((4, 4)))  # rows of 4 samples
    with pytest.raises(ValueError):
        CircleFunction(np.zeros(7))  # odd length
    with pytest.raises(ValueError):
        CircleFunction(np.zeros(()))
    f = CircleFunction(np.zeros(16))
    assert f.size == 16
    assert np.allclose(np.diff(f.angles), 2 * math.pi / 16)
    stack = CircleFunction(np.zeros((3, 16)))
    assert stack.size == 16
    assert stack.angles.shape == (16,)


def test_operators_act_row_by_row_on_stacks(rng):
    # a (3, M) stack gives, bit for bit, the three rows transformed alone
    rows = rng.standard_normal((3, 200))
    operators = {
        "funk": funk_transform_s1,
        "beltrami": beltrami_poly_apply,
        "beltrami n=3 r=2": lambda f: beltrami_poly_apply(f, n=3, r=2),
        "cosine": cosine_transform_s1,
    }
    for name, op in operators.items():
        got = op(CircleFunction(rows)).samples
        assert got.shape == rows.shape, name
        for row, want in zip(got, rows):
            assert row.tobytes() == op(CircleFunction(want)).samples.tobytes(), name


def test_cosine_kernel_eigenvalue_table():
    vals = cosine_kernel_eigenvalues(9)
    assert vals[0] == pytest.approx(2 / math.pi)
    assert vals[2] == pytest.approx(2 / (3 * math.pi))
    assert vals[4] == pytest.approx(-2 / (15 * math.pi))
    assert vals[6] == pytest.approx(2 / (35 * math.pi))
    assert np.all(vals[1::2] == 0.0)


def test_cosine_eigenvalues_match_quadrature_oracle():
    # averaged kernel: eigenvalue_m = (1/2pi) * 2 * int_0^pi |cos t| cos(m t) dt
    vals = cosine_kernel_eigenvalues(11)
    for m in range(0, 11, 2):
        want, _ = quad(lambda t, m=m: abs(math.cos(t)) * math.cos(m * t), 0, math.pi, points=[math.pi / 2])
        assert vals[m] == pytest.approx(want / math.pi, abs=1e-12)


def test_cosine_transform_eigenvectors():
    for m in range(0, 10, 2):
        f = harmonic(m, phase=0.37)
        out = cosine_transform_s1(f)
        lam = cosine_kernel_eigenvalues(m + 1)[m]
        assert np.max(np.abs(out.samples - lam * f.samples)) < 1e-6 * abs(lam)


def test_cosine_transform_annihilates_odd():
    for m in (1, 3, 5, 9):
        out = cosine_transform_s1(harmonic(m, kind="sin"))
        assert np.max(np.abs(out.samples)) < 1e-10


def test_cosine_transform_quadrature_variant_agrees():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=8)
    a = np.arange(512) * (2 * math.pi / 512)
    f = CircleFunction(sum(c * np.cos(2 * k * a) for k, c in enumerate(coeffs)))
    spec = cosine_transform_s1(f)
    quad_v = cosine_transform_s1_quadrature(f)
    assert np.max(np.abs(spec.samples - quad_v.samples)) < 1e-4


def test_funk_transform_quarter_turn():
    a = np.arange(64) * (2 * math.pi / 64)
    f2 = CircleFunction(np.cos(2 * a))
    f4 = CircleFunction(np.cos(4 * a))
    assert np.allclose(funk_transform_s1(f2).samples, -np.cos(2 * a), atol=1e-12)
    assert np.allclose(funk_transform_s1(f4).samples, np.cos(4 * a), atol=1e-12)
    # odd harmonics vanish
    f3 = CircleFunction(np.sin(3 * a))
    assert np.max(np.abs(funk_transform_s1(f3).samples)) < 1e-12
    with pytest.raises(ValueError):
        funk_transform_s1(CircleFunction(np.zeros(10)))  # length not divisible by 4


def test_beltrami_multipliers():
    mult = beltrami_poly_multipliers(6, n=2, r=1)
    assert np.allclose(mult, (np.arange(6) ** 2 - 1) / 4.0)
    with pytest.raises(ValueError):
        beltrami_poly_multipliers(4, n=2, r=0)
    # product runs k = 0 .. r-1: n=3 r=1 gives (m^2 - 2)/4, n=2 r=2 squares
    m = np.arange(5)
    assert np.allclose(beltrami_poly_multipliers(5, n=3, r=1), (m**2 - 2) / 4.0)
    assert np.allclose(beltrami_poly_multipliers(5, n=2, r=2), ((m**2 - 1) / 4.0) ** 2)


def test_beltrami_apply_spectral_vs_fd5():
    a = np.arange(256) * (2 * math.pi / 256)
    f = CircleFunction(1.3 * np.cos(2 * a) - 0.4 * np.cos(6 * a) + 0.2 * np.sin(4 * a))
    spec = beltrami_poly_apply(f, n=2, r=1)
    fd = beltrami_poly_apply_fd5(f, n=2, r=1)
    assert np.max(np.abs(spec.samples - fd.samples)) < 1e-4


def test_composite_multiplier_identity():
    # -2 pi * P1(beltrami) . funk . cosine = identity on even harmonics
    rng = np.random.default_rng(11)
    a = np.arange(512) * (2 * math.pi / 512)
    f = np.zeros(512)
    for m in range(0, 42, 2):
        f += rng.normal() * np.cos(m * a) + rng.normal() * np.sin(m * a)
    g = cosine_transform_s1(CircleFunction(f))
    g = funk_transform_s1(g)
    g = beltrami_poly_apply(g, n=2, r=1)
    out = -2 * math.pi * g.samples
    assert np.max(np.abs(out - f)) < 1e-6 * np.max(np.abs(f))


def test_funk_hecke_lambda_values():
    assert funk_hecke_lambda(0, 2) == pytest.approx(4.0, abs=1e-10)
    assert funk_hecke_lambda(2, 2) == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert funk_hecke_lambda(4, 2) == pytest.approx(-4.0 / 15.0, abs=1e-10)
    assert abs(funk_hecke_lambda(1, 2)) < 1e-12
    assert abs(funk_hecke_lambda(3, 2)) < 1e-12
    assert funk_hecke_lambda(0, 3) == pytest.approx(2 * math.pi, abs=1e-10)
    assert funk_hecke_lambda(2, 3) == pytest.approx(math.pi / 2, abs=1e-10)
    assert abs(funk_hecke_lambda(1, 3)) < 1e-12
    # at n = 4 the Legendre polynomial of S^3 is C_m^1 / C_m^1(1):
    # m = 0: |S^2| int |t| sqrt(1-t^2) dt = 4 pi * 2/3
    # m = 2: (4t^2 - 1) / 3, so 4 pi * (2/3) (8/15 - 1/3) = 8 pi / 15
    # m = 1: odd, so 0
    assert funk_hecke_lambda(0, 4) == pytest.approx(8 * math.pi / 3, abs=1e-10)
    assert funk_hecke_lambda(2, 4) == pytest.approx(8 * math.pi / 15, abs=1e-10)
    assert abs(funk_hecke_lambda(1, 4)) < 1e-12
    with pytest.raises(ValueError):
        funk_hecke_lambda(-1, 2)
    with pytest.raises(ValueError):
        funk_hecke_lambda(0, 1)


def test_funk_hecke_lambda_n2_closed_form_matches_quadrature():
    # the n = 2 closed form against the quadrature it replaced:
    # 2 int_0^pi |cos t| cos(m t) dt, split at the kink
    for m in range(41):
        val, _ = quad(lambda t, m=m: abs(math.cos(t)) * math.cos(m * t), 0.0, math.pi, points=[math.pi / 2], limit=200)
        assert abs(funk_hecke_lambda(m, 2) - 2.0 * val) < 1e-14, m


def test_funk_hecke_lambda_n2_is_the_rational_bit_for_bit():
    # the closed form of every n rounds its rational once, so n = 2 is the
    # correctly rounded 4 (-1)^(h+1) / (m^2 - 1), bit for bit
    for m in range(1001):
        want = 0.0 if m % 2 else 4.0 * (-1) ** (m // 2 + 1) / (m * m - 1)
        assert funk_hecke_lambda(m, 2) == want, m


def test_funk_hecke_lambda_n3_n4_closed_forms():
    # independent closed forms, evaluated in integers and rounded once:
    # n = 3 from the Legendre moments, n = 4 from the Chebyshev-U moments
    for m in range(2, 401, 2):
        h = m // 2
        sign = (-1) ** (h + 1)
        n3 = 4 * math.pi * sign * (math.comb(m - 2, h - 1) / (2**m * h * (h + 1)))
        n4 = 8 * math.pi * sign / ((m - 1) * (m + 1) * (m + 3))
        assert funk_hecke_lambda(m, 3) == pytest.approx(n3, rel=2e-15, abs=0.0), m
        assert funk_hecke_lambda(m, 4) == pytest.approx(n4, rel=2e-15, abs=0.0), m


def test_funk_hecke_lambda_dimension_recurrence():
    # lambda_m(n + 2) = pi lambda_m(n) / (h + (n + 1) / 2), m = 2h
    for n in range(2, 10):
        for m in range(0, 41, 2):
            want = math.pi * funk_hecke_lambda(m, n) / (m // 2 + (n + 1) / 2)
            assert funk_hecke_lambda(m, n + 2) == pytest.approx(want, rel=2e-15, abs=0.0), (m, n)


def test_funk_hecke_lambda_odd_degrees_are_zero():
    for n in range(2, 12):
        for m in range(1, 100, 2):
            assert funk_hecke_lambda(m, n) == 0.0, (m, n)


def _sphere_legendre(m: int, n: int, t: np.ndarray) -> np.ndarray:
    """Legendre polynomial of S^(n-1), P_m(1) = 1: Chebyshev T_m at n = 2,
    else the Gegenbauer C_m^((n-2)/2) by its three-term recurrence."""
    if n == 2:
        return np.cos(m * np.arccos(t))
    lam = 0.5 * (n - 2)

    def gegenbauer(x):
        prev, cur = np.ones_like(x), 2.0 * lam * x
        if m == 0:
            return prev
        for k in range(1, m):
            prev, cur = cur, (2.0 * (k + lam) * x * cur - (k + 2.0 * lam - 1.0) * prev) / (k + 1)
        return cur

    return gegenbauer(t) / gegenbauer(np.ones(1))


def test_funk_hecke_lambda_against_gauss_legendre_integral():
    # |S^(n-2)| int_-1^1 |t| P_m(t) (1 - t^2)^((n-3)/2) dt with t = cos(theta),
    # which leaves the smooth |cos| P_m(cos) sin^(n-2) on each side of the
    # kink at t = 0: 64 Gauss-Legendre nodes in theta on [0, pi/2] and on
    # [pi/2, pi]. Odd m integrate to rounding, below 1e-14
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = np.concatenate([0.25 * math.pi * (nodes + 1.0), 0.25 * math.pi * (nodes + 3.0)])
    w = 0.25 * math.pi * np.concatenate([weights, weights])
    t = np.cos(theta)
    for n in range(2, 8):
        for m in range(21):
            integral = w @ (np.abs(t) * _sphere_legendre(m, n, t) * np.sin(theta) ** (n - 2))
            want = sphere_area(n - 1) * integral
            assert funk_hecke_lambda(m, n) == pytest.approx(want, rel=1e-12, abs=1e-14), (m, n)


def test_cosine_eigenvalues_consistent_with_funk_hecke():
    # the averaged-kernel eigenvalues are lambda_m / |S^1|
    vals = cosine_kernel_eigenvalues(7)
    for m in range(0, 7, 2):
        assert vals[m] == pytest.approx(funk_hecke_lambda(m, 2) / sphere_area(2), abs=1e-10)
