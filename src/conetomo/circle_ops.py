"""Operators on functions sampled over the circle, plus sphere eigenvalues.

Samples live on the uniform lattice ``angles = 2*pi*j/M``. The quarter-turn
average and Laplace-type polynomials are Fourier multipliers on this lattice,
so the spectral forms below are exact on the trigonometric interpolant of the
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import axis_angles, _owned_array


@dataclass(frozen=True)
class CircleFunction:
    """Real samples on the uniform circle lattice; M must be even and >= 8.

    ``samples`` has shape (..., M): a stack of circle functions, one per
    leading index, and every operator acts along the last axis.
    """

    samples: np.ndarray

    def __post_init__(self):
        v = _owned_array(self.samples)
        if v.ndim < 1:
            raise ValueError("samples need a trailing lattice axis")
        if v.shape[-1] < 8 or v.shape[-1] % 2:
            raise ValueError("need an even sample count of at least 8")
        object.__setattr__(self, "samples", v)

    @property
    def size(self) -> int:
        """Lattice size M, the length of the last axis."""
        return self.samples.shape[-1]

    @property
    def angles(self) -> np.ndarray:
        return axis_angles(self.size)


def funk_transform_s1(f: CircleFunction) -> CircleFunction:
    """Average of f over the two lattice points a quarter turn away."""
    m = f.size
    if m % 4:
        raise ValueError("sample count must be divisible by 4 so the quarter turn lands on the lattice")
    q = m // 4
    s = f.samples
    return CircleFunction(0.5 * (np.roll(s, -q, axis=-1) + np.roll(s, q, axis=-1)))


def beltrami_poly_multipliers(num_modes: int, n: int, r: int) -> np.ndarray:
    """Frequency response of the degree-r sphere-Laplacian polynomial.

    The polynomial is 4^(-r) prod_{k=0}^{r-1} (-Lap + (2k-1)(n-1-2k)); on the
    circle the Laplacian acts as -m^2, so frequency m picks up
    4^(-r) prod_k (m^2 + (2k-1)(n-1-2k)).
    """
    if r < 1:
        raise ValueError("polynomial degree must be at least 1")
    m2 = np.arange(num_modes, dtype=float) ** 2
    mult = np.ones(num_modes)
    for k in range(r):
        mult *= m2 + (2 * k - 1) * (n - 1 - 2 * k)
    return mult / 4.0**r


def beltrami_poly_apply(f: CircleFunction, n: int = 2, r: int = 1) -> CircleFunction:
    """Apply the degree-r sphere-Laplacian polynomial to circle samples.

    Multiplies Fourier modes by the exact response of
    ``beltrami_poly_multipliers``.
    """
    spec = np.fft.rfft(f.samples)
    mult = beltrami_poly_multipliers(spec.shape[-1], n, r)
    return CircleFunction(np.fft.irfft(spec * mult, n=f.size))


def funk_hecke_lambda(m: int, n: int) -> float:
    """Eigenvalue of the un-normalized |t| kernel on degree-m harmonics in R^n.

    lambda_m = |S^(n-2)| int_-1^1 |t| P_m(t) (1 - t^2)^((n-3)/2) dt, with P_m
    the Legendre polynomial of S^(n-1), P_m(1) = 1. The integral has a closed
    form: 0 for odd m, and for even m = 2h

        lambda_m(n) = (-1)^(h+1) pi^((n-2)/2) Gamma(h - 1/2) / Gamma(h + (n+1)/2),

    an exact rational times pi^((n-1)//2): each half-integer Gamma carries
    one sqrt(pi). The rational starts at n = 2 from 4 / (m^2 - 1), or at n = 3
    from Gamma(h - 1/2) / (sqrt(pi) (h+1)!) = 2 C(2h, h) / (4^h (2h - 1) (h + 1)),
    and climbs by lambda_m(n+2) = pi lambda_m(n) / (h + (n+1)/2). The
    rational is kept in integers and rounded once, so n = 2 gives the
    correctly rounded 4 (-1)^(h+1) / (m^2 - 1).
    """
    if m < 0:
        raise ValueError("harmonic degree must be nonnegative")
    if n < 2:
        raise ValueError("the kernel needs ambient dimension n >= 2")
    if m % 2:
        return 0.0
    h = m // 2
    if n % 2:
        num, den = 2 * math.comb(2 * h, h), 4**h * (2 * h - 1) * (h + 1)
    else:
        num, den = 4, (m - 1) * (m + 1)
    for k in range(2 + n % 2, n, 2):
        num, den = 2 * num, den * (2 * h + k + 1)
    return (-1) ** (h + 1) * num / den * math.pi ** ((n - 1) // 2)
