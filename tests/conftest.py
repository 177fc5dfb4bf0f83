import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import conetomo
from conetomo.geometry import _ray_lattice, pixel_centers
from conetomo.phantoms import Phantom, _ramp_profiles, ray_integral


# every hypothesis test draws the same examples on every run
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def rel_l2(got, want) -> float:
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / np.linalg.norm(want))


# Pointwise and per-sample references: the package computes the same values
# in bulk (rasterize, cone_block_analytic, the circle operators, a 3D
# mixture's plane and shell integrals), and the tests check it against these.


def eval_phantom(phantom: Phantom, points) -> np.ndarray:
    """Pointwise density at ``points`` of shape (..., 2)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError("points must have a trailing axis of length 2")
    out = np.zeros(pts.shape[:-1], dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    for d in phantom.disks:
        r2 = (x - d.center[0]) ** 2 + (y - d.center[1]) ** 2
        out += d.density * (r2 <= d.radius * d.radius)
    for b in phantom.blobs:
        r2 = (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2
        out += b.amplitude * np.exp(-r2 / (2.0 * b.sigma * b.sigma))
    return out


def eval_mixture3(f, points) -> np.ndarray:
    """Pointwise value of a ``GaussianMixture3`` at ``points`` of shape (..., 3)."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1], dtype=float)
    for c, s, a in zip(f.centers, f.sigmas, f.amplitudes):
        d2 = ((pts - c) ** 2).sum(axis=-1)
        out += a * np.exp(-d2 / (2.0 * s * s))
    return out


def exact_weighted_route(phantom: Phantom, n_px: int, half_extent: float, axis_w, open_w, scale: float) -> np.ndarray:
    """``inversion._weighted_route`` (same arguments) with each line's
    closed-form ramp profile evaluated at every pixel's own offset, not
    interpolated from its 8 n_px + 1 samples: scale * sum_i w_i (Lambda
    P_i)(u . theta_i), the disks' profiles averaged over +- half a pixel as
    there. Returns the raster's values."""
    half_step, row_w = _ray_lattice(axis_w.size, open_w.size).line_rows(axis_w, open_w)
    thetas = (np.arange(row_w.size) + 0.5 * half_step) * (math.pi / row_w.size)
    c = pixel_centers(n_px, half_extent)
    x, y = np.meshgrid(c, c)
    out = np.zeros(n_px * n_px)
    for theta, w in zip(thetas, row_w):
        s = (x * math.sin(theta) + y * math.cos(theta)).ravel()
        out += _ramp_profiles(phantom, np.array([theta]), s, np.array([w]), half_extent / n_px)[0]
    return scale * out.reshape(n_px, n_px)


def ray_indices(lat):
    """The ray lattice ``lat``'s index tables, built from its integers:
    ``plus[j, k]`` = (a j + b k + c) mod n_rays, the ray at phi_j + psi_k,
    and ``minus[j, k]`` = (a j - b k - b + c) mod n_rays, the one at
    phi_j - psi_k, on the (n_rays / a, n_rays / (2 b)) cone lattice."""
    n_rays = lat.angles.size
    j = np.arange(n_rays // lat.a)[:, None]
    k = np.arange(n_rays // (2 * lat.b))
    return (lat.a * j + lat.b * k + lat.c) % n_rays, (lat.a * j - lat.b * (k + 1) + lat.c) % n_rays


def cone_analytic_2d(phantom: Phantom, vertex, axis_angle, opening):
    """Cone (V-line) transform: sum of the two ray integrals from ``vertex``
    whose directions make the angle ``opening`` with the axis
    ``(sin axis_angle, cos axis_angle)``.

    ``axis_angle`` and ``opening`` broadcast together. Openings must lie
    strictly inside (0, pi).
    """
    psi = np.asarray(opening, dtype=float)
    if np.any(psi <= 0.0) or np.any(psi >= math.pi):
        raise ValueError("opening angles must lie strictly between 0 and pi")
    phi = np.asarray(axis_angle, dtype=float)
    first = ray_integral(phantom, vertex, phi + psi)
    second = ray_integral(phantom, vertex, phi - psi)
    out = first + second
    if np.ndim(axis_angle) == 0 and np.ndim(opening) == 0:
        return float(out)
    return out


def cosine_kernel_eigenvalues(num_modes: int) -> np.ndarray:
    """Per-frequency eigenvalues of the normalized |t| kernel on the circle.

    The kernel average (1/2pi) int |cos(a - b)| f(b) db maps the frequency-m
    harmonic to lambda_m times itself with lambda_m = 0 for odd m and
    lambda_m = (2/pi) (-1)^(m/2+1) / (m^2 - 1) for even m (so 2/pi at m = 0).
    """
    m = np.arange(num_modes)
    vals = np.zeros(num_modes)
    even = m % 2 == 0
    me = m[even]
    sign = np.where((me // 2) % 2 == 0, -1.0, 1.0)
    vals[even] = (2.0 / math.pi) * sign / (me.astype(float) ** 2 - 1.0)
    return vals


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def run_child(args, timeout=120):
    """Run ``python args...`` in a fresh process that imports this conetomo,
    so a crash fails the calling test instead of killing the test run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conetomo.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
