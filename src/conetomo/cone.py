"""Forward cone transforms and quadrature checks of the cone/Radon relations.

The 2D forward transform is exact (closed-form ray integrals); every check
below computes both sides of an integral relation by independent routes and
reports (lhs, rhs, relative gap). 3D test fields are Gaussian mixtures, whose
plane and radial shell integrals also have closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circle_ops import funk_hecke_lambda
from .geometry import TWO_PI, ConeSinogram, _adopt, _check_cone_lattice, _frozen, _special_ufuncs
from .geometry import axis_angles, opening_midpoints, sphere_area
from .phantoms import (
    _GAUSS_CUTOFF,
    Disk,
    GaussianBlob,
    Phantom,
    _check_line_integrals,
    _disk_chord,
    cone_block_analytic,
    radon_analytic,
    ray_integral,
)

_REL_FLOOR = 1e-9

IDENTITY_NAMES = (
    "psi-integral",
    "sine-weighted",
    "beta-psi-integral",
    "harmonic",
    "asgeirsson-2d",
    "asgeirsson-3d",
    "cone-radon-3d",
)


def _rel_gap(lhs: float, rhs: float) -> float:
    # below the floor both sides are numerically zero and the gap is reported as 0
    denom = max(abs(lhs), abs(rhs))
    if denom <= _REL_FLOOR:
        return 0.0
    return abs(lhs - rhs) / denom


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size and
    shared read-only by every caller."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return _frozen(nodes), _frozen(weights)


# axes and openings of the harmonic rows' cone block, whose openings every
# opening sum shares, and the directions of every ring sum but sine-weighted's
_PROFILE_BETA, _PROFILE_PSI, _CIRCLE_DIRS = 256, 2000, 4096


def _ring_sum(phantom: Phantom, u, count: int, weight, p: float = 0.0) -> float:
    """Trapezoid over ``count`` circle-lattice directions w of
    weight(w) * Rf(w, p + u . w), ``weight`` taking the angles of w."""
    thetas = axis_angles(count)
    offs = p + u[0] * np.sin(thetas) + u[1] * np.cos(thetas)
    return float((weight(thetas) * radon_analytic(phantom, thetas, offs)).sum()) * (TWO_PI / count)


def _opening_sum(phantom: Phantom, u, phi: float, weight) -> float:
    """Midpoint rule over 2000 openings psi of weight(psi) * Cf(u, phi, psi)."""
    psis = opening_midpoints(_PROFILE_PSI)
    cone_vals = ray_integral(phantom, u, phi + psis) + ray_integral(phantom, u, phi - psis)
    return float((weight(psis) * cone_vals).sum()) * (math.pi / _PROFILE_PSI)


def cone_forward_sinogram(phantom: Phantom, vertices, n_beta: int, n_psi: int) -> ConeSinogram:
    """Exact cone-transform samples on the (vertex, axis angle, opening) lattice.

    Each entry sums the two closed-form ray integrals leaving the vertex at
    axis angle +- opening. The result holds every vertex's values, so for a
    large camera call it on consecutive vertex chunks and hand the chunks to
    ``write_cone_sinogram``, as ``conetomo forward`` does: the file is the
    same byte for byte, and only one chunk exists at a time. Each vertex's
    block is made straight into its slot of the result, with no second
    copy. A phantom whose cone values may pass the largest double is
    rejected by name before any is made.
    """
    _check_cone_lattice(n_beta, n_psi)
    _check_line_integrals(phantom, 2.0, "twice it, as a cone value sums two rays")
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    values = np.empty((verts.shape[0], n_beta, n_psi))
    for i in range(verts.shape[0]):
        cone_block_analytic(phantom, verts[i], n_beta, n_psi, out=values[i])
    return ConeSinogram(vertices=verts, n_beta=n_beta, n_psi=n_psi, values=_frozen(values))


@dataclass(frozen=True)
class GaussianMixture3:
    """Sum of isotropic 3D Gaussians; plane and shell integrals have closed forms."""

    centers: np.ndarray
    sigmas: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _adopt(self, "centers", self.centers, (None, 3), "mixture centres").shape[0]
        if np.any(_adopt(self, "sigmas", self.sigmas, (n,), "mixture widths") <= 0.0):
            raise ValueError("widths must be positive")
        _adopt(self, "amplitudes", self.amplitudes, (n,), "mixture amplitudes")

    @property
    def support_radius(self) -> float:
        reach = np.linalg.norm(self.centers, axis=1) + _GAUSS_CUTOFF * self.sigmas
        return float(reach.max())

    def plane_integral(self, normal, offset) -> np.ndarray:
        """Integral over the plane {x . normal = offset}; broadcasts over both.

        Per term: amp * 2 pi sigma^2 * exp(-(offset - normal . center)^2 / (2 sigma^2)).
        """
        nrm = np.asarray(normal, dtype=float)
        s = np.asarray(offset, dtype=float)
        out = np.zeros(np.broadcast(nrm[..., 0], s).shape, dtype=float)
        for c, sig, a in zip(self.centers, self.sigmas, self.amplitudes):
            d = s - nrm @ c
            out += a * TWO_PI * sig * sig * np.exp(-d * d / (2.0 * sig * sig))
        return out

    def shell_integral(self, vertex, dirs, p: float) -> np.ndarray:
        """int_p^inf f(u + r w) r dr for each unit direction w in ``dirs``.

        Per term, with q = u - center and m = -w . q: amp * [sigma^2
        exp(-(|q|^2 + p^2 - 2 p m) / (2 sigma^2)) + m sigma sqrt(pi/2)
        exp(-(|q|^2 - m^2) / (2 sigma^2)) erfc((p - m) / (sigma sqrt 2))].
        """
        # loaded on use: only the 3-D identities need scipy's ufunc extension
        erfc = _special_ufuncs().erfc

        u = np.asarray(vertex, dtype=float).reshape(3)
        w = np.asarray(dirs, dtype=float)
        out = np.zeros(w.shape[:-1], dtype=float)
        for c, sig, a in zip(self.centers, self.sigmas, self.amplitudes):
            q = u - c
            qq = float(q @ q)
            m = -(w @ q)
            two_var = 2.0 * sig * sig
            tail = m * (sig * math.sqrt(0.5 * math.pi)) * np.exp(-(qq - m * m) / two_var)
            tail *= erfc((p - m) / (sig * math.sqrt(2.0)))
            out += a * (sig * sig * np.exp(-(qq + p * p - 2.0 * p * m) / two_var) + tail)
        return out


def cone_forward_vertical(f: GaussianMixture3, vertex, psi):
    """Cone transform of a 3D Gaussian mixture with the axis along +e3.

    Integrates f(u + rho*((sin psi) w, cos psi)) * rho * sin psi over rho >= 0
    and w in S^1. The ring integral of each term has a closed form,
    2 pi I0(a) exp(E) with a = rho sin(psi) r_perp / sigma^2, r_perp the
    distance from the vertex to the term's center across the axis, and E the
    exponent at a = 0; rho runs over a Gauss-Legendre rule up to
    |u| + support_radius, beyond which the field is treated as zero.
    ``psi`` is one opening, which gives a float, or a 1-D array of them,
    which gives an array: the rho rule does not depend on the opening.
    """
    psis = np.asarray(psi, dtype=float)
    if not np.all((0.0 < psis) & (psis < math.pi)):
        raise ValueError("opening must lie strictly between 0 and pi")
    # loaded on use: only the 3-D identities need scipy's ufunc extension
    i0e = _special_ufuncs().i0e

    u = np.asarray(vertex, dtype=float).reshape(3)
    sin_psi, cos_psi = np.sin(psis)[..., None], np.cos(psis)[..., None]
    rho_max = float(np.linalg.norm(u)) + f.support_radius + 1e-9
    nodes, gl_w = _gauss_legendre(128)
    rho = 0.5 * rho_max * (nodes + 1.0)
    total = np.zeros((*psis.shape, rho.size))
    for c, sig, amp in zip(f.centers, f.sigmas, f.amplitudes):
        q = u - c
        var = sig * sig
        a = rho * (sin_psi * math.hypot(q[0], q[1]) / var)
        e = -(q @ q + rho * (2.0 * cos_psi * q[2] + rho)) / (2.0 * var)
        # i0e(a) = exp(-a) I0(a), and E + a <= 0, so nothing overflows
        total += amp * i0e(a) * np.exp(e + a)
    out = TWO_PI * sin_psi[..., 0] * 0.5 * rho_max * ((rho * total) @ gl_w)
    return float(out) if psis.ndim == 0 else out


def check_identity_psi_integral(phantom: Phantom, u, phi: float):
    """Opening-integrated cone data vs half the full-circle backprojection.

    lhs: midpoint rule over 2000 openings of Cf(u, phi, .).
    rhs: (1/2) * trapezoid over 4096 directions of Rf(omega, omega . u).
    """
    u = np.asarray(u, dtype=float).reshape(2)
    lhs = _opening_sum(phantom, u, phi, np.ones_like)
    rhs = 0.5 * _ring_sum(phantom, u, _CIRCLE_DIRS, np.ones_like)
    return lhs, rhs, _rel_gap(lhs, rhs)


def check_identity_sine_weighted(phantom: Phantom, u, phi: float):
    """Sine-weighted opening integral vs the |cos|-weighted direction average.

    lhs: int Cf(u, phi, psi) sin psi dpsi (midpoint rule, 2000 openings).
    rhs: (1/2) int Rf(omega(t), omega . u) |cos(t - phi)| dt (trapezoid,
    2048 directions).
    """
    u = np.asarray(u, dtype=float).reshape(2)
    lhs = _opening_sum(phantom, u, phi, np.sin)
    rhs = 0.5 * _ring_sum(phantom, u, 2048, lambda t: np.abs(np.cos(t - phi)))
    return lhs, rhs, _rel_gap(lhs, rhs)


@functools.lru_cache(maxsize=1)
def _opening_profile(phantom: Phantom, u: tuple) -> np.ndarray:
    """Sine-weighted opening sums, cone block @ sin(psi), at one vertex.

    The beta-psi-integral row and the ten harmonic rows of a phantom share one
    256 x 2000 cone block; the cache of one keeps it across those calls.
    """
    block = cone_block_analytic(phantom, np.asarray(u), _PROFILE_BETA, _PROFILE_PSI)
    profile = block @ np.sin(opening_midpoints(_PROFILE_PSI))
    profile.setflags(write=False)  # every caller of the cache shares it
    return profile


def check_sph_harm_relation(phantom: Phantom, u, m: int, kind: str = "cos"):
    """Harmonic-weighted cone integral vs the matching weighted backprojection.

    lhs: int int Cf(u, beta, psi) Y_m(beta) sin psi dpsi dbeta.
    rhs: pi * (lambda_m / |S^1|) * int Rf(omega, omega . u) Y_m(omega) domega,
    with lambda_m the quadrature eigenvalue of the |t| kernel. Y_m is
    cos(m .) or sin(m .) per ``kind``.
    """
    if m < 0:
        raise ValueError("harmonic degree must be nonnegative")
    if kind not in ("cos", "sin"):
        raise ValueError(f"unknown harmonic kind {kind!r}")
    u = np.asarray(u, dtype=float).reshape(2)
    harmonic = np.cos if kind == "cos" else np.sin
    weights = _opening_profile(phantom, tuple(u.tolist()))
    lhs = float(weights @ harmonic(m * axis_angles(_PROFILE_BETA))) * (math.pi / _PROFILE_PSI) * (
        TWO_PI / _PROFILE_BETA
    )
    lam = funk_hecke_lambda(m, 2)
    ray_avg = _ring_sum(phantom, u, _CIRCLE_DIRS, lambda t: harmonic(m * t))
    rhs = math.pi * (lam / sphere_area(2)) * ray_avg
    return lhs, rhs, _rel_gap(lhs, rhs)


def check_identity_bpr(phantom: Phantom, u):
    """Axis-and-opening integrated cone data vs twice the backprojection: the
    degree-0 harmonic row, whose constant pi * lambda_0 / |S^1| is exactly 2."""
    return check_sph_harm_relation(phantom, u, 0)


def _shell_integral_2d(phantom: Phantom, u, p: float, thetas: np.ndarray) -> np.ndarray:
    """Per-direction int_p^inf f(u + r w) r (r^2 - p^2)^(-1/2) dr, p > 0.

    Disks use the exact antiderivative sqrt(r^2 - p^2) between the clipped
    chord endpoints; blobs substitute r = p cosh t, which removes the
    endpoint singularity, and integrate with 256 Gauss-Legendre nodes.
    """
    dirx, diry = np.sin(thetas), np.cos(thetas)
    out = np.zeros(thetas.shape, dtype=float)
    for d in phantom.disks:
        # a line that misses has half = 0, so a = b and its segment is +0.0
        mid, half = _disk_chord(d, d.center[0] - u[0], d.center[1] - u[1], dirx, diry)
        a = np.maximum(mid - half, p)
        b = np.maximum(mid + half, p)
        seg = np.sqrt(np.maximum(b * b - p * p, 0.0)) - np.sqrt(np.maximum(a * a - p * p, 0.0))
        out += d.density * seg
    nodes, gl_w = _gauss_legendre(256)
    for blob in phantom.blobs:
        qx, qy = blob.center[0] - u[0], blob.center[1] - u[1]
        reach = math.hypot(qx, qy) + _GAUSS_CUTOFF * blob.sigma
        if reach <= p:
            continue
        t_max = math.acosh(reach / p)
        t = 0.5 * t_max * (nodes + 1.0)
        w = 0.5 * t_max * gl_w
        r = p * np.cosh(t)
        mid = dirx * qx + diry * qy
        perp2 = np.maximum(qx * qx + qy * qy - mid * mid, 0.0)
        gauss = np.exp(
            -(perp2[:, None] + (r[None, :] - mid[:, None]) ** 2) / (2.0 * blob.sigma**2)
        )
        out += blob.amplitude * p * (gauss * (np.cosh(t) * w)[None, :]).sum(axis=1)
    return out


def sphere_product_nodes():
    """Quadrature nodes and weights on S^2: 48 Gauss-Legendre nodes in the
    polar cosine crossed with a uniform lattice of 96 azimuths. Weights sum
    to 4 pi."""
    n_polar, n_azimuth = 48, 96
    z, wz = _gauss_legendre(n_polar)
    az = axis_angles(n_azimuth)
    rho = np.sqrt(1.0 - z * z)
    pts = np.stack(
        [
            np.outer(rho, np.cos(az)).ravel(),
            np.outer(rho, np.sin(az)).ravel(),
            np.repeat(z, n_azimuth),
        ],
        axis=-1,
    )
    weights = np.repeat(wz, n_azimuth) * (TWO_PI / n_azimuth)
    return pts, weights


def check_asgeirsson(f, u, p: float, n: int = 2):
    """Offset backprojection vs the weighted radial shell integral.

    int_{S^(n-1)} Rf(w, p + u . w) dw = |S^(n-2)| * int_{S^(n-1)} int_p^inf
    f(u + r w) (r^2 - p^2)^((n-3)/2) r dr dw. n=2 takes a 2D analytic phantom
    and uses 4096 circle directions; offsets below 1e-6 use the p=0 closed
    form (the weight degenerates to 1 there). n=3 takes a Gaussian mixture,
    whose radial integral ``shell_integral`` gives in closed form.
    """
    if p < 0.0:
        raise ValueError("offset p must be nonnegative")
    if n == 2:
        u2 = np.asarray(u, dtype=float).reshape(2)
        lhs = _ring_sum(f, u2, _CIRCLE_DIRS, np.ones_like, p)
        thetas = axis_angles(_CIRCLE_DIRS)
        radial = ray_integral(f, u2, thetas) if p < 1e-6 else _shell_integral_2d(f, u2, p, thetas)
        rhs = sphere_area(1) * float(radial.sum()) * (TWO_PI / _CIRCLE_DIRS)
    elif n == 3:
        u3 = np.asarray(u, dtype=float).reshape(3)
        dirs, w = sphere_product_nodes()
        lhs = float(w @ f.plane_integral(dirs, p + dirs @ u3))
        rhs = sphere_area(2) * float(w @ f.shell_integral(u3, dirs, p))
    else:
        raise ValueError("shell identity is implemented for n in {2, 3}")
    return lhs, rhs, _rel_gap(lhs, rhs)


def check_cone_radon_3d(f: GaussianMixture3, psi0: float):
    """Weighted vertical-cone opening integral vs tilted central plane integrals.

    lhs: int over openings in (psi0, pi - psi0) of Cf(0, e3, psi) with weight
    (cos^2 psi0 - cos^2 psi)^(-1/2), desingularized by cos psi = cos psi0 sin tau
    and summed over 64 Gauss-Legendre nodes in tau.
    rhs: (1/2) int over the circle of plane integrals with unit normals
    ((cos psi0) cos a, (cos psi0) sin a, sin psi0) through the origin
    (trapezoid, 128 angles a).
    """
    if not 0.0 < psi0 < 0.5 * math.pi:
        raise ValueError("base opening must lie strictly between 0 and pi/2")
    nodes, gl_w = _gauss_legendre(64)
    taus = 0.5 * math.pi * nodes
    w = 0.5 * math.pi * gl_w
    psi = np.arccos(math.cos(psi0) * np.sin(taus))
    lhs = float(w @ (cone_forward_vertical(f, np.zeros(3), psi) / np.sin(psi)))
    n_alpha = 128
    alphas = axis_angles(n_alpha)
    tilt = math.cos(psi0)
    normals = np.stack([tilt * np.cos(alphas), tilt * np.sin(alphas), np.full(n_alpha, math.sin(psi0))], axis=-1)
    rhs = 0.5 * float(f.plane_integral(normals, 0.0).sum()) * (TWO_PI / n_alpha)
    return lhs, rhs, _rel_gap(lhs, rhs)


def random_phantom(rng: np.random.Generator) -> Phantom:
    """Small random phantom supported well inside the unit square: up to two
    disks and up to two blobs, at least one of them."""
    n_disks = int(rng.integers(0, 3))
    n_blobs = int(rng.integers(0, 3))
    if n_disks == 0 and n_blobs == 0:
        n_blobs = 1
    disks = tuple(
        Disk(tuple(rng.uniform(-0.4, 0.4, 2)), float(rng.uniform(0.15, 0.4)), float(rng.uniform(0.3, 1.5)))
        for _ in range(n_disks)
    )
    blobs = tuple(
        GaussianBlob(tuple(rng.uniform(-0.4, 0.4, 2)), float(rng.uniform(0.12, 0.3)), float(rng.uniform(0.3, 1.5)))
        for _ in range(n_blobs)
    )
    return Phantom(disks=disks, blobs=blobs)


def random_mixture_3d(rng: np.random.Generator) -> GaussianMixture3:
    k = int(rng.integers(1, 4))
    return GaussianMixture3(
        rng.uniform(-0.5, 0.5, (k, 3)),
        rng.uniform(0.3, 0.7, k),
        rng.uniform(0.5, 1.5, k),
    )


@dataclass(frozen=True)
class IdentityResult:
    identity: str
    case: str
    lhs: float
    rhs: float
    rel_err: float


def _cases(i: int, f: Phantom, u, phi: float, g: GaussianMixture3, v):
    """Row i's (identity, case, check, args) in suite order. Each check is
    read from the module's globals as its row is reached, so a wrapper set
    there is the one called."""
    tag = f"phantom {i}"
    yield "psi-integral", tag, check_identity_psi_integral, (f, u, phi)
    yield "sine-weighted", tag, check_identity_sine_weighted, (f, u, phi)
    yield "beta-psi-integral", tag, check_identity_bpr, (f, u)
    for m in range(5):
        for kind in ("cos", "sin"):
            yield "harmonic", f"{tag} m={m} {kind}", check_sph_harm_relation, (f, u, m, kind)
    for p in (0.0, 0.2):
        yield "asgeirsson-2d", f"{tag} p={p}", check_asgeirsson, (f, u, p, 2)
    for p in (0.0, 0.2):
        yield "asgeirsson-3d", f"mixture {i} p={p}", check_asgeirsson, (g, v, p, 3)
    for label, psi0 in (("pi/6", math.pi / 6), ("pi/4", math.pi / 4), ("pi/3", math.pi / 3)):
        yield "cone-radon-3d", f"mixture {i} psi0={label}", check_cone_radon_3d, (g, psi0)


def identity_suite(seed: int = 0, count: int = 10, which: str | None = None) -> list[IdentityResult]:
    """Run the integral-relation checks on seeded random phantoms.

    ``which`` selects one identity by name (``asgeirsson`` covers both
    dimensions); None runs all of them. All random draws happen up front, so a
    row's inputs depend only on (seed, count), never on the filter.
    """
    if which not in (None, "asgeirsson", *IDENTITY_NAMES):
        raise ValueError(f"unknown identity {which!r}; expected one of {IDENTITY_NAMES}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    phantoms = [random_phantom(rng) for _ in range(count)]
    mixtures = [random_mixture_3d(rng) for _ in range(count)]
    points = rng.uniform(-0.5, 0.5, (count, 2))
    axes = rng.uniform(0.0, TWO_PI, count)
    points3 = rng.uniform(-0.4, 0.4, (count, 3))
    rows = []
    for i in range(count):
        for name, case, check, args in _cases(i, phantoms[i], points[i], float(axes[i]), mixtures[i], points3[i]):
            if which in (None, name) or (which == "asgeirsson" and name.startswith("asgeirsson")):
                rows.append(IdentityResult(name, case, *check(*args)))
    return rows
