"""Reconstruction routes from cone data.

Two direct routes weigh cone data at every pixel as a vertex into a ray field,
a sum of one line integral per lattice line, and apply the first-order |xi|
filter line by line, as the closed-form ramp of each line's profile: weighted
filtered backprojection, by the orbit stencil of ``fbp_radon_inversion``.
The camera route converts boundary-detector cone data to an ordinary Radon
sinogram and runs ramp-filtered backprojection; it integrates the opening
out as one FFT circular correlation per orbit of the lattice's rays under a
one-step turn of the axes, against a kernel that already carries the circle
operators, and deposits per axis angle before folding onto theta rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circle_ops import CircleFunction, beltrami_poly_apply, funk_transform_s1
from .geometry import (
    TWO_PI,
    ImageGrid,
    RadonSinogram,
    _check_cone_lattice,
    _check_radon_lattice,
    _check_raster,
    _freeze,
    _frozen,
    _owned_array,
    _ray_lattice,
    axis_angles,
    opening_midpoints,
)
from .phantoms import (
    Phantom,
    _ramp_profiles,
    ray_integral_table,
    support_halfwidth,
    translated,
)
from .radon import _Rows, backprojection, fbp_radon_inversion


@dataclass(frozen=True)
class MuWeight:
    """Axis-direction weights with unit quadrature mass: (2 pi / n) sum w = 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = _owned_array(np.ravel(self.weights))
        if w.size < 1:
            raise ValueError("need at least one axis weight")
        mass = float(w.sum()) * (TWO_PI / w.size)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"axis-weight mass {mass!r} must equal 1")
        _freeze(self, "weights", w)

    @property
    def n_beta(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n_beta: int) -> "MuWeight":
        return cls(np.full(n_beta, 1.0 / TWO_PI))

    @classmethod
    def delta(cls, n_beta: int, index: int = 0) -> "MuWeight":
        w = np.zeros(n_beta)
        w[index] = n_beta / TWO_PI
        return cls(w)


def _weighted_route(phantom: Phantom, n_px: int, half_extent: float, pair_w: np.ndarray, scale: float) -> ImageGrid:
    """|xi| applied to the ray field sum_jk pair_w[j, k] (R(u, phi_j + psi_k)
    + R(u, phi_j - psi_k)), R the ray integral, then scaled, at every pixel
    center u: weighted filtered backprojection, as the field is a sum of
    ridge functions, one per full line of the lattice's antipodal ray pairs,
    and |xi| acts on a ridge as the 1D ramp on its profile (Fourier slice
    theorem). The L lines of an (n_beta, n_psi) lattice sit exactly on the
    Radon angles (m + c) pi / L, c = 0 or 1/2 (``_RayLattice.line_rows``).
    Each line's closed-form ramp-filtered profile, a disk's averaged over
    +- half a pixel, is sampled at 8 n_px + 1 offsets over +-sqrt(2)
    half_extent as the orbit stencil pulls its row."""
    _check_raster(n_px, half_extent)
    half_step, row_w = _ray_lattice(*pair_w.shape).line_rows(pair_w)
    n_lines = row_w.size
    # backprojection scales by 2 pi / n_lines; the row weights undo it
    row_w *= scale * n_lines / TWO_PI
    thetas = (np.arange(n_lines) + 0.5 * half_step) * (math.pi / n_lines)
    s_max = math.sqrt(2.0) * half_extent
    offsets = np.linspace(-s_max, s_max, 8 * n_px + 1)

    def rows(r):
        return _ramp_profiles(phantom, thetas[r], offsets, row_w[r], half_extent / n_px)

    return backprojection(_Rows(n_lines, offsets.size, s_max, rows, half_step), n_px, half_extent)


def invert_mu_weighted(phantom: Phantom, n_px: int, half_extent: float, mu: MuWeight, n_psi: int) -> ImageGrid:
    """Reconstruction from axis-weighted cone data at every grid point.

    g(u) = sum_jk Cf(u, phi_j, psi_k) mu_j dpsi dbeta, then the |xi| filter and
    the scale 1/(2 pi). Any normalized axis weighting recovers the same f; see
    ``MuWeight.uniform`` and ``MuWeight.delta``.
    """
    _check_cone_lattice(mu.n_beta, n_psi)
    pair_w = np.outer(mu.weights, np.full(n_psi, 1.0)) * (math.pi / n_psi) * (TWO_PI / mu.n_beta)
    return _weighted_route(phantom, n_px, half_extent, pair_w, 1.0 / TWO_PI)


def invert_sine_weighted(phantom: Phantom, n_px: int, half_extent: float, n_beta: int, n_psi: int) -> ImageGrid:
    """Reconstruction from sine-of-opening weighted cone data.

    g(u) = sum_jk Cf(u, phi_j, psi_k) sin psi_k dpsi dbeta, then the |xi|
    filter and the scale 1/(8 pi).
    """
    _check_cone_lattice(n_beta, n_psi)
    # sin psi = sin(pi - psi), made exact: _RayLattice.line_rows needs weights
    # symmetric in the opening
    sines = np.sin(opening_midpoints(n_psi))
    pair_w = np.outer(np.full(n_beta, 1.0), 0.5 * (sines + sines[::-1]))
    pair_w *= (math.pi / n_psi) * (TWO_PI / n_beta)
    return _weighted_route(phantom, n_px, half_extent, pair_w, 1.0 / (8.0 * math.pi))


def _profiles_to_radon(profiles, max_harmonic: int | None) -> np.ndarray:
    """Opening-integrated profiles (..., n_beta) -> line integrals per axis
    angle: the quarter-turn average, the first-degree sphere-Laplacian
    polynomial up to ``max_harmonic`` (default n_beta // 2) and the factor -2,
    along the last axis."""
    if max_harmonic is None:
        max_harmonic = profiles.shape[-1] // 2
    filtered = beltrami_poly_apply(
        funk_transform_s1(CircleFunction(profiles)), n=2, r=1, max_harmonic=max_harmonic
    )
    return -2.0 * filtered.samples


def cone_to_radon_even(block, max_harmonic: int | None = None) -> np.ndarray:
    """Convert one vertex's cone data block to line integrals per axis angle.

    The opening is integrated out with a sine-weighted midpoint rule; the
    resulting circle function gets the quarter-turn average, the first-degree
    sphere-Laplacian polynomial (harmonics above ``max_harmonic`` dropped;
    default keeps every resolvable mode), and the factor -2. Entry j then
    approximates the line integral over the line through the vertex's
    projection with normal (sin phi_j, cos phi_j).
    """
    data = np.asarray(block, dtype=float)
    if data.ndim != 2:
        raise ValueError("expected an (axis, opening) data block")
    n_psi = data.shape[1]
    psis = opening_midpoints(n_psi)
    return _profiles_to_radon(data @ np.sin(psis) * (math.pi / n_psi), max_harmonic)


@dataclass(frozen=True)
class CameraConfig:
    """Detectors uniformly spaced on the boundary of a square, corners shared.

    The square is [-half_extent, half_extent]^2 shifted by ``center``; each
    side carries ``per_side`` detector sites including both corners, for
    4 * (per_side - 1) distinct detectors.
    """

    half_extent: float
    per_side: int
    n_beta: int
    n_psi: int
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.half_extent) and self.half_extent > 0.0):
            raise ValueError("camera half_extent must be finite and positive")
        if self.per_side < 2:
            raise ValueError("need at least 2 detectors per side")
        if self.n_beta < 8 or self.n_beta % 4:
            raise ValueError("axis count must be a multiple of 4 and at least 8")
        _check_cone_lattice(self.n_beta, self.n_psi)
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


def detector_positions(cam: CameraConfig) -> np.ndarray:
    """Detector coordinates walking the square boundary counterclockwise."""
    a = cam.half_extent
    t = np.linspace(-a, a, cam.per_side)
    side = cam.per_side - 1
    lo = np.full(side, -a)
    hi = np.full(side, a)
    pts = np.concatenate(
        [
            np.column_stack([t[:-1], lo]),
            np.column_stack([hi, t[:-1]]),
            np.column_stack([-t[:-1], hi]),
            np.column_stack([lo, -t[:-1]]),
        ]
    )
    return pts + np.asarray(cam.center, dtype=float)


def _deposit(num, den, s, vals, s_max, ds, n_s):
    """Scatter-add samples bilinearly along the offset axis into the flat
    (axis, offset) bins ``num`` and ``den``: sample (v, j) at offset
    ``s[v, j]`` carries ``vals[v, j]`` into axis row j, two taps per sample.
    A sample outside the offset range gets weight 0, which leaves every sum
    as it would be without it."""
    fs = (s + s_max) / ds
    ok = (fs > -0.5) & (fs < n_s - 0.5)
    j0 = np.clip(np.floor(fs).astype(int), 0, n_s - 2)
    fj = np.clip(fs - j0, 0.0, 1.0)
    flat = j0 + n_s * np.arange(s.shape[-1])
    bins = np.stack([flat, flat + 1]).ravel()
    w = np.stack([1.0 - fj, fj])
    w *= ok
    num += np.bincount(bins, (vals * w).ravel(), num.size)
    den += np.bincount(bins, w.ravel(), num.size)


# ray-table entries per vertex chunk of the camera route: 81 vertices at the
# 400 distinct rays of a 200 x 200 lattice
_CAMERA_BUDGET = 2**15


def compton_radon_sinogram(
    phantom: Phantom,
    cam: CameraConfig,
    n_theta: int | None = None,
    n_s: int | None = None,
    s_max: float | None = None,
    max_harmonic: int | None = None,
) -> RadonSinogram:
    """Radon sinogram assembled from boundary-detector cone data.

    Each detector's cone data is converted to per-axis line integrals, as
    ``cone_to_radon_even`` does for one block, but no block is formed:
    detectors go in chunks of at most _CAMERA_BUDGET ray-table entries (at
    least one detector), and each chunk's distinct lattice rays are evaluated
    in one table laid out on the lattice's ray orbits. Turning the axes one
    step moves every ray one slot along its orbit, so the opening integral
    at axis j is a circular cross-correlation of each orbit's row with a
    fixed kernel, summed over the orbits, and one real FFT per row computes
    it. That costs n_orbits n_beta log n_beta per detector against
    2 n_beta n_psi for the per-axis sum: far less on 200 x 200 (2 orbits),
    somewhat more on 200 x 199 (199 orbits). The quarter-turn average, the
    sphere-Laplacian polynomial, the ``max_harmonic`` cut and the factor -2
    are real, even multipliers along the axis angle, so they act once, on
    the kernel, and the correlation yields line integrals directly.
    Each chunk's samples scatter bilinearly along the offset into per-axis
    (axis, offset) bins with weight accumulation; once all are in, each axis
    row folds onto the two theta rows around its angle, taken from the full
    circle onto [0, pi) (an axis past pi reads the same line with negated
    offset, so a row wrapping past the last theta row lands reversed on
    row 0).
    Empty bins inside a row's sampled band are filled by linear interpolation
    along the offset; bins outside every sample stay 0, which is exact while
    the support sits inside the camera square. A hole fraction above 20% of
    the sampled band trips an under-sampling warning. All geometry is
    camera-centered, so the result is the sinogram of the phantom shifted by
    -center.
    """
    n_theta = cam.n_beta // 2 if n_theta is None else n_theta
    n_s = cam.per_side if n_s is None else n_s
    s_max = cam.half_extent * math.sqrt(2.0) if s_max is None else s_max
    _check_radon_lattice(n_theta, n_s, s_max)
    local = translated(phantom, (-cam.center[0], -cam.center[1]))
    verts = detector_positions(cam) - np.asarray(cam.center)
    phis = axis_angles(cam.n_beta)
    theta = np.where(phis >= math.pi, phis - math.pi, phis)
    ds = 2.0 * s_max / (n_s - 1)
    lat = _ray_lattice(cam.n_beta, cam.n_psi)
    w_psi = np.sin(opening_midpoints(cam.n_psi)) * (math.pi / cam.n_psi)
    # conjugated: a product of spectra with it correlates, not convolves
    kernel = np.conj(np.fft.rfft(_profiles_to_radon(lat.opening_kernel(w_psi), max_harmonic)))
    orbit_angles = lat.angles[lat.orbits].ravel()
    num = np.zeros(cam.n_beta * n_s)
    den = np.zeros_like(num)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    step = max(1, _CAMERA_BUDGET // lat.angles.size)
    for start in range(0, verts.shape[0], step):
        chunk = verts[start : start + step]
        rays = ray_integral_table(local, chunk, orbit_angles).reshape(-1, *lat.orbits.shape)
        # (chunk, n_beta) line integrals: one circular correlation per orbit
        vals = np.fft.irfft((np.fft.rfft(rays) * kernel).sum(axis=1), n=cam.n_beta)
        _deposit(num, den, sin_t * chunk[:, :1] + cos_t * chunk[:, 1:], vals, s_max, ds, n_s)
    # axis row j goes to theta rows i0 and i1 with weights 1 - fi and fi;
    # past the last theta row it wraps to row 0 with negated offset, which
    # reverses the offset axis exactly, as 2 s_max / ds = n_s - 1
    tt = theta / (math.pi / n_theta)
    i0 = np.clip(np.floor(tt).astype(int), 0, n_theta - 1)
    fi = np.clip(tt - i0, 0.0, 1.0)
    wrapped = i0 + 1 >= n_theta
    cols = np.arange(n_s)
    fold = np.stack(
        [
            i0[:, None] * n_s + cols,
            np.where(wrapped, 0, i0 + 1)[:, None] * n_s + np.where(wrapped[:, None], n_s - 1 - cols, cols),
        ]
    ).astype(np.int32)
    row_w = np.stack([1.0 - fi, fi])[:, :, None]
    num, den = (
        np.bincount(fold.ravel(), (row_w * a.reshape(cam.n_beta, n_s)).ravel(), n_theta * n_s).reshape(n_theta, n_s)
        for a in (num, den)
    )
    seen = den > 0.0
    avg = np.divide(num, den, out=np.zeros_like(num), where=seen)
    offsets = np.linspace(-s_max, s_max, n_s)
    count = seen.sum(axis=1)
    band = np.where(count > 0, n_s - seen[:, ::-1].argmax(axis=1) - seen.argmax(axis=1), 0)
    gaps = band - count
    for i in np.flatnonzero(gaps):
        avg[i] = np.interp(offsets, offsets[seen[i]], avg[i][seen[i]], left=0.0, right=0.0)
    holes, banded = int(gaps.sum()), int(band.sum())
    if banded and holes > 0.2 * banded:
        warnings.warn(
            f"{holes} of {banded} bins in the sampled offset band got no sample; "
            "the camera under-samples this sinogram lattice",
            RuntimeWarning,
        )
    return RadonSinogram(n_theta=n_theta, n_s=n_s, s_max=s_max, values=_frozen(avg))


def compton_reconstruct(
    phantom: Phantom,
    cam: CameraConfig,
    n_px: int,
    half_extent: float,
    n_theta: int | None = None,
    n_s: int | None = None,
    s_max: float | None = None,
    max_harmonic: int | None = None,
) -> ImageGrid:
    """Boundary-camera pipeline: cone data -> Radon sinogram -> ramp-filtered
    backprojection. The raster is camera-centered: pixel (x, y) estimates
    f(center + (x, y))."""
    _check_raster(n_px, half_extent)
    local = translated(phantom, (-cam.center[0], -cam.center[1]))
    if support_halfwidth(local) >= cam.half_extent:
        raise ValueError("phantom support must sit strictly inside the camera square")
    sino = compton_radon_sinogram(phantom, cam, n_theta, n_s, s_max, max_harmonic)
    return fbp_radon_inversion(sino, n_px, half_extent)

