"""Reconstruction routes from cone data.

Two direct routes weigh cone data at every pixel as a vertex into a ray field,
a sum of one line integral per lattice line, and apply the first-order |xi|
filter line by line, as the closed-form ramp of each line's profile: weighted
filtered backprojection, by the orbit stencil of ``fbp_radon_inversion``.
The camera route converts boundary-detector cone data to an ordinary Radon
sinogram and runs ramp-filtered backprojection; it integrates the opening
out as one FFT circular correlation per orbit of the lattice's rays under a
one-step turn of the axes, against a kernel that already carries the
conversion's Funk-Hecke multiplier, and deposits per axis angle before
folding onto theta rows.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    ImageGrid,
    RadonSinogram,
    _check_cone_lattice,
    _check_extent,
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
    Each line's closed-form ramp-filtered profile (``_ramp_profiles``), a
    disk's averaged over +- half a pixel, far or tiny, is sampled at 8 n_px
    + 1 offsets over +-sqrt(2) half_extent as the orbit stencil pulls its
    row."""
    _check_raster(n_px, half_extent)
    s_max = math.sqrt(2.0) * half_extent
    _check_extent("sqrt(2) * half_extent", s_max)  # the offset range, before any row
    half_step, row_w = _ray_lattice(*pair_w.shape).line_rows(pair_w)
    n_lines = row_w.size
    # backprojection scales by 2 pi / n_lines; the row weights undo it
    row_w *= scale * n_lines / TWO_PI
    thetas = (np.arange(n_lines) + 0.5 * half_step) * (math.pi / n_lines)
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


def _radon_multiplier(n_beta: int, n_psi: int) -> np.ndarray:
    """Opening-integrated profiles -> line integrals per axis angle, as a
    multiplier on rfft modes 0..n_beta/2: 2 / lambda_m(2), the inverse of the
    |t| kernel's Funk-Hecke eigenvalue (``funk_hecke_lambda``), in its exact
    form (-1)^(h+1) (m^2 - 1) / 2 on even m = 2h, and 0 on odd m. The opening
    rule's aliasing peaks fold onto m = 0, where it is small, only when n_psi
    is a multiple of n_beta / 2; it amplifies them on any other lattice,
    which is rejected."""
    if n_beta < 8 or n_beta % 4:
        raise ValueError("axis count must be a multiple of 4 and at least 8")
    if n_psi % (n_beta // 2):
        raise ValueError(f"the camera conversion needs the opening count to be a multiple of half the axis count: {n_psi} openings, {n_beta} axes")
    m = np.arange(n_beta // 2 + 1)
    return np.where(m % 2, 0.0, np.where(m % 4, 0.5, -0.5) * (m * m - 1))


def cone_to_radon_even(block) -> np.ndarray:
    """Convert one vertex's cone data block to line integrals per axis angle.

    The opening is integrated out with a sine-weighted midpoint rule, and
    the profile over the axis angles gets the multiplier of
    ``_radon_multiplier``. Entry j then approximates the line integral over
    the line through the vertex's projection with normal (sin phi_j, cos phi_j).
    """
    data = np.asarray(block, dtype=float)
    if data.ndim != 2:
        raise ValueError("expected an (axis, opening) data block")
    n_beta, n_psi = data.shape
    mu = _radon_multiplier(n_beta, n_psi)
    psis = opening_midpoints(n_psi)
    return np.fft.irfft(np.fft.rfft(data @ np.sin(psis) * (math.pi / n_psi)) * mu, n=n_beta)


@dataclass(frozen=True)
class CameraConfig:
    """Detectors uniformly spaced on the boundary of a square, corners shared.

    The square is [-half_extent, half_extent]^2; each side carries
    ``per_side`` detector sites including both corners, for
    4 * (per_side - 1) distinct detectors.
    """

    half_extent: float
    per_side: int
    n_beta: int
    n_psi: int

    def __post_init__(self):
        _check_extent("camera half_extent", self.half_extent)
        if self.per_side < 2:
            raise ValueError("need at least 2 detectors per side")
        _check_cone_lattice(self.n_beta, self.n_psi)


def detector_positions(cam: CameraConfig) -> np.ndarray:
    """Detector coordinates walking the square boundary counterclockwise."""
    a = cam.half_extent
    t = np.linspace(-a, a, cam.per_side)
    side = cam.per_side - 1
    lo = np.full(side, -a)
    hi = np.full(side, a)
    # 0.0 - t, not -t: the middle site of an odd side is +0.0, not -0.0
    back = 0.0 - t[:-1]
    return np.concatenate(
        [
            np.column_stack([t[:-1], lo]),
            np.column_stack([hi, t[:-1]]),
            np.column_stack([back, hi]),
            np.column_stack([lo, back]),
        ]
    )


def _taps(s, s_max, ds, n_s):
    """Bilinear taps along the offset axis into the flat (axis, offset)
    bins: sample (v, j) at offset ``s[v, j]`` goes into axis row j, two taps
    a sample. Returns the bins and the weights, both of shape
    (2, *s.shape), one slice per tap. A sample outside the offset range
    gets weight 0, which leaves every sum as it would be without it; the
    mask is skipped when every sample is in range, as multiplying by True
    changes no weight."""
    fs = s + s_max
    fs /= ds
    ok = None if fs.min() > -0.5 and fs.max() < n_s - 0.5 else (fs > -0.5) & (fs < n_s - 0.5)
    bins = np.empty((2, *s.shape), dtype=int)
    w = np.empty((2, *s.shape))
    np.floor(fs, out=w[1])
    bins[0] = w[1]
    np.clip(bins[0], 0, n_s - 2, out=bins[0])
    np.subtract(fs, bins[0], out=w[1])
    np.clip(w[1], 0.0, 1.0, out=w[1])
    np.subtract(1.0, w[1], out=w[0])
    bins[0] += n_s * np.arange(s.shape[-1])
    np.add(bins[0], 1, out=bins[1])
    if ok is not None:
        w *= ok
    return bins, w


# ray-table entries per vertex chunk of the camera route: 81 vertices at the
# 400 distinct rays of a 200 x 200 lattice
_CAMERA_BUDGET = 2**15


def _fold(flat: np.ndarray, fold: np.ndarray, row_w: np.ndarray, n_theta: int) -> np.ndarray:
    """Flat (axis, offset) sums folded onto the (theta, offset) bins by the
    bins ``fold`` and weights ``row_w`` of ``_camera_stage``."""
    n_s = flat.size // row_w.shape[1]
    out = np.bincount(fold, (row_w * flat.reshape(-1, n_s)).ravel(), n_theta * n_s)
    return out.reshape(n_theta, n_s)


@dataclass(frozen=True, eq=False)
class _CameraStage:
    """The part of the camera route that depends on the camera and the
    sinogram lattice but not on the phantom (see ``compton_radon_sinogram``):
    the detectors ``verts``, ``step`` to a chunk; the sine and cosine of each
    axis row's theta; ``kernel``, the conjugated opening-kernel spectrum times
    ``_radon_multiplier``, one row per orbit of ``orbit_angles``; ``fold`` and
    ``row_w``, which take the flat (axis, offset) bins onto the (theta,
    offset) bins; and ``den``, the deposit weights folded there."""

    verts: np.ndarray
    step: int
    sin_t: np.ndarray
    cos_t: np.ndarray
    kernel: np.ndarray
    orbit_angles: np.ndarray
    fold: np.ndarray
    row_w: np.ndarray
    den: np.ndarray


@functools.lru_cache(maxsize=8)
def _camera_stage(cam: CameraConfig, n_theta: int, n_s: int, s_max: float) -> _CameraStage:
    """The camera route's phantom-independent stage, built once per
    configuration, after the lattice rule (``_radon_multiplier``) and before
    any ray lattice. The deposit weights are summed chunk by chunk, as a
    call sums its samples, so the stage fixes the chunk length too."""
    mu = _radon_multiplier(cam.n_beta, cam.n_psi)
    verts = detector_positions(cam)
    phis = axis_angles(cam.n_beta)
    theta = np.where(phis >= math.pi, phis - math.pi, phis)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    lat = _ray_lattice(cam.n_beta, cam.n_psi)
    step = max(1, _CAMERA_BUDGET // lat.angles.size)
    w_psi = np.sin(opening_midpoints(cam.n_psi)) * (math.pi / cam.n_psi)
    # conjugated: a product of spectra with it correlates, not convolves
    kernel = np.conj(np.fft.rfft(lat.opening_kernel(w_psi))) * mu
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
    ).astype(np.int32).ravel()
    row_w = np.stack([1.0 - fi, fi])[:, :, None]
    # the deposit weights, tapped and summed chunk by chunk as a call does
    ds = 2.0 * s_max / (n_s - 1)
    den = np.zeros(cam.n_beta * n_s)
    for start in range(0, verts.shape[0], step):
        chunk = verts[start : start + step]
        bins, w = _taps(sin_t * chunk[:, :1] + cos_t * chunk[:, 1:], s_max, ds, n_s)
        den += np.bincount(bins.ravel(), w.ravel(), den.size)
    return _CameraStage(
        verts=_frozen(verts),
        step=step,
        sin_t=_frozen(sin_t),
        cos_t=_frozen(cos_t),
        kernel=_frozen(kernel),
        orbit_angles=_frozen(lat.angles[lat.orbits]),
        fold=_frozen(fold),
        row_w=_frozen(row_w),
        den=_frozen(_fold(den, fold, row_w, n_theta)),
    )


def compton_radon_sinogram(
    phantom: Phantom,
    cam: CameraConfig,
    n_theta: int | None = None,
    n_s: int | None = None,
    s_max: float | None = None,
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
    it. A lattice the conversion accepts (``_radon_multiplier``; any other
    raises ValueError before a ray table is built), n_psi = c n_beta / 2,
    has c orbits: c n_beta log n_beta per detector against c n_beta^2 for
    the per-axis sum. The conversion is a real, even multiplier along the
    axis angle, so it acts once, on the kernel, and the correlation yields
    line integrals directly.
    Each chunk's samples scatter bilinearly along the offset into per-axis
    (axis, offset) bins with weight accumulation; once all are in, each axis
    row folds onto the two theta rows around its angle, taken from the full
    circle onto [0, pi) (an axis past pi reads the same line with negated
    offset, so a row wrapping past the last theta row lands reversed on
    row 0).
    Empty bins inside a row's sampled band are filled by linear interpolation
    along the offset; bins outside every sample stay 0, which is exact while
    the support sits inside the camera square. A hole fraction above 20% of
    the sampled band trips an under-sampling warning.
    Everything that does not depend on the phantom (the kernel, the fold,
    the chunk length and the deposit weights) is built once per camera and
    sinogram lattice (``_camera_stage``), with one pass of its own over the
    detector chunks; a call deposits only the weighted line integrals, and
    counts the holes from the cached weights.
    """
    n_theta = cam.n_beta // 2 if n_theta is None else n_theta
    n_s = cam.per_side if n_s is None else n_s
    s_max = cam.half_extent * math.sqrt(2.0) if s_max is None else s_max
    _check_radon_lattice(n_theta, n_s, s_max)
    st = _camera_stage(cam, n_theta, n_s, s_max)
    ds = 2.0 * s_max / (n_s - 1)
    num = np.zeros(cam.n_beta * n_s)
    for start in range(0, st.verts.shape[0], st.step):
        chunk = st.verts[start : start + st.step]
        rays = ray_integral_table(phantom, chunk, st.orbit_angles.ravel()).reshape(-1, *st.orbit_angles.shape)
        # (chunk, n_beta) line integrals: one circular correlation per orbit
        vals = np.fft.irfft((np.fft.rfft(rays) * st.kernel).sum(axis=1), n=cam.n_beta)
        bins, w = _taps(st.sin_t * chunk[:, :1] + st.cos_t * chunk[:, 1:], s_max, ds, n_s)
        w *= vals
        num += np.bincount(bins.ravel(), w.ravel(), num.size)
    seen = st.den > 0.0
    avg = np.divide(_fold(num, st.fold, st.row_w, n_theta), st.den, out=np.zeros((n_theta, n_s)), where=seen)
    # the sampled band of each row, first to last seen bin, and its holes
    count = seen.sum(axis=1)
    band = np.where(count > 0, n_s - seen[:, ::-1].argmax(axis=1) - seen.argmax(axis=1), 0)
    gaps = band - count
    offsets = np.linspace(-s_max, s_max, n_s)
    for i in np.flatnonzero(gaps):
        avg[i] = np.interp(offsets, offsets[seen[i]], avg[i][seen[i]], left=0.0, right=0.0)
    if gaps.sum() > 0.2 * band.sum():
        warnings.warn(
            f"{gaps.sum()} of {band.sum()} bins in the sampled offset band got no sample; "
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
) -> ImageGrid:
    """Boundary-camera pipeline: cone data -> Radon sinogram -> ramp-filtered
    backprojection."""
    _check_raster(n_px, half_extent)
    if support_halfwidth(phantom) >= cam.half_extent:
        raise ValueError("phantom support must sit strictly inside the camera square")
    sino = compton_radon_sinogram(phantom, cam, n_theta, n_s, s_max)
    return fbp_radon_inversion(sino, n_px, half_extent)
