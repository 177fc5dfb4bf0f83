"""Analytic 2D phantoms built from disks and Gaussian blobs.

Primitives add; a point covered by several primitives carries the sum of their
densities. Every integral transform of these phantoms (ray, line, cone) has a
closed form, which the rest of the package uses as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ImageGrid, _check_raster, _frozen, _ray_lattice, _special_ufuncs, pixel_centers

_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_GAUSS_CUTOFF = 6.0  # beyond this many sigmas a blob is treated as supported
# the narrowest blob accepted: 2 sigma^2 stays nonzero (it underflows to
# 0.0 below about 1.1e-162), and _EXP_CAP keeps d^2 / (2 sigma^2) finite
_MIN_SIGMA = 1e-154
# exp(-x) is 0.0 in double precision from x = 745.2 on, so an offset d capped
# at sqrt(this many 2 sigma^2) leaves every exponential bit for bit as it was
# and keeps a narrow blob's quotient d^2 / (2 sigma^2) from overflowing; the
# same cap puts erfc's argument d / (sigma sqrt 2) at +-28.3, where erfc
# already gives exactly 0.0 or 2.0
_EXP_CAP = 800.0
# fine samples per pixel side of ``rasterize``
_SUBSAMPLES = 4


@dataclass(frozen=True)
class Disk:
    """Constant density on a closed disk."""

    center: tuple[float, float]
    radius: float
    density: float

    def __post_init__(self):
        center = (float(self.center[0]), float(self.center[1]))
        if not (all(map(math.isfinite, (*center, self.radius, self.density))) and self.radius > 0.0):
            raise ValueError("disk center, radius and density must be finite, the radius positive")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class GaussianBlob:
    """Isotropic Gaussian bump amp * exp(-|x - c|^2 / (2 sigma^2))."""

    center: tuple[float, float]
    sigma: float
    amplitude: float

    def __post_init__(self):
        center = (float(self.center[0]), float(self.center[1]))
        if not (all(map(math.isfinite, (*center, self.sigma, self.amplitude))) and self.sigma >= _MIN_SIGMA):
            raise ValueError(f"blob center, width and amplitude must be finite, the width at least {_MIN_SIGMA:g}")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class Phantom:
    disks: tuple[Disk, ...] = field(default=())
    blobs: tuple[GaussianBlob, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(self.disks))
        object.__setattr__(self, "blobs", tuple(self.blobs))


def centered_disk_phantom() -> Phantom:
    """Unit-density disk of radius 0.5 at the origin."""
    return Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0),))


def overlapping_disks_phantom() -> Phantom:
    """Two overlapping disks (densities 0.3 and 0.7) whose lens sums to 1.0."""
    return Phantom(
        disks=(
            Disk((0.0, 0.0), 0.5, 0.3),
            Disk((0.5, 0.0), 0.3, 0.7),
        )
    )


def translated(phantom: Phantom, offset) -> Phantom:
    """Phantom moved by ``offset``: every primitive center shifts."""
    ox, oy = float(offset[0]), float(offset[1])
    return Phantom(
        disks=tuple(
            Disk((d.center[0] + ox, d.center[1] + oy), d.radius, d.density)
            for d in phantom.disks
        ),
        blobs=tuple(
            GaussianBlob((b.center[0] + ox, b.center[1] + oy), b.sigma, b.amplitude)
            for b in phantom.blobs
        ),
    )


def rotated(phantom: Phantom, angle: float) -> Phantom:
    """Phantom rotated counterclockwise about the origin by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)

    def rot(p):
        return (c * p[0] - s * p[1], s * p[0] + c * p[1])

    return Phantom(
        disks=tuple(Disk(rot(d.center), d.radius, d.density) for d in phantom.disks),
        blobs=tuple(GaussianBlob(rot(b.center), b.sigma, b.amplitude) for b in phantom.blobs),
    )


def support_halfwidth(phantom: Phantom) -> float:
    """Half side of an origin-centered square that holds the (effective) support."""
    bound = 0.0
    for d in phantom.disks:
        bound = max(bound, abs(d.center[0]) + d.radius, abs(d.center[1]) + d.radius)
    for b in phantom.blobs:
        reach = _GAUSS_CUTOFF * b.sigma
        bound = max(bound, abs(b.center[0]) + reach, abs(b.center[1]) + reach)
    return bound


def _line_reach(phantom: Phantom) -> float:
    """The largest distance from the origin of a line that meets the
    (effective) support: |c| + r over disks, |c| + _GAUSS_CUTOFF sigma over
    blobs. In Python floats, so a far primitive gives inf, without a
    warning."""
    return max(
        [math.hypot(*d.center) + d.radius for d in phantom.disks]
        + [math.hypot(*b.center) + _GAUSS_CUTOFF * b.sigma for b in phantom.blobs],
        default=0.0,
    )


def _check_line_integrals(phantom: Phantom, gain: float = 1.0, why: str = "", ramp: bool = False):
    """Reject a phantom whose line integrals, or with ``ramp`` their
    ramp-filtered profiles (``_ramp_profiles``), times ``gain`` may pass the
    largest double; ``why`` names the gain. No line meets more of a disk
    than 2 |density| r, nor more of a blob than sqrt(2 pi) |amplitude|
    sigma, and no ramp-filtered profile more of a disk than 2 |density| nor
    of a blob than 2 |amplitude|, whatever the radius or width, so their
    sum bounds every one. A line term is rounded as ``radon_analytic``
    rounds it, and all are taken in Python floats, which give inf past the
    largest double, without a warning."""
    if ramp:
        what, terms = "ramp-filtered line profiles", "2 |density| over disks plus 2 |amplitude| over blobs"
        bound = sum(2.0 * abs(d.density) for d in phantom.disks) + sum(2.0 * abs(b.amplitude) for b in phantom.blobs)
    else:
        what, terms = "line integrals", "2 |density| radius over disks plus sqrt(2 pi) |amplitude| sigma over blobs"
        bound = sum(2.0 * (abs(d.density) * d.radius) for d in phantom.disks)
        bound += sum(math.sqrt(2.0 * math.pi) * abs(b.amplitude) * b.sigma for b in phantom.blobs)
    # an empty or zero phantom stays zero at any gain
    if bound > 0.0 and not math.isfinite(bound * gain):
        why = f", and {why}" if why else ""
        raise ValueError(f"the phantom's {what} may pass the largest double: {terms} must be finite{why}")


def _pow2_scale(m: float) -> float:
    """The exact power of two that takes m below 2^500, 1 if it is already:
    a square or product of numbers up to m so scaled, or a sum of two such,
    stays finite, and bit for bit the unscaled one scaled."""
    return math.ldexp(1.0, min(0, 500 - math.frexp(m)[1]))


def _clip(d, sigma: float):
    """The offset d clipped to +-sqrt(2 _EXP_CAP) sigma, past which a
    Gaussian of width sigma is 0.0 and its tail 0.0 or 2.0 (no clip where
    that passes the largest double)."""
    scale = _pow2_scale(sigma)
    sig = sigma * scale
    cap = math.sqrt(_EXP_CAP * (2.0 * sig * sig)) / scale
    return np.clip(d, -cap, cap)


def _gauss(d, sigma: float):
    """exp(-d^2 / (2 sigma^2)) of an offset d, clipped (``_clip``) and taken
    with sigma at ``_pow2_scale(sigma)``, so that no square overflows and no
    quotient does."""
    scale = _pow2_scale(sigma)
    d = _clip(d, sigma)
    d *= scale
    sig = sigma * scale
    return np.exp(-(d * d) / (2.0 * sig * sig))


def _half_chord(r: float, p):
    """Half the chord of a disk of radius r on a line at distance p >= 0
    from its centre: sqrt((r - p)(r + p)), p capped at r (0.0 on a miss).
    No difference of squares cancels near the edge, and r and p are taken at
    ``_pow2_scale(r)``, so the product is finite."""
    scale = _pow2_scale(r)
    # in place, so at most two temporaries live at once: fbp's 720 x 1025
    # sinogram, made in row chunks, peaks at 1.35 sinograms
    rs, ps = r * scale, np.minimum(p, r)
    ps *= scale
    gap = rs - ps
    ps += rs
    ps *= gap
    del gap
    half = np.sqrt(ps)
    half /= scale
    return half


def _disk_chord(disk: Disk, qx, qy, dirx, diry):
    """Where the line origin + t*dir crosses the disk, q = center - origin:
    (mid, half) with the chord at t in [mid - half, mid + half]. The line's
    distance from the centre is a cross product, so a far centre overflows
    nothing."""
    return dirx * qx + diry * qy, _half_chord(disk.radius, np.abs(qx * diry - qy * dirx))


def _ray_disk_lengths(disk: Disk, qx, qy, dirx, diry):
    """Length of {origin + t*dir : t >= 0} inside the disk, q = center - origin.
    A ray that misses has half = 0, so its length is x - x = +0.0."""
    mid, half = _disk_chord(disk, qx, qy, dirx, diry)
    return np.maximum(mid + half, 0.0) - np.maximum(mid - half, 0.0)


def _ray_blob_integrals(blob: GaussianBlob, qx, qy, dirx, diry):
    """Integral of the blob over {origin + t*dir : t >= 0}, q = center - origin."""
    # loaded on use, from scipy's ufunc extension alone: a disk phantom never loads it
    erfc = _special_ufuncs().erfc

    m = dirx * qx + diry * qy
    sig = blob.sigma
    # the line's distance from the centre as a cross product
    profile = _gauss(qx * diry - qy * dirx, sig)
    # int_0^inf exp(-(t-m)^2/(2 sig^2)) dt = sig*sqrt(pi/2)*erfc(-m/(sig*sqrt(2)))
    tail = erfc(-_clip(m, sig) / (sig * math.sqrt(2.0)))
    return blob.amplitude * profile * sig * _SQRT_HALF_PI * tail


def _ray_sums(phantom: Phantom, ox, oy, dirx, diry) -> np.ndarray:
    """Ray integrals from origins (ox, oy) along directions (dirx, diry), all
    four broadcast together, every disk on every ray. ``ray_integral`` and
    ``ray_integral_table`` both use it, and through the first the cone
    blocks. The two never call each other, so a profiler that wraps both
    counts each ray once."""
    out = np.zeros(np.broadcast(ox, oy, dirx, diry).shape, dtype=float)
    for d in phantom.disks:
        out += d.density * _ray_disk_lengths(d, d.center[0] - ox, d.center[1] - oy, dirx, diry)
    for b in phantom.blobs:
        out += _ray_blob_integrals(b, b.center[0] - ox, b.center[1] - oy, dirx, diry)
    return out


def ray_integral(phantom: Phantom, origin, angle):
    """Integral of the phantom along the ray from ``origin`` toward
    ``(sin angle, cos angle)``. ``angle`` may be an array; the result
    broadcasts with it."""
    a = np.asarray(angle, dtype=float)
    out = _ray_sums(phantom, float(origin[0]), float(origin[1]), np.sin(a), np.cos(a))
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(out)
    return out


def ray_integral_table(phantom: Phantom, origins, angles) -> np.ndarray:
    """Ray integrals for every (origin, angle) pair.

    Parameters
    ----------
    origins : (P, 2) array of ray start points.
    angles : (A,) array of direction angles.

    Returns
    -------
    (P, A) array; entry [p, a] integrates the phantom along the ray leaving
    ``origins[p]`` toward ``(sin angles[a], cos angles[a])``.

    No route of the package calls it: the camera route reads each
    detector's lines, the sums of opposite rays, in closed form
    (``radon_analytic``). It serves as the ray reference those lines are
    checked against.
    """
    org = np.asarray(origins, dtype=float)
    ang = np.asarray(angles, dtype=float)
    return _ray_sums(phantom, org[:, 0, None], org[:, 1, None], np.sin(ang), np.cos(ang))


def radon_analytic(phantom: Phantom, angle, offset):
    """Line integral over {x : x . (sin angle, cos angle) = offset}.

    Broadcasts over ``angle`` and ``offset``. Even in the pair
    (direction, offset): negating both leaves the line unchanged.
    """
    a = np.asarray(angle, dtype=float)
    s = np.asarray(offset, dtype=float)
    wx, wy = np.sin(a), np.cos(a)
    out = np.zeros(np.broadcast_shapes(wx.shape, s.shape), dtype=float)
    for d in phantom.disks:
        # doubled first, exactly, so a finite 2 rho r never overflows as 2 rho
        out += d.density * (2.0 * _half_chord(d.radius, np.abs(s - (wx * d.center[0] + wy * d.center[1]))))
    for b in phantom.blobs:
        gauss = _gauss(s - (wx * b.center[0] + wy * b.center[1]), b.sigma)
        out += b.amplitude * math.sqrt(2.0 * math.pi) * b.sigma * gauss
    if np.ndim(angle) == 0 and np.ndim(offset) == 0:
        return float(out)
    return out


def _ramp_profiles(phantom: Phantom, thetas, offsets, weights, half_width) -> np.ndarray:
    """weights[i] * (Lambda P_i)(offsets[j]) for every row i and offset j:
    P_i is the line-integral profile s -> radon_analytic(phantom, thetas[i], s)
    and Lambda the ramp filter |sigma| along s. A blob's is 2 amp (1 - 2 x
    D(x)) at x = t / (sigma sqrt 2), t the center's signed distance from the
    line and D Dawson's function. A disk's is singular at the edge, so it is
    averaged over t +- half_width: the ramp is the derivative of the Hilbert
    transform HP(t) = 2 rho H(t), so the average is rho (H(t + d) - H(t -
    d)) / d. H(t) = t on the disk and sgn(t) r^2 / (|t| + sqrt(|t| - r)
    sqrt(|t| + r)) off it: t clipped to +-K, K = (r sqrt 2 / (sqrt(m - r) +
    sqrt(m + r)))^2 at m = max(|t|, r). No offset is squared, nothing is
    divided by the radius, the difference is taken before the gain rho / d,
    and it all runs in quarter units (t / 4, r / 4, exact), so no projection,
    m + r or product overflows for any finite centre and radius; the tail
    errs by about eps |t| / d relative, as t +- d does. Where both t +- d
    lie on the disk the difference is exactly 2 d, so a disk far wider
    than d keeps its profile 2 rho at any |t|.
    """
    wx, wy = 0.25 * np.sin(thetas), 0.25 * np.cos(thetas)
    quarter, qw = 0.25 * offsets, 0.25 * half_width
    out = np.zeros((thetas.size, offsets.size))
    # disks take two more scratch tables, in the same block (apart, it cost them 40 %)
    scratch = np.empty((4 if phantom.disks else 2, *out.shape))
    dist, tmp, aux, hi = scratch[0], scratch[1], scratch[-1], scratch[-2]
    for d in phantom.disks:
        r = 0.25 * d.radius
        np.subtract.outer(wx * d.center[0] + wy * d.center[1] + qw, quarter, out=dist)
        for h in (hi, tmp):  # H(t + d), then H(t - d)
            np.maximum(np.abs(dist, out=h), r, out=h)  # m
            np.sqrt(np.add(h, r, out=aux), out=aux)
            np.sqrt(np.subtract(h, r, out=h), out=h)
            h += aux
            np.square(np.divide(r * math.sqrt(2.0), h, out=h), out=h)  # K
            np.negative(h, out=aux)
            np.maximum(np.minimum(dist, h, out=h), aux, out=h)  # H
            dist -= 2.0 * qw
        # the difference first: each H times the gain alone may overflow
        hi -= tmp
        # where both t +- d lie on the disk the difference is exactly 2 d,
        # which t +- d loses to rounding once |t| is far above d
        dist += 3.0 * qw  # t
        np.abs(dist, out=dist)
        dist += qw
        np.copyto(hi, 2.0 * qw, where=dist <= r)
        out += np.multiply(hi, 4.0 * d.density / half_width, out=hi)
    for b in phantom.blobs:
        # loaded on use: only blobs need scipy's ufunc extension
        dawsn = _special_ufuncs().dawsn

        scale = b.sigma * math.sqrt(2.0)
        # past x = 1e8, 2 x D(x) is 1 to within an ulp, so a centre more than
        # 1e9 scales from every offset is clipped to there: rows within reach
        # keep every bit, and no quotient overflows
        reach = 0.25e9 * scale
        proj = np.clip(wx * b.center[0] + wy * b.center[1], quarter.min() - reach, quarter.max() + reach)
        np.subtract.outer(proj / (0.25 * scale), offsets / scale, out=dist)
        dawsn(dist, out=tmp)
        tmp *= dist
        tmp *= 4.0 * b.amplitude
        out += 2.0 * b.amplitude
        out -= tmp
    out *= weights[:, None]
    return out


def cone_block_analytic(phantom: Phantom, vertex, n_beta: int, n_psi: int, *, out=None) -> np.ndarray:
    """Cone-transform samples at one vertex over the standard lattice:
    axis angles uniform on [0, 2*pi), openings at midpoints of (0, pi).
    Entry [j, k] sums the closed-form ray integrals at angles phi_j +- psi_k;
    each distinct ray of the lattice is evaluated once, then read in place.
    The sums go into ``out``, an (n_beta, n_psi) float array, when given,
    so a caller's slot is filled with no second copy of the block."""
    lat = _ray_lattice(n_beta, n_psi)
    rays = ray_integral(phantom, vertex, lat.angles)
    # windows[i, k] is ray (i + b k) mod n_rays. Axis j's plus rays are row c + a j and its minus rays
    # row c + a j + n_rays / 2 read backward: at most 1.5 n_rays + c - a, within the 1.5 n_rays + b rows
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(rays, 2), lat.b * (n_psi - 1) + 1)[:, :: lat.b]
    plus, minus = (windows[lat.c + s : lat.c + s + rays.size : lat.a] for s in (0, rays.size // 2))
    return np.add(plus, minus[:, ::-1], out=out)


def _disk_runs(disk: Disk, fine: np.ndarray, rows: np.ndarray):
    """Fine columns [lo, hi) inside ``disk`` on each fine row ``rows``.

    Along a row the test (x - cx)**2 + dy2 <= r*r is monotone on each side of
    the column nearest cx, so the samples inside form one run, and that
    column lies in every nonempty run. The run's ends come from
    sqrt(r^2 - dy2) and are then walked with the exact test until it holds
    just inside and fails just outside, so the run is the one the pointwise
    test of the tests' reference ``eval_phantom`` (tests/conftest.py) selects,
    not its rounded estimate. A row that misses the disk gets the empty run
    that starts and ends at that column. The test's distances are taken at
    ``_pow2_scale`` of the largest of them and the radius, 1 below 2^500, so
    no square or sum overflows, and the estimated ends are clipped to a
    fine step past the raster's edges, so no quotient does.
    """
    cx, cy = disk.center
    h = fine[1] - fine[0]
    # the radius and the largest distance along an axis that is squared
    far = max(disk.radius, abs(fine[0] - cx), abs(fine[-1] - cx), abs(fine[0] - cy), abs(fine[-1] - cy))
    scale = _pow2_scale(far)
    thr = (disk.radius * scale) * (disk.radius * scale)
    gx = ((fine - cx) * scale) ** 2
    dy2 = ((fine[rows] - cy) * scale) ** 2
    mid = int(np.argmin(gx))
    hit = gx[mid] + dy2 <= thr
    dy2 = dy2[hit]
    half = np.sqrt(np.maximum(thr - dy2, 0.0)) / scale
    below, above = fine[0] - h, fine[-1] + h
    lo_x = np.clip(cx - np.minimum(half, cx - below), below, above)
    hi_x = np.clip(cx + np.minimum(half, above - cx), below, above)
    lo = np.clip(np.ceil((lo_x - fine[0]) / h), 0, mid).astype(np.int64)
    hi = np.clip(np.floor((hi_x - fine[0]) / h) + 1, mid + 1, fine.size).astype(np.int64)

    def walk(ends, inside, step):
        # move each end by ``step`` while ``inside(ends)`` says it should
        while True:
            move = inside(ends)
            if not move.any():
                return
            ends[move] += step

    last = fine.size - 1
    walk(lo, lambda j: (j > 0) & (gx[np.maximum(j - 1, 0)] + dy2 <= thr), -1)
    walk(lo, lambda j: ~(gx[j] + dy2 <= thr), 1)
    walk(hi, lambda j: (j <= last) & (gx[np.minimum(j, last)] + dy2 <= thr), 1)
    walk(hi, lambda j: ~(gx[j - 1] + dy2 <= thr), -1)
    runs = np.full((2, rows.size), mid)
    runs[0, hit], runs[1, hit] = lo, hi
    return runs


def _add_disk(pooled: np.ndarray, disk: Disk, fine: np.ndarray, s: int):
    """Add the disk's antialiased raster to ``pooled``: density / s^2 times
    the count of each pixel's fine samples inside the disk."""
    n_px = pooled.shape[0]
    # pixel columns and rows within a pixel of the disk's extent; those
    # beyond it miss, so a disk off the raster is skipped before
    # ``_disk_runs`` squares its distances
    pitch = (fine[1] - fine[0]) * s
    c, r = disk.center, disk.radius
    # the disk's ends in Python floats (c +- r of a huge disk may be inf,
    # without a warning), clipped to four pixels past the raster's so that
    # no quotient overflows; an end the clip moves still lands on 0 or n_px
    ends = np.clip([[c[0] - r, c[1] - r], [c[0] + r, c[1] + r]], fine[0] - 4.0 * pitch, fine[-1] + 4.0 * pitch)
    ends_lo, ends_hi = np.clip(np.floor((ends - fine[0]) / pitch) + [[-1.0], [2.0]], 0, n_px)
    if not (ends_lo < ends_hi).all():
        return
    p_lo, p_hi = int(ends_lo[1]), int(ends_hi[1])
    lo, hi = _disk_runs(disk, fine, np.arange(p_lo * s, p_hi * s))
    if not (hi > lo).any():
        return
    # pixel columns of the runs; the empty runs sit inside them too
    c_lo = int(lo.min()) // s
    c_hi = int(hi.max() - 1) // s + 1
    width = c_hi - c_lo + 2
    # Per fine row, a pixel column's count is clip(hi - s q, 0, s) -
    # clip(lo - s q, 0, s): a run of full pixels between two partial ones.
    # Its first difference along q is nonzero at the four columns
    # lo // s, lo // s + 1, hi // s and hi // s + 1, so the counts of a pixel
    # row are the running sum of those four terms over its s fine rows.
    a, b = lo // s, hi // s
    steps = np.stack([s * (a + 1) - lo, lo - s * a, hi - s * b - s, s * b - hi])
    cols = np.stack([a, a + 1, b, b + 1]) - c_lo
    rows = np.arange(lo.size) // s
    scale = disk.density / (s * s)
    # chunks of pixel rows whose tables hold at most the fine samples of one
    # pixel row, the smallest band a per-sample raster makes
    chunk = max(1, n_px * s * s // width)
    for r0 in range(0, p_hi - p_lo, chunk):
        r1 = min(r0 + chunk, p_hi - p_lo)
        sel = slice(r0 * s, r1 * s)
        idx = (rows[sel] - r0) * width + cols[:, sel]
        diff = np.bincount(idx.ravel(), steps[:, sel].ravel(), (r1 - r0) * width)
        counts = np.cumsum(diff.reshape(r1 - r0, width), axis=1)[:, : width - 2]
        pooled[p_lo + r0 : p_lo + r1, c_lo:c_hi] += scale * counts


def _add_blob(pooled: np.ndarray, blob: GaussianBlob, fine: np.ndarray, s: int):
    """Add the blob's antialiased raster to ``pooled``. The Gaussian is
    separable, so the raster is amp / s^2 times the outer product of
    per-pixel sums of s one-dimensional exponentials."""
    n_px = pooled.shape[0]
    gx = _gauss(fine - blob.center[0], blob.sigma).reshape(n_px, s).sum(axis=1)
    gy = _gauss(fine - blob.center[1], blob.sigma).reshape(n_px, s).sum(axis=1)
    gy *= blob.amplitude / (s * s)
    chunk = s * s  # rows whose product holds the fine samples of one pixel row
    for r0 in range(0, n_px, chunk):
        pooled[r0 : r0 + chunk] += gy[r0 : r0 + chunk, None] * gx


def rasterize(phantom: Phantom, n_px: int, half_extent: float) -> ImageGrid:
    """Antialiased raster: each pixel is the mean of the density over an
    s x s lattice inside the pixel, s = _SUBSAMPLES.

    No sample is evaluated one by one. A disk's value is density / s^2
    times the exact count of the pixel's fine samples inside it, taken from
    one run of inside samples per fine row (see ``_disk_runs``); the counts
    equal those of the pointwise test in the tests' reference ``eval_phantom``
    (tests/conftest.py). A blob's value is amp / s^2 times an outer product
    of per-pixel sums of s 1-D Gaussians.
    Temporaries stay within the fine samples of one pixel row, or O(n_px s).
    """
    _check_raster(n_px, half_extent)
    fine = pixel_centers(n_px * _SUBSAMPLES, half_extent)
    pooled = np.zeros((n_px, n_px))
    for d in phantom.disks:
        _add_disk(pooled, d, fine, _SUBSAMPLES)
    for b in phantom.blobs:
        _add_blob(pooled, b, fine, _SUBSAMPLES)
    return ImageGrid(n_px, half_extent, _frozen(pooled))


def parse_phantom_text(text: str) -> Phantom:
    """Parse the plain-text phantom description.

    One primitive per line: ``disk cx cy radius density`` or
    ``gauss cx cy sigma amplitude``. ``#`` starts a comment; blank lines are
    skipped.
    """
    disks: list[Disk] = []
    blobs: list[GaussianBlob] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 'kind cx cy a b', got {raw!r}")
        if kind not in ("disk", "gauss"):
            raise ValueError(f"line {lineno}: unknown primitive {kind!r}")
        try:
            cx, cy, a, b = (float(p) for p in parts[1:])
            primitive = (Disk if kind == "disk" else GaussianBlob)((cx, cy), a, b)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}: {raw!r}") from exc
        (disks if kind == "disk" else blobs).append(primitive)
    return Phantom(disks=tuple(disks), blobs=tuple(blobs))


def load_phantom_file(path) -> Phantom:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_phantom_text(fh.read())
