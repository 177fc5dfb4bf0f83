"""Geometric primitives and sample-lattice containers shared by all modules.

Angle convention used throughout the package: an angle ``a`` on the circle maps
to the unit vector ``(sin a, cos a)``, so angle 0 points along +y and the angle
grows toward +x. Every operation that takes or returns directions relies on
this single convention.

The rays phi_j +- psi_k of a cone lattice are integer multiples of
pi / (2 n_beta n_psi), so ``_ray_lattice`` maps them onto their distinct
directions, and those onto full lines, by an affine map of three integers.
Every route takes the Radon lattice from here: rows at ``_radon_angles``,
offsets at ``_radon_offsets``, ``_offset_spacing`` apart, over
``_corner_range`` unless the caller gives the range.

``_scipy_extension`` loads one of scipy's C extension modules from its file
alone, without the package around it; ``_special_ufuncs`` names the one that
holds the blobs' special functions.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

TWO_PI = 2.0 * math.pi


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n, 2*pi^(n/2)/Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@functools.cache
def _scipy_extension(folder: str, name: str):
    """scipy's C extension module ``scipy.<folder>.<name>``, loaded from its
    file alone, without running the package inits on its path. ``import
    scipy.sparse`` loaded about 325 more modules and 21 MB of RSS for its COO
    kernel, ``import scipy.special`` 66 modules and 24 MB for three ufuncs.
    The extension registers itself under its full name, so a later import
    through the package returns the same module and the same functions
    (checked on scipy 1.17.1). A missing file raises ``ImportError``."""
    full = f"scipy.{folder}.{name}"
    scipy = importlib.util.find_spec("scipy")  # locates the package without importing it
    path = os.path.join(scipy.submodule_search_locations[0], folder) if scipy else None
    spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full) if path else None
    if spec is None:
        place = f"in {path}" if path else "(scipy is not installed)"
        raise ImportError(f"scipy's extension file {name}{EXTENSION_SUFFIXES[0]} not found {place}", name=full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _special_ufuncs():
    """scipy's ufunc extension ``scipy.special._special_ufuncs`` (``erfc``,
    ``dawsn``, ``i0e``), named here once: where scipy keeps these functions
    has moved between releases (the file exists from 1.14, this layout is
    the one of 1.17, the floor pyproject.toml declares)."""
    return _scipy_extension("special", "_special_ufuncs")


def _owned_array(values):
    """A read-only float array no one else can write: ``values`` itself when
    it is already a read-only float array that owns its data (a producer
    froze its fresh result), otherwise a frozen copy."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == float
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


def _adopt(obj, name: str, values, shape: tuple, what: str) -> np.ndarray:
    """Set the field ``name`` of the frozen container ``obj`` to ``values``
    taken by ``_owned_array``, once it has ``shape`` (a None length matches
    any) and only finite entries; ``what`` names it in the error. Returns
    the adopted array. max and min propagate inf and nan, so the finite
    check forms no mask the size of the array."""
    arr = _owned_array(values)
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{what} shape {arr.shape} does not match {shape}")
    if arr.size and not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
        raise ValueError(f"{what} must be finite")
    object.__setattr__(obj, name, arr)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, so a container adopts it without a copy."""
    arr.setflags(write=False)
    return arr


def pixel_centers(n_px: int, half_extent: float) -> np.ndarray:
    """Per-axis pixel-center coordinates -L + (i + 0.5) * (2L / n)."""
    h = 2.0 * half_extent / n_px
    return -half_extent + (np.arange(n_px) + 0.5) * h


def _check_extent(name: str, value: float):
    # a finite span 2 * value keeps the lattices laid across it (pixel_centers,
    # linspace) finite, and a finite squared span the squares and products of
    # coordinates on them (the phantoms' x^2 + y^2, s * w): value < 6.7e153
    span = 2.0 * value
    if not (value > 0.0 and math.isfinite(span * span)):
        raise ValueError(f"{name} must be finite and positive, and (2 * {name})^2 finite, got {value!r}")


def _check_raster(n_px: int, half_extent: float):
    if n_px < 2:
        raise ValueError("raster needs at least 2 pixels per side")
    _check_extent("half_extent", half_extent)


@dataclass(frozen=True)
class ImageGrid:
    """Square pixel raster over [-half_extent, half_extent]^2.

    ``values[iy, ix]`` holds the sample at ``(x, y) = (c[ix], c[iy])`` where
    ``c = pixel_centers(n_px, half_extent)``; rows advance along +y. Writers
    that need top-down row order (PGM) flip at output time.
    """

    n_px: int
    half_extent: float
    values: np.ndarray

    def __post_init__(self):
        _check_raster(self.n_px, self.half_extent)
        _adopt(self, "values", self.values, (self.n_px, self.n_px), "raster values")

    @property
    def pixel_size(self) -> float:
        return 2.0 * self.half_extent / self.n_px

    @property
    def coords(self) -> np.ndarray:
        return pixel_centers(self.n_px, self.half_extent)


def _radon_angles(n_theta: int, half_step: bool = False) -> np.ndarray:
    """The Radon row lattice every route makes and backprojects its rows on:
    row i at (i + c) pi / n_theta, c = 1/2 with ``half_step``, else 0."""
    return (np.arange(n_theta) + 0.5 * half_step) * (math.pi / n_theta)


def _radon_offsets(n_s: int, s_max: float) -> np.ndarray:
    """The Radon offset lattice every route makes and reads its rows on:
    n_s offsets uniform on [-s_max, s_max], endpoints included."""
    return np.linspace(-s_max, s_max, n_s)


def _offset_spacing(n_s: int, s_max: float) -> float:
    """The step ds between neighbouring offsets of ``_radon_offsets``."""
    return 2.0 * s_max / (n_s - 1)


def _corner_range(half_extent: float) -> float:
    """The offset of the lines through the corners of the raster over
    [-half_extent, half_extent]^2, sqrt(2) * half_extent: the default s_max."""
    return math.sqrt(2.0) * half_extent


def _check_radon_lattice(n_theta: int, n_s: int, s_max: float):
    if n_theta < 1 or n_s < 2:
        raise ValueError("sinogram lattice needs n_theta >= 1 and n_s >= 2")
    _check_extent("s_max", s_max)


def _check_offset_range(s_max: float, half_extent: float, reach: float):
    """Reject an offset half range that cuts off lines filtered
    backprojection needs: those through the raster's corners, out to
    sqrt(2) * half_extent, and those that meet the phantom, out to
    ``reach``. A sinogram cut short of either ramp-filters into a wrong
    raster with no other sign."""
    corners = _corner_range(half_extent)
    if s_max < corners:
        raise ValueError(f"s_max (--smax) {s_max!r} must reach the raster's corners, sqrt(2) * half_extent = {corners!r}")
    if reach > s_max:
        raise ValueError(f"s_max (--smax) {s_max!r} must reach every line that meets the phantom, out to {reach!r}")


@dataclass(frozen=True)
class RadonSinogram:
    """Line-integral samples on the lattice theta_i = i pi / n_theta
    (``_radon_angles``), s_j uniform on [-s_max, s_max] endpoints included
    (``_radon_offsets``)."""

    n_theta: int
    n_s: int
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        _check_radon_lattice(self.n_theta, self.n_s, self.s_max)
        _adopt(self, "values", self.values, (self.n_theta, self.n_s), "sinogram values")

    @property
    def thetas(self) -> np.ndarray:
        return _radon_angles(self.n_theta)

    @property
    def offsets(self) -> np.ndarray:
        return _radon_offsets(self.n_s, self.s_max)


def axis_angles(n_beta: int) -> np.ndarray:
    """Cone-axis angle lattice: n_beta angles uniform on [0, 2*pi)."""
    return np.arange(n_beta) * (TWO_PI / n_beta)


def _check_cone_lattice(n_beta: int, n_psi: int):
    if n_beta < 1 or n_psi < 2:
        raise ValueError("cone lattice needs at least 1 axis angle and 2 openings")


def opening_midpoints(n_psi: int) -> np.ndarray:
    """Half-opening lattice: midpoints (k + 0.5) * pi / n_psi, never 0 or pi."""
    return (np.arange(n_psi) + 0.5) * (math.pi / n_psi)


@dataclass(frozen=True, eq=False)
class _RayLattice:
    """The rays at axis +- opening of an (n_beta, n_psi) cone lattice,
    collapsed by an affine map onto n_rays = a n_beta = 2 b n_psi distinct
    directions: phi_j + psi_k is ray (a j + b k + c) mod n_rays and phi_j -
    psi_k ray (a j - b k - b + c) mod n_rays. Ray i sits at (i + shift) 2 pi
    / n_rays, shift = b / 2 - c, 0 or 1/2, so ray i and ray i + n_rays / 2
    point opposite each other, as do the minus ray at (j, n_psi - 1 - k) and
    the plus ray at (j, k). It holds no table of the cone lattice: the direct
    routes weigh its lines from an axis and an opening vector (``line_rows``),
    and the cone blocks read its rays through strided windows."""

    angles: np.ndarray
    a: int
    b: int
    c: int

    def line_rows(self, axis_w, open_w):
        """Radon rows of the L = n_rays / 2 = b n_psi full lines and their summed
        weights: the pair (j, k) weighs axis_w[j] open_w[k], open_w symmetric
        (open_w == open_w[::-1]), on its plus ray and on the minus ray at (j,
        n_psi - 1 - k) opposite it, one line, (a j + b k + c) mod L. The b k
        stay distinct below L, so axis j adds each product once, in axis order,
        to the lines r + b ((q + k) mod n_psi), (q, r) = divmod((a j + c) mod L,
        b). The line through ray l, at (l + shift) pi / L, has Radon angle pi / 2
        later mod pi: row (2 l + 2 shift + L - half) / 2 mod L of the angles (row
        + half / 2) pi / L, half = (2 shift + L) mod 2. Returns (half, row weights)."""
        open_w = np.asarray(open_w, dtype=float)
        if not np.array_equal(open_w, open_w[::-1]):
            raise ValueError("opening weights must be symmetric, equal to their reverse")
        n_psi, n_lines = open_w.size, self.angles.size // 2
        twice = self.b - 2 * self.c + n_lines  # 2 shift + L
        line_w = np.zeros(n_lines)
        for j, w in enumerate(np.asarray(axis_w, dtype=float).tolist()):
            q, r = divmod((self.a * j + self.c) % n_lines, self.b)
            col, pair_w = line_w[r :: self.b], w * open_w
            col[q:] += pair_w[: n_psi - q]
            col[:q] += pair_w[n_psi - q :]
        return twice % 2 == 1, np.roll(line_w, twice // 2)


def _ray_lattice(n_beta: int, n_psi: int) -> _RayLattice:
    """Ray lattice of the standard cone lattice.

    In units of pi / (2 n_beta n_psi) the ray at phi_j +- psi_k is the
    integer 4 n_psi j +- n_beta (2 k + 1) mod 4 n_beta n_psi, and these
    integers fill the coset m0 + step Z exactly, step = 2 gcd(2 n_psi,
    n_beta), m0 = n_beta mod step: ray i is m0 + i step, shift = m0 / step.
    Commensurate lattices repeat rays heavily (200 x 200 has 80,000 rays in
    400 directions).
    """
    step = 2 * math.gcd(2 * n_psi, n_beta)
    m0 = n_beta % step
    n_rays = 4 * n_beta * n_psi // step
    angles = (np.arange(n_rays) + m0 / step) * (TWO_PI / n_rays)
    return _RayLattice(_frozen(angles), a=4 * n_psi // step, b=2 * n_beta // step, c=(n_beta - m0) // step)


@dataclass(frozen=True)
class ConeSinogram:
    """Cone-transform samples, indexed [vertex, axis angle, opening].

    Axis angles run over ``axis_angles(n_beta)`` and openings over
    ``opening_midpoints(n_psi)``; the midpoint lattice keeps every opening
    strictly inside (0, pi) so the transform is defined at every sample.
    """

    vertices: np.ndarray
    n_beta: int
    n_psi: int
    values: np.ndarray

    def __post_init__(self):
        verts = _adopt(self, "vertices", self.vertices, (None, 2), "vertices")
        if self.n_beta < 1 or self.n_psi < 1:
            raise ValueError("lattice sizes must be positive")
        _adopt(self, "values", self.values, (verts.shape[0], self.n_beta, self.n_psi), "cone sinogram values")
