"""Geometric primitives and sample-lattice containers shared by all modules.

Angle convention used throughout the package: an angle ``a`` on the circle maps
to the unit vector ``(sin a, cos a)``, so angle 0 points along +y and the angle
grows toward +x. Every operation that takes or returns directions relies on
this single convention.

The rays of a cone lattice are integer multiples of pi / (2 n_beta n_psi),
so ``_ray_lattice`` finds which coincide, their orbits under a turn of the
axes and their full lines by integer arithmetic, with no float tolerance.

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


def _freeze(obj, name, value):
    object.__setattr__(obj, name, value)


def _owned_array(values, dtype=float):
    """A read-only array no one else can write: ``values`` itself when it is
    already a read-only array of ``dtype`` that owns its data (a producer
    froze its fresh result), otherwise a frozen copy."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """No inf or nan in ``arr``. max and min propagate both, so this forms
    no mask the size of the array."""
    return arr.size == 0 or bool(np.isfinite(arr.max()) and np.isfinite(arr.min()))


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
        v = _owned_array(self.values)
        if v.shape != (self.n_px, self.n_px):
            raise ValueError(
                f"values shape {v.shape} does not match n_px {self.n_px}"
            )
        if not _all_finite(v):
            raise ValueError("raster values must be finite")
        _freeze(self, "values", v)

    @property
    def pixel_size(self) -> float:
        return 2.0 * self.half_extent / self.n_px

    @property
    def coords(self) -> np.ndarray:
        return pixel_centers(self.n_px, self.half_extent)


def _check_radon_lattice(n_theta: int, n_s: int, s_max: float):
    if n_theta < 1 or n_s < 2:
        raise ValueError("sinogram lattice needs n_theta >= 1 and n_s >= 2")
    _check_extent("s_max", s_max)


@dataclass(frozen=True)
class RadonSinogram:
    """Line-integral samples on the lattice theta_i = i*pi/n_theta,
    s_j uniform on [-s_max, s_max] endpoints included."""

    n_theta: int
    n_s: int
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        _check_radon_lattice(self.n_theta, self.n_s, self.s_max)
        v = _owned_array(self.values)
        if v.shape != (self.n_theta, self.n_s):
            raise ValueError(
                f"values shape {v.shape} does not match ({self.n_theta}, {self.n_s})"
            )
        if not _all_finite(v):
            raise ValueError("sinogram values must be finite")
        _freeze(self, "values", v)

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.n_theta) * (math.pi / self.n_theta)

    @property
    def offsets(self) -> np.ndarray:
        return np.linspace(-self.s_max, self.s_max, self.n_s)


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
    collapsed to distinct directions: ``angles[plus[j, k]]`` is the ray at
    phi_j + psi_k and ``angles[minus[j, k]]`` the one at phi_j - psi_k.
    The n_rays distinct rays sit at (i + shift) 2 pi / n_rays, shift 0 or
    1/2, so ray i and ray i + n_rays / 2 point opposite each other, and the
    minus ray at (j, n_psi - 1 - k) points opposite the plus ray at (j, k).

    Turning the axis lattice one step, j -> j + 1, moves every ray
    s = n_rays / n_beta slots, so the rays split into s orbits of exactly
    n_beta rays: ``orbits[o, i]`` is ray o + i s, 2 pi i / n_beta past ray o.
    Each column of ``plus`` or ``minus`` is one orbit, starting at some
    slot."""

    angles: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    orbits: np.ndarray
    shift: float

    def line_rows(self, pair_w):
        """Radon rows of the L = n_rays / 2 full lines and their summed
        weights for (axis, opening) pair weights w symmetric in the opening,
        w == w[:, ::-1]: the pair (j, k) weighs the plus ray at (j, k) and,
        by symmetry, the minus ray at (j, n_psi - 1 - k) opposite it, so the
        two rays make one line, ``plus[j, k] mod L``, with weight w[j, k].
        The line through ray l, at (l + shift) pi / L, has Radon angle
        pi / 2 later mod pi: row (2 l + 2 shift + L - half) / 2 mod L of the
        angles (row + half / 2) pi / L, half = (2 shift + L) mod 2. Returns
        (half, row weights)."""
        w = np.asarray(pair_w, dtype=float)
        if not np.array_equal(w, w[:, ::-1]):
            raise ValueError("pair weights must be symmetric in the opening")
        n_lines = self.angles.size // 2
        twice = int(2 * self.shift) + n_lines
        line_w = np.bincount(self.plus.ravel() % n_lines, w.ravel(), n_lines)
        return twice % 2 == 1, np.roll(line_w, twice // 2)

    def opening_kernel(self, w_psi):
        """The opening integral as a circular correlation along the orbits:
        for r the values at ``angles[orbits]``, sum_k w_psi[k] (r at
        plus[j, k] + r at minus[j, k]) equals
        sum_o sum_m K[o, m] r[o, (j + m) mod n_beta], because the plus and
        minus rays of axis j are those of axis 0 turned j steps. K[o, m]
        collects w_psi[k] wherever plus[0, k] or minus[0, k] sits at slot m
        of orbit o."""
        slot = np.empty(self.angles.size, dtype=np.intp)
        slot[self.orbits.ravel()] = np.arange(self.orbits.size)
        w = np.asarray(w_psi, dtype=float)
        starts = slot[np.concatenate([self.plus[0], self.minus[0]])]
        return np.bincount(starts, np.concatenate([w, w]), self.orbits.size).reshape(self.orbits.shape)


@functools.lru_cache(maxsize=8)
def _ray_lattice(n_beta: int, n_psi: int) -> _RayLattice:
    """Ray lattice of the standard cone lattice, built once per size.

    In units of pi / (2 n_beta n_psi) the ray at phi_j +- psi_k is the
    integer 4 n_psi j +- n_beta (2 k + 1) mod 4 n_beta n_psi, and these
    integers fill the coset m0 + step Z exactly, step = 2 gcd(2 n_psi,
    n_beta), m0 = n_beta mod step: ray i is m0 + i step, shift = m0 / step.
    Commensurate lattices repeat rays heavily (200 x 200 has 80,000 rays in
    400 directions).
    """
    full = 4 * n_beta * n_psi
    step = 2 * math.gcd(2 * n_psi, n_beta)
    m0 = n_beta % step
    n_rays = full // step
    axis = 4 * n_psi * np.arange(n_beta)[:, None]
    opening = n_beta * (2 * np.arange(n_psi) + 1)
    plus, minus = ((axis + sign * opening - m0) % full // step for sign in (1, -1))
    shift = m0 / step
    angles = (np.arange(n_rays) + shift) * (TWO_PI / n_rays)
    orbits = np.arange(n_rays).reshape(n_beta, -1).T
    return _RayLattice(_frozen(angles), _frozen(plus), _frozen(minus), _frozen(orbits), shift)


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
        verts = _owned_array(self.vertices)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError("vertices must be an array of 2D points")
        if self.n_beta < 1 or self.n_psi < 1:
            raise ValueError("lattice sizes must be positive")
        v = _owned_array(self.values)
        expect = (verts.shape[0], self.n_beta, self.n_psi)
        if v.shape != expect:
            raise ValueError(f"values shape {v.shape} does not match {expect}")
        if not _all_finite(v):
            raise ValueError("cone sinogram values must be finite")
        _freeze(self, "vertices", verts)
        _freeze(self, "values", v)
