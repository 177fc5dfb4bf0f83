"""Binary containers for rasters and sinograms, plus a 16-bit PGM preview.

Everything is little-endian and self-describing behind a short magic string.
Values are stored as raw float64, so write-then-read reproduces arrays
bit-exactly.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable

import numpy as np

from .geometry import TWO_PI, ConeSinogram, ImageGrid, RadonSinogram, _frozen

_IMG_MAGIC = b"IMG2"
# header layout per raster magic; IMG1 stored the extent as float32
_IMG_HEADERS = {b"IMG1": "<IIf", b"IMG2": "<IId"}
_CONE_MAGIC = b"CONESG01"
_RADON_MAGIC = b"RADSG001"
# preview pixels scaled and written at once: 64 rows of a 1024 px raster
_PGM_BUDGET = 2**16


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise ValueError(f"truncated file while reading {what}")
    return buf


def _read_values(fh, shape: tuple, what: str) -> np.ndarray:
    """The next float64 payload of ``shape``, read straight into a fresh
    frozen array, so the container adopts it without a copy. The file's size
    is checked first: a corrupt header cannot make the reader allocate more
    than the file holds."""
    if 8 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated file while reading {what}")
    arr = np.empty(shape, dtype="<f8")
    fh.readinto(arr)
    return _frozen(arr)


def _expect_end(fh, kind: str):
    if fh.read(1):
        raise ValueError(f"trailing bytes after {kind} payload")


def _write_values(fh, values):
    # the file writes straight from the array's buffer; only an array that is
    # not already contiguous little-endian float64 is converted first
    fh.write(np.ascontiguousarray(values, dtype="<f8"))


def write_image_raw(path, grid: ImageGrid):
    """Square raster: 20-byte header (magic, u32 rows, u32 cols, f64 half
    extent) followed by row-major float64 pixels."""
    header = _IMG_MAGIC + struct.pack(_IMG_HEADERS[_IMG_MAGIC], grid.n_px, grid.n_px, grid.half_extent)
    with open(path, "wb") as fh:
        fh.write(header)
        _write_values(fh, grid.values)


def read_image_raw(path) -> ImageGrid:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        layout = _IMG_HEADERS.get(magic)
        if layout is None:
            raise ValueError(f"not a raster file: magic {magic!r}")
        rows, cols, half = struct.unpack(layout, _read_exact(fh, struct.calcsize(layout), "raster header"))
        if rows != cols:
            raise ValueError(f"raster must be square, got {rows}x{cols}")
        data = _read_values(fh, (rows, cols), "pixel data")
        _expect_end(fh, "raster")
    return ImageGrid(n_px=int(rows), half_extent=float(half), values=data)


def write_pgm16(path, values) -> tuple[float, float]:
    """16-bit binary PGM preview, min-max scaled to 0..65535.

    Raster rows advance along +y, PGM rows top-down, so the image is flipped
    on write. The preview is scaled, rounded and written ``_PGM_BUDGET``
    pixels of rows at a time, so no scaled copy of the whole raster exists.
    Returns (vmin, vmax) so callers can record the scaling.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise ValueError("expected a 2D array")
    vmin, vmax = float(vals.min()), float(vals.max())
    span = vmax - vmin
    flipped = vals[::-1]
    step = max(1, _PGM_BUDGET // vals.shape[1])
    with open(path, "wb") as fh:
        fh.write(f"P5\n{vals.shape[1]} {vals.shape[0]}\n65535\n".encode("ascii"))
        for first in range(0, vals.shape[0], step):
            # one float temporary a chunk, scaled (by 1 / span first: 65535 /
            # span overflows below about 3.6e-304) and rounded in place; a flat raster is 0
            scaled = np.subtract(flipped[first : first + step], vmin)
            if span != 0.0:
                np.multiply(np.divide(scaled, span, out=scaled), 65535.0, out=scaled)
            np.rint(scaled, out=scaled)
            fh.write(scaled.astype(">u2"))
            del scaled  # before the next chunk is made
    return vmin, vmax


def _cone_lattice_bytes(n_beta: int, n_psi: int) -> bytes:
    """Axis origin/step and opening origin/step of the standard cone lattice."""
    return struct.pack("<4d", 0.0, TWO_PI / n_beta, 0.5 * math.pi / n_psi, math.pi / n_psi)


def write_cone_sinogram(path, sino: ConeSinogram | Iterable[ConeSinogram], vertices=None):
    """Header: magic, u32 vertex/axis/opening counts, four f64 giving the
    axis origin/step and opening origin/step; then f64 vertex coordinates and
    values in vertex-major, axis-middle, opening-minor order.

    ``sino`` is a ConeSinogram or, with ``vertices``, an iterable of
    ConeSinograms on consecutive chunks of ``vertices``, all on one lattice.
    Each chunk's values are written as it comes, so only one chunk need
    exist at a time; a ConeSinogram is written as a single chunk. The file
    is written under a temporary name and renamed when complete, so if a
    chunk cannot be made (a ConeSinogram with a non-finite value raises)
    nothing is left at ``path``."""
    if vertices is None:
        vertices, sino = sino.vertices, (sino,)
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            done, lattice = 0, None
            for part in sino:
                if lattice is None:
                    lattice = (part.n_beta, part.n_psi)
                    fh.write(_CONE_MAGIC + struct.pack("<III", verts.shape[0], *lattice))
                    fh.write(_cone_lattice_bytes(*lattice))
                    _write_values(fh, verts)
                n = part.vertices.shape[0]
                if (part.n_beta, part.n_psi) != lattice or part.vertices.tobytes() != verts[done : done + n].tobytes():
                    raise ValueError("cone sinogram chunks must cover the vertices in order on one lattice")
                _write_values(fh, part.values)
                done += n
                # drop this chunk before the next one is made
                del part
            if lattice is None or done != verts.shape[0]:
                raise ValueError(f"cone sinogram chunks cover {done} of {verts.shape[0]} vertices")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_cone_sinogram(path) -> ConeSinogram:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, "magic")
        if magic != _CONE_MAGIC:
            raise ValueError(f"not a cone sinogram: magic {magic!r}")
        n_vert, n_beta, n_psi = struct.unpack("<III", _read_exact(fh, 12, "counts"))
        if n_beta < 1 or n_psi < 1:
            raise ValueError(f"cone sinogram lattice {n_beta}x{n_psi} is empty")
        # only the standard lattice for these counts is readable as a ConeSinogram
        if _read_exact(fh, 32, "lattice metadata") != _cone_lattice_bytes(n_beta, n_psi):
            raise ValueError("cone sinogram header names a nonstandard axis/opening lattice")
        verts = _read_values(fh, (n_vert, 2), "vertices")
        vals = _read_values(fh, (n_vert, n_beta, n_psi), "values")
        _expect_end(fh, "cone sinogram")
    return ConeSinogram(vertices=verts, n_beta=int(n_beta), n_psi=int(n_psi), values=vals)


def write_radon_sinogram(path, sino: RadonSinogram):
    """Header: magic, u32 angle/offset counts, f64 offset half-range; values
    angle-major."""
    head = _RADON_MAGIC + struct.pack("<IId", sino.n_theta, sino.n_s, sino.s_max)
    with open(path, "wb") as fh:
        fh.write(head)
        _write_values(fh, sino.values)


def read_radon_sinogram(path) -> RadonSinogram:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, "magic")
        if magic != _RADON_MAGIC:
            raise ValueError(f"not a radon sinogram: magic {magic!r}")
        n_theta, n_s, s_max = struct.unpack("<IId", _read_exact(fh, 16, "header"))
        vals = _read_values(fh, (n_theta, n_s), "values")
        _expect_end(fh, "radon sinogram")
    return RadonSinogram(n_theta=int(n_theta), n_s=int(n_s), s_max=float(s_max), values=vals)
