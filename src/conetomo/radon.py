"""Backprojection, filtered backprojection, and Fourier-multiplier filters.

Backprojection sums sinogram rows back over the image. The pixel grid is
centred and square and the angles are theta_i = (i + c) pi / n, c = 0 or
1/2 (``geometry._radon_angles``), so the rows j, n/2 + j, n - 2c - j and
n/2 - 2c - j are the field of row j turned a quarter, flipped and
transposed, and each row read reversed is its own 180-degree image. One
two-tap linear-interpolation stencil per orbit, over the lower half of the
image, therefore serves all eight (four rows, each also reversed): two calls
per band of pixel rows to scipy's ``coo_matmat_dense``, at the low and the
high weights, add the stencil times an 8-column table of those rows
straight into the accumulator, and the turns and flips are applied once, at
the end. The kernel is loaded from scipy's ``sparse/_sparsetools`` extension
file alone, without the ``scipy.sparse`` package, by the loader the blobs'
special functions share (``geometry._scipy_extension``). It agrees with one
``np.interp`` per angle over every pixel to 1e-12 of the largest value
(``test_backprojection_matches_per_angle_loop``).
``riesz_apply_2d`` realizes the fractional filter with symbol
|xi|^(-alpha) on a zero-padded FFT grid, and ``fbp_radon_inversion``
combines a per-projection ramp filter with backprojection, scale 1/(4*pi).

Memory scales with a chunk of rows, not with the sinogram: backprojection
pulls rows a chunk of whole orbits at a time and drops each chunk before
the next. FBP takes its rows the same way, a ``RadonSinogram`` or rows made
on demand (``_Rows``), and ramp-filters each chunk as backprojection pulls
it, padding and transforming a few rows at a time, so no filtered sinogram
exists. Both chunks are sized by ``_ROW_BUDGET`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ImageGrid, RadonSinogram, _check_radon_lattice, _check_raster, _frozen, _offset_spacing, _radon_angles, _scipy_extension, pixel_centers

# stencil entries (two per pixel) per band of pixel rows in backprojection:
# 16 rows of a 512 px image
_BACKPROJECTION_BUDGET = 2**14
# sinogram entries pulled at once, in whole orbits: 15 orbits of 1025 offsets
_ROW_BUDGET = 2**16
# share of the offset band, below its Nyquist rate, over which the FBP ramp
# rolls off to 0
_TAPER = 0.1


@dataclass(frozen=True)
class _Rows:
    """Sinogram rows made on demand: ``rows(r)`` is rows r, (r.size, n_s),
    on a lattice a ``RadonSinogram`` would accept."""

    n_theta: int
    n_s: int
    s_max: float
    rows: Callable[[np.ndarray], np.ndarray]
    half_step: bool = False

    def __post_init__(self):
        _check_radon_lattice(self.n_theta, self.n_s, self.s_max)


def backprojection(sino: RadonSinogram | _Rows, n_px: int, half_extent: float) -> ImageGrid:
    """Sum of sinogram values over all lines through each pixel.

    Approximates the full-circle integral of g(w, u . w): the half-circle sum
    is doubled because parallel-beam data is even under (w, s) -> (-w, -s).
    Offsets outside [-s_max, s_max] contribute 0; a pixel within rounding of
    +-s_max takes the edge sample. ``sino`` may also be a ``_Rows``, whose
    rows never exist all at once. Row i is backprojected at
    ``_radon_angles(n_theta, half_step)[i]``, the angle its maker used.

    Each band's stencil is one COO matrix, pixel i's tap in entry i, applied
    twice by ``scipy.sparse._sparsetools.coo_matmat_dense``: C[row] += data *
    B[col] in entry order, the kernel behind ``coo_array @`` (private to
    scipy, checked on scipy 1.17.1). It adds into the accumulator in place,
    every pixel's low tap first and then, on the table viewed one row down,
    every pixel's high tap.
    """
    # loaded on use, from its extension file alone: neither import conetomo
    # nor backprojection loads the scipy.sparse package
    coo_matmat_dense = _scipy_extension("sparse", "_sparsetools").coo_matmat_dense

    _check_raster(n_px, half_extent)
    if isinstance(sino, RadonSinogram):
        sino = _Rows(sino.n_theta, sino.n_s, sino.s_max, sino.values.__getitem__)
    n_theta, n_s, s_max = sino.n_theta, sino.n_s, sino.s_max
    coords = pixel_centers(n_px, half_extent)
    half = (n_px + 1) // 2  # lower rows, with the middle row of an odd raster
    n_bands = -(-2 * half * n_px // _BACKPROJECTION_BUDGET)
    band = -(-half // n_bands)
    # the last band repeats the last lower row; rows past `half` are dropped
    ys = coords[np.minimum(np.arange(n_bands * band), half - 1)]
    ds = _offset_spacing(n_s, s_max)
    top = float(n_s)  # in-range indices run over [1, n_s] in the padded table
    # the fractional index f below is affine in the pixel, and sin, cos of
    # theta lie in [0, 1], so the raster's corners bound |f - 1| by reach; a
    # non-finite f would cast to an out-of-range tap
    reach = (2.0 * half_extent + s_max) / ds if ds > 0.0 else math.inf
    if not math.isfinite(reach):
        raise ValueError("backprojection stencil positions overflow: raster too wide for the offset spacing")
    tol = 4.0 * np.finfo(float).eps * reach
    # one stencil for every band and orbit, rewritten in place: pixel i's
    # tap is entry i, read at the low weight and, one row down, the high
    n_pix = band * n_px
    rows = np.arange(n_pix, dtype=np.int32)
    taps = np.empty(n_pix, dtype=np.int32)
    low, high = np.empty(n_pix), np.empty(n_pix)
    f = np.empty(n_pix)
    # columns: the rows (j, n/2 + j, n - 2c - j, n/2 - 2c - j) that orbit
    # representative j's field serves as is, turned a quarter, flipped and
    # transposed, c = 1/2 with ``half_step``, then the same rows reversed;
    # rows 0 and n_s + 1 stay zero, so out-of-range pixels read 0 there
    table = np.zeros((n_s + 2, 8))
    # the table shifted one row down, so a pixel's low tap reads its high row
    below = table.ravel()[8:]
    # acc[b] is contiguous, so the kernel adds into acc itself, not a copy
    acc = np.zeros((n_bands, n_pix, 8))
    shift, even = int(sino.half_step), n_theta % 2 == 0
    thetas = _radon_angles(n_theta, sino.half_step)
    step = 4 if even else 2  # representatives lie in [0, pi/4] or [0, pi/2]
    reps = range((n_theta - shift * step // 2) // step + 1)
    # rows come in chunks of whole orbits, at most _ROW_BUDGET entries and
    # sqrt(_ROW_BUDGET) orbits (their bookkeeping is about 1 KB each), and
    # each chunk is dropped before the next is pulled
    per_chunk = max(1, min(_ROW_BUDGET // (4 * n_s), math.isqrt(_ROW_BUDGET)))
    for first in range(0, len(reps), per_chunk):
        chunk = []
        for j in reps[first : first + per_chunk]:
            # a served row is None where the lattice lacks the symmetry (odd
            # n has no quarter turn or transpose) or repeats an earlier row
            # of the orbit (the rows at angles 0, pi/4 and pi/2)
            served = []
            for col, r in enumerate((j, j + n_theta // 2, n_theta - shift - j, n_theta // 2 - shift - j)):
                served.append(r if (even or col % 2 == 0) and r < n_theta and r not in served else None)
            chunk.append((j, served))
        wanted = [r for _, served in chunk for r in served if r is not None]
        pulled = dict(zip(wanted, sino.rows(np.array(wanted))))
        for j, served in chunk:
            for col, r in enumerate(served):
                table[1:-1, col] = 0.0 if r is None else pulled[r]
                table[1:-1, col + 4] = 0.0 if r is None else pulled[r][::-1]
            # fractional index (x sin + y cos + s_max) / ds + 1 as an outer sum
            fx = (coords * math.sin(thetas[j]) + s_max) / ds + 1.0
            fy = ys * (math.cos(thetas[j]) / ds)
            for b in range(n_bands):
                fb = fy[b * band : (b + 1) * band]
                np.add(fb[:, None], fx, out=f.reshape(band, n_px))
                # theta_j lies in [0, pi/2], so f is smallest and largest at
                # the band's first and last pixels
                if fb[0] + fx[0] < 1.0 or fb[-1] + fx[-1] > top:
                    out = (f < 1.0 - tol) | (f > top + tol)
                    np.clip(f, 1.0, top, out=f)
                    f[out] = 0.0
                # every f is 0.0 or at least 1, so the cast floors it
                taps[:] = f
                np.subtract(f, taps, out=high)
                np.subtract(1.0, high, out=low)
                coo_matmat_dense(n_pix, 8, rows, taps, low, table.ravel(), acc[b])
                coo_matmat_dense(n_pix, 8, rows, taps, high, below, acc[b])
        del pulled
    acc = acc.reshape(n_bands * n_pix, 8)[: half * n_px].reshape(half, n_px, 8)
    # the reversed columns cover the upper rows as the 180-degree image; an
    # odd raster's middle row is its own image and is taken once
    lower = n_px // 2
    img = np.zeros((n_px, n_px))
    for t, view in enumerate((img, img[::-1].T, img[::-1], img.T)):
        # row t's field at view[iy, ix] equals row j's field at pixel (ix, iy)
        view[:half] += acc[:, :, t]
        view[half:] += acc[:lower, :, t + 4][::-1, ::-1]
    img *= 2.0 * math.pi / n_theta
    return ImageGrid(n_px, half_extent, _frozen(img))


def riesz_apply_2d(image: ImageGrid, alpha: float) -> ImageGrid:
    """Apply the radial Fourier multiplier |xi|^(-alpha) to a raster.

    The raster is zero-padded to twice its side, transformed, multiplied, and
    cropped back. The flat (zero-frequency) mode is annihilated for alpha < 0;
    for alpha > 0 it is a pole, so the input must have zero mean and a
    non-zero-mean raster raises.
    """
    alpha = float(alpha)
    if not alpha < 2.0:
        raise ValueError("multiplier order must satisfy alpha < 2 in the plane")
    vals = image.values
    if alpha > 0.0:
        scale = float(np.max(np.abs(vals)))
        if abs(float(vals.mean())) > 1e-10 * max(scale, 1e-300):
            raise ValueError(
                "positive smoothing order needs zero-mean input; the flat mode is a pole"
            )
    n = image.n_px
    big = np.zeros((2 * n, 2 * n))
    q = n // 2
    big[q : q + n, q : q + n] = vals
    freqs = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=image.pixel_size)
    kx, ky = np.meshgrid(freqs, freqs)
    radial = np.hypot(kx, ky)
    with np.errstate(divide="ignore"):
        mult = radial ** (-alpha)
    mult[0, 0] = 1.0 if alpha == 0.0 else 0.0
    filtered = np.real(np.fft.ifft2(np.fft.fft2(big) * mult))
    return ImageGrid(n, image.half_extent, filtered[q : q + n, q : q + n])


def _ramp_multiplier(n_pad: int, ds: float) -> np.ndarray:
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=ds)
    nyquist = math.pi / ds
    filt = np.abs(freqs)
    edge = (1.0 - _TAPER) * nyquist
    high = freqs > edge
    ramp = (freqs[high] - edge) / (nyquist - edge)
    filt[high] *= 0.5 * (1.0 + np.cos(math.pi * np.clip(ramp, 0.0, 1.0)))
    return filt


def _filter_gain(n_theta: int, n_s: int, s_max: float) -> float:
    """A bound, in units of the largest |sample|, on every value
    ``fbp_radon_inversion`` forms on this lattice: a row's padded spectrum
    reaches n_s, the ramp at most the Nyquist rate pi / ds times that, the
    unscaled inverse transform n_pad <= 4 n_s such terms, and the
    backprojection's sum one filtered row per angle."""
    _check_radon_lattice(n_theta, n_s, s_max)
    return n_s * (math.pi / _offset_spacing(n_s, s_max)) * max(4 * n_s, n_theta)


def fbp_radon_inversion(sino: RadonSinogram | _Rows, n_px: int, half_extent: float) -> ImageGrid:
    """Filtered backprojection.

    Each projection is convolved with the band-limited ramp |sigma| (raised
    cosine rolling off over the top tenth, ``_TAPER``, of the band up to the
    offset Nyquist rate), then backprojected and scaled by 1/(4*pi).
    ``sino`` may also be a ``_Rows``, as for ``backprojection``. The ramp
    filter runs on each chunk of rows backprojection pulls, at most
    _ROW_BUDGET zero-padded entries at a time, into an array the size of
    that chunk: neither a filtered sinogram nor a padded spectrum of the
    whole sinogram exists (on 720 x 1025 the spectra would be three arrays
    of 1.5 to 2 sinograms each), and each row's values do not depend on how
    the rows are chunked. A ``RadonSinogram`` whose largest |value| times
    ``_filter_gain`` passes the largest double is rejected by name; a
    ``_Rows`` caller bounds its rows itself.
    """
    if isinstance(sino, RadonSinogram):
        # max and min, not abs: no temporary the size of the sinogram
        peak = float(max(sino.values.max(), -sino.values.min()))
        gain = _filter_gain(sino.n_theta, sino.n_s, sino.s_max)
        # a zero sinogram stays zero at any gain; Python floats give inf
        # past the largest double, without a warning
        if peak > 0.0 and not math.isfinite(peak * gain):
            raise ValueError(
                f"the sinogram's largest |value| {peak:.3g} times {gain:.3g}, "
                "the gain of FBP on this sinogram lattice, may pass the largest double"
            )
        sino = _Rows(sino.n_theta, sino.n_s, sino.s_max, sino.values.__getitem__)
    n_s = sino.n_s
    ds = _offset_spacing(n_s, sino.s_max)
    n_pad = 1 << max(int(math.ceil(math.log2(2 * n_s))), 3)
    filt = _ramp_multiplier(n_pad, ds)
    step = max(1, _ROW_BUDGET // n_pad)

    def filtered(r: np.ndarray) -> np.ndarray:
        rows = sino.rows(r)
        out = np.empty((r.size, n_s))
        for first in range(0, r.size, step):
            spectra = np.fft.rfft(rows[first : first + step], n=n_pad, axis=1)
            spectra *= filt
            out[first : first + step] = np.fft.irfft(spectra, n=n_pad, axis=1)[:, :n_s]
        return out

    back = backprojection(_Rows(sino.n_theta, n_s, sino.s_max, filtered, sino.half_step), n_px, half_extent)
    return ImageGrid(n_px, half_extent, _frozen(back.values / (4.0 * math.pi)))
