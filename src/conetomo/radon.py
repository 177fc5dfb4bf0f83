"""Backprojection, filtered backprojection, and Fourier-multiplier filters.

Backprojection sums sinogram rows back over the image. ``riesz_apply_2d``
realizes the fractional filter with symbol |xi|^(-alpha) on a zero-padded FFT
grid, and ``fbp_radon_inversion`` combines a per-projection ramp filter with
backprojection, scale 1/(4*pi).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ImageGrid, RadonSinogram, pixel_centers


def backprojection(sino: RadonSinogram, n_px: int, half_extent: float) -> ImageGrid:
    """Sum of sinogram values over all lines through each pixel.

    Approximates the full-circle integral of g(w, u . w): the half-circle sum
    is doubled because parallel-beam data is even under (w, s) -> (-w, -s).
    Offsets outside [-s_max, s_max] contribute 0.
    """
    coords = pixel_centers(n_px, half_extent)
    X, Y = np.meshgrid(coords, coords)
    offsets = sino.offsets
    acc = np.zeros((n_px, n_px))
    for j, theta in enumerate(sino.thetas):
        s_here = X * math.sin(theta) + Y * math.cos(theta)
        acc += np.interp(s_here, offsets, sino.values[j], left=0.0, right=0.0)
    acc *= 2.0 * math.pi / sino.n_theta
    return ImageGrid(n_px, half_extent, acc)


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


def _ramp_multiplier(n_pad: int, ds: float, taper_fraction: float) -> np.ndarray:
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=ds)
    nyquist = math.pi / ds
    filt = np.abs(freqs)
    if taper_fraction > 0.0:
        edge = (1.0 - taper_fraction) * nyquist
        high = freqs > edge
        ramp = (freqs[high] - edge) / (nyquist - edge)
        filt[high] *= 0.5 * (1.0 + np.cos(math.pi * np.clip(ramp, 0.0, 1.0)))
    return filt


def fbp_radon_inversion(
    sino: RadonSinogram,
    n_px: int,
    half_extent: float,
    taper_fraction: float = 0.1,
) -> ImageGrid:
    """Filtered backprojection.

    Each projection is convolved with the band-limited ramp |sigma| (raised
    cosine rolling off over the top ``taper_fraction`` of the band up to the
    offset Nyquist rate), then backprojected and scaled by 1/(4*pi).
    """
    ds = 2.0 * sino.s_max / (sino.n_s - 1)
    n_pad = 1 << max(int(math.ceil(math.log2(2 * sino.n_s))), 3)
    filt = _ramp_multiplier(n_pad, ds, taper_fraction)
    spectra = np.fft.rfft(sino.values, n=n_pad, axis=1)
    filtered = np.fft.irfft(spectra * filt[None, :], n=n_pad, axis=1)[:, : sino.n_s]
    filtered_sino = RadonSinogram(sino.n_theta, sino.n_s, sino.s_max, filtered)
    back = backprojection(filtered_sino, n_px, half_extent)
    return ImageGrid(n_px, half_extent, back.values / (4.0 * math.pi))
