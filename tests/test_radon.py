import math

import numpy as np
import pytest

from conetomo.geometry import ImageGrid, RadonSinogram, pixel_centers
from conetomo.phantoms import (
    GaussianBlob,
    Phantom,
    centered_disk_phantom,
    overlapping_disks_phantom,
    radon_analytic,
    rasterize,
)
from conetomo import radon
from conetomo.radon import _ROW_BUDGET, _Rows, backprojection, fbp_radon_inversion, riesz_apply_2d

from conftest import eval_phantom, rel_l2, run_child, traced_peak


def gaussian_grid(n_px=128, half_extent=1.0, sigma=0.15, amp=1.0):
    c = pixel_centers(n_px, half_extent)
    gx, gy = np.meshgrid(c, c)
    return ImageGrid(n_px, half_extent, amp * np.exp(-(gx**2 + gy**2) / (2 * sigma**2)))


def analytic_radon_sinogram(phantom, n_theta, n_s, s_max):
    thetas = np.arange(n_theta) * (math.pi / n_theta)
    offs = np.linspace(-s_max, s_max, n_s)
    return RadonSinogram(n_theta, n_s, s_max, radon_analytic(phantom, thetas[:, None], offs[None, :]))


def test_riesz_order_validation():
    # the order must stay below the plane's dimension
    img = gaussian_grid(16)
    for alpha in (2.0, 3.5):
        with pytest.raises(ValueError):
            riesz_apply_2d(img, alpha)


def test_riesz_zero_order_is_identity():
    img = gaussian_grid(64)
    out = riesz_apply_2d(img, 0.0)
    assert np.max(np.abs(out.values - img.values)) < 1e-12


def test_riesz_integer_orders_compose():
    # |xi|^2 twice equals |xi|^4: the intermediate stays localized, so the
    # pad-filter-crop pipeline composes essentially exactly at integer orders
    sigma = 0.12
    c = pixel_centers(128, 1.0)
    gx, gy = np.meshgrid(c, c)
    img = ImageGrid(128, 1.0, gx * np.exp(-(gx**2 + gy**2) / (2 * sigma**2)))
    once = riesz_apply_2d(riesz_apply_2d(img, -2.0), -2.0)
    twice = riesz_apply_2d(img, -4.0)
    assert rel_l2(once.values, twice.values) < 1e-8


def test_riesz_negative_orders_compose():
    # |xi|^0.5 twice approximates |xi|^1; each call crops back to the window,
    # so the power-law tails of the intermediate are lost and only a coarse
    # match is possible (measured 3.7e-3 on the central quarter at this size)
    img = gaussian_grid(128, sigma=0.18)
    once = riesz_apply_2d(riesz_apply_2d(img, -0.5), -0.5)
    twice = riesz_apply_2d(img, -1.0)
    sl = slice(48, 80)
    assert rel_l2(once.values[sl, sl], twice.values[sl, sl]) < 1e-2


def test_riesz_center_value_gaussian_oracle():
    # closed form: the |xi|^s filter of exp(-|x|^2/(2 sigma^2)) takes the
    # value (sqrt(2)/sigma)^s Gamma(s/2 + 1) at the origin
    from scipy.special import gamma

    sigma = 0.15
    img = gaussian_grid(256, 1.0, sigma=sigma)
    c = img.n_px // 2
    for s in (0.5, 1.0, 1.5):
        out = riesz_apply_2d(img, -s)
        # no pixel sits exactly at 0; the 2x2 mean biases low by curvature
        got = 0.25 * (out.values[c - 1 : c + 1, c - 1 : c + 1]).sum()
        want_center = (math.sqrt(2.0) / sigma) ** s * float(gamma(s / 2 + 1))
        assert got == pytest.approx(want_center, rel=1e-2)


def test_riesz_positive_order_needs_zero_mean():
    img = gaussian_grid(64)
    with pytest.raises(ValueError):
        riesz_apply_2d(img, 1.0)


def test_riesz_positive_order_dual_route():
    # with g = x exp(-r^2/(2 sigma^2)) the laplacian is
    # Delta g = x (r^2/sigma^4 - 4/sigma^2) exp(-r^2/(2 sigma^2)), so the
    # order +1 filter of Delta g must equal minus the order -1 filter of g.
    # both inputs are exactly mean-free by oddness in x, and sigma is small
    # enough that window truncation sits below machine precision
    sigma = 0.12
    c = pixel_centers(128, 1.0)
    gx, gy = np.meshgrid(c, c)
    r2 = gx**2 + gy**2
    env = np.exp(-r2 / (2 * sigma**2))
    g = ImageGrid(128, 1.0, gx * env)
    lap = ImageGrid(128, 1.0, gx * (r2 / sigma**4 - 4.0 / sigma**2) * env)
    a = riesz_apply_2d(lap, 1.0).values
    b = -riesz_apply_2d(g, -1.0).values
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def backprojection_loop(sino, n_px, half_extent, half_step=False):
    """Reference backprojection: one np.interp over every pixel per angle,
    the angles i pi / n, or (i + 1/2) pi / n with ``half_step``."""
    coords = pixel_centers(n_px, half_extent)
    X, Y = np.meshgrid(coords, coords)
    acc = np.zeros((n_px, n_px))
    for j, theta in enumerate((np.arange(sino.n_theta) + 0.5 * half_step) * (math.pi / sino.n_theta)):
        s_here = X * math.sin(theta) + Y * math.cos(theta)
        acc += np.interp(s_here, sino.offsets, sino.values[j], left=0.0, right=0.0)
    return acc * (2.0 * math.pi / sino.n_theta)


@pytest.mark.parametrize("n_px", [7, 64, 65])
def test_backprojection_matches_per_angle_loop(n_px):
    # odd and even angle counts, with and without a quarter turn on the
    # lattice (n = 2 mod 4 included), a two-sample sinogram, and offset
    # ranges that leave corner pixels out of range (0.75 and 0.5 lie below
    # the corner pixels' radius, and neither is a pixel centre)
    rng = np.random.default_rng(11)
    worst = 0.0
    for half_extent, s_max, cut in ((1.0, math.sqrt(2.0), False), (0.7, 0.75, True), (1.0, 0.5, True)):
        assert (math.sqrt(2.0) * pixel_centers(n_px, half_extent)[-1] > s_max) == cut
        for n_theta in (1, 2, 3, 6, 10, 100):
            for n_s in (2, 257):
                sino = RadonSinogram(n_theta, n_s, s_max, rng.standard_normal((n_theta, n_s)))
                want = backprojection_loop(sino, n_px, half_extent)
                got = backprojection(sino, n_px, half_extent).values
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst <= 1e-12


@pytest.mark.parametrize("half_step", [False, True])
@pytest.mark.parametrize("n_px", [7, 8])
def test_backprojection_half_step_lattice(monkeypatch, half_step, n_px):
    # rows made on demand at angles (i + c) pi / n, c = 0 or 1/2, for n = 0,
    # 1, 2 and 3 mod 4 (on the half-step lattice n = 2 mod 4 has a row at
    # pi/4 that is its own transpose, and odd n one at pi/2 that is its own
    # flip), against the per-angle loop. A budget of three orbits makes the
    # rows come in several chunks; each row is pulled once. With c = 0 the
    # result is bit-identical to the sinogram's own.
    monkeypatch.setattr(radon, "_ROW_BUDGET", 3 * 4 * 33)
    rng = np.random.default_rng(13)
    worst = 0.0
    for half_extent, s_max in ((1.0, math.sqrt(2.0)), (0.7, 0.75)):
        for n_theta in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 101, 102):
            sino = RadonSinogram(n_theta, 33, s_max, rng.standard_normal((n_theta, 33)))
            pulled = []

            def rows(r, values=sino.values):
                pulled.extend(r.tolist())
                return values[r]

            got = backprojection(_Rows(n_theta, 33, s_max, rows, half_step), n_px, half_extent).values
            assert sorted(pulled) == list(range(n_theta))
            want = backprojection_loop(sino, n_px, half_extent, half_step)
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
            if not half_step:
                assert np.array_equal(got, backprojection(sino, n_px, half_extent).values)
    assert worst <= 1e-12


@pytest.mark.parametrize("rows_per_band", [1, 5])
def test_backprojection_accumulates_across_bands(monkeypatch, rows_per_band):
    # 65 px has 33 lower rows: a budget of 2 x 65 entries a row gives 33
    # one-row bands, and 5 rows' worth gives 7 bands of 5 rows, the last
    # with 3. Each band's kernel call adds into its own slice of the
    # accumulator, orbit after orbit, so every band must match the
    # per-angle loop, and a pixel's sum must not depend on its band
    rng = np.random.default_rng(17)
    cases = []
    for half_extent, s_max in ((1.0, math.sqrt(2.0)), (0.7, 0.75)):
        for n_theta in (3, 10, 14):
            sino = RadonSinogram(n_theta, 33, s_max, rng.standard_normal((n_theta, 33)))
            cases.append((sino, sino, False))
            cases.append((_Rows(n_theta, 33, s_max, sino.values.__getitem__, True), sino, True))
    one_band = [backprojection(src, 65, 1.0).values for src, _, _ in cases]
    monkeypatch.setattr(radon, "_BACKPROJECTION_BUDGET", 2 * rows_per_band * 65)
    worst = 0.0
    for (src, sino, half_step), whole in zip(cases, one_band):
        got = backprojection(src, 65, 1.0).values
        assert np.array_equal(got, whole)
        want = backprojection_loop(sino, 65, 1.0, half_step)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst <= 1e-12


def test_backprojection_edge_pixels_take_edge_samples():
    # at theta = 0 a pixel row's offset is its centre y, and at theta = pi/2
    # a column's is its centre x. With s_max equal to a centre c[k], row and
    # column k sit at +s_max and take the last sample, as np.interp does;
    # row and column n-1-k sit at -s_max within rounding and take the first.
    # Neither is dropped, and neither is counted twice.
    g = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
    for n_px, half_extent in ((7, 0.7), (8, 1.0), (65, 0.7)):
        c = pixel_centers(n_px, half_extent)
        for k in range((n_px + 1) // 2, n_px):
            s_max = float(c[k])
            offsets = np.linspace(-s_max, s_max, 3)
            prof = [np.interp(c, offsets, samples, left=0.0, right=0.0) for samples in g]
            for p, samples in zip(prof, g):
                p[k], p[n_px - 1 - k] = samples[-1], samples[0]
            want = prof[0][:, None] + prof[1][None, :]
            got = backprojection(RadonSinogram(2, 3, s_max, g), n_px, half_extent).values
            assert np.max(np.abs(got / math.pi - want)) <= 1e-12 * np.max(want)
            # theta = 0 alone: the +s_max row is exactly what np.interp gives
            one = RadonSinogram(1, 3, s_max, g[:1])
            want_row = backprojection_loop(one, n_px, half_extent)[k]
            assert np.all(want_row == 2.0 * math.pi * g[0, -1])
            assert np.allclose(backprojection(one, n_px, half_extent).values[k], want_row, rtol=1e-14, atol=0.0)


def test_backprojection_rows_memory_bounded():
    # rows made on demand come a chunk of whole orbits at a time, at most
    # _ROW_BUDGET entries and sqrt(_ROW_BUDGET) orbits, and a chunk is gone
    # before the next is made. 16,128 angles x 2 offsets once pulled all
    # 4,032 orbits at once, and their per-orbit lists and row views took
    # 3.9 MB. With the stencil and accumulators at 32 px every lattice here
    # stays within two chunks' entries, 1.0 MB (measured 0.3 to 0.7 MB)
    for n_s in (2, 257):
        sino = _Rows(16128, n_s, math.sqrt(2.0), lambda r, n_s=n_s: np.ones((r.size, n_s)), True)
        backprojection(sino, 8, 1.0)  # load the sparse kernel outside the trace
        peak = traced_peak(lambda: backprojection(sino, 32, 1.0))
        assert peak <= 8 * 2 * _ROW_BUDGET, (n_s, peak)


def test_fbp_ramp_filter_memory_bounded():
    # the ramp filter runs on each chunk of rows backprojection pulls, at
    # most _ROW_BUDGET padded entries at a time, into an array the size of
    # that chunk, so no filtered sinogram exists. On 720 x 1025 whole padded
    # spectra took 12.0 sinograms' worth and a whole filtered sinogram 1.23;
    # measured now 0.39, the bound 0.5
    rng = np.random.default_rng(8)
    sino = RadonSinogram(720, 1025, math.sqrt(2.0), rng.standard_normal((720, 1025)))
    fbp_radon_inversion(sino, 16, 1.0)  # load the sparse kernel outside the trace
    peak = traced_peak(lambda: fbp_radon_inversion(sino, 64, 1.0))
    assert peak <= 0.5 * sino.values.nbytes


def test_rows_reject_bad_lattice():
    # FBP and backprojection take rows made on demand; one offset once
    # divided by zero in the offset spacing, and a negative or NaN s_max
    # reached the stencil as a misleading overflow error
    for n_theta, n_s, s_max in ((4, 1, 1.0), (0, 9, 1.0), (4, 9, -1.0), (4, 9, math.nan), (4, 9, math.inf)):
        with pytest.raises(ValueError, match="sinogram lattice|s_max"):
            _Rows(n_theta, n_s, s_max, lambda r: np.ones((r.size, n_s)))


def test_fbp_ramp_filter_chunks_bit_identical(monkeypatch):
    # 129 offsets pad to 512, so these budgets filter 1, 3 and 5 rows at a
    # time (37 rows leave a partial last chunk) or all rows at once
    rng = np.random.default_rng(9)
    sino = RadonSinogram(37, 129, 1.2, rng.standard_normal((37, 129)))
    filtered = []

    def keep(rows, n_px, half_extent):
        filtered.append(rows.rows(np.arange(rows.n_theta)).tobytes())
        return ImageGrid(n_px, half_extent, np.zeros((n_px, n_px)))

    monkeypatch.setattr(radon, "backprojection", keep)
    for budget in (2**30, 512, 3 * 512, 5 * 512):
        monkeypatch.setattr(radon, "_ROW_BUDGET", budget)
        fbp_radon_inversion(sino, 8, 1.0)
    assert filtered[1:] == filtered[:1] * 3


def fbp_whole(sino, n_px, half_extent, half_step=False):
    """Reference FBP: ramp-filter the whole sinogram in one padded FFT, then
    backproject the filtered sinogram."""
    ds = 2.0 * sino.s_max / (sino.n_s - 1)
    n_pad = 1 << max(int(math.ceil(math.log2(2 * sino.n_s))), 3)
    spectra = np.fft.rfft(sino.values, n=n_pad, axis=1) * radon._ramp_multiplier(n_pad, ds)
    filtered = np.fft.irfft(spectra, n=n_pad, axis=1)[:, : sino.n_s]
    rows = _Rows(sino.n_theta, sino.n_s, sino.s_max, filtered.__getitem__, half_step)
    return backprojection(rows, n_px, half_extent).values / (4.0 * math.pi)


@pytest.mark.parametrize("half_step", [False, True])
def test_fbp_streamed_rows_match_whole_sinogram(monkeypatch, half_step):
    # FBP filters each chunk of rows as backprojection pulls it; a budget of
    # 3 orbits of 33 offsets (and 3 padded rows of 128) makes every lattice
    # come in several pulls, each row pulled once. The image is the one the
    # whole filtered sinogram gives, bit for bit
    monkeypatch.setattr(radon, "_ROW_BUDGET", 3 * 4 * 33)
    rng = np.random.default_rng(19)
    for n_theta in (13, 14, 40, 101):
        sino = RadonSinogram(n_theta, 33, 0.9, rng.standard_normal((n_theta, 33)))
        pulls = []

        def rows(r, values=sino.values):
            pulls.append(r.tolist())
            return values[r]

        got = fbp_radon_inversion(_Rows(n_theta, 33, 0.9, rows, half_step), 17, 0.7).values
        assert len(pulls) > 1 and sorted(sum(pulls, [])) == list(range(n_theta))
        assert got.tobytes() == fbp_whole(sino, 17, 0.7, half_step).tobytes()
        if not half_step:
            assert got.tobytes() == fbp_radon_inversion(sino, 17, 0.7).values.tobytes()


def test_backprojection_memory_bounded():
    # the camera route's lattice: the accumulators and one band's stencil
    # stay within 1.25x of the per-angle loop's peak
    rng = np.random.default_rng(5)
    sino = RadonSinogram(100, 257, math.sqrt(2.0), rng.standard_normal((100, 257)))
    backprojection(sino, 16, 1.0)  # load the sparse kernel outside the trace
    loop = traced_peak(lambda: backprojection_loop(sino, 256, 1.0))
    orbit = traced_peak(lambda: backprojection(sino, 256, 1.0))
    assert orbit <= 1.25 * loop


def test_backprojection_rejects_overflowing_positions():
    # stencil positions that are not finite (an infinite extent, or a raster
    # too wide for its offset spacing) once cast to out-of-range taps and
    # crashed the process, so the cases run in a child process; the second
    # case has only finite inputs
    code = """
import math
import numpy as np
from conetomo.geometry import RadonSinogram
from conetomo.radon import backprojection
for s_max, extent in ((1.0, math.inf), (1e-300, 1e300)):
    try:
        backprojection(RadonSinogram(4, 9, s_max, np.ones((4, 9))), 8, extent)
    except ValueError:
        print("ValueError")
"""
    run = run_child(["-c", code])
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ValueError", "ValueError"]


def test_fbp_rejects_sinogram_past_its_gain():
    # a sinogram handed in directly once overflowed in irfft; its largest
    # |value| times the filter's gain (2.05e4 here) must be finite. Warnings
    # are errors, so the rejection comes before any row is filtered
    gain = radon._filter_gain(4, 17, math.sqrt(2.0))
    assert math.isfinite(1e300 * gain) and not math.isfinite(1e306 * gain)
    for sign in (1.0, -1.0):
        with pytest.raises(ValueError, match=r"^the sinogram's largest \|value\| 1e\+306 times 2.05e\+04, the gain of FBP"):
            fbp_radon_inversion(RadonSinogram(4, 17, math.sqrt(2.0), np.full((4, 17), sign * 1e306)), 16, 1.0)
        got = fbp_radon_inversion(RadonSinogram(4, 17, math.sqrt(2.0), np.full((4, 17), sign * 1e300)), 16, 1.0)
        assert np.all(np.isfinite(got.values)) and np.abs(got.values).max() > 1e298
    zero = fbp_radon_inversion(RadonSinogram(4, 17, math.sqrt(2.0), np.zeros((4, 17))), 16, 1.0)
    assert not zero.values.any()


def test_backprojection_rotational_symmetry():
    sino = analytic_radon_sinogram(centered_disk_phantom(), 64, 129, math.sqrt(2.0))
    bp = backprojection(sino, 64, 1.0)
    # R# of a radial phantom is radial: compare the two diagonals
    assert np.allclose(bp.values, bp.values.T, atol=1e-10)
    assert np.allclose(bp.values, bp.values[::-1, ::-1], atol=1e-10)
    # and positive where the disk is
    c = 32
    assert bp.values[c, c] > bp.values[0, 0] > 0.0


def test_fbp_gaussian():
    blob = Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.25, 1.0),))
    sino = analytic_radon_sinogram(blob, 180, 257, math.sqrt(2.0))
    rec = fbp_radon_inversion(sino, 128, 1.0)
    truth = rasterize(blob, 128, 1.0)
    assert rel_l2(rec.values, truth.values) < 2e-2


def test_fbp_disk_plateau():
    sino = analytic_radon_sinogram(centered_disk_phantom(), 200, 257, math.sqrt(2.0))
    rec = fbp_radon_inversion(sino, 256, 1.0)
    c = pixel_centers(256, 1.0)
    gx, gy = np.meshgrid(c, c)
    r = np.hypot(gx, gy)
    px = rec.pixel_size
    assert rec.values[r <= 0.5 - 3 * px].mean() == pytest.approx(1.0, abs=0.05)
    assert np.percentile(np.abs(rec.values[r >= 0.5 + 3 * px]), 99) <= 0.05


def test_fbp_off_center_shift():
    p = Phantom(blobs=(GaussianBlob((0.3, -0.2), 0.2, 1.0),))
    sino = analytic_radon_sinogram(p, 180, 257, math.sqrt(2.0))
    rec = fbp_radon_inversion(sino, 128, 1.0)
    truth = rasterize(p, 128, 1.0)
    assert rel_l2(rec.values, truth.values) < 2e-2


# FBP of exact sinograms over +-sqrt(2) onto 256 px, rel-L2 to rasterize
# (fig4, fig5), measured on the lattices below: with 100 angles more offsets
# hurt, as angular aliasing grows with the ramp's band, and with 257 offsets
# more angles stop helping at about 0.058 (fig4) and 0.050 (fig5)
_FBP_FLOOR = {
    (100, 257): (0.06169, 0.07078),
    (100, 513): (0.07703, 0.09266),
    (200, 257): (0.05808, 0.05180),
    (200, 513): (0.03226, 0.04344),
    (400, 513): (0.01850, 0.02280),
    (800, 513): (0.01783, 0.01994),
}


@pytest.mark.parametrize("n_theta, n_s", sorted(_FBP_FLOOR))
def test_fbp_floor_on_exact_sinograms(n_theta, n_s):
    # FBP's own discretisation error, the floor under every route that ends
    # in it (the camera route's 0.083 at 257 per side among them), pinned
    # within 5 % on each lattice
    for phantom, want in zip((centered_disk_phantom(), overlapping_disks_phantom()), _FBP_FLOOR[n_theta, n_s]):
        sino = analytic_radon_sinogram(phantom, n_theta, n_s, math.sqrt(2.0))
        got = rel_l2(fbp_radon_inversion(sino, 256, 1.0).values, rasterize(phantom, 256, 1.0).values)
        assert got == pytest.approx(want, rel=0.05), (n_theta, n_s, got)
