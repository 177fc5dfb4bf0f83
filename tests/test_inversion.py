import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conetomo import inversion
from conetomo.circle_ops import CircleFunction, beltrami_poly_apply, funk_hecke_lambda, funk_transform_s1
from conetomo.cli import main
from conetomo.geometry import TWO_PI, ImageGrid, _ray_lattice, axis_angles, pixel_centers
from conetomo.inversion import (
    CameraConfig,
    MuWeight,
    _CAMERA_BUDGET,
    _radon_multiplier,
    compton_radon_sinogram,
    compton_reconstruct,
    cone_to_radon_even,
    detector_positions,
    invert_mu_weighted,
    invert_sine_weighted,
)
from conetomo.phantoms import (
    Disk,
    GaussianBlob,
    Phantom,
    centered_disk_phantom,
    cone_block_analytic,
    _ramp_profiles,
    overlapping_disks_phantom,
    radon_analytic,
    rasterize,
    ray_integral_table,
    translated,
)
from conetomo.radon import _ROW_BUDGET, riesz_apply_2d

from conftest import eval_phantom, exact_weighted_route, ray_indices, rel_l2, traced_peak


def small_blob():
    return Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.25, 1.0),))


def camera_blob():
    # 6 sigma support must stay inside the camera square, so the camera
    # tests need a tighter blob than the direct-inversion ones
    return Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.12, 1.0),))


def test_mu_weight_mass_enforced():
    with pytest.raises(ValueError):
        MuWeight(np.full(16, 1.0))  # mass 2 pi, not 1
    with pytest.raises(ValueError):
        MuWeight(np.array([]))
    # a NaN weight is named before the mass check, which it would pass:
    # abs(nan - 1) > 1e-10 is False
    nan_w = np.full(16, 1.0 / TWO_PI)
    nan_w[3] = math.nan
    with pytest.raises(ValueError, match="axis weights must be finite"):
        MuWeight(nan_w)
    uni = MuWeight.uniform(16)
    assert uni.n_beta == 16
    assert uni.weights.sum() * TWO_PI / 16 == pytest.approx(1.0)
    d = MuWeight.delta(16, index=5)
    assert d.weights[5] == pytest.approx(16 / TWO_PI)
    assert np.count_nonzero(d.weights) == 1
    # an index outside 0..n_beta - 1 is named, not left to numpy's IndexError
    # or, for -1, to weigh the last axis
    for n_beta, index in ((16, 16), (16, -1), (0, 0)):
        with pytest.raises(ValueError, match=rf"axis index {index} .*n_beta = {n_beta}$"):
            MuWeight.delta(n_beta, index)
    # the mass tolerance is 1e-10: 1 +- 1e-9 raises, 1 +- 1e-11 passes
    for excess in (1e-9, -1e-9, 1e-11, -1e-11):
        weights = np.full(16, (1.0 + excess) / TWO_PI)
        if abs(excess) > 1e-10:
            with pytest.raises(ValueError, match=r"^axis-weight mass .* must equal 1$"):
                MuWeight(weights)
        else:
            assert MuWeight(weights).weights.tobytes() == weights.tobytes()


def test_camera_config_validation():
    for extent in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            CameraConfig(extent, 257, 200, 200)
    with pytest.raises(ValueError):
        CameraConfig(1.0, 1, 200, 200)
    with pytest.raises(ValueError):
        CameraConfig(1.0, 257, 200, 1)
    # the axis rule belongs to the camera conversion, not to the camera: a
    # camera takes any cone lattice, and the conversion rejects these
    for n_beta in (10, 4):  # not a multiple of 4, too few axes
        cam = CameraConfig(1.0, 257, n_beta, 200)
        with pytest.raises(ValueError, match=r"axis count \(--nbeta\) to be a multiple of 4 and at least 8"):
            compton_radon_sinogram(centered_disk_phantom(), cam)


def test_detector_positions_layout():
    cam = CameraConfig(1.0, 5, 16, 8)
    pts = detector_positions(cam)
    assert pts.shape == (16, 2)  # 4 * (per_side - 1), corners shared
    assert np.unique(pts, axis=0).shape[0] == 16
    # all on the boundary of the square
    assert np.allclose(np.max(np.abs(pts), axis=1), 1.0)
    # corners appear exactly once
    for corner in ([-1, -1], [1, -1], [1, 1], [-1, 1]):
        assert (np.all(pts == corner, axis=1)).sum() == 1
    # the middle site of an odd side is +0.0 on every side, as cone.sg stores it
    mid = detector_positions(CameraConfig(1.0, 3, 16, 8))
    assert np.count_nonzero(mid == 0.0) == 4 and not np.signbit(mid[mid == 0.0]).any()


def test_direct_routes_run_far_and_tiny_disks():
    # the disk profiles once squared a line's offset from the disk in radii,
    # so a far or tiny disk overflowed there and was rejected up front. Now
    # each route runs clean under warnings-as-errors. Each far or tiny disk
    # adds at most about 1e-300 to a profile value of order 1 at these
    # extents, under half an ulp, so the bound is 0: the raster is bit-equal
    # to the near disk's alone
    near = Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0),))
    far = (
        Disk((1e300, 0.0), 0.3, 1.0),
        Disk((0.0, 0.0), 1e-200, 1.0),
        Disk((1e10, 0.0), 1e-300, 1.0),
        Disk((1e154, 3e153), 0.3, 1.0),
    )
    routes = (
        lambda p, extent: invert_mu_weighted(p, 8, extent, MuWeight.uniform(8), 4),
        lambda p, extent: invert_sine_weighted(p, 8, extent, 8, 4),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in routes:
            for extent in (1.0, 2.0):
                want = route(near, extent).values
                for disk in far:
                    got = route(Phantom(disks=(*near.disks, disk)), extent).values
                    assert got.tobytes() == want.tobytes(), (disk, extent)


def test_direct_routes_keep_a_disk_far_wider_than_the_offset_step():
    # a disk of radius 1e300 centred at 1e299 covers the raster, and its
    # ramp profile there is 2 rho, the average of the Hilbert transform's
    # slope H(t + d) - H(t - d) over +-d. At |t| near 1e299 the sum t +- d
    # rounds d away, which once lost the disk: rel L2 0.798 / 0.797 at
    # extent 1 and 0.942 / 0.942 at extent 2, with no warning. Where both
    # ends lie on the disk the difference is exactly 2 d. Pinned within
    # 0.1 %, with fig4 alone beside it (16 px, 8 x 8 lattice)
    near = Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0),))
    wide = Phantom(disks=(*near.disks, Disk((1e299, 0.0), 1e300, 1.0)))
    routes = (
        lambda p, extent: invert_mu_weighted(p, 16, extent, MuWeight.uniform(8), 8),
        lambda p, extent: invert_sine_weighted(p, 16, extent, 8, 8),
    )
    want = {
        (1.0, "wide"): (0.06973, 0.07032),
        (2.0, "wide"): (0.06343, 0.06343),
        (1.0, "near"): (0.2034, 0.2043),
        (2.0, "near"): (0.3192, 0.3205),
    }
    for (extent, name), errs in want.items():
        p = wide if name == "wide" else near
        truth = rasterize(p, 16, extent).values
        got = tuple(rel_l2(route(p, extent).values, truth) for route in routes)
        assert got == pytest.approx(errs, rel=1e-3), (extent, name)


def test_direct_routes_run_far_blobs():
    # a blob's centre projection wx cx + wy cy passes the largest double near
    # 1.7e308 outside quarter units. Each far blob adds 2 amp (1 - 2 x
    # D(x)), 0 to within an ulp of 2 amp, and rounds every value once on the
    # way, so the bound is 1e-15 of the near disk's maximum (measured 3.1e-16)
    near = Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0),))
    routes = (
        lambda p, extent: invert_mu_weighted(p, 8, extent, MuWeight.uniform(8), 4),
        lambda p, extent: invert_sine_weighted(p, 8, extent, 8, 4),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in routes:
            for extent in (1.0, 2.0):
                want = route(near, extent).values
                for center in ((1.7e308, 1.7e308), (-1.7e308, 1.7e308)):
                    for sigma in (1e-154, 0.1, 1e154):
                        got = route(Phantom(disks=near.disks, blobs=(GaussianBlob(center, sigma, 1.0),)), extent).values
                        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (center, sigma, extent)


def _disks_up_to(top: float):
    # disks whose centre coordinates and radius have magnitudes log-uniform
    # over 1e-300..10^top, coordinates of either sign or 0
    magnitudes = st.floats(-300.0, top).map(lambda e: 10.0**e)
    coords = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), magnitudes).map(lambda c: c[0] * c[1])
    return st.builds(lambda x, y, r, rho: Disk((x, y), r, rho), coords, coords, magnitudes, st.floats(-2.0, 2.0))


@settings(max_examples=30, deadline=None)
@given(disks=st.lists(_disks_up_to(308.0), min_size=1, max_size=2))
# outside quarter units, or with the gain applied to each H before the
# difference, these overflow the projection wx cx + wy cy, m + r and H times
# the gain
@example(disks=[Disk((1.7e308, 1.7e308), 0.3, 1.0)])
@example(disks=[Disk((0.0, 0.0), 1e308, 1.0)])
@example(disks=[Disk((1e308, -1e308), 1e308, 2.0)])
def test_disk_profiles_and_direct_routes_finite_for_any_disk(disks):
    # centres up to 1e308 away and radii from 1e-300 to 1e308, beside a
    # disk on the raster: the ramp profiles and both direct routes stay
    # finite, with no numpy warning (RuntimeWarning is an error in tier-1)
    phantom = Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0), *disks))
    thetas = np.linspace(0.0, math.pi, 7, endpoint=False)
    for extent in (1.0, 2.0):
        offsets = np.linspace(-1.5 * extent, 1.5 * extent, 65)
        assert np.isfinite(_ramp_profiles(phantom, thetas, offsets, np.ones(7), extent / 8)).all()
        assert np.isfinite(invert_mu_weighted(phantom, 8, extent, MuWeight.uniform(8), 4).values).all()
        assert np.isfinite(invert_sine_weighted(phantom, 8, extent, 8, 4).values).all()


@settings(max_examples=30, deadline=None)
@given(disks=st.lists(_disks_up_to(300.0), min_size=1, max_size=2))
# (r - p)(r + p) overflows at r = 1e300 unless it is taken scaled
@example(disks=[Disk((0.0, 0.0), 1e300, 2.0)])
@example(disks=[Disk((1e300, -1e300), 1e300, -2.0)])
def test_lines_rays_and_cone_blocks_finite_for_any_disk(disks):
    # centres up to 1e300 away and radii from 1e-300 to 1e300, beside a
    # disk on the raster: line integrals, the ray table from a camera's
    # detectors and a cone block stay finite, with no numpy warning. Past
    # 1e300 a chord end mid + half, or a line integral 2 rho r, can pass
    # the largest double
    phantom = Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0), *disks))
    thetas = np.linspace(0.0, math.pi, 7, endpoint=False)
    offsets = np.linspace(-1.5, 1.5, 65)
    assert np.isfinite(radon_analytic(phantom, thetas[:, None], offsets[None, :])).all()
    origins = detector_positions(CameraConfig(1.0, 5, 8, 8))
    assert np.isfinite(ray_integral_table(phantom, origins, _ray_lattice(8, 8).angles)).all()
    assert np.isfinite(cone_block_analytic(phantom, origins[3], 8, 8)).all()


_SIGN = st.sampled_from([-1.0, 0.0, 1.0])
_MAGNITUDE = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=40, deadline=None)
@given(
    primitives=st.lists(
        st.tuples(st.sampled_from([Disk, GaussianBlob]), _SIGN, _SIGN, _MAGNITUDE, _MAGNITUDE, st.floats(-2.0, 2.0)),
        min_size=1,
        max_size=3,
    )
)
# rasterize squared these disks' offsets to inf; the last one's radius is
# within 6 % of the largest double
@example(primitives=[(Disk, 1.0, 0.0, 1e299, 1e300, 1.0)])
@example(primitives=[(Disk, -1.0, 0.0, 1e308, 1e308, 1.0)])
@example(primitives=[(Disk, 0.0, 0.0, 1.0, 1.7e308, 2.0)])
@example(primitives=[(GaussianBlob, 1.0, 0.0, 0.1, 1e154, 1.0)])
def test_rasterize_finite_for_any_primitive(primitives):
    # centres up to 1e308 away along an axis or a diagonal, and radii and
    # widths from 1e-300 to 1e308, beside a disk on the raster: rasterize
    # gives finite values with no numpy warning, or the primitive raises
    # ValueError when it is built (a blob narrower than 1e-154)
    disks, blobs = [Disk((0.0, 0.0), 0.5, 1.0)], []
    for kind, sx, sy, distance, size, value in primitives:
        try:
            (disks if kind is Disk else blobs).append(kind((sx * distance, sy * distance), size, value))
        except ValueError:
            assert kind is GaussianBlob and size < 1e-154
    for extent in (1.0, 2.0):
        assert np.isfinite(rasterize(Phantom(disks=tuple(disks), blobs=tuple(blobs)), 8, extent).values).all()


def test_ray_field_memory_bounded():
    # 63 x 256 has 16,128 distinct lines; one table of their profiles at the
    # 257 offsets of a 32 px raster would be 33 MB. Backprojection pulls the
    # profile rows a chunk of whole orbits at a time, at most _ROW_BUDGET
    # entries, and drops each chunk before the next is made. At its peak a
    # chunk is made with two scratch tables of the same size: 3 * _ROW_BUDGET
    # doubles, 1.6 MB. Besides those only per-line vectors grow with the
    # lattice: line_rows()'s line weights and their rolled copy, the row
    # weights and the row angles, at most 16 doubles a line, 2.1 MB. Stencil
    # and accumulators at 32 px are below 0.1 MB. The warm-up loads the
    # sparse kernel outside the trace (measured peak: 2.1 MB, against a
    # 3.6 MB bound; 3.3 MB while the previous chunk was still held).
    invert_mu_weighted(small_blob(), 8, 1.0, MuWeight.uniform(63), 256)
    peak = traced_peak(lambda: invert_mu_weighted(small_blob(), 32, 1.0, MuWeight.uniform(63), 256))
    assert peak < 8 * (3 * _ROW_BUDGET + 16 * 16128)


def test_direct_routes_hold_no_table_of_the_cone_lattice():
    # both routes weigh the lattice's lines from an axis and an opening
    # vector, so at 400 x 20,000 no array of n_beta x n_psi entries (64 MB)
    # is made. The bound is an eighth of one such table (measured 3.3 MB for
    # thm2 and 3.5 MB for thm6, against 192.5 and 192.7 MB with a pair-weight
    # table and two line-index tables of the lattice). The warm-up loads the
    # sparse kernel outside the trace
    fig4 = centered_disk_phantom()
    invert_mu_weighted(fig4, 8, 1.0, MuWeight.uniform(8), 4)
    routes = {
        "thm2": lambda: invert_mu_weighted(fig4, 16, 1.0, MuWeight.uniform(400), 20000),
        "thm6": lambda: invert_sine_weighted(fig4, 16, 1.0, 400, 20000),
    }
    for name, route in routes.items():
        assert traced_peak(route) < 8_000_000, name


def _per_ray_field(phantom, n_px, half_extent, axis_w, open_w):
    # every lattice ray on its own: each pair weight on both of its branches
    lat = _ray_lattice(axis_w.size, open_w.size)
    plus, minus = ray_indices(lat)
    w = np.outer(axis_w, open_w).ravel()
    weights = np.bincount(plus.ravel(), w, lat.angles.size) + np.bincount(minus.ravel(), w, lat.angles.size)
    c = pixel_centers(n_px, half_extent)
    gx, gy = np.meshgrid(c, c)
    origins = np.column_stack([gx.ravel(), gy.ravel()])
    return (ray_integral_table(phantom, origins, lat.angles) @ weights).reshape(n_px, n_px)


def _fft_route(phantom, n_px, half_extent, axis_w, open_w, scale):
    # the route as a sampled field: the per-ray field on a 4x panel with the
    # same pixel pitch and aligned centers, the zero-padded FFT |xi| filter,
    # then crop and scale
    pad = math.ceil(1.5 * n_px)
    n_work = n_px + 2 * pad
    l_work = half_extent * n_work / n_px
    field = ImageGrid(n_work, l_work, _per_ray_field(phantom, n_work, l_work, axis_w, open_w))
    filtered = riesz_apply_2d(field, -1.0).values[pad : pad + n_px, pad : pad + n_px]
    return ImageGrid(n_px, half_extent, filtered * scale)


def test_weighted_route_matches_per_ray_reference(monkeypatch, rng):
    # the route applies |xi| to each lattice line in closed form; the
    # reference samples every lattice ray and filters by FFT. The reference's
    # panel of half-width W = 4 drops each ridge's tails, which biases it by
    # about mass / (2 pi W^2) per unit line weight, 5e-3 to 1e-2 in rel-L2
    # by that estimate; the bound is 2e-2 (measured 4.6e-3 on every weight,
    # 4.7e-3 on 15 x 25). 15 x 25 has L = 75 lines, an odd count, so the
    # quarter turn from ray to Radon angle moves them half a step: its rays
    # sit half a step off the lattice, its Radon rows on it
    p = small_blob()
    mu = rng.uniform(0.5, 1.5, 16)
    mu /= mu.sum() * (TWO_PI / 16)
    routes = {
        "uniform": lambda: invert_mu_weighted(p, 16, 1.0, MuWeight.uniform(16), 24),
        "delta": lambda: invert_mu_weighted(p, 16, 1.0, MuWeight.delta(16, 3), 24),
        "sine": lambda: invert_sine_weighted(p, 16, 1.0, 16, 24),
        # axis weights are constant along the opening, so symmetric in it
        "asymmetric mu": lambda: invert_mu_weighted(p, 16, 1.0, MuWeight(mu), 24),
        "odd L": lambda: invert_mu_weighted(p, 16, 1.0, MuWeight.uniform(15), 25),
    }
    for name, route in routes.items():
        got = route().values
        with monkeypatch.context() as m:
            m.setattr(inversion, "_weighted_route", _fft_route)
            want = route().values
        assert rel_l2(got, want) <= 2e-2, name


def _per_ray_line_route(phantom, n_px, half_extent, axis_w, open_w, scale):
    # the weighted route from the lattice's rays alone, with neither
    # line_rows nor the Radon row lattice: each pair weight on both of its
    # rays, each full line weighed as half the weight on its two rays, at
    # its first ray's angle plus pi / 2, and every line's closed-form ramp
    # profile evaluated at each pixel's own offset
    lat = _ray_lattice(axis_w.size, open_w.size)
    plus, minus = ray_indices(lat)
    w = np.outer(axis_w, open_w).ravel()
    weights = np.bincount(plus.ravel(), w, lat.angles.size) + np.bincount(minus.ravel(), w, lat.angles.size)
    n_lines = lat.angles.size // 2
    c = pixel_centers(n_px, half_extent)
    x, y = np.meshgrid(c, c)
    out = np.zeros(n_px * n_px)
    for alpha, line_w in zip(lat.angles[:n_lines], 0.5 * (weights[:n_lines] + weights[n_lines:])):
        theta = alpha + 0.5 * math.pi
        s = (x * math.sin(theta) + y * math.cos(theta)).ravel()
        out += _ramp_profiles(phantom, np.array([theta]), s, np.array([line_w]), half_extent / n_px)[0]
    return scale * out.reshape(n_px, n_px)


def _thm2_axis_weights(mu, n_psi):
    # thm2's axis weights taken from mu directly: mu_j dpsi dbeta
    return mu.weights * (math.pi / n_psi) * (TWO_PI / mu.n_beta)


@pytest.mark.parametrize(
    "n_beta, n_psi, n_px, delta_gap, random_gap",
    # measured: delta vs uniform 0.132 and 0.0640, random vs uniform 5.2e-3
    # and 2.3e-3; the route against the reference 0.018 to 0.024 and 0.0077
    # to 0.011
    [(16, 20, 32, 0.1, 2e-3), (64, 80, 128, 0.05, 1e-3)],
)
def test_mu_matters_when_n_beta_does_not_divide_2_n_psi(rng, n_beta, n_psi, n_px, delta_gap, random_gap):
    # Theorem 2 frees mu, but on a lattice whose n_beta does not divide
    # 2 n_psi (the ray lattice's b = 2 here) axis j reaches only the lines
    # congruent to its residue mod b, so a delta leaves half of them empty
    # and the raster depends on mu. Each route matches the per-ray
    # reference built from mu directly to the backprojection's interpolation
    # gap, 3e-2, and the delta and seeded random routes differ from the
    # uniform one by the stated margins. On fig5 at 64 x 80 and 128 px the
    # delta's error to the raster is 0.0676 against the uniform's 0.0216
    # (pinned at more than twice)
    p = overlapping_disks_phantom()
    assert _ray_lattice(n_beta, n_psi).b == 2
    weights = rng.uniform(0.5, 1.5, n_beta)
    weights /= weights.sum() * (TWO_PI / n_beta)
    mus = {"uniform": MuWeight.uniform(n_beta), "delta": MuWeight.delta(n_beta, 3), "random": MuWeight(weights)}
    recs = {}
    for name, mu in mus.items():
        recs[name] = invert_mu_weighted(p, n_px, 1.0, mu, n_psi).values
        want = _per_ray_line_route(p, n_px, 1.0, _thm2_axis_weights(mu, n_psi), np.ones(n_psi), 1.0 / TWO_PI)
        assert rel_l2(recs[name], want) <= 3e-2, name
    assert rel_l2(recs["delta"], recs["uniform"]) >= delta_gap
    assert rel_l2(recs["random"], recs["uniform"]) >= random_gap
    if n_px == 128:
        truth = rasterize(p, n_px, 1.0).values
        assert rel_l2(recs["delta"], truth) > 2.0 * rel_l2(recs["uniform"], truth)


@pytest.mark.parametrize("n_beta, n_psi", [(16, 24), (64, 256)])
def test_mu_is_free_when_n_beta_divides_2_n_psi(rng, n_beta, n_psi):
    # when n_beta divides 2 n_psi (the ray lattice's b = 1) every axis adds
    # its n_psi products to all L = n_psi lines, one each, in axis order, so
    # every line weighs the same sum of thm2's axis weights, the mu mass,
    # whatever mu is. A seeded random mu and a delta give the uniform raster
    # up to the rounding of that sum (measured 3.3e-16 of the maximum on
    # 16 x 24 and 1.1e-15 on 64 x 256, for both); the bound is 1e-14
    p = overlapping_disks_phantom()
    lat = _ray_lattice(n_beta, n_psi)
    assert lat.b == 1
    weights = rng.uniform(0.5, 1.5, n_beta)
    weights /= weights.sum() * (TWO_PI / n_beta)
    want = invert_mu_weighted(p, 64, 1.0, MuWeight.uniform(n_beta), n_psi).values
    for mu in (MuWeight(weights), MuWeight.delta(n_beta, 3)):
        _, row_w = lat.line_rows(_thm2_axis_weights(mu, n_psi), np.ones(n_psi))
        assert row_w.size == n_psi and np.unique(row_w).size == 1
        assert row_w[0] == pytest.approx(math.pi / n_psi, rel=1e-14)
        got = invert_mu_weighted(p, 64, 1.0, mu, n_psi).values
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "phantom, bound",
    [
        # criterion 5's blob: the halo-free route has no truncation bias, so
        # it matches the antialiased raster to 1e-3 (measured 2.2e-4; the
        # haloed FFT route: 4.6e-3)
        (small_blob(), 1e-3),
        # the disks' edges: measured 0.014 (the haloed FFT route: 0.038)
        (overlapping_disks_phantom(), 2e-2),
    ],
    ids=["blob", "overlapping disks"],
)
def test_direct_inversions_accuracy(phantom, bound):
    truth = rasterize(phantom, 128, 1.0).values
    recs = {
        "thm2-uniform": invert_mu_weighted(phantom, 128, 1.0, MuWeight.uniform(64), 256),
        "thm2-delta": invert_mu_weighted(phantom, 128, 1.0, MuWeight.delta(64), 256),
        "thm6": invert_sine_weighted(phantom, 128, 1.0, 64, 256),
    }
    for name, rec in recs.items():
        assert rel_l2(rec.values, truth) <= bound, name


def _interpolated_and_exact(monkeypatch, phantom, n_px):
    """thm2 on the 64 x 256 lattice as the route makes it, and with every
    line's ramp profile evaluated at each pixel's own offset."""
    def route():
        return invert_mu_weighted(phantom, n_px, 1.0, MuWeight.uniform(64), 256).values

    got = route()
    with monkeypatch.context() as m:
        m.setattr(inversion, "_weighted_route", lambda *args: ImageGrid(args[1], args[2], exact_weighted_route(*args)))
        want = route()
    return got, want


@pytest.mark.parametrize(
    "phantom, n_px, gap",
    [
        (centered_disk_phantom(), 64, 9.39e-3),
        (centered_disk_phantom(), 128, 7.07e-3),
        (overlapping_disks_phantom(), 128, 6.47e-3),
        (Phantom(disks=(Disk((0.0, 0.0), 0.5, 1.0),), blobs=(GaussianBlob((0.1, 0.0), 0.2, 1.0),)), 128, 5.32e-3),
    ],
    ids=["fig4-64", "fig4-128", "fig5-128", "disk+blob-128"],
)
def test_backprojection_gap_to_exact_evaluation(monkeypatch, phantom, n_px, gap):
    # the error budget of backprojection's linear interpolation from 8 n_px
    # + 1 offsets: the route against the same lines' closed-form profiles
    # evaluated exactly. The gap sits at and outside the disks' edges and is
    # pinned within 3% of its measured value, so a cheaper scheme that widens
    # it shows here; it is about half the route's gap to the raster (1.0e-2
    # to 1.7e-2), so the offsets are a first-order part of the error at 64 px
    got, want = _interpolated_and_exact(monkeypatch, phantom, n_px)
    assert rel_l2(got, want) == pytest.approx(gap, rel=0.03)


def test_backprojection_exact_inside_the_disk(monkeypatch):
    # away from the edge a disk's averaged ramp profile is linear in the
    # offset, so interpolating it is exact up to rounding
    got, want = _interpolated_and_exact(monkeypatch, centered_disk_phantom(), 64)
    c = pixel_centers(64, 1.0)
    inside = np.hypot(*np.meshgrid(c, c)) <= 0.5 - 2.0 / 64
    assert np.abs(got - want)[inside].max() <= 1e-13


def test_inversion_scale_selftest():
    # pins the 1/(2 pi) scale: a unit-height blob through the axis-weighted
    # route at small size keeps its center value only with that constant
    blob = small_blob()
    grid = invert_mu_weighted(blob, 64, 1.0, MuWeight.uniform(32), 128)
    c = grid.n_px // 2
    est = float(grid.values[c - 1 : c + 1, c - 1 : c + 1].mean())
    xy = grid.coords[c - 1 : c + 1]
    gx, gy = np.meshgrid(xy, xy)
    truth = float(eval_phantom(blob, np.stack([gx, gy], axis=-1)).mean())
    assert truth == pytest.approx(0.9961, abs=2e-3)
    assert abs(est - truth) / truth < 5e-3


def test_direct_inversions_small():
    blob = small_blob()
    truth = rasterize(blob, 64, 1.0)
    mu = invert_mu_weighted(blob, 64, 1.0, MuWeight.uniform(32), 128)
    sine = invert_sine_weighted(blob, 64, 1.0, 32, 128)
    assert rel_l2(mu.values, truth.values) < 0.05
    assert rel_l2(sine.values, truth.values) < 0.05
    assert rel_l2(mu.values, sine.values) < 0.03
    with pytest.raises(ValueError):
        invert_mu_weighted(blob, 64, 1.0, MuWeight.uniform(32), 1)
    for n_px, n_beta, n_psi in ((0, 32, 128), (64, 0, 128), (64, 32, 0)):
        with pytest.raises(ValueError):
            invert_sine_weighted(blob, n_px, 1.0, n_beta, n_psi)


def test_cone_to_radon_even_center_vertex():
    # from the disk center the data block is constant 1.0 and the operator
    # must return the diameter chord 1.0 at every axis angle
    block = cone_block_analytic(centered_disk_phantom(), (0.0, 0.0), 64, 64)
    out = cone_to_radon_even(block)
    assert np.allclose(out, 1.0, atol=1e-3)
    with pytest.raises(ValueError):
        cone_to_radon_even(np.zeros(8))


def test_cone_to_radon_even_beta_odd_insensitive(rng):
    p = centered_disk_phantom()
    u = (1.0, 0.25)
    block = cone_block_analytic(p, u, 64, 96)
    spec = np.fft.rfft(block, axis=0)
    spec[1::2] = 0.0  # drop odd axis harmonics
    block_even = np.fft.irfft(spec, 64, axis=0)
    a = cone_to_radon_even(block)
    b = cone_to_radon_even(block_even)
    assert np.max(np.abs(a - b)) < 1e-8 * np.max(np.abs(a))


def test_radon_multiplier_is_the_circle_operator_chain(rng):
    # the quarter-turn average, the first-degree sphere-Laplacian polynomial
    # and the factor -2 multiply axis harmonic m by 2 / lambda_m(2); the
    # multiplier's exact form agrees with the chain to rounding (bit for bit
    # at M = 8, 16, 64 and 256 on this draw)
    for m_size in (8, 16, 64, 96, 200, 256):
        x = rng.standard_normal((6, m_size))
        chain = -2.0 * beltrami_poly_apply(funk_transform_s1(CircleFunction(x)), n=2, r=1).samples
        got = np.fft.irfft(np.fft.rfft(x) * _radon_multiplier(m_size, m_size), n=m_size)
        assert np.abs(got - chain).max() <= 5e-16 * np.abs(chain).max(), m_size
        mu = _radon_multiplier(m_size, m_size)
        lam = np.array([funk_hecke_lambda(m, 2) for m in range(mu.size)])
        assert np.all(np.abs(mu[::2] * lam[::2] - 2.0) <= np.spacing(2.0)), m_size
        assert np.all(mu[1::2] == 0.0), m_size


def test_camera_lattice_rule_sweep(tmp_path, monkeypatch, capsys):
    # the conversion is right only when n_psi is a multiple of n_beta / 2.
    # On every accepted lattice the per-axis line integrals of fig4's 128
    # detectors (33 per side) stay within 6 / n_beta relative L2 of the exact
    # ones; measured 0.69 on 8 x 4, 0.068 on 64 x 32, 0.052 on 96 x 48 and
    # 0.013 on 200 x 200. Rejected lattices measured up to 6.2 (200 x 150),
    # and even near misses exceed the bound: 0.070 on 200 x 199, 0.13 on 64 x 63
    p = centered_disk_phantom()
    verts = detector_positions(CameraConfig(1.0, 33, 8, 8))
    for n_beta, n_psi in ((8, 4), (16, 8), (32, 16), (64, 32), (64, 64), (64, 96), (96, 48), (96, 96), (200, 100), (200, 200), (200, 300)):
        phis = axis_angles(n_beta)
        got = np.array([cone_to_radon_even(cone_block_analytic(p, u, n_beta, n_psi)) for u in verts])
        want = np.array([radon_analytic(p, phis, np.sin(phis) * u[0] + np.cos(phis) * u[1]) for u in verts])
        assert rel_l2(got, want) <= 6.0 / n_beta, (n_beta, n_psi)
    # a rejected lattice exits 2 naming the rule, before any ray lattice or
    # line table is built
    pf = tmp_path / "fig4.txt"
    pf.write_text("disk 0 0 0.5 1.0\n")

    def never(*args):
        raise AssertionError("built a ray lattice or line table for a rejected lattice")

    monkeypatch.setattr(inversion, "_ray_lattice", never)
    monkeypatch.setattr(inversion, "radon_analytic", never)
    for n_beta, n_psi in ((200, 199), (200, 150), (96, 72), (64, 63), (400, 100), (64, 16)):
        out = tmp_path / f"{n_beta}x{n_psi}"
        argv = ["reconstruct", "--method", "compton", "--npx", "32", "--perside", "17", "--nbeta", str(n_beta), "--npsi", str(n_psi)]
        assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == 2, (n_beta, n_psi)
        assert "opening count (--npsi) to be a multiple of half the axis count (--nbeta)" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="multiple of half the axis count"):
            cone_to_radon_even(np.zeros((n_beta, n_psi)))


def test_cone_to_radon_even_matches_oracle():
    p = centered_disk_phantom()
    u = (1.0, 0.37)
    out = cone_to_radon_even(cone_block_analytic(p, u, 200, 200))
    phis = np.arange(200) * (TWO_PI / 200)
    want = radon_analytic(p, phis, np.sin(phis) * u[0] + np.cos(phis) * u[1])
    keep = np.abs(want) >= 0.3 * np.abs(want).max()
    assert np.max(np.abs(out - want)[keep] / np.abs(want)[keep]) < 2.5e-2


def test_compton_sinogram_against_analytic():
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 65, 96, 96)
    sino = compton_radon_sinogram(p, cam)
    want = radon_analytic(p, sino.thetas[:, None], sino.offsets[None, :])
    # compare on the well-measured part
    keep = want >= 0.3
    assert np.median(np.abs(sino.values - want)[keep]) < 5e-3
    assert np.max(np.abs(sino.values - want)[keep]) < 0.1


def _per_vertex_sinogram(phantom, cam, n_s=None, s_max=None, values=None):
    # the camera route one detector at a time: its cone block, its line
    # integrals, and bilinear np.add.at deposits into the (theta, s) lattice,
    # axis j onto row j mod n_beta / 2 at its own offset of the detector;
    # then the per-row average and the hole fill of the route. ``values``,
    # one row of per-axis line integrals a detector, replaces the converted
    # cone blocks. Returns the sinogram and the deposited weights
    n_theta = cam.n_beta // 2
    n_s = cam.per_side if n_s is None else n_s
    s_max = cam.half_extent * math.sqrt(2.0) if s_max is None else s_max
    phis = axis_angles(cam.n_beta)
    theta = np.where(phis >= math.pi, phis - math.pi, phis)
    rows = np.arange(cam.n_beta) % n_theta
    ds = 2.0 * s_max / (n_s - 1)
    num = np.zeros((n_theta, n_s))
    den = np.zeros_like(num)
    for v, u in enumerate(detector_positions(cam)):
        vals = cone_to_radon_even(cone_block_analytic(phantom, u, cam.n_beta, cam.n_psi)) if values is None else values[v]
        fs = (np.sin(theta) * u[0] + np.cos(theta) * u[1] + s_max) / ds
        ok = (fs > -0.5) & (fs < n_s - 0.5)
        j0 = np.clip(np.floor(fs[ok]).astype(int), 0, n_s - 2)
        fj = np.clip(fs[ok] - j0, 0.0, 1.0)
        for cols, w in ((j0, 1.0 - fj), (j0 + 1, fj)):
            np.add.at(num, (rows[ok], cols), vals[ok] * w)
            np.add.at(den, (rows[ok], cols), w)
    avg = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    offsets = np.linspace(-s_max, s_max, n_s)
    for row, seen in zip(avg, den > 0.0):
        if seen.any():
            row[:] = np.interp(offsets, offsets[seen], row[seen], left=0.0, right=0.0)
    return avg, den


_DISK_BLOB = Phantom(
    disks=(Disk((0.2, 0.1), 0.3, 1.0),),
    blobs=(GaussianBlob((0.35, 0.3), 0.08, 0.6),),
)
_FIG4_CASE = (centered_disk_phantom(), CameraConfig(1.0, 17, 200, 200), {})
# offsets past s_max that must be dropped
_NARROW_CASE = (_DISK_BLOB, CameraConfig(1.0, 17, 96, 96), {"n_s": 33, "s_max": 1.0})


def test_camera_sinogram_matches_per_vertex_reference():
    cases = {
        "fig4 200x200": _FIG4_CASE,
        # the blob's ray integrals take the erfc tail; 64 x 2016 has as many
        # distinct rays (4,032) as 64 x 63, whose axis rows share none, but
        # in 63 orbits of 64 where fig4's lattice has 2
        "decentred 64x2016": (translated(_DISK_BLOB, (-0.25, -0.2)), CameraConfig(0.8, 21, 64, 2016), {}),
        "narrow lattice": _NARROW_CASE,
    }
    for name, (phantom, cam, kwargs) in cases.items():
        got = compton_radon_sinogram(phantom, cam, **kwargs).values
        want, _ = _per_vertex_sinogram(phantom, cam, **kwargs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("n_beta, n_psi", [(200, 200), (16, 24), (96, 96)])
def test_camera_line_table_is_the_folded_ray_table(monkeypatch, n_beta, n_psi):
    # the route evaluates each detector's lines, not its rays: on a lattice
    # the conversion accepts, n_psi = c n_beta / 2, the ray lattice has 2
    # n_psi rays and line l is the sum of ray l and its opposite, ray l +
    # n_psi, and the route lays line o + i c out at slot i of orbit o. So
    # the line tables it takes, chunk by chunk, equal the ray table folded in
    # half and reshaped (n_beta / 2, c).T (measured at most 2.7e-14 of the
    # largest value)
    tables = []
    lines = inversion.radon_analytic
    monkeypatch.setattr(inversion, "radon_analytic", lambda *a: tables.append(lines(*a)) or tables[-1])
    cam = CameraConfig(1.0, 17, n_beta, n_psi)
    angles = _ray_lattice(n_beta, n_psi).angles
    assert angles.size == 2 * n_psi
    phantoms = {
        "fig4": centered_disk_phantom(),
        "fig5": overlapping_disks_phantom(),
        "disk + blob": _DISK_BLOB,
        "off-centre disk": Phantom(disks=(Disk((-0.3, 0.25), 0.4, 1.0),)),
    }
    for name, p in phantoms.items():
        tables.clear()
        compton_radon_sinogram(p, cam)
        rays = ray_integral_table(p, detector_positions(cam), angles)
        folded = rays[:, :n_psi] + rays[:, n_psi:]
        want = folded.reshape(-1, n_beta // 2, n_psi // (n_beta // 2)).transpose(0, 2, 1)
        got = np.concatenate(tables)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def _exact_axis_lines(phantom, cam):
    # each detector's exact line integrals, one per axis angle: the line
    # through the detector normal to the axis
    phis = axis_angles(cam.n_beta)
    verts = detector_positions(cam)
    return radon_analytic(phantom, phis, np.sin(phis) * verts[:, :1] + np.cos(phis) * verts[:, 1:])


@pytest.mark.parametrize(
    "phantom, per_side, n, camera, deposit, conversion, raster",
    [
        (centered_disk_phantom, 65, 200, 1.162e-2, 1.168e-2, 5.617e-3, 0.1551),
        (centered_disk_phantom, 257, 200, 6.723e-3, 2.426e-3, 6.313e-3, 8.283e-2),
        (centered_disk_phantom, 513, 200, 1.068e-2, 1.722e-3, 9.750e-3, 9.603e-2),
        (centered_disk_phantom, 257, 400, 2.602e-3, 2.480e-3, 1.909e-3, 5.939e-2),
        (overlapping_disks_phantom, 65, 200, 2.091e-2, 1.993e-2, 5.315e-3, 0.1587),
        (overlapping_disks_phantom, 257, 200, 1.121e-2, 4.879e-3, 8.208e-3, 9.019e-2),
    ],
    ids=["65", "257", "513", "257-400x400", "fig5-65", "fig5-257"],
)
def test_camera_error_budget(phantom, per_side, n, camera, deposit, conversion, raster):
    # the sinogram error of fig4 (ids without a prefix) and fig5 stage by
    # stage, at n x n (200 x 200 unless the id says otherwise) on the
    # default sinogram lattice, in relative L2: the camera against the exact
    # sinogram; the deposit alone (the route's deposit of each detector's
    # exact line integrals, radon_analytic at its own offsets) against the
    # exact sinogram; and the conversion, the camera against the deposit
    # alone. The last column is the camera's 256 px reconstruction against
    # the rasterized phantom. Each is pinned within 5 % of its measured
    # value. At 65 per side the deposit sets the camera's error; at 257 and
    # 513 the conversion does, and more detectors than 257 per side make it
    # worse, in the raster too
    p = phantom()
    cam = CameraConfig(1.0, per_side, n, n)
    sino = compton_radon_sinogram(p, cam)
    exact = radon_analytic(p, sino.thetas[:, None], sino.offsets[None, :])
    alone, _ = _per_vertex_sinogram(p, cam, values=_exact_axis_lines(p, cam))
    image = compton_reconstruct(p, cam, 256, 1.0).values
    got = (
        rel_l2(sino.values, exact),
        rel_l2(alone, exact),
        rel_l2(sino.values, alone),
        rel_l2(image, rasterize(p, 256, 1.0).values),
    )
    assert got == pytest.approx((camera, deposit, conversion, raster), rel=0.05)


def test_camera_conversion_converges_at_first_order():
    # per detector, the conversion of fig4's cone blocks to per-axis line
    # integrals against the exact ones, in relative L2 over the 256
    # detectors of 65 per side: it halves as the n x n lattice doubles,
    # each pinned within 5 % of its measured value, so n times the error
    # stays within 20 % (2.48, 2.60, 2.35)
    p = centered_disk_phantom()
    errs = []
    for n, want in ((200, 1.241e-2), (400, 6.509e-3), (800, 2.934e-3)):
        cam = CameraConfig(1.0, 65, n, n)
        conv = np.array([cone_to_radon_even(cone_block_analytic(p, u, n, n)) for u in detector_positions(cam)])
        errs.append(rel_l2(conv, _exact_axis_lines(p, cam)))
        assert errs[-1] == pytest.approx(want, rel=0.05), n
    scaled = np.array(errs) * (200, 400, 800)
    assert scaled.max() <= 1.2 * scaled.min()


def test_camera_sinogram_independent_of_chunking(monkeypatch):
    # the route sums each chunk's samples into its (theta, offset) bins;
    # chunks of 1 vertex, and of 3 with a partial last chunk (64
    # detectors), must give the default chunking's sinogram up to summation
    # order (measured at most 4.5e-16 of the largest value). Each chunk is
    # tapped once, so the patched budget must show in the _taps calls: 64
    # at 1 detector a chunk, 22 at 3, on the 17-per-side cameras
    calls = []
    taps = inversion._taps
    for name, (phantom, cam, kwargs) in {"fig4 200x200": _FIG4_CASE, "narrow lattice": _NARROW_CASE}.items():
        want = compton_radon_sinogram(phantom, cam, **kwargs).values
        for per_chunk, n_chunks in ((1, 64), (3, 22)):
            calls.clear()
            with monkeypatch.context() as m:
                # the budget counts a detector's 2 n_psi rays
                m.setattr(inversion, "_CAMERA_BUDGET", per_chunk * 2 * cam.n_psi)
                m.setattr(inversion, "_taps", lambda *a: calls.append(1) or taps(*a))
                got = compton_radon_sinogram(phantom, cam, **kwargs).values
            assert len(calls) == n_chunks, (name, per_chunk, len(calls))
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (name, per_chunk)


def _holes_in_band(den):
    # holes and band widths counted row by row on a reference's weights
    holes = banded = 0
    for seen in den > 0.0:
        idx = np.flatnonzero(seen)
        if idx.size:
            banded += idx[-1] - idx[0] + 1
            holes += idx[-1] - idx[0] + 1 - idx.size
    return holes, banded


def test_compton_undersampling_warns():
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 2, 8, 8)
    want, den = _per_vertex_sinogram(p, cam, n_s=301)
    holes, banded = _holes_in_band(den)
    assert (holes, banded) == (1012, 1032)
    with pytest.warns(RuntimeWarning, match=f"^{holes} of {banded} bins"):
        got = compton_radon_sinogram(p, cam, n_s=301)
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()
    # each call sums its own deposit weights and counts the holes from them;
    # a second call warns again
    with pytest.warns(RuntimeWarning, match="^1012 of 1032 bins"):
        again = compton_radon_sinogram(p, cam, n_s=301)
    assert again.values.tobytes() == got.values.tobytes()


@pytest.mark.parametrize(
    "n_s, holes, banded",
    # fig4 on 64 detectors and 16 x 16: 19.3 %, exactly 20 % and 20.06 %
    [(98, 136, 704), (100, 144, 720), (93, 134, 668)],
)
def test_compton_undersampling_threshold(n_s, holes, banded):
    # the warning trips on a hole fraction above 20 % of the sampled band
    # and not at or below it; the counts are the reference's
    cam = CameraConfig(1.0, 17, 16, 16)
    assert _holes_in_band(_per_vertex_sinogram(centered_disk_phantom(), cam, n_s=n_s)[1]) == (holes, banded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        compton_radon_sinogram(centered_disk_phantom(), cam, n_s=n_s)
    messages = [str(w.message) for w in caught]
    if holes > 0.2 * banded:
        assert len(messages) == 1 and messages[0].startswith(f"{holes} of {banded} bins"), messages
    else:
        assert not messages, messages


@pytest.mark.parametrize(
    "fracs",
    [
        (-0.6, -0.5, -0.4, 0.0, 3.3, 7.6, 8.0, 8.4, 8.5),
        (-0.4, 0.0, 3.3, 7.6, 8.0, 8.4),
        (-0.5, -0.4, 0.0, 3.3),
        (3.3, 7.6, 8.4, 8.5),
    ],
    ids=["ends", "in-range", "low-end", "high-end"],
)
def test_taps_at_the_ends_of_the_offset_range(fracs):
    # n_s = 9 offsets on [-1, 1] (ds = 0.25), samples at fractional index f
    # on two rows, the second reversed. Each sample's taps equal the
    # per-sample rule exactly: low bin clip(floor f, 0, n_s - 2) + j n_s on
    # row j and the high bin one past it, high weight clip(f - bin, 0, 1)
    # and low weight 1 minus it, both weights 0 at f <= -0.5 or
    # f >= n_s - 0.5. The in-range case skips the mask; one end out of
    # range is enough to apply it
    n_s, s_max, ds = 9, 1.0, 0.25
    f = np.array(fracs)
    s = np.stack([f, f[::-1]], axis=-1) * ds - s_max
    bins, w = inversion._taps(s, s_max, ds, n_s)
    assert bins.shape == w.shape == (2, *s.shape)
    for (v, j), sv in np.ndenumerate(s):
        fv = (sv + s_max) / ds
        low = min(max(math.floor(fv), 0), n_s - 2)
        high_w = min(max(fv - low, 0.0), 1.0)
        keep = -0.5 < fv < n_s - 0.5
        assert (bins[0, v, j], bins[1, v, j]) == (low + j * n_s, low + 1 + j * n_s), fv
        assert (w[0, v, j], w[1, v, j]) == ((1.0 - high_w) * keep, high_w * keep), fv


def test_camera_taps_each_chunk_once(monkeypatch):
    # every call taps each detector chunk once, for its deposit weights and
    # its samples alike
    cam = CameraConfig(1.0, 33, 200, 200)
    calls = []
    taps = inversion._taps
    monkeypatch.setattr(inversion, "_taps", lambda *a: calls.append(1) or taps(*a))
    counts = []
    for p in (centered_disk_phantom(), overlapping_disks_phantom()):
        calls.clear()
        compton_radon_sinogram(p, cam)
        counts.append(len(calls))
    n_chunks = -(-4 * 32 // (_CAMERA_BUDGET // (2 * cam.n_psi)))
    assert n_chunks > 1 and counts == [n_chunks, n_chunks]


def test_camera_stage_per_configuration():
    # each call builds its lines and kernel for its own configuration: the
    # defaults spelled out give the default, bit for bit, each other grid
    # gives its own sinogram, and calls interleaved across configurations
    # each give what a first call on that configuration gave
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 17, 96, 96)
    variants = [{}, {"n_s": 33}, {"s_max": 1.0}]
    base = compton_radon_sinogram(p, cam)
    same = compton_radon_sinogram(p, cam, 17, math.sqrt(2.0))
    assert same.values.tobytes() == base.values.tobytes()
    first = [compton_radon_sinogram(p, cam, **kwargs) for kwargs in variants]
    assert first[1].values.shape == (48, 33)
    assert first[2].s_max == 1.0
    assert first[2].values.tobytes() != base.values.tobytes()
    for kwargs, want in list(zip(variants, first))[::-1]:
        got = compton_radon_sinogram(p, cam, **kwargs)
        assert got.values.tobytes() == want.values.tobytes(), kwargs


def test_camera_rows_are_axis_pairs(tmp_path, monkeypatch, capsys):
    # the camera sinogram's rows are its axis pairs, so it takes no row
    # count, and compton_reconstruct takes n_theta = n_beta / 2 (an explicit
    # 48 on 96 axes is the default, bit for bit) and raises on any other,
    # naming --ntheta, before any line table is built. A fold of the axis
    # rows onto any n_theta left whole rows unsampled from n_theta = n_beta
    # up (rel L2 0.566 with exit 0 on fig4 at n_theta 400, 257 per side)
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 17, 96, 96)

    def never(*args):
        raise AssertionError("built a line table for a rejected row count")

    want = compton_reconstruct(p, cam, 16, 1.0).values
    assert compton_reconstruct(p, cam, 16, 1.0, 48).values.tobytes() == want.tobytes()
    monkeypatch.setattr(inversion, "radon_analytic", never)
    for n_theta in (0, 24, 47, 49, 96, 400):
        with pytest.raises(ValueError, match=r"^n_theta \(--ntheta\) must be n_beta / 2 = 48 .*; got "):
            compton_reconstruct(p, cam, 16, 1.0, n_theta)
    # the offset range is checked first
    with pytest.raises(ValueError, match="raster's corners"):
        compton_reconstruct(p, cam, 16, 1.0, 400, s_max=1.0)
    pf = tmp_path / "fig4.txt"
    pf.write_text("disk 0 0 0.5 1.0\n")
    out = tmp_path / "out"
    argv = ["reconstruct", "--method", "compton", "--npx", "16", "--perside", "17", "--nbeta", "96", "--npsi", "96"]
    assert main([*argv, "--ntheta", "400", "--phantom", str(pf), "--out", str(out)]) == 2
    assert "error: n_theta (--ntheta) must be n_beta / 2 = 48" in capsys.readouterr().err
    assert not out.exists()


def test_camera_route_memory_bounded():
    # 8 x 19,900 has 39,800 rays, or 19,900 lines in 4,975 orbits of 4, so
    # each vertex chunk is a single vertex. A call holds one chunk's line
    # table with its scratch, the orbit spectra of that table and the kernel
    # (4,975 x 3 complex each), the kernel's temporaries, the deposit
    # weights and the sinogram; measured 2.44 MB, about 7.7 tables of 39,800
    # doubles, against 5.3 MB for a cold call that also built the ray
    # lattice and a cached stage with a pass of its own over the chunks,
    # 2.9 MB for the per-vertex form and 4.55 MB when the route evaluated
    # each chunk's rays.
    # The bound is 8 such tables (2.5 MB). One table over all 64 vertices
    # would be 20 MB per table-sized temporary.
    cam = CameraConfig(1.0, 17, 8, 19900)
    chunk = max(_CAMERA_BUDGET, 2 * cam.n_psi)
    peak = traced_peak(lambda: compton_radon_sinogram(centered_disk_phantom(), cam))
    assert peak < 8 * 8 * chunk


def test_camera_memory_bounded_by_its_lines():
    # the route takes a detector's n_psi lines in closed form and never
    # makes a cone block (64 MB at 400 x 20,000) or a ray lattice (192 MB
    # there while it kept two index tables): a cold call holds what a chunk
    # of one detector needs, measured 2.3 MB. The bound is 16 tables of the
    # 2 n_psi rays (5.1 MB)
    cam = CameraConfig(1.0, 17, 400, 20000)
    peak = traced_peak(lambda: compton_radon_sinogram(centered_disk_phantom(), cam))
    assert peak < 16 * 8 * 2 * cam.n_psi


def test_camera_converges():
    # fig4 at 128 px: rel-L2 0.216, 0.149, 0.079 as detectors and the cone
    # lattice double. Each step must shrink the error to at most 0.75x.
    p = centered_disk_phantom()
    truth = rasterize(p, 128, 1.0).values
    errs = [
        rel_l2(compton_reconstruct(p, CameraConfig(1.0, per_side, n, n), 128, 1.0).values, truth)
        for per_side, n in ((33, 48), (65, 96), (129, 200))
    ]
    assert errs[0] < 0.25
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= 0.75 * coarse, errs


def test_compton_support_check():
    cam = CameraConfig(1.0, 33, 32, 32)
    big = Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.5, 1.0),))  # 6 sigma = 3 > 1
    with pytest.raises(ValueError):
        compton_reconstruct(big, cam, 32, 1.0)


def test_compton_offset_range_check():
    # after the camera-square check, s_max must reach the raster's corners
    # and every line that meets the phantom; before, a cut-off sinogram
    # ramp-filtered into a wrong raster. The default, sqrt(2) times the
    # camera's half extent, reaches both for a raster as wide as the camera
    cam = CameraConfig(1.0, 9, 8, 8)
    fig4 = centered_disk_phantom()
    with pytest.raises(ValueError, match="raster's corners"):
        compton_reconstruct(fig4, cam, 16, 1.0, s_max=1.0)
    with pytest.raises(ValueError, match="every line that meets the phantom"):
        compton_reconstruct(Phantom(disks=(Disk((0.6, 0.6), 0.3, 1.0),)), cam, 16, 0.5, s_max=0.8)
    with pytest.raises(ValueError, match="camera square"):
        compton_reconstruct(Phantom(disks=(Disk((0.0, 0.0), 3.0, 1.0),)), cam, 16, 1.0, s_max=0.1)
    assert np.isfinite(compton_reconstruct(fig4, cam, 16, 0.5, s_max=0.8).values).all()


def test_compton_reconstruct_blob():
    blob = camera_blob()
    cam = CameraConfig(1.0, 65, 96, 96)
    rec = compton_reconstruct(blob, cam, 64, 1.0)
    truth = rasterize(blob, 64, 1.0)
    assert rel_l2(rec.values, truth.values) < 0.05


def test_sinogram_lattice_rejects_explicit_zeros():
    # an explicit 0 is an invalid lattice, not a request for the default
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 9, 8, 8)
    for kwargs in ({"n_s": 0}, {"s_max": 0.0}):
        with pytest.raises(ValueError):
            compton_radon_sinogram(p, cam, **kwargs)
    with pytest.raises(ValueError):
        compton_reconstruct(p, cam, 0, 1.0)
    with pytest.raises(ValueError, match=r"^n_theta \(--ntheta\)"):
        compton_reconstruct(p, cam, 16, 1.0, n_theta=0)


def test_sinogram_lattice_defaults():
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 17, 32, 16)
    sino = compton_radon_sinogram(p, cam)
    assert sino.n_theta == 16  # n_beta // 2
    assert sino.n_s == 17  # per_side
    assert sino.s_max == pytest.approx(math.sqrt(2.0))
