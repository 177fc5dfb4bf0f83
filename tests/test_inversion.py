import dataclasses
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

from conftest import eval_phantom, exact_weighted_route, rel_l2, traced_peak


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
    uni = MuWeight.uniform(16)
    assert uni.n_beta == 16
    assert uni.weights.sum() * TWO_PI / 16 == pytest.approx(1.0)
    d = MuWeight.delta(16, index=5)
    assert d.weights[5] == pytest.approx(16 / TWO_PI)
    assert np.count_nonzero(d.weights) == 1


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
        with pytest.raises(ValueError, match="multiple of 4 and at least 8"):
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


# magnitudes log-uniform over 1e-300..1e308, and coordinates of either sign
# or 0 with those magnitudes
_magnitudes = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)
_coords = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), _magnitudes).map(lambda c: c[0] * c[1])
_disks = st.builds(lambda x, y, r, rho: Disk((x, y), r, rho), _coords, _coords, _magnitudes, st.floats(-2.0, 2.0))


@settings(max_examples=30, deadline=None)
@given(disks=st.lists(_disks, min_size=1, max_size=2))
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


def test_ray_field_memory_bounded():
    # 63 x 256 has 16,128 distinct lines; one table of their profiles at the
    # 257 offsets of a 32 px raster would be 33 MB. Backprojection pulls the
    # profile rows a chunk of whole orbits at a time, at most _ROW_BUDGET
    # entries, and drops each chunk before the next is made. At its peak a
    # chunk is made with two scratch tables of the same size: 3 * _ROW_BUDGET
    # doubles, 1.6 MB. Besides those only per-line vectors grow with the
    # lattice: line_rows()' index tables over the L pairs, the row weights
    # and the row angles, at most 16 doubles a line, 2.1 MB. Stencil and accumulators at 32 px are below
    # 0.1 MB. The warm-up builds the lattice and loads the sparse kernel outside
    # the trace (measured peak: 2.7 MB, against a 3.6 MB bound; 3.3 MB while
    # the previous chunk was still held).
    invert_mu_weighted(small_blob(), 8, 1.0, MuWeight.uniform(63), 256)
    peak = traced_peak(lambda: invert_mu_weighted(small_blob(), 32, 1.0, MuWeight.uniform(63), 256))
    assert peak < 8 * (3 * _ROW_BUDGET + 16 * 16128)


def _per_ray_field(phantom, n_px, half_extent, pair_w):
    # every lattice ray on its own: each pair weight on both of its branches
    lat = _ray_lattice(*pair_w.shape)
    w = np.ravel(pair_w)
    weights = np.bincount(lat.plus.ravel(), w, lat.angles.size) + np.bincount(lat.minus.ravel(), w, lat.angles.size)
    c = pixel_centers(n_px, half_extent)
    gx, gy = np.meshgrid(c, c)
    origins = np.column_stack([gx.ravel(), gy.ravel()])
    return (ray_integral_table(phantom, origins, lat.angles) @ weights).reshape(n_px, n_px)


def _fft_route(phantom, n_px, half_extent, pair_w, scale):
    # the route as a sampled field: the per-ray field on a 4x panel with the
    # same pixel pitch and aligned centers, the zero-padded FFT |xi| filter,
    # then crop and scale
    pad = math.ceil(1.5 * n_px)
    n_work = n_px + 2 * pad
    l_work = half_extent * n_work / n_px
    field = ImageGrid(n_work, l_work, _per_ray_field(phantom, n_work, l_work, pair_w))
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
    # ray table is built
    pf = tmp_path / "fig4.txt"
    pf.write_text("disk 0 0 0.5 1.0\n")

    def never(*args):
        raise AssertionError("built a ray lattice or table for a rejected lattice")

    monkeypatch.setattr(inversion, "_ray_lattice", never)
    monkeypatch.setattr(inversion, "ray_integral_table", never)
    for n_beta, n_psi in ((200, 199), (200, 150), (96, 72), (64, 63), (400, 100), (64, 16)):
        out = tmp_path / f"{n_beta}x{n_psi}"
        argv = ["reconstruct", "--method", "compton", "--npx", "32", "--perside", "17", "--nbeta", str(n_beta), "--npsi", str(n_psi)]
        assert main([*argv, "--phantom", str(pf), "--out", str(out)]) == 2, (n_beta, n_psi)
        assert "multiple of half the axis count" in capsys.readouterr().err
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


def _per_vertex_sinogram(phantom, cam, n_theta=None, n_s=None, s_max=None, values=None):
    # the camera route one detector at a time: its cone block, its line
    # integrals, and bilinear np.add.at deposits into the (theta, s) lattice;
    # then the per-row average and the hole fill of the route. ``values``,
    # one row of per-axis line integrals a detector, replaces the converted
    # cone blocks. Returns the sinogram and the deposited weights
    n_theta = cam.n_beta // 2 if n_theta is None else n_theta
    n_s = cam.per_side if n_s is None else n_s
    s_max = cam.half_extent * math.sqrt(2.0) if s_max is None else s_max
    phis = axis_angles(cam.n_beta)
    theta = np.where(phis >= math.pi, phis - math.pi, phis)
    tt = theta / (math.pi / n_theta)
    i0 = np.clip(np.floor(tt).astype(int), 0, n_theta - 1)
    fi = np.clip(tt - i0, 0.0, 1.0)
    wrapped = i0 + 1 >= n_theta
    i1 = np.where(wrapped, 0, i0 + 1)
    flip = np.where(wrapped, -1.0, 1.0)
    ds = 2.0 * s_max / (n_s - 1)
    num = np.zeros((n_theta, n_s))
    den = np.zeros_like(num)
    for v, u in enumerate(detector_positions(cam)):
        vals = cone_to_radon_even(cone_block_analytic(phantom, u, cam.n_beta, cam.n_psi)) if values is None else values[v]
        s = np.sin(theta) * u[0] + np.cos(theta) * u[1]
        for rows, row_w, offs in ((i0, 1.0 - fi, s), (i1, fi, s * flip)):
            fs = (offs + s_max) / ds
            ok = (fs > -0.5) & (fs < n_s - 0.5)
            j0 = np.clip(np.floor(fs[ok]).astype(int), 0, n_s - 2)
            fj = np.clip(fs[ok] - j0, 0.0, 1.0)
            for cols, w in ((j0, row_w[ok] * (1.0 - fj)), (j0 + 1, row_w[ok] * fj)):
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
# theta bins off the folded axis lattice, so the last row wraps to row 0 with
# negated offsets (seen only off-centre), and offsets past s_max that must be
# dropped
_NARROW_CASE = (_DISK_BLOB, CameraConfig(1.0, 17, 96, 96), {"n_theta": 40, "n_s": 33, "s_max": 1.0})


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


@pytest.mark.parametrize(
    "per_side, camera, deposit, conversion",
    [(65, 1.162e-2, 1.168e-2, 5.617e-3), (257, 6.723e-3, 2.426e-3, 6.313e-3)],
    ids=["65", "257"],
)
def test_camera_error_budget(per_side, camera, deposit, conversion):
    # fig4's sinogram error stage by stage, at 200 x 200 on the default
    # sinogram lattice, in relative L2: the camera against the exact
    # sinogram; the deposit alone (the route's deposit of each detector's
    # exact line integrals, radon_analytic at its own offsets) against the
    # exact sinogram; and the conversion, the camera against the deposit
    # alone. Each is pinned within 5 % of its measured value. At 65 per side
    # the deposit sets the camera's error; at 257 the conversion does
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, per_side, 200, 200)
    sino = compton_radon_sinogram(p, cam)
    exact = radon_analytic(p, sino.thetas[:, None], sino.offsets[None, :])
    phis = axis_angles(cam.n_beta)
    verts = detector_positions(cam)
    lines = radon_analytic(p, phis, np.sin(phis) * verts[:, :1] + np.cos(phis) * verts[:, 1:])
    alone, _ = _per_vertex_sinogram(p, cam, values=lines)
    got = (rel_l2(sino.values, exact), rel_l2(alone, exact), rel_l2(sino.values, alone))
    assert got == pytest.approx((camera, deposit, conversion), rel=0.05)


def test_camera_sinogram_independent_of_chunking(monkeypatch):
    # the route sums each chunk's samples into per-axis bins and folds them
    # onto theta rows once; chunks of 1 vertex, and of 3 with a partial last
    # chunk (64 detectors), must give the default chunking's sinogram up to
    # summation order (measured at most 3.4e-16 of the largest value)
    for name, (phantom, cam, kwargs) in {"fig4 200x200": _FIG4_CASE, "narrow lattice": _NARROW_CASE}.items():
        want = compton_radon_sinogram(phantom, cam, **kwargs).values
        n_rays = _ray_lattice(cam.n_beta, cam.n_psi).angles.size
        for per_chunk in (1, 3):
            with monkeypatch.context() as m:
                m.setattr(inversion, "_CAMERA_BUDGET", per_chunk * n_rays)
                # the stage fixes the chunk length: a cached one keeps the default
                inversion._camera_stage.cache_clear()
                got = compton_radon_sinogram(phantom, cam, **kwargs).values
                assert inversion._camera_stage(*_stage_key(cam, **kwargs)).step == per_chunk
                inversion._camera_stage.cache_clear()
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (name, per_chunk)


def test_compton_undersampling_warns():
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 2, 8, 8)
    want, den = _per_vertex_sinogram(p, cam, n_theta=4, n_s=301)
    # holes and band widths counted row by row on the reference's weights
    holes = banded = 0
    for seen in den > 0.0:
        idx = np.flatnonzero(seen)
        if idx.size:
            banded += idx[-1] - idx[0] + 1
            holes += idx[-1] - idx[0] + 1 - idx.size
    assert (holes, banded) == (1012, 1032)
    with pytest.warns(RuntimeWarning, match=f"^{holes} of {banded} bins"):
        got = compton_radon_sinogram(p, cam, n_theta=4, n_s=301)
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()
    # each call counts the holes from the cached weights; a second call warns again
    with pytest.warns(RuntimeWarning, match="^1012 of 1032 bins"):
        again = compton_radon_sinogram(p, cam, n_theta=4, n_s=301)
    assert again.values.tobytes() == got.values.tobytes()


def _stage_key(cam, **kwargs):
    # compton_radon_sinogram's defaults, spelled out
    return (
        cam,
        kwargs.get("n_theta", cam.n_beta // 2),
        kwargs.get("n_s", cam.per_side),
        kwargs.get("s_max", cam.half_extent * math.sqrt(2.0)),
    )


def test_camera_stage_shared_across_phantoms():
    # fig4, fig5 and a disk + blob phantom interleaved on one camera share
    # one stage, and each sinogram is the one a fresh stage gives
    cam = CameraConfig(1.0, 33, 200, 200)
    phantoms = [centered_disk_phantom(), overlapping_disks_phantom(), _DISK_BLOB]
    inversion._camera_stage.cache_clear()
    got = [compton_radon_sinogram(p, cam).values for p in phantoms + phantoms[::-1]]
    assert inversion._camera_stage.cache_info().misses == 1
    for i, p in enumerate(phantoms + phantoms[::-1]):
        inversion._camera_stage.cache_clear()
        assert compton_radon_sinogram(p, cam).values.tobytes() == got[i].tobytes(), i
    # the stage is frozen and its arrays, its deposit weights among them,
    # are read-only
    stage = inversion._camera_stage(*_stage_key(cam))
    with pytest.raises(dataclasses.FrozenInstanceError):
        stage.step = 1
    for name, value in vars(stage).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name


def test_camera_stage_taps_each_chunk_once(monkeypatch):
    # the stage's build taps each detector chunk once for the deposit
    # weights, and every call taps each chunk once for its samples: a cold
    # call taps each chunk twice, a warm call once
    cam = CameraConfig(1.0, 33, 200, 200)
    calls = []
    taps = inversion._taps
    monkeypatch.setattr(inversion, "_taps", lambda *a: calls.append(1) or taps(*a))
    inversion._camera_stage.cache_clear()
    counts = []
    for p in (centered_disk_phantom(), overlapping_disks_phantom()):
        calls.clear()
        compton_radon_sinogram(p, cam)
        counts.append(len(calls))
    n_chunks = -(-4 * 32 // inversion._camera_stage(*_stage_key(cam)).step)
    assert n_chunks > 1 and counts == [2 * n_chunks, n_chunks]
    assert inversion._camera_stage.cache_info().misses == 1


def test_camera_stage_per_configuration():
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 17, 96, 96)
    variants = [
        (cam, {"n_theta": 40}),
        (cam, {"n_s": 33}),
        (cam, {"s_max": 1.0}),
    ]
    inversion._camera_stage.cache_clear()
    base = compton_radon_sinogram(p, cam)
    # the defaults spelled out name the same stage
    same = compton_radon_sinogram(p, cam, 48, 17, math.sqrt(2.0))
    assert same.values.tobytes() == base.values.tobytes()
    assert inversion._camera_stage.cache_info().misses == 1
    inversion._camera_stage(*_stage_key(cam))
    assert inversion._camera_stage.cache_info().misses == 1
    for n, (c, kwargs) in enumerate(variants, start=2):
        compton_radon_sinogram(p, c, **kwargs)
        assert inversion._camera_stage.cache_info().misses == n, kwargs
        inversion._camera_stage(*_stage_key(c, **kwargs))
        assert inversion._camera_stage.cache_info().misses == n, kwargs


@pytest.mark.parametrize("per_side", [17, 257])
def test_camera_stage_memory_bounded(per_side):
    # the stage holds O(n_beta n_s + n_vertices) numbers: the fold table
    # (two int32 a bin), den, the detectors and small per-axis and per-ray
    # arrays; measured 12.3 bytes per unit at 257 per side and 15.8 at 17.
    # The bound is 24. A per-sample cache of the deposit (two
    # taps of an 8-byte bin and an 8-byte weight per vertex and axis) would
    # need 32 n_vertices n_beta bytes, 118 and 125 bytes per unit here.
    cam = CameraConfig(1.0, per_side, 200, 200)
    stage = inversion._camera_stage(*_stage_key(cam))
    nbytes = sum(v.nbytes for v in vars(stage).values() if isinstance(v, np.ndarray))
    n_vertices = 4 * (per_side - 1)
    units = cam.n_beta * cam.per_side + n_vertices
    assert nbytes <= 24 * units
    assert 32 * n_vertices * cam.n_beta > 4 * 24 * units


def test_camera_route_memory_bounded():
    # 8 x 19,900 has 39,800 distinct rays in 4,975 orbits of 8, so each
    # vertex chunk is a single vertex. The route holds one chunk's ray table
    # with its scratch, the orbit spectra of that table and of the opening
    # kernel (4,975 x 5 complex each) and the sinogram. A cold call also
    # builds the camera stage, the kernel's temporaries and the stage's own
    # pass over the chunks for the deposit weights included; measured
    # 4.55 MB, about 14 tables of 39,800 doubles, against 3.8 MB for a call
    # on a built stage and 2.9 MB for the per-vertex form.
    # The bound is 16 such tables (5.1 MB). One table over all 64 vertices
    # would be 20 MB per table-sized temporary.
    cam = CameraConfig(1.0, 17, 8, 19900)
    # a first call builds the cached ray lattice, which is not counted; the
    # camera stage is dropped, so the traced call is a cold one
    compton_radon_sinogram(centered_disk_phantom(), cam)
    inversion._camera_stage.cache_clear()
    chunk = max(_CAMERA_BUDGET, _ray_lattice(8, 19900).angles.size)
    peak = traced_peak(lambda: compton_radon_sinogram(centered_disk_phantom(), cam))
    assert peak < 16 * 8 * chunk


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
    for kwargs in ({"n_theta": 0}, {"n_s": 0}, {"s_max": 0.0}):
        with pytest.raises(ValueError):
            compton_radon_sinogram(p, cam, **kwargs)
    with pytest.raises(ValueError):
        compton_reconstruct(p, cam, 0, 1.0)


def test_sinogram_lattice_defaults():
    p = centered_disk_phantom()
    cam = CameraConfig(1.0, 17, 32, 16)
    sino = compton_radon_sinogram(p, cam)
    assert sino.n_theta == 16  # n_beta // 2
    assert sino.n_s == 17  # per_side
    assert sino.s_max == pytest.approx(math.sqrt(2.0))
