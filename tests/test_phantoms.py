import math
from decimal import Context
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from conetomo import phantoms
from conetomo.geometry import _ray_lattice, axis_angles, opening_midpoints, pixel_centers
from conetomo.inversion import CameraConfig, detector_positions
from conetomo.phantoms import (
    Disk,
    GaussianBlob,
    Phantom,
    centered_disk_phantom,
    cone_block_analytic,
    load_phantom_file,
    overlapping_disks_phantom,
    parse_phantom_text,
    radon_analytic,
    rasterize,
    ray_integral,
    ray_integral_table,
    rotated,
    support_halfwidth,
    translated,
)

from conftest import cone_analytic_2d, eval_phantom, rel_l2, traced_peak


def random_phantom2(rng):
    disks = tuple(
        Disk(rng.uniform(-0.4, 0.4, 2), rng.uniform(0.1, 0.4), rng.uniform(0.2, 1.5))
        for _ in range(rng.integers(1, 3))
    )
    blobs = tuple(
        GaussianBlob(rng.uniform(-0.4, 0.4, 2), rng.uniform(0.1, 0.3), rng.uniform(0.2, 1.5))
        for _ in range(rng.integers(0, 3))
    )
    return Phantom(disks=disks, blobs=blobs)


def test_primitive_validation():
    with pytest.raises(ValueError):
        Disk((0, 0), -1.0, 1.0)
    with pytest.raises(ValueError):
        GaussianBlob((0, 0), 0.0, 1.0)
    # a NaN center once gave an all-zero raster and a NaN radius a disk
    # dropped silently; every field must be finite
    for bad in (math.nan, math.inf, -math.inf):
        for cx, cy, width, weight in ((bad, 0, 0.3, 1), (0, bad, 0.3, 1), (0, 0, bad, 1), (0, 0, 0.3, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                Disk((cx, cy), width, weight)
            with pytest.raises(ValueError, match="must be finite"):
                GaussianBlob((cx, cy), width, weight)
    # large finite values stay valid
    assert Disk((1e300, -1e300), 1e300, -1e300).radius == 1e300
    assert GaussianBlob((1e300, 0), 1e300, 1e300).sigma == 1e300
    # a blob narrower than 1e-154 overflows its closed forms
    assert GaussianBlob((0, 0), 1e-154, 1.0).sigma == 1e-154
    with pytest.raises(ValueError, match="at least 1e-154"):
        GaussianBlob((0, 0), 9e-155, 1.0)
    assert Phantom() == Phantom(disks=(), blobs=())
    assert centered_disk_phantom().disks


def test_eval_phantom_pointwise():
    p = Phantom(
        disks=(Disk((0.2, 0.0), 0.3, 0.8),),
        blobs=(GaussianBlob((0.0, 0.5), 0.2, 1.5),),
    )
    assert eval_phantom(p, (0.2, 0.0)) == pytest.approx(
        0.8 + 1.5 * math.exp(-(0.2**2 + 0.5**2) / (2 * 0.2**2))
    )
    assert eval_phantom(p, (0.0, 0.5)) == pytest.approx(1.5 + 0.8 * (math.hypot(0.2, 0.5) <= 0.3))
    pts = np.zeros((3, 4, 2))
    assert eval_phantom(p, pts).shape == (3, 4)


def test_ray_integral_blob_against_quadrature(rng):
    for _ in range(10):
        blob = GaussianBlob(rng.uniform(-0.5, 0.5, 2), rng.uniform(0.1, 0.4), rng.uniform(0.2, 2.0))
        p = Phantom(blobs=(blob,))
        origin = rng.uniform(-1.5, 1.5, 2)
        a = rng.uniform(0, 2 * math.pi)
        d = (math.sin(a), math.cos(a))

        def integrand(t):
            x = origin + t * np.asarray(d)
            return float(eval_phantom(p, x))

        want, _ = quad(integrand, 0.0, 8.0, limit=200)
        assert ray_integral(p, origin, a) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_ray_integral_disk_chord_consistency(rng):
    # a full line equals the two opposite rays from any of its points, and
    # matches the closed-form radon value
    for _ in range(25):
        p = random_phantom2(rng)
        theta = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(-0.8, 0.8)
        t = rng.uniform(-2.0, 2.0)
        x0 = s * np.array([math.sin(theta), math.cos(theta)]) + t * np.array(
            [math.cos(theta), -math.sin(theta)]
        )
        two_rays = ray_integral(p, x0, theta + math.pi / 2) + ray_integral(p, x0, theta - math.pi / 2)
        assert two_rays == pytest.approx(float(radon_analytic(p, theta, s)), rel=1e-11, abs=1e-13)


def test_line_integrals_near_the_disk_edge_against_exact():
    # a line at offset s from the centre of a disk of radius r cuts 2
    # sqrt(r^2 - s^2), here taken exactly from the float r and s. Near the
    # edge r^2 - s^2 cancels: it erred by up to 3.8e-9 relative at s = r (1
    # - 1e-8), and 1.2e-2 at the closest offsets. sqrt((r - s)(r + s))
    # rounds three times, r - s being exact
    ctx = Context(prec=60)
    for r in (0.7, 0.3, 1.1e-3):
        p = Phantom(disks=(Disk((0.0, 0.0), r, 1.0),))
        for k in range(3, 16):
            for s in (r * (1.0 - 10.0**-k), -r * (1.0 - 3.0 * 10.0**-k)):
                # the centre projects to 0 exactly, so the line's distance is |s|
                got = radon_analytic(p, 0.4, s)
                gap = Fraction(r) ** 2 - Fraction(s) ** 2
                want = 2 * float(ctx.sqrt(ctx.divide(gap.numerator, gap.denominator)))
                assert abs(got - want) <= 2 * np.finfo(float).eps * want, (r, s, got, want)


def test_ray_integral_inside_disk():
    p = centered_disk_phantom()
    # from the center every ray sees exactly the radius
    angles = np.linspace(0, 2 * math.pi, 13)
    assert np.allclose(ray_integral(p, (0.0, 0.0), angles), 0.5)


def test_ray_integral_table_matches_scalar(rng):
    # the table broadcasts every origin against every angle, ray_integral
    # takes one origin at a time on the same angle array, so the rows must
    # match it bit for bit, rays that graze a disk by a rounding included
    on_circle = Disk((0.25, 0.0), 0.5, 0.8)
    a64 = axis_angles(64)
    # seen from the origin the small disk spans 0.02 rad, under a 0.098 rad
    # slot of a64, around a64[5]
    speck = Disk((math.sin(a64[5]), math.cos(a64[5])), 0.01, 2.0)
    odd_angles = np.concatenate(
        [
            rng.uniform(-3 * math.pi, 5 * math.pi, 60),  # unsorted, negative, past 2 pi
            [0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi, -1e-17, math.pi],
        ]
    )
    odd_angles = np.concatenate([odd_angles, odd_angles[::7]])  # repeats
    # just outside the circle: rays within 1e-7 rad of the edges of the
    # disk's angular shadow, where the rounded chord reaches past
    # asin(r / |q|) (by 6e-9 rad here)
    t = 1.6951199159934145
    grazer = (0.25 + (0.5 + 1e-16) * math.sin(t), (0.5 + 1e-16) * math.cos(t))
    qx, qy = 0.25 - grazer[0], -grazer[1]
    edge = math.asin(0.5 / math.hypot(qx, qy)) + np.arange(-100, 101) * 1e-9
    grazing = math.atan2(qx, qy) + np.concatenate([edge, -edge])
    cases = {
        "random": (random_phantom2(rng), rng.uniform(-1, 1, (5, 2)), rng.uniform(0, 2 * math.pi, 7)),
        # a disk + blob phantom seen from 64 camera detectors
        "camera boundary": (
            Phantom(disks=overlapping_disks_phantom().disks, blobs=(GaussianBlob((-0.2, 0.3), 0.1, 0.5),)),
            detector_positions(CameraConfig(1.0, 17, 8, 8)),
            (np.arange(400) + 0.5) * (2 * math.pi / 400),
        ),
        # on the circle exactly (0.5^2 - 0.5^2 = 0), on it up to rounding,
        # inside it, at its center, and outside
        "inside and on": (
            Phantom(disks=(on_circle, Disk((-0.3, 0.2), 0.2, 1.1))),
            np.array(
                [[0.75, 0.0], [0.25, -0.5], [-0.05, 0.4], [0.55, 0.4], [0.3, 0.1], [0.25, 0.0], [-0.3, 0.4], [0.9, -0.8]]
            ),
            odd_angles,
        ),
        "grazing": (Phantom(disks=(on_circle,)), np.array([grazer, [0.75, 0.0]]), grazing),
        "single slot": (
            Phantom(disks=(speck,), blobs=(GaussianBlob((0.0, 0.0), 0.2, 1.0),)),
            np.array([[0.0, 0.0], [0.3, -0.2], [-1.0, -1.0]]),
            a64,
        ),
    }
    for name, (p, origins, angles) in cases.items():
        table = ray_integral_table(p, origins, angles)
        assert table.shape == (len(origins), len(angles)), name
        assert np.count_nonzero(table) > 0, name
        for i in range(len(origins)):
            assert table[i].tobytes() == ray_integral(p, origins[i], angles).tobytes(), (name, i)
    disk_only = ray_integral_table(Phantom(disks=(speck,)), np.zeros((1, 2)), a64)
    assert np.flatnonzero(disk_only[0]).tolist() == [5]


def test_ray_integral_table_matches_scalar_on_and_near_circle(rng):
    # from an origin on or just outside a circle the rounded cross product
    # can meet the disk along a ray that points away from it, outside its
    # angular shadow: the table must give such rays the same chord.
    # Origins on the circle (exactly, at 3-4-5 offsets, and up to rounding),
    # at r (1 +- 1e-12) and r (1 +- 1e-6), and out to 3 r
    exact = Disk((0.125, -0.25), 0.625, 1.0)
    exact_origins = exact.center + np.array([[3, 4], [-4, 3], [-3, -4], [4, -3], [0, 5], [-5, 0]]) / 8.0
    assert np.hypot(*(exact_origins - exact.center).T).tolist() == [exact.radius] * 6
    cases = [(exact, exact_origins)]
    for _ in range(40):
        d = Disk(rng.uniform(-0.5, 0.5, 2), rng.uniform(0.05, 0.5), rng.uniform(0.2, 1.5))
        scale = np.concatenate([[1.0, 1.0, 1.0, 1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6], rng.uniform(0.0, 3.0, 9)])
        t = rng.uniform(0.0, 2 * math.pi, scale.size)
        cases.append((d, d.center + d.radius * scale[:, None] * np.column_stack([np.sin(t), np.cos(t)])))
    for n_beta, n_psi in ((200, 200), (64, 63), (12, 7)):
        angles = _ray_lattice(n_beta, n_psi).angles
        for d, origins in cases:
            p = Phantom(disks=(d,))
            table = ray_integral_table(p, origins, angles)
            for i in range(len(origins)):
                assert table[i].tobytes() == ray_integral(p, origins[i], angles).tobytes(), (n_beta, n_psi, d, i)


def _exact_ray_integrals(phantom, origins, angles):
    """Ray integrals of a disk phantom along the float rays ``origins`` x
    (sin angles, cos angles): each chord exact in rational arithmetic up to
    60-digit square roots, rounded to the nearest double at the end."""
    ctx = Context(prec=60)
    dirs = [(Fraction(float(dx)), Fraction(float(dy))) for dx, dy in zip(np.sin(angles), np.cos(angles))]
    sums = {}
    for d in phantom.disks:
        r = Fraction(d.radius)
        for i, (ox, oy) in enumerate(origins):
            qx, qy = Fraction(d.center[0]) - Fraction(float(ox)), Fraction(d.center[1]) - Fraction(float(oy))
            for j, (dx, dy) in enumerate(dirs):
                # the float direction is not quite a unit vector: with n2 =
                # |dir|^2 the chord spans mid +- half in units of length
                n2 = dx * dx + dy * dy
                cross = qx * dy - qy * dx
                half2 = r * r - cross * cross / n2
                if half2 <= 0:
                    continue
                dot = qx * dx + qy * dy
                root = ctx.sqrt(ctx.divide(n2.numerator, n2.denominator))
                mid = ctx.divide(ctx.divide(dot.numerator, dot.denominator), root)
                half = ctx.sqrt(ctx.divide(half2.numerator, half2.denominator))
                length = ctx.subtract(max(ctx.add(mid, half), 0), max(ctx.subtract(mid, half), 0))
                sums[i, j] = sums.get((i, j), 0) + Fraction(d.density) * Fraction(length)
    out = np.zeros((len(origins), len(angles)))
    for (i, j), total in sums.items():
        out[i, j] = float(total)
    return out


def test_ray_integrals_against_exact_chords():
    # the camera's rays on fig4 and fig5: every 64th detector of the
    # 257-per-side camera, every ray direction of the 200 x 200 lattice.
    # The chord from the cross product is within a few ulp of the exact
    # one (measured 5.3e-16 on fig4, 6.1e-16 on fig5); one from a difference
    # of squares, mid^2 - (|q|^2 - r^2), errs by up to 4.4e-15 and 8.5e-15
    origins = detector_positions(CameraConfig(1.0, 257, 200, 200))[::64]
    angles = _ray_lattice(200, 200).angles
    for p in (centered_disk_phantom(), overlapping_disks_phantom()):
        err = np.abs(ray_integral_table(p, origins, angles) - _exact_ray_integrals(p, origins, angles))
        assert err.max() <= 2e-15, err.max()


def test_far_primitives_on_rays_and_lines():
    # 1e200 and more away a centre's squares overflow, so rays and lines
    # take their distance from it as a cross product or offset, capped
    # before it is squared. A ray of angle 0 points exactly along +y, so it
    # meets a blob straight above it; every other ray passes far off, and so
    # does every other line
    up = GaussianBlob((0.1, 1e200), 0.1, 1.0)
    far = Phantom(disks=(Disk((1e300, 0.0), 0.3, 1.0),), blobs=(up, GaussianBlob((1e200, -1e200), 0.1, 1.0)))
    origins = np.array([[0.1, 0.0], [0.0, 0.0]])
    angles = np.array([0.0, 0.3, math.pi])
    table = ray_integral_table(far, origins, angles)
    hit = math.sqrt(2.0 * math.pi) * 0.1
    assert table[0].tolist() == [pytest.approx(hit, rel=1e-15), 0.0, 0.0]
    assert table[1].tolist() == [pytest.approx(hit * math.exp(-0.5), rel=1e-15), 0.0, 0.0]
    for i in range(2):
        assert table[i].tobytes() == ray_integral(far, origins[i], angles).tobytes()
    # the line y = 0 runs through the far disk, y = 0.1 through the blob above
    lines = radon_analytic(far, np.array([0.0, 0.0, 0.0, 0.7]), np.array([0.0, 0.1, 0.5, 0.0]))
    assert lines.tolist() == [pytest.approx(0.6), pytest.approx(2 * math.sqrt(0.08)), 0.0, 0.0]
    assert rasterize(far, 16, 1.0).values.max() == 0.0
    # empty tables stay empty
    assert ray_integral_table(far, origins, np.zeros(0)).shape == (2, 0)
    assert ray_integral_table(far, np.zeros((0, 2)), angles).shape == (0, 3)


def test_radon_analytic_values():
    p = centered_disk_phantom()
    assert radon_analytic(p, 0.3, 0.0) == pytest.approx(1.0)  # diameter chord
    assert radon_analytic(p, 1.1, 0.3) == pytest.approx(2 * math.sqrt(0.25 - 0.09))
    assert radon_analytic(p, 0.0, 0.6) == 0.0
    blob = Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.2, 1.0),))
    # gaussian line integral: A sqrt(2 pi) sigma exp(-s^2 / (2 sigma^2))
    assert radon_analytic(blob, 0.7, 0.1) == pytest.approx(
        math.sqrt(2 * math.pi) * 0.2 * math.exp(-0.01 / 0.08)
    )


def test_radon_evenness(rng):
    p = random_phantom2(rng)
    thetas = rng.uniform(0, 2 * math.pi, 40)
    offs = rng.uniform(-1, 1, 40)
    assert np.allclose(
        radon_analytic(p, thetas + math.pi, -offs), radon_analytic(p, thetas, offs), atol=1e-12
    )


def test_radon_shift_rule(rng):
    p = random_phantom2(rng)
    t = np.array([0.3, -0.45])
    thetas = rng.uniform(0, 2 * math.pi, 20)
    offs = rng.uniform(-0.7, 0.7, 20)
    omega_dot_t = np.sin(thetas) * t[0] + np.cos(thetas) * t[1]
    assert np.allclose(
        radon_analytic(translated(p, t), thetas, offs + omega_dot_t),
        radon_analytic(p, thetas, offs),
        atol=1e-12,
    )


def test_radon_rotation_rule(rng):
    p = random_phantom2(rng)
    alpha = 0.83
    thetas = rng.uniform(0, 2 * math.pi, 20)
    offs = rng.uniform(-0.7, 0.7, 20)
    assert np.allclose(
        radon_analytic(rotated(p, alpha), thetas - alpha, offs),
        radon_analytic(p, thetas, offs),
        atol=1e-12,
    )


def _single_line_sums(primitive, angle, offsets, half_width):
    # _ramp_profiles on one row of unit weight at each signed distance t of
    # the primitive's center from the line, the line at Radon angle ``angle``
    normal = np.array([math.sin(angle), math.cos(angle)])
    p = Phantom(disks=(primitive,)) if isinstance(primitive, Disk) else Phantom(blobs=(primitive,))
    s = float(np.dot(primitive.center, normal)) - offsets
    return phantoms._ramp_profiles(p, np.array([angle]), s, np.array([1.0]), half_width)[0]


def test_line_sums_blob_ramp_against_fft():
    # the ramp |sigma| of the blob's line-integral profile by FFT on a fine,
    # long grid (2**18 samples at pitch 1/512). Periodic images of the ramped
    # profile's -mass / (pi s^2) tails shift it by about mass pi / (12 L^2),
    # 2e-6 here, so the bound is 1e-5 against a peak of 2 amp = 2.6.
    blob = GaussianBlob((0.2, -0.1), 0.25, 1.3)
    n, half = 2**18, 256.0
    s = -half + np.arange(n) * (2.0 * half / n)
    profile = radon_analytic(Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.25, 1.3),)), 0.0, s)
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=2.0 * half / n)
    ramped = np.fft.irfft(np.fft.rfft(profile) * k, n)
    at = n // 2 + np.arange(-1024, 1025, 32)  # t in [-2, 2] on grid points
    got = _single_line_sums(blob, 0.7, s[at], 1.0 / 128)
    assert np.abs(got - ramped[at]).max() <= 1e-5


@pytest.mark.parametrize("half_width", [1.0 / 128, 0.05, 0.5])
def test_line_sums_disk_ramp_against_hilbert_quadrature(half_width):
    # the pixel-averaged ramp (HP(t + d) - HP(t - d)) / (2 d), HP the Hilbert
    # transform of the chord profile P by principal-value quadrature. quad
    # is asked for 1e-12; dividing by 2d at d = 1/128 leaves about 1e-10, so
    # the bound is 1e-8 times the interior value 2 rho. d = 0.5 exceeds the
    # radius, so t - d also falls below -r.
    disk = Disk((-0.1, 0.2), 0.3, 0.8)
    chord = Phantom(disks=(Disk((0.0, 0.0), 0.3, 0.8),))

    def hilbert(t):
        # (1 / pi) p.v. int P(s) / (t - s) ds; quad's cauchy weight is 1 / (s - t)
        val = quad(lambda x: radon_analytic(chord, 0.0, x), -0.3, 0.3, weight="cauchy", wvar=t, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        return -val / math.pi

    # t +- d never lands on the quadrature endpoints +-r
    offsets = np.array([0.0, 0.1, -0.17, 0.29, -0.31, 0.3 + half_width / 2, 0.45, -0.83, 1.7])
    want = np.array([(hilbert(t + half_width) - hilbert(t - half_width)) / (2.0 * half_width) for t in offsets])
    got = _single_line_sums(disk, 2.1, offsets, half_width)
    assert np.abs(got - want).max() <= 1e-8 * 2.0 * 0.8


@pytest.mark.parametrize("half_width", [1e-3, 1e-2, 0.5])
def test_line_sums_disk_ramp_tail(half_width):
    # far from a unit disk at the origin H(x) = 1 / (2x) + 1 / (8x^3) +
    # O(x^-5), so the averaged ramp rho (H(x + d) - H(x - d)) / d is -rho [1
    # / (x^2 - d^2) + (3x^2 + d^2) / (4 (x^2 - d^2)^3)] to a relative
    # O(x^-4). Rounding x +- d alone errs by about eps x / d relative, so the
    # bound is 1e-15 x / d. The profile that subtracted sqrt(x^2 - 1) from
    # x erred by 1.2e-3 relative at x = 1e4 and 1.5e4 at 1e6, d = 0.01
    rho = 0.8
    x = np.concatenate([np.geomspace(1e4, 1e8, 13), -np.geomspace(1e4, 1e8, 5)])
    got = _single_line_sums(Disk((0.0, 0.0), 1.0, rho), 0.7, x, half_width)
    gap = x * x - half_width**2
    want = -rho * (1.0 / gap + (3.0 * x * x + half_width**2) / (4.0 * gap**3))
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(x) / half_width * np.abs(want))


def test_cone_analytic_2d():
    p = centered_disk_phantom()
    with pytest.raises(ValueError):
        cone_analytic_2d(p, (0, 0), 0.0, 0.0)
    with pytest.raises(ValueError):
        cone_analytic_2d(p, (0, 0), 0.0, math.pi)
    # from the center every V is two radii
    assert cone_analytic_2d(p, (0.0, 0.0), 1.2, 0.7) == pytest.approx(1.0)
    # generic: sum of the two branch rays
    u = (0.9, -0.3)
    got = cone_analytic_2d(p, u, 0.4, 0.9)
    want = ray_integral(p, u, 0.4 + 0.9) + ray_integral(p, u, 0.4 - 0.9)
    assert got == pytest.approx(float(want), abs=1e-13)


def test_cone_block_matches_pointwise(rng):
    p = random_phantom2(rng)
    u = rng.uniform(-1, 1, 2)
    block = cone_block_analytic(p, u, 6, 5)
    phis = axis_angles(6)
    psis = opening_midpoints(5)
    for j in (0, 3, 5):
        for k in (0, 2, 4):
            assert block[j, k] == pytest.approx(
                cone_analytic_2d(p, u, phis[j], psis[k]), abs=1e-13
            )
    # the camera lattice (400 distinct rays) and a non-commensurate one
    # (every ray distinct), at sampled entries
    for n_beta, n_psi in ((200, 200), (63, 256)):
        block = cone_block_analytic(p, u, n_beta, n_psi)
        assert block.shape == (n_beta, n_psi)
        j = rng.integers(0, n_beta, 40)
        k = rng.integers(0, n_psi, 40)
        want = cone_analytic_2d(p, u, axis_angles(n_beta)[j], opening_midpoints(n_psi)[k])
        assert np.abs(block[j, k] - want).max() <= 1e-13


@pytest.mark.parametrize("n_beta, n_psi", [(1, 2), (2, 2), (3, 2), (7, 5), (8, 12), (63, 256), (64, 255), (200, 200)])
def test_cone_block_matches_the_raw_rays(rng, n_beta, n_psi):
    # every entry against the two rays at the raw angles phi_j +- psi_k, on
    # lattices whose window stride b exceeds 1, or whose counts are odd or
    # tiny: the block reads the lattice's distinct rays through strided
    # views, and a wrong start, stride or turn shows here
    p = random_phantom2(rng)
    for u in (rng.uniform(-1, 1, 2), (0.0, 0.0)):
        block = cone_block_analytic(p, u, n_beta, n_psi)
        want = cone_analytic_2d(p, u, axis_angles(n_beta)[:, None], opening_midpoints(n_psi))
        assert block.shape == (n_beta, n_psi)
        assert np.abs(block - want).max() <= 1e-12 * np.abs(block).max()


def test_cone_block_memory_is_one_block():
    # a cold 200 x 10,000 block holds the block and two copies of the
    # lattice's 20,000 distinct rays (measured 1.04 blocks): no table of
    # the cone lattice is made besides the block, where two index tables
    # and the two gathers they fed took about 4 blocks
    blocks = []
    peak = traced_peak(lambda: blocks.append(cone_block_analytic(centered_disk_phantom(), (0.9, 0.1), 200, 10000)))
    assert peak < 1.25 * blocks[0].nbytes


def test_support_bounds(rng):
    for _ in range(10):
        p = random_phantom2(rng)
        h = support_halfwidth(p) + 1e-6
        t = rng.uniform(-h, h, 8)
        edges = [np.stack([t, np.full(8, v)], axis=-1) for v in (-h, h)]
        edges += [np.stack([np.full(8, v), t], axis=-1) for v in (-h, h)]
        assert np.abs(eval_phantom(p, np.concatenate(edges))).max() < 1e-7


def test_rasterize_disk_area():
    g = rasterize(centered_disk_phantom(), 128, 1.0)
    # mean * area of the frame approximates the disk mass pi r^2
    mass = g.values.mean() * 4.0
    assert mass == pytest.approx(math.pi * 0.25, rel=1e-3)
    assert g.values.max() <= 1.0 + 1e-12


def test_rasterize_orientation():
    p = Phantom(disks=(Disk((0.0, 0.75), 0.2, 1.0),))  # top of the frame
    g = rasterize(p, 32, 1.0)
    assert g.values[-1].sum() > 0.0  # +y content lands in the last row
    assert g.values[0].sum() == 0.0


# the per-sample raster that rasterize replaced: eval_phantom at every fine
# sample, in row bands of at most 2**20 samples, then the mean per pixel
_BAND_SAMPLES = 2**20


def _per_sample_band_path(phantom, n_px, half_extent, subsamples=4):
    fine = pixel_centers(n_px * subsamples, half_extent)
    pooled = np.empty((n_px, n_px))
    band = max(1, _BAND_SAMPLES // (n_px * subsamples * subsamples))
    for r0 in range(0, n_px, band):
        rows = pooled[r0 : r0 + band]
        X, Y = np.meshgrid(fine, fine[r0 * subsamples : (r0 + band) * subsamples])
        vals = eval_phantom(phantom, np.stack([X, Y], axis=-1))
        rows[:] = vals.reshape(rows.shape[0], subsamples, n_px, subsamples).mean(axis=(1, 3))
    return pooled


def _reference_counts(disk, n_px, half_extent, subsamples):
    # fine samples of each pixel inside the disk, by the pointwise test
    fine = pixel_centers(n_px * subsamples, half_extent)
    X, Y = np.meshgrid(fine, fine)
    inside = eval_phantom(Phantom(disks=(Disk(disk.center, disk.radius, 1.0),)), np.stack([X, Y], axis=-1))
    return inside.astype(np.int64).reshape(n_px, subsamples, n_px, subsamples).sum(axis=(1, 3))


def _raster_counts(disk, n_px, half_extent, subsamples):
    # at density s^2 the raster's value density / s^2 * count is the count;
    # the caller sets phantoms._SUBSAMPLES to s
    unit = Phantom(disks=(Disk(disk.center, disk.radius, float(subsamples**2)),))
    vals = rasterize(unit, n_px, half_extent).values
    counts = vals.astype(np.int64)
    assert np.array_equal(counts, vals)
    return counts


@pytest.mark.parametrize("n_px, subsamples", [(7, 1), (7, 3), (48, 4), (49, 3), (31, 1), (96, 4)])
def test_rasterize_disk_counts_exact(monkeypatch, n_px, subsamples):
    # odd and even sizes; disks crossing the frame edge, wholly outside it,
    # thinner than a fine spacing, covering the frame, and disks whose edge
    # passes exactly through fine samples, where only the exact test decides.
    # rasterize samples _SUBSAMPLES a pixel side; other counts are set here
    monkeypatch.setattr(phantoms, "_SUBSAMPLES", subsamples)
    rng = np.random.default_rng(7)
    fine = pixel_centers(n_px * subsamples, 1.0)
    pitch = fine[1] - fine[0]
    disks = [
        Disk((0.9, -0.2), 0.35, 1.0),
        Disk((-1.1, 1.05), 0.4, 1.0),
        Disk((1.6, 0.1), 0.3, 1.0),
        Disk((0.1, -0.3), 0.3 * pitch, 1.0),
        Disk((fine[1], fine[2]), 0.6 * pitch, 1.0),
        Disk((0.0, 0.0), 1.5, 1.0),
    ]
    for _ in range(6):
        i, j, k, m = rng.integers(0, n_px * subsamples, 4)
        r = math.hypot(fine[k] - fine[i], fine[m] - fine[j]) or pitch
        disks.append(Disk((fine[i], fine[j]), r, 1.0))
        disks.append(Disk(rng.uniform(-1.2, 1.2, 2), rng.uniform(0.01, 0.8), 1.0))
    for disk in disks:
        want = _reference_counts(disk, n_px, 1.0, subsamples)
        assert np.array_equal(_raster_counts(disk, n_px, 1.0, subsamples), want), disk


@pytest.mark.parametrize("n_px", [7, 128, 300, 512])
def test_rasterize_centered_disk_bit_identical(n_px):
    p = centered_disk_phantom()
    assert rasterize(p, n_px, 1.0).values.tobytes() == _per_sample_band_path(p, n_px, 1.0).tobytes()


def _mixed_bound(p):
    eps = np.finfo(float).eps
    return 4.0 * eps * (sum(abs(d.density) for d in p.disks) + sum(abs(b.amplitude) for b in p.blobs))


@pytest.mark.parametrize("n_px, subsamples", [(7, 1), (48, 3), (101, 4)])
def test_rasterize_mixed_within_rounding(monkeypatch, rng, n_px, subsamples):
    # each pixel sums the primitives in another order, and a blob's samples
    # are exp(a) exp(b) instead of exp(a + b); the bound is set from the dtype
    monkeypatch.setattr(phantoms, "_SUBSAMPLES", subsamples)
    fig5 = overlapping_disks_phantom()
    cases = [Phantom(disks=fig5.disks, blobs=(GaussianBlob((0.2, -0.3), 0.15, 0.8),))]
    for _ in range(8):
        cases.append(
            Phantom(
                disks=tuple(
                    Disk(rng.uniform(-1, 1, 2), rng.uniform(0.05, 0.6), rng.uniform(-2, 2))
                    for _ in range(rng.integers(0, 4))
                ),
                blobs=tuple(
                    GaussianBlob(rng.uniform(-1, 1, 2), rng.uniform(0.02, 0.5), rng.uniform(-2, 2))
                    for _ in range(rng.integers(1, 4))
                ),
            )
        )
    for p in cases:
        got = rasterize(p, n_px, 1.0).values
        want = _per_sample_band_path(p, n_px, 1.0, subsamples)
        assert np.abs(got - want).max() <= _mixed_bound(p)


def test_rasterize_peak_memory_at_most_band_path():
    # at 1024 px the band path's samples, coordinates and masks each fill a
    # 2**20-sample band; the counted raster keeps tables of one pixel row's
    # fine samples
    fig5 = overlapping_disks_phantom()
    p = Phantom(disks=fig5.disks, blobs=(GaussianBlob((0.2, -0.3), 0.15, 0.8),))
    peaks, out = [], []
    for fn in (lambda: rasterize(p, 1024, 1.0).values, lambda: _per_sample_band_path(p, 1024, 1.0)):
        peaks.append(traced_peak(lambda: out.append(fn())))
    assert peaks[0] <= peaks[1]
    assert np.abs(out[0] - out[1]).max() <= _mixed_bound(p)


def test_rasterize_rejects_bad_lattices():
    # the raster check rejects one pixel a side, and an extent whose span
    # squared overflows, before any sample is laid out
    with pytest.raises(ValueError):
        rasterize(centered_disk_phantom(), 1, 1.0)
    with pytest.raises(ValueError):
        rasterize(centered_disk_phantom(), 8, 1e200)


def test_parse_phantom_text():
    p = parse_phantom_text(
        """
        # comment line
        disk 0 0 0.5 1.0   # trailing comment
        gauss 0.1 -0.2 0.3 2.0
        """
    )
    assert len(p.disks) == 1 and len(p.blobs) == 1
    assert p.disks[0].radius == 0.5
    assert p.blobs[0].amplitude == 2.0
    assert parse_phantom_text("# nothing\n") == Phantom()
    with pytest.raises(ValueError):
        parse_phantom_text("disk 0 0 0.5\n")  # wrong arity
    with pytest.raises(ValueError):
        parse_phantom_text("square 0 0 1 1\n")
    with pytest.raises(ValueError):
        parse_phantom_text("disk a b c d\n")


def test_load_phantom_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("disk 0 0 0.5 1\n")
    assert load_phantom_file(path).disks[0].density == 1.0


def test_fig_phantoms():
    fig5 = overlapping_disks_phantom()
    assert eval_phantom(fig5, (0.4, 0.0)) == pytest.approx(1.0)  # lens region sums
    assert eval_phantom(fig5, (-0.3, 0.0)) == pytest.approx(0.3)
    assert eval_phantom(fig5, (0.7, 0.0)) == pytest.approx(0.7)
