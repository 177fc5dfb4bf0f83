"""Acceptance gate: one test per shipped claim, with the tolerances pinned.

Each test prints a single summary line with the measured numbers; the pytest
verdict for the test is the pass/fail line for that criterion.
"""

import math
import time

import numpy as np
import pytest

from conetomo.circle_ops import (
    CircleFunction,
    beltrami_poly_apply,
    funk_transform_s1,
)
from conetomo.cone import identity_suite, random_phantom
from conetomo.formats import (
    read_cone_sinogram,
    read_radon_sinogram,
    write_cone_sinogram,
    write_radon_sinogram,
)
from conetomo.geometry import ConeSinogram, RadonSinogram, TWO_PI, pixel_centers
from conetomo.inversion import (
    CameraConfig,
    MuWeight,
    compton_reconstruct,
    cone_to_radon_even,
    detector_positions,
    invert_mu_weighted,
    invert_sine_weighted,
)
from conetomo.phantoms import (
    GaussianBlob,
    Phantom,
    centered_disk_phantom,
    cone_block_analytic,
    overlapping_disks_phantom,
    radon_analytic,
    rasterize,
    rotated,
    translated,
)

from conftest import cone_analytic_2d, cosine_kernel_eigenvalues, rel_l2
from test_circle_ops import cosine_transform_s1


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rows = identity_suite(seed=0, count=10)
    elapsed = time.perf_counter() - t0
    worst = max(r.rel_err for r in rows)
    by_name = {}
    for r in rows:
        by_name[r.identity] = by_name.get(r.identity, 0) + 1
    print(
        f"criterion 1: {len(rows)} identity rows, worst rel_err {worst:.2e}, "
        f"{elapsed:.1f} s"
    )
    assert by_name == {
        "psi-integral": 10,
        "sine-weighted": 10,
        "beta-psi-integral": 10,
        "harmonic": 100,
        "asgeirsson-2d": 20,
        "asgeirsson-3d": 20,
        "cone-radon-3d": 30,
    }
    assert worst <= 1e-3
    assert elapsed < 300.0


def test_criterion_2_spectral_suite():
    angles = np.arange(512) * (TWO_PI / 512)
    worst_even = 0.0
    for m in range(0, 10, 2):
        f = CircleFunction(np.cos(m * angles + 0.21))
        lam = cosine_kernel_eigenvalues(m + 1)[m]
        out = cosine_transform_s1(f)
        worst_even = max(worst_even, np.max(np.abs(out.samples - lam * f.samples)) / abs(lam))
    worst_odd = 0.0
    for m in (1, 3, 5, 7):
        out = cosine_transform_s1(CircleFunction(np.sin(m * angles)))
        worst_odd = max(worst_odd, float(np.max(np.abs(out.samples))))
    rng = np.random.default_rng(2)
    f = np.zeros(512)
    for m in range(0, 34, 2):
        f += rng.normal() * np.cos(m * angles) + rng.normal() * np.sin(m * angles)
    comp = -2 * math.pi * beltrami_poly_apply(
        funk_transform_s1(cosine_transform_s1(CircleFunction(f))), n=2, r=1
    ).samples
    comp_err = float(np.max(np.abs(comp - f)) / np.max(np.abs(f)))
    print(
        f"criterion 2: eigenvector {worst_even:.2e}, odd annihilation {worst_odd:.2e}, "
        f"composite identity {comp_err:.2e}"
    )
    assert worst_even <= 1e-6
    assert worst_odd <= 1e-10
    assert comp_err <= 1e-6


def test_criterion_3_fig4_compton():
    t0 = time.perf_counter()
    cam = CameraConfig(1.0, 257, 200, 200)
    grid = compton_reconstruct(centered_disk_phantom(), cam, 256, 1.0)
    elapsed = time.perf_counter() - t0
    c = pixel_centers(256, 1.0)
    gx, gy = np.meshgrid(c, c)
    r = np.hypot(gx, gy)
    px = grid.pixel_size
    # radial masks: erosion/dilation of a centered disk by 3 px
    interior_mean = float(grid.values[r <= 0.5 - 3 * px].mean())
    outside_p99 = float(np.percentile(np.abs(grid.values[r >= 0.5 + 3 * px]), 99))
    print(
        f"criterion 3: interior mean {interior_mean:.4f}, outside p99 {outside_p99:.4f}, "
        f"{elapsed:.1f} s"
    )
    assert abs(interior_mean - 1.0) <= 0.05
    assert outside_p99 <= 0.05
    assert elapsed < 900.0


def test_criterion_4_fig5_plateaus():
    cam = CameraConfig(1.0, 257, 200, 200)
    grid = compton_reconstruct(overlapping_disks_phantom(), cam, 256, 1.0)
    c = pixel_centers(256, 1.0)
    gx, gy = np.meshgrid(c, c)
    r1 = np.hypot(gx, gy)
    r2 = np.hypot(gx - 0.5, gy)
    m = 3 * grid.pixel_size
    regions = {
        0.30: (r1 <= 0.5 - m) & (r2 >= 0.3 + m),
        0.70: (r2 <= 0.3 - m) & (r1 >= 0.5 + m),
        1.00: (r1 <= 0.5 - m) & (r2 <= 0.3 - m),
    }
    means = {want: float(grid.values[mask].mean()) for want, mask in regions.items()}
    print(
        "criterion 4: plateaus "
        + ", ".join(f"{got:.4f} (target {want})" for want, got in means.items())
    )
    for want, got in means.items():
        assert abs(got - want) <= 0.07


def test_criterion_5_direct_inversions():
    blob = Phantom(blobs=(GaussianBlob((0.0, 0.0), 0.25, 1.0),))
    truth = rasterize(blob, 128, 1.0)
    recs = {
        "thm2-uniform": invert_mu_weighted(blob, 128, 1.0, MuWeight.uniform(64), 256),
        "thm2-delta": invert_mu_weighted(blob, 128, 1.0, MuWeight.delta(64), 256),
        "thm6": invert_sine_weighted(blob, 128, 1.0, 64, 256),
    }
    errs = {name: rel_l2(g.values, truth.values) for name, g in recs.items()}
    pair = max(
        rel_l2(recs["thm2-uniform"].values, recs["thm6"].values),
        rel_l2(recs["thm2-delta"].values, recs["thm6"].values),
        rel_l2(recs["thm2-uniform"].values, recs["thm2-delta"].values),
    )
    print(
        "criterion 5: "
        + ", ".join(f"{k} {v:.4f}" for k, v in errs.items())
        + f", worst pairwise {pair:.4f}"
    )
    assert all(v <= 0.05 for v in errs.values())
    assert pair <= 0.03


def test_criterion_6_invariances():
    rng = np.random.default_rng(6)
    worst_even = worst_shift = worst_rot = 0.0
    for _ in range(100):
        p = random_phantom(rng)
        u = rng.uniform(-1, 1, 2)
        phi = rng.uniform(0, TWO_PI)
        psi = rng.uniform(0.05, math.pi - 0.05)
        base = cone_analytic_2d(p, u, phi, psi)
        scale = 1.0 + abs(base)
        worst_even = max(
            worst_even, abs(base - cone_analytic_2d(p, u, phi + math.pi, math.pi - psi)) / scale
        )
        t = rng.uniform(-0.5, 0.5, 2)
        worst_shift = max(
            worst_shift, abs(base - cone_analytic_2d(translated(p, t), u + t, phi, psi)) / scale
        )
        a = rng.uniform(0, TWO_PI)
        ca, sa = math.cos(a), math.sin(a)
        ru = np.array([ca * u[0] - sa * u[1], sa * u[0] + ca * u[1]])
        worst_rot = max(
            worst_rot, abs(base - cone_analytic_2d(rotated(p, a), ru, phi - a, psi)) / scale
        )
    print(
        f"criterion 6: evenness {worst_even:.2e}, shift {worst_shift:.2e}, "
        f"rotation {worst_rot:.2e} over 100 configs"
    )
    assert worst_even <= 1e-10
    assert worst_shift <= 1e-12
    assert worst_rot <= 1e-10


def _tangency_angles(phantom, u):
    """Axis angles where the line through u with normal (sin a, cos a) is
    tangent to one of the phantom's disks; the oracle has kinks there."""
    out = []
    for d in phantom.disks:
        q = np.asarray(u, dtype=float) - np.asarray(d.center)
        qn = float(np.hypot(q[0], q[1]))
        if qn <= d.radius:
            continue
        base = math.atan2(q[0], q[1])
        for sr in (d.radius, -d.radius):
            da = math.acos(sr / qn)
            out.extend([(base + da) % TWO_PI, (base - da) % TWO_PI])
    return np.asarray(out)


def test_criterion_7_cone_to_radon_oracle():
    # 20 well-posed random (detector, axis-angle) pairs per phantom: the pair
    # must carry signal (|oracle| >= 0.2 max) and sit at least 3.5 lattice
    # cells from the oracle's tangency kinks, which a 200-sample band limit
    # cannot represent pointwise.
    rng = np.random.default_rng(7)
    cam = CameraConfig(1.0, 257, 200, 200)
    dets = detector_positions(cam)
    phis = np.arange(200) * (TWO_PI / 200)
    cell = TWO_PI / 200
    worst = 0.0
    for phantom in (centered_disk_phantom(), overlapping_disks_phantom()):
        accepted = 0
        while accepted < 20:
            u = dets[rng.integers(0, len(dets))]
            want = radon_analytic(phantom, phis, np.sin(phis) * u[0] + np.cos(phis) * u[1])
            kinks = _tangency_angles(phantom, u)
            dist = np.min(
                np.abs((phis[:, None] - kinks[None, :] + math.pi) % TWO_PI - math.pi), axis=1
            )
            ok = (np.abs(want) >= 0.2 * np.abs(want).max()) & (dist >= 3.5 * cell)
            candidates = np.flatnonzero(ok)
            if candidates.size == 0:
                continue
            j = int(candidates[rng.integers(0, candidates.size)])
            got = cone_to_radon_even(cone_block_analytic(phantom, u, 200, 200))
            worst = max(worst, abs(got[j] - want[j]) / abs(want[j]))
            accepted += 1
    print(f"criterion 7: worst rel err {worst:.2e} over 40 sampled pairs")
    assert worst <= 1e-2


def test_criterion_8_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    ok = 0
    for trial in range(10):
        r = RadonSinogram(5, 9, float(rng.uniform(0.5, 2.0)), rng.standard_normal((5, 9)))
        pr = tmp_path / f"r{trial}.sg"
        write_radon_sinogram(pr, r)
        rb = read_radon_sinogram(pr)
        assert rb.values.tobytes() == r.values.tobytes()
        c = ConeSinogram(rng.uniform(-1, 1, (4, 2)), 8, 6, rng.standard_normal((4, 8, 6)))
        pc = tmp_path / f"c{trial}.sg"
        write_cone_sinogram(pc, c)
        cb = read_cone_sinogram(pc)
        assert cb.values.tobytes() == c.values.tobytes()
        assert cb.vertices.tobytes() == c.vertices.tobytes()
        ok += 1
    print(f"criterion 8: {ok} randomized write/read cycles bit-exact")
    assert ok == 10
