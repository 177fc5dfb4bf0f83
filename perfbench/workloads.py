"""Benchmark workloads: seeded inputs, warm-up, timed pass, checks.

BENCHMARK.json gates camera, direct and cli-pipeline; identities runs by name.

Every workload calls conetomo through module attributes at call time, so the
tracer's wrappers are seen. Each check is (name, passed, detail); the bounds
are those of tests/test_acceptance.py, with the masks of criteria 3 and 4
following the seeded rigid motion.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import warnings

import numpy as np

from conetomo import cli, cone, formats, inversion, phantoms
from conetomo.geometry import pixel_centers

CAMERA = (1.0, 257, 200, 200)  # half extent, detectors per side, axes, openings
IDENTITY_GATE = 1e-3
IDENTITY_ROWS = {
    "psi-integral": 10,
    "sine-weighted": 10,
    "beta-psi-integral": 10,
    "harmonic": 100,
    "asgeirsson-2d": 20,
    "asgeirsson-3d": 20,
    "cone-radon-3d": 30,
}


def rel_l2(got, want) -> float:
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / np.linalg.norm(want))


def rigid_motion(rng):
    """A rotation angle in [0, 2 pi) and a shift of length at most 0.1."""
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    length = 0.1 * math.sqrt(float(rng.uniform()))
    heading = float(rng.uniform(0.0, 2.0 * math.pi))
    return angle, (length * math.sin(heading), length * math.cos(heading))


def moved(phantom, motion):
    angle, shift = motion
    return phantoms.translated(phantoms.rotated(phantom, angle), shift)


def _moved_point(point, motion):
    angle, shift = motion
    c, s = math.cos(angle), math.sin(angle)
    return (c * point[0] - s * point[1] + shift[0], s * point[0] + c * point[1] + shift[1])


def _grid_bytes(grids):
    return [g.values.tobytes() for g in grids]


def _radius_maps(n_px, half_extent, centers):
    gx, gy = np.meshgrid(pixel_centers(n_px, half_extent), pixel_centers(n_px, half_extent))
    return [np.hypot(gx - cx, gy - cy) for cx, cy in centers]


class Camera:
    """compton_reconstruct of fig4 and fig5 after one seeded rigid motion."""

    def __init__(self, seed, workdir):
        self.motion = rigid_motion(np.random.default_rng(seed))
        self.fig4 = moved(phantoms.centered_disk_phantom(), self.motion)
        self.fig5 = moved(phantoms.overlapping_disks_phantom(), self.motion)
        self.cam = inversion.CameraConfig(*CAMERA)

    def warm_up(self):
        # fig4 with 64 detectors instead of 1024, but the timed passes' cone
        # lattice, sinogram lattice (100 x 257) and raster. Without the full
        # sinogram lattice the first timed pass took 4.63 million page faults
        # against 3.95 million later; with it, the first pass takes 3.95
        # million too. The small camera leaves holes in the sinogram.
        small = inversion.CameraConfig(CAMERA[0], 17, CAMERA[2], CAMERA[3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            inversion.compton_reconstruct(self.fig4, small, 256, 1.0, CAMERA[2] // 2, CAMERA[1])

    def run(self):
        return [inversion.compton_reconstruct(p, self.cam, 256, 1.0) for p in (self.fig4, self.fig5)]

    fingerprint = staticmethod(_grid_bytes)

    def check(self, out):
        fig4, fig5 = out
        px = fig4.pixel_size
        (r,) = _radius_maps(256, 1.0, [_moved_point((0.0, 0.0), self.motion)])
        interior = float(fig4.values[r <= 0.5 - 3 * px].mean())
        outside = float(np.percentile(np.abs(fig4.values[r >= 0.5 + 3 * px]), 99))
        checks = [
            ("fig4 interior mean", abs(interior - 1.0) <= 0.05, f"{interior:.4f}"),
            ("fig4 outside p99", outside <= 0.05, f"{outside:.4f}"),
        ]
        r1, r2 = _radius_maps(256, 1.0, [_moved_point(c, self.motion) for c in ((0.0, 0.0), (0.5, 0.0))])
        m = 3 * fig5.pixel_size
        regions = {
            0.30: (r1 <= 0.5 - m) & (r2 >= 0.3 + m),
            0.70: (r2 <= 0.3 - m) & (r1 >= 0.5 + m),
            1.00: (r1 <= 0.5 - m) & (r2 <= 0.3 - m),
        }
        for want, mask in regions.items():
            got = float(fig5.values[mask].mean())
            checks.append((f"fig5 plateau {want:.2f}", abs(got - want) <= 0.07, f"{got:.4f}"))
        err = max(
            rel_l2(g.values, phantoms.rasterize(p, 256, 1.0).values)
            for g, p in ((fig4, self.fig4), (fig5, self.fig5))
        )
        return checks, err


class Direct:
    """The two direct weighted routes on a seeded Gaussian blob at 128 px."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        center = tuple(float(v) for v in rng.uniform(-0.1, 0.1, 2))
        sigma = float(rng.uniform(0.2, 0.3))
        self.blob = phantoms.Phantom(blobs=(phantoms.GaussianBlob(center, sigma, 1.0),))

    def _routes(self, n_px):
        return [
            inversion.invert_mu_weighted(self.blob, n_px, 1.0, inversion.MuWeight.uniform(64), 256),
            inversion.invert_sine_weighted(self.blob, n_px, 1.0, 64, 256),
        ]

    def warm_up(self):
        # reduced size is enough here: after it, the first 128-px pass takes
        # the same number of page faults as later ones, to within 1%
        self._routes(16)

    def run(self):
        return self._routes(128)

    fingerprint = staticmethod(_grid_bytes)

    def check(self, out):
        thm2, thm6 = out
        truth = phantoms.rasterize(self.blob, 128, 1.0).values
        errs = {"thm2-uniform": rel_l2(thm2.values, truth), "thm6": rel_l2(thm6.values, truth)}
        pair = rel_l2(thm2.values, thm6.values)
        checks = [(f"{k} rel L2", v <= 0.05, f"{v:.4f}") for k, v in errs.items()]
        checks.append(("thm2 vs thm6 rel L2", pair <= 0.03, f"{pair:.4f}"))
        return checks, max(errs.values())


class Identities:
    """identity_suite(seed, 10), gated at 1e-3 per row."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def warm_up(self):
        # one phantom through every family but harmonic, whose code paths the
        # beta-psi-integral family already runs
        for name in cone.IDENTITY_NAMES:
            if name != "harmonic":
                cone.identity_suite(self.seed, 1, which=name)

    def run(self):
        return cone.identity_suite(self.seed, 10)

    @staticmethod
    def fingerprint(out):
        return [(r.identity, r.case, r.lhs, r.rhs, r.rel_err) for r in out]

    def check(self, out):
        rows = {}
        for r in out:
            rows[r.identity] = rows.get(r.identity, 0) + 1
        checks = [
            (f"{name} rows", rows.get(name, 0) == want, f"{rows.get(name, 0)} of {want}")
            for name, want in IDENTITY_ROWS.items()
        ]
        checks += [
            (f"{r.identity} {r.case}", r.rel_err <= IDENTITY_GATE, f"{r.rel_err:.3e}") for r in out
        ]
        return checks, max(r.rel_err for r in out)


class CliPipeline:
    """conetomo.cli.main in-process on a seeded fig5 phantom file."""

    STEPS = (
        ("phantom", "--npx", "1024"),
        ("forward", "--perside", "65", "--nbeta", "200", "--npsi", "200"),
        ("forward", "--method", "radon"),
        ("reconstruct", "--method", "fbp", "--npx", "512", "--ntheta", "720", "--ns", "1025"),
    )

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.phantom = moved(phantoms.overlapping_disks_phantom(), rigid_motion(rng))
        self.picks = rng.choice(4 * (65 - 1), 4, replace=False)
        os.makedirs(workdir, exist_ok=True)
        self.phantom_file = os.path.join(workdir, "phantom.txt")
        with open(self.phantom_file, "w", encoding="utf-8") as fh:
            for d in self.phantom.disks:
                fh.write(f"disk {d.center[0]!r} {d.center[1]!r} {d.radius!r} {d.density!r}\n")
        self.out = os.path.join(workdir, "run")

    def warm_up(self):
        # one full pass, into the directory the timed passes overwrite
        self.run()

    def run(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command, *flags in self.STEPS:
                argv = [command, "--phantom", self.phantom_file, "--out", self.out, *flags]
                codes.append(cli.main(argv))
        return codes, formats.read_image_raw(os.path.join(self.out, "recon.raw"))

    @staticmethod
    def fingerprint(out):
        return [out[0], out[1].values.tobytes()]

    def check(self, out):
        codes, recon = out
        checks = [(f"exit code of {step[0]} {step[1]}", code == 0, str(code)) for step, code in zip(self.STEPS, codes)]
        sino = formats.read_cone_sinogram(os.path.join(self.out, "cone.sg"))
        loaded = phantoms.load_phantom_file(self.phantom_file)
        want_verts = inversion.detector_positions(inversion.CameraConfig(1.0, 65, 200, 200))
        checks.append(("cone.sg vertices bit-exact", sino.vertices.tobytes() == want_verts.tobytes(), f"{sino.vertices.shape[0]} vertices"))
        for i in self.picks:
            want = phantoms.cone_block_analytic(loaded, want_verts[i], 200, 200)
            checks.append((f"cone.sg block {i} bit-exact", sino.values[i].tobytes() == want.tobytes(), ""))
        with open(os.path.join(self.out, "report.csv"), newline="", encoding="utf-8") as fh:
            reported = float(list(csv.reader(fh))[1][2])
        truth = phantoms.rasterize(loaded, recon.n_px, recon.half_extent)
        denom = float(np.linalg.norm(truth.values))
        again = float(np.linalg.norm(recon.values - truth.values)) / denom
        # the CLI computed report.csv from its in-memory raster; the same
        # formula on the read-back raster matches only if every pixel came back
        checks.append(("recon.raw read-back bit-exact", again == reported and recon.n_px == 512, f"{again!r} vs {reported!r}"))
        return checks, reported


WORKLOADS = {
    "camera": Camera,
    "direct": Direct,
    "identities": Identities,
    "cli-pipeline": CliPipeline,
}
