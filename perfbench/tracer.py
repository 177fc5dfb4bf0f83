"""Span tracing of conetomo's public functions, from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper in
every loaded ``conetomo`` namespace that holds it, so calls made through the
package root, through an importing module or from inside the defining module
are all seen. Spans (name, start, end, parent span, run id) stay in memory;
``Tracer.write`` saves them when the run ends. A target that no longer exists
is recorded as absent instead of failing the run, and a counter that can no
longer read its call's arguments is recorded as a count error.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
from time import perf_counter

import numpy as np

from conetomo.geometry import axis_angles, opening_midpoints

TWO_PI = 2.0 * math.pi

IDENTITY_CHECKS = {
    "check_identity_psi_integral": "psi-integral",
    "check_identity_sine_weighted": "sine-weighted",
    "check_identity_bpr": "beta-psi-integral",
    "check_sph_harm_relation": "harmonic",
    "check_cone_radon_3d": "cone-radon-3d",
}


def _point(p) -> tuple:
    return tuple(float(v) for v in np.ravel(p))


# Counters read a call's bound arguments (and the file it wrote or read) and
# return (count name, value) records; "ray" and "ray-table" records go to the
# RayLedger.
def _lattice_rays(a):
    return [("ray", (a["phantom"], _point(a["vertex"]), ("lattice", int(a["n_beta"]), int(a["n_psi"]))))]


def _single_rays(a):
    return [("ray", (a["phantom"], _point(a["origin"]), ("angles", np.asarray(a["angle"], dtype=float))))]


def _table_rays(a):
    return [("ray-table", (a["phantom"], np.asarray(a["origins"], dtype=float), np.asarray(a["angles"], dtype=float)))]


def _riesz_px(a):
    return [("radon.riesz_apply_2d.px", int(a["image"].n_px) ** 2)]


def _backprojection_samples(a):
    return [("radon.backprojection.samples", int(a["n_px"]) ** 2 * int(a["sino"].n_theta))]


def _file_bytes(kind):
    return lambda a: [(f"formats.{kind}.bytes", os.path.getsize(a["path"]))]


def _asgeirsson_span(a):
    return f"cone.identity.asgeirsson-{a['n']}d"


def targets() -> list:
    """(module, function, span name or callable of the bound arguments,
    counter or None, wrap inside the defining module too)."""
    out = [
        ("phantoms", "cone_block_analytic", "phantoms.cone_block_analytic", _lattice_rays, True),
        # wrapped only where imported: the rays cone_block_analytic evaluates
        # through ray_integral stay in the cone block's self time, and this span
        # counts the identity checks' direct calls
        ("phantoms", "ray_integral", "phantoms.ray_integral", _single_rays, False),
        ("phantoms", "ray_integral_table", "phantoms.ray_integral_table", _table_rays, True),
        ("phantoms", "radon_analytic", "phantoms.radon_analytic", None, True),
        ("phantoms", "rasterize", "phantoms.rasterize", None, True),
        ("inversion", "invert_mu_weighted", "inversion.invert_mu_weighted", None, True),
        ("inversion", "invert_sine_weighted", "inversion.invert_sine_weighted", None, True),
        ("inversion", "compton_radon_sinogram", "inversion.compton_radon_sinogram", None, True),
        ("inversion", "cone_to_radon_even", "inversion.cone_to_radon_even", None, True),
        ("circle_ops", "funk_transform_s1", "circle_ops.funk_transform_s1", None, True),
        ("circle_ops", "beltrami_poly_apply", "circle_ops.beltrami_poly_apply", None, True),
        ("circle_ops", "funk_hecke_lambda", "circle_ops.funk_hecke_lambda", None, True),
        ("radon", "riesz_apply_2d", "radon.riesz_apply_2d", _riesz_px, True),
        ("radon", "fbp_radon_inversion", "radon.fbp_radon_inversion", None, True),
        ("radon", "backprojection", "radon.backprojection", _backprojection_samples, True),
        ("cone", "cone_forward_vertical", "cone.cone_forward_vertical", None, True),
        ("cone", "cone_forward_sinogram", "cone.cone_forward_sinogram", None, True),
        ("cone", "check_asgeirsson", _asgeirsson_span, None, True),
        ("cli", "main", "cli.main", None, True),
    ]
    out += [("cone", fn, f"cone.identity.{family}", None, True) for fn, family in IDENTITY_CHECKS.items()]
    for kind in ("write", "read"):
        out += [
            ("formats", f"{kind}_{what}", f"formats.{kind}", _file_bytes(kind), True)
            for what in ("image_raw", "cone_sinogram", "radon_sinogram")
        ]
    out.append(("formats", "write_pgm16", "formats.write", _file_bytes("write"), True))
    return out


def _angle_keys(angles: np.ndarray) -> np.ndarray:
    # directions matched on a 1e-12 grid of turns, the resolution the
    # package's own ray dedupe uses
    turns = np.rint(np.mod(np.ravel(angles), TWO_PI) / TWO_PI * 1e12).astype(np.int64)
    return turns % 10**12


class RayLedger:
    """Rays the phantoms layer evaluates, and how many were distinct.

    A ray is a (phantom, origin, direction) triple. Single-origin calls are
    deduplicated per origin; ray tables per (phantom, angle set) over their
    origins. A ray shared between a table and a single-origin call counts twice.
    """

    def __init__(self):
        self.evaluated = 0
        self._lattices = {}
        self._single = {}
        self._tables = {}

    def _lattice(self, n_beta: int, n_psi: int) -> frozenset:
        # the cone block's lattice, from the package's own helpers: rays at
        # axis +- opening
        key = (n_beta, n_psi)
        if key not in self._lattices:
            phis, psis = axis_angles(n_beta), opening_midpoints(n_psi)
            ang = np.concatenate([(phis[:, None] + psis).ravel(), (phis[:, None] - psis).ravel()])
            self._lattices[key] = frozenset(_angle_keys(ang).tolist())
        return self._lattices[key]

    def add(self, phantom, origin: tuple, spec):
        if spec[0] == "lattice":
            _, n_beta, n_psi = spec
            self.evaluated += 2 * n_beta * n_psi
            keys = self._lattice(n_beta, n_psi)
        else:
            self.evaluated += spec[1].size
            keys = frozenset(_angle_keys(spec[1]).tolist())
        self._single.setdefault((phantom, origin), []).append(keys)

    def add_table(self, phantom, origins: np.ndarray, angles: np.ndarray):
        org = np.ascontiguousarray(origins.reshape(-1, 2))
        self.evaluated += org.shape[0] * angles.size
        uniq = np.unique(_angle_keys(angles))
        _, seen = self._tables.setdefault((phantom, uniq.tobytes()), (uniq.size, set()))
        seen.update(row.tobytes() for row in org)

    def distinct(self) -> int:
        total = 0
        for sets in self._single.values():
            if all(s is sets[0] for s in sets):
                total += len(sets[0])
            else:
                total += len(frozenset().union(*sets))
        return total + sum(n * len(seen) for n, seen in self._tables.values())


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list = []

    def install(self):
        self.absent = []
        pkg = sys.modules["conetomo"]
        modules = [m for n, m in list(sys.modules.items()) if n == "conetomo" or n.startswith("conetomo.")]
        for mod_name, fn_name, span, counter, in_home in targets():
            home = getattr(pkg, mod_name, None)
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, span, counter, f"{mod_name}.{fn_name}")
            for mod in modules:
                if mod is home and not in_home:
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, fn, span, counter, fallback: str):
        tracer = self
        sig = inspect.signature(fn) if (counter or callable(span)) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.run_id is None:
                return fn(*args, **kwargs)
            name, bound = span, None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if callable(span):
                    try:
                        name = span(bound.arguments)
                    except KeyError as exc:
                        tracer.count_errors.append(f"{fallback}: span name needs {exc!r}")
                        name = fallback
            result = tracer._timed(name, fn, args, kwargs)
            if counter is not None:
                try:
                    tracer.counts.extend(counter(bound.arguments))
                except (KeyError, TypeError, AttributeError, ValueError, OSError) as exc:
                    tracer.count_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.run_id)

    def run(self, run_id: str, fn):
        """Call ``fn`` under a root span named ``pass``; returns its result
        and the pass's per-layer metrics (see ``layer_metrics``)."""
        self.run_id = run_id
        root = len(self.spans)
        self.counts = []
        try:
            result = self._timed("pass", fn, (), {})
        finally:
            self.run_id = None
        return result, layer_metrics(self.spans[root:], root, self.counts)

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list, root: int, counts: list) -> dict:
    """Per-layer self times, call counts and work counts of one traced pass.

    ``spans[0]`` is the pass's root span, whose id is ``root``; parent ids are
    absolute span ids. Self time is a span's duration minus the time its
    child spans cover; the root's self time is the unattributed remainder.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans[1:]:
        child_time[parent - root] += end - start
    out: dict = {"trace.wall_s": spans[0][2] - spans[0][1], "trace.spans": len(spans) - 1}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s = (end - start) - child_time[i]
        if i == 0:
            out["trace.unattributed_s"] = self_s
            continue
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if name.startswith("cone.identity."):
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start)
    ledger = RayLedger()
    for key, value in counts:
        if key == "ray":
            ledger.add(*value)
        elif key == "ray-table":
            ledger.add_table(*value)
        else:
            out[key] = out.get(key, 0) + value
    out["phantoms.rays"] = ledger.evaluated
    out["phantoms.rays_unique_ratio"] = ledger.distinct() / ledger.evaluated if ledger.evaluated else 0.0
    return out
