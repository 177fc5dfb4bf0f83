"""Command-line driver.

Subcommands: phantom (rasterize), forward (cone or radon sinogram),
reconstruct (thm2 / thm6 / compton / fbp), verify (identity checks), lambda
(zonal-kernel eigenvalue table). Each takes flags plus an optional plain-text
config file of ``key = value`` lines; flags override the file, and a run
that completes (exit 0 or 1) echoes its effective settings to ``run.cfg`` in
the output directory. Exit codes: 0 success, 1 a checked tolerance failed, 2
usage or config error (a lattice too large to allocate included), which
leaves no ``run.cfg`` (products may remain when ``run.cfg`` itself could not
be written). The output directory is made as the first product is opened,
so a run rejected before that leaves none.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

import numpy as np

from .circle_ops import funk_hecke_lambda
from .cone import cone_forward_sinogram, identity_suite
from .formats import (
    write_cone_sinogram,
    write_image_raw,
    write_pgm16,
    write_radon_sinogram,
)
from .geometry import RadonSinogram, _check_cone_lattice, _check_extent, _check_offset_range, _check_radon_lattice, _frozen, sphere_area
from .inversion import (
    CameraConfig,
    MuWeight,
    compton_reconstruct,
    detector_positions,
    invert_mu_weighted,
    invert_sine_weighted,
)
from .phantoms import _check_line_integrals, _line_reach, load_phantom_file, radon_analytic, rasterize
from .radon import _ROW_BUDGET, _Rows, _filter_gain, fbp_radon_inversion

# Each subcommand's one-line help and options in flag order, ``key: (type,
# default, help)``: flag ``--key`` and config key ``key``, both converted by
# ``type``. Every subcommand takes ``--out`` and ``--config`` first; only
# ``--config``, which names the file itself, is not a config key.
_OUT = (str, "out", "output directory (default: out)")
_PHANTOM = (str, None, "phantom description file")
_OPTIONS = {
    "phantom": ("rasterize a phantom file to raw + PGM", {
        "phantom": _PHANTOM,
        "npx": (int, 256, "raster side in pixels"),
        "extent": (float, 1.0, "raster half extent"),
    }),
    "forward": ("write a cone or radon sinogram", {
        "phantom": _PHANTOM,
        "method": (str, "cone", "cone or radon"),
        "extent": (float, 1.0, "camera half extent"),
        "nbeta": (int, 200, "cone axis-angle count"),
        "npsi": (int, 200, "cone opening-angle count"),
        "perside": (int, 257, "detectors per camera side"),
        "vertex": (str, None, "single cone vertex 'X,Y' instead of the camera boundary"),
        "ntheta": (int, 200, "radon angle count"),
        "ns": (int, 257, "radon offset count"),
        "smax": (float, None, "radon offset half range"),
    }),
    "reconstruct": ("reconstruct and report rel. L2 error", {
        "phantom": _PHANTOM,
        "method": (str, "compton", "thm2|thm6|compton|fbp (aliases mu-weighted, sine-weighted)"),
        "npx": (int, None, "raster side in pixels"),
        "extent": (float, 1.0, "raster / camera half extent"),
        "nbeta": (int, None, "cone axis-angle count"),
        "npsi": (int, None, "cone opening-angle count"),
        "perside": (int, 257, "detectors per camera side"),
        "ntheta": (int, None, "radon angle count (compton takes nbeta / 2)"),
        "ns": (int, None, "radon offset count"),
        "smax": (float, None, "radon offset half range"),
        "threshold": (float, None, "fail (exit 1) if rel. L2 exceeds this"),
    }),
    "verify": ("run integral-identity checks", {
        "seed": (int, 0, "random phantom seed"),
        "count": (int, 10, "random phantoms per identity"),
        "identity": (str, None, "restrict to one identity family"),
    }),
    "lambda": ("tabulate zonal-kernel eigenvalues", {
        "n": (int, 2, "sphere dimension parameter (2 or 3)"),
        "mmax": (int, 8, "largest harmonic degree"),
    }),
}

# cone values made and written at once by ``forward --method cone``: 13
# vertices of a 200 x 200 lattice, 4 MB
_FORWARD_BUDGET = 2**19

_METHOD_ALIASES = {"mu-weighted": "thm2", "sine-weighted": "thm6"}

# a comment starts at a '#' that begins the line or follows whitespace, so a
# value such as a path may itself contain '#'
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _config_value(value) -> str:
    """``value`` as written to a config file: as is, or as a JSON string
    where the plain text would not read back as itself."""
    text = str(value)
    if text != text.strip() or _COMMENT.search(text) or re.search('[\r\n]|^"', text):
        return json.dumps(text)
    return text


def _read_config_file(path) -> dict:
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq or _COMMENT.search(key):
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            try:
                # a quoted value is one JSON string, with no comment after it
                val = json.loads(val) if val.lstrip().startswith('"') else _COMMENT.sub("", val, count=1).strip()
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad quoted value: {exc}") from None
            table[key.strip().replace("-", "_")] = val
    return table


def _merge_config(args: argparse.Namespace, command: str) -> dict:
    options = {"out": _OUT, **_OPTIONS[command][1]}
    cfg = {key: default for key, (_, default, _) in options.items()}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in options:
                raise ValueError(f"unknown config key {key!r} for command {command!r}")
            try:
                cfg[key] = options[key][0](raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _product(cfg: dict, name: str) -> str:
    """Path of the product ``name`` in the output directory, which is made
    here, as a product is about to be opened: a run rejected before its
    first product leaves no directory behind."""
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], name)


def _write_run_cfg(cfg: dict):
    lines = [f"{key} = {_config_value(cfg[key])}\n" for key in sorted(cfg) if cfg[key] is not None]
    with open(_product(cfg, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _require_phantom(cfg: dict):
    if not cfg["phantom"]:
        raise ValueError("a phantom file is required (--phantom FILE)")
    return load_phantom_file(cfg["phantom"])


def _write_raster_products(cfg: dict, stem: str, grid):
    write_image_raw(_product(cfg, stem + ".raw"), grid)
    vmin, vmax = write_pgm16(_product(cfg, stem + ".pgm"), grid.values)
    with open(_product(cfg, stem + "_scale.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["field", "value"])
        writer.writerow(["n_px", grid.n_px])
        writer.writerow(["half_extent", repr(grid.half_extent)])
        writer.writerow(["vmin", repr(vmin)])
        writer.writerow(["vmax", repr(vmax)])


def _parse_vertex(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"vertex must be 'X,Y', got {raw!r}")
    x, y = float(parts[0]), float(parts[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"--vertex coordinates must be finite, got {raw!r}")
    return x, y


def _or(value, default):
    """The configured value, or the default if none was given (an explicit 0 stays)."""
    return default if value is None else value


def _radon_s_max(cfg: dict) -> float:
    """The offset half range: ``--smax``, or sqrt(2) * ``--extent`` (the
    raster's corners) when it is not given, checked here so that an extent
    whose derived range overflows is named as the option the user gave."""
    if cfg["smax"] is not None:
        return cfg["smax"]
    # an extent that fails on its own is named by the raster check; --smax cannot help it
    _check_extent("half_extent", cfg["extent"])
    s_max = cfg["extent"] * math.sqrt(2.0)
    try:
        _check_extent("s_max", s_max)
    except ValueError:
        raise ValueError(
            f"--extent must be finite with (2 * sqrt(2) * extent)^2 finite while --smax is not given"
            f" (s_max = sqrt(2) * extent), got {cfg['extent']!r}; set --smax to choose the offset range"
        ) from None
    return s_max


def _analytic_rows(phantom, n_theta: int, n_s: int, s_max: float) -> _Rows:
    """The phantom's sinogram rows, each made by ``radon_analytic`` when it
    is pulled."""
    _check_radon_lattice(n_theta, n_s, s_max)
    _check_line_integrals(phantom)
    thetas = np.arange(n_theta) * (math.pi / n_theta)
    offsets = np.linspace(-s_max, s_max, n_s)
    return _Rows(n_theta, n_s, s_max, lambda r: radon_analytic(phantom, thetas[r, None], offsets[None, :]))


def _analytic_radon(phantom, n_theta: int, n_s: int, s_max: float) -> RadonSinogram:
    """The phantom's sinogram, made ``_ROW_BUDGET`` entries of rows at a time
    into the one array the sinogram adopts: ``radon_analytic`` over the
    whole lattice at once held five sinograms of temporaries."""
    rows = _analytic_rows(phantom, n_theta, n_s, s_max)
    values = np.empty((n_theta, n_s))
    step = max(1, _ROW_BUDGET // n_s)
    for first in range(0, n_theta, step):
        values[first : first + step] = rows.rows(np.arange(first, min(first + step, n_theta)))
    return RadonSinogram(n_theta=n_theta, n_s=n_s, s_max=s_max, values=_frozen(values))


def cmd_phantom(cfg: dict) -> int:
    phantom = _require_phantom(cfg)
    grid = rasterize(phantom, cfg["npx"], cfg["extent"])
    _write_raster_products(cfg, "phantom", grid)
    return 0


def cmd_forward(cfg: dict) -> int:
    phantom = _require_phantom(cfg)
    method = cfg["method"]
    if method not in ("cone", "radon"):
        raise ValueError(f"forward method must be cone or radon, got {method!r}")
    if method == "radon":
        sino = _analytic_radon(phantom, cfg["ntheta"], cfg["ns"], _radon_s_max(cfg))
        write_radon_sinogram(_product(cfg, "radon.sg"), sino)
    else:
        if cfg["vertex"] is not None:
            vertices = np.array([_parse_vertex(cfg["vertex"])])
        else:
            cam = CameraConfig(cfg["extent"], cfg["perside"], cfg["nbeta"], cfg["npsi"])
            vertices = detector_positions(cam)
        n_beta, n_psi = cfg["nbeta"], cfg["npsi"]
        _check_cone_lattice(n_beta, n_psi)  # before the chunk size divides by it
        # cone_forward_sinogram checks this too, but only once cone.sg's
        # directory is made
        _check_line_integrals(phantom, 2.0, "twice it, as a cone value sums two rays")
        # cone.sg is written a vertex chunk at a time as it is made
        step = max(1, _FORWARD_BUDGET // (n_beta * n_psi))
        chunks = (
            cone_forward_sinogram(phantom, vertices[first : first + step], n_beta, n_psi)
            for first in range(0, max(len(vertices), 1), step)
        )
        write_cone_sinogram(_product(cfg, "cone.sg"), chunks, vertices)
    return 0


def _reconstruct_grid(cfg: dict, phantom, method: str):
    extent = cfg["extent"]
    if method in ("thm2", "thm6"):
        n_px = _or(cfg["npx"], 128)
        n_beta = _or(cfg["nbeta"], 64)
        n_psi = _or(cfg["npsi"], 256)
        if method == "thm2":
            return invert_mu_weighted(phantom, n_px, extent, MuWeight.uniform(n_beta), n_psi)
        return invert_sine_weighted(phantom, n_px, extent, n_beta, n_psi)
    n_px = _or(cfg["npx"], 256)
    if method == "compton":
        cam = CameraConfig(extent, cfg["perside"], _or(cfg["nbeta"], 200), _or(cfg["npsi"], 200))
        return compton_reconstruct(phantom, cam, n_px, extent, cfg["ntheta"], cfg["ns"], cfg["smax"])
    s_max = _radon_s_max(cfg)
    _check_offset_range(s_max, extent, _line_reach(phantom))
    # rows are made as backprojection pulls them: no whole sinogram exists
    rows = _analytic_rows(phantom, _or(cfg["ntheta"], 200), _or(cfg["ns"], 257), s_max)
    gain = _filter_gain(rows.n_theta, rows.n_s, rows.s_max)
    _check_line_integrals(phantom, gain, f"{gain:.3g} times it, the gain of FBP on this sinogram lattice")
    return fbp_radon_inversion(rows, n_px, extent)


def cmd_reconstruct(cfg: dict) -> int:
    method = _METHOD_ALIASES.get(cfg["method"], cfg["method"])
    if method not in ("thm2", "thm6", "compton", "fbp"):
        raise ValueError(f"unknown reconstruction method {cfg['method']!r}")
    phantom = _require_phantom(cfg)
    grid = _reconstruct_grid(cfg, phantom, method)
    _write_raster_products(cfg, "recon", grid)
    truth = rasterize(phantom, grid.n_px, grid.half_extent).values
    with np.errstate(over="ignore"):
        denom = float(np.linalg.norm(truth))
        diff = float(np.linalg.norm(grid.values - truth))
        # only where a norm overflows, both are taken of the rasters scaled
        # by the truth's largest |value|, so a finite raster never reads inf
        if denom > 0.0 and not math.isfinite(denom + diff):
            scale = float(np.abs(truth).max())
            denom = float(np.linalg.norm(truth / scale))
            diff = float(np.linalg.norm(grid.values / scale - truth / scale))
    rel_l2 = diff / denom if denom > 0.0 else (0.0 if diff == 0.0 else math.inf)
    with open(_product(cfg, "report.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n_px", "rel_l2"])
        writer.writerow([method, grid.n_px, repr(rel_l2)])
    print(f"{method}: rel L2 error {rel_l2:.4g}")
    if cfg["threshold"] is not None and not rel_l2 <= cfg["threshold"]:
        print(f"rel L2 {rel_l2:.4g} exceeds threshold {cfg['threshold']:.4g}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(cfg: dict) -> int:
    rows = identity_suite(seed=cfg["seed"], count=cfg["count"], which=cfg["identity"])
    failures = 0
    with open(_product(cfg, "verify.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["identity", "case", "lhs", "rhs", "rel_err", "status"])
        for row in rows:
            ok = row.rel_err <= 1e-3
            failures += not ok
            writer.writerow(
                [row.identity, row.case, repr(row.lhs), repr(row.rhs), repr(row.rel_err), "pass" if ok else "fail"]
            )
    print(f"{len(rows) - failures}/{len(rows)} identity checks passed")
    return 1 if failures else 0


def cmd_lambda(cfg: dict) -> int:
    if cfg["n"] not in (2, 3):
        raise ValueError("eigenvalue table supports n in {2, 3}")
    if cfg["mmax"] < 0:
        raise ValueError("mmax must be nonnegative")
    area = sphere_area(cfg["n"])
    with open(_product(cfg, "lambda.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "lambda", "normalized"])
        for m in range(cfg["mmax"] + 1):
            lam = funk_hecke_lambda(m, cfg["n"])
            writer.writerow([cfg["n"], m, repr(lam), repr(lam / area)])
            print(f"n={cfg['n']} m={m}: lambda={lam:.12g} normalized={lam / area:.12g}")
    return 0


_HANDLERS = {
    "phantom": cmd_phantom,
    "forward": cmd_forward,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "lambda": cmd_lambda,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conetomo", description=__doc__.split("\n\n")[1])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _OPTIONS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--out", help=_OUT[2])
        sub.add_argument("--config", help="plain-text key = value config file; flags override it")
        for key, (kind, _, text) in options.items():
            sub.add_argument(f"--{key}", type=kind, help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args, args.command)
        code = _HANDLERS[args.command](cfg)
        # only a run that completed describes its products
        _write_run_cfg(cfg)
        return code
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
