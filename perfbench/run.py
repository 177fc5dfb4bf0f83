"""conetomo benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload camera --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; conetomo is imported from the checkout's
``src/``, and the run fails (exit 2, no result) when that is missing. The
load is a closed loop with one caller: the timed phase repeats the
workload's pass, one at a time, until ``--seconds`` have elapsed, and always
makes at least one pass. Times are medians over the passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes, one pair at a time, and reports the
per-layer metrics of BENCHMARK.json; spans are written to
``.perfbench_work/trace/``. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are the readable report and the run's metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("camera", "direct", "identities", "cli-pipeline")
# setup_s is the median of this process's set-up and of set-ups in fresh
# processes: at least MIN_PROBES of them, more while they have taken less
# than PROBE_SECONDS in all, at most MAX_PROBES.
MIN_PROBES, MAX_PROBES, PROBE_SECONDS = 2, 8, 6.0

# Always one BLAS thread, whatever the caller's environment says: the
# package's matrix products are small, so a second BLAS thread only spins (on
# identity_suite it raised CPU time 1.7x and left wall time unchanged) and
# makes wall_s depend on whether another tenant holds the second core. A
# change that adds threads then shows as a gap between cpu_s and wall_s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def setup(workload: str, seed: int, workdir: str):
    """Import conetomo, build the seeded inputs and make one untimed warm-up
    call. Returns (seconds, workload object)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import conetomo

    if not os.path.abspath(conetomo.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"conetomo was imported from {conetomo.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    return time.perf_counter() - t0, wl


def timed_pass(wl, tracer=None, run_id: str = ""):
    """One pass of the workload. Returns its output, wall and CPU seconds,
    (system seconds, minor page faults) and, when traced, its per-layer
    metrics."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        out, layer = wl.run(), None
    else:
        out, layer = tracer.run(run_id, wl.run)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    return out, wall, cpu, (r1.ru_stime - r0.ru_stime, r1.ru_minflt - r0.ru_minflt), layer


def probe_setups(args) -> list[float]:
    """Set-up seconds measured in fresh processes, one after the other."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    start = time.perf_counter()
    while len(out) < MIN_PROBES or (len(out) < MAX_PROBES and time.perf_counter() - start < PROBE_SECONDS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def blas_threads():
    """Largest thread count among the OpenBLAS libraries numpy and scipy
    loaded, or None if none can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts, default=None)


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def median_metrics(per_pass: list[dict]) -> dict:
    names = set().union(*per_pass)
    return {n: statistics.median(p.get(n, 0) for p in per_pass) for n in names}


def report_line(name, value, unit, note=""):
    print(f"{name:<40} {value:>16.6g} {unit:<6} {note}".rstrip())


def bench(args, workdir: str) -> int:
    spec = load_spec()
    setup_s, wl = setup(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # Closed loop with one caller. A traced run follows each untraced pass
    # with a traced one, so both kinds are equally warm and see the same
    # host; trace.overhead compares them.
    walls, cpus, kernel, layers = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        out, wall, cpu, sys_faults, _ = timed_pass(wl)
        walls.append(wall)
        cpus.append(cpu)
        kernel.append(sys_faults)
        if tracer is not None:
            tracer.install()
            try:
                traced_out, _, _, _, layer = timed_pass(wl, tracer, f"{args.workload}:{args.seed}:pass{len(layers)}")
            finally:
                tracer.uninstall()
            layers.append(layer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, accuracy = wl.check(out)

    metrics, notes = {}, []
    if tracer is not None:
        tracer.write(os.path.join(WORK, "trace", f"{args.workload}-seed{args.seed}.jsonl"))
        checks.append(("traced outputs bit-identical to untraced",
                       wl.fingerprint(traced_out) == wl.fingerprint(out), ""))
        layer = median_metrics(layers)
        layer["trace.overhead"] = layer["trace.wall_s"] / statistics.median(walls) - 1.0
        layer["trace.absent"] = len(tracer.absent)
        layer["trace.count_errors"] = len(tracer.count_errors)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer.get(m["name"], 0), "unit": m["unit"]}
        listed = set(metrics)
        notes += [f"also measured: {k} = {layer[k]!r}" for k in sorted(layer) if k not in listed]
        notes += [f"absent wrap target: {name}" for name in tracer.absent]
        notes += [f"count error: {msg}" for msg in tracer.count_errors]
        self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        notes.append(f"traced wall_s {layer['trace.wall_s']:.4f} s = span self times {self_sum:.4f} s "
                     f"+ untraced remainder {layer['trace.unattributed_s']:.4f} s "
                     f"(medians of {len(layers)} traced pass(es), each after an untraced one)")
    else:
        setups = [setup_s] + probe_setups(args)
        e2e = {
            "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
            "wall_s": (statistics.median(walls), f"median of {len(walls)} pass(es)"),
            "cpu_s": (statistics.median(cpus), "user + system"),
            "peak_rss_mb": (peak_rss_mb, "whole process"),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]][0], "unit": m["unit"]}

    meta = metadata(args)
    if meta["blas_threads"] is not None:
        checks.append(("BLAS threads <= nproc", meta["blas_threads"] <= meta["nproc"],
                       f"{meta['blas_threads']} of {meta['nproc']}"))
    failed = [c for c in checks if not c[1]]

    print(f"# conetomo benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("# meta " + json.dumps(meta))
    print(f"# closed loop, one caller, one pass at a time; untraced pass wall_s: "
          + ", ".join(f"{w:.4f}" for w in walls))
    print("# of which system time (s) and minor page faults per pass: "
          + ", ".join(f"{sys_s:.4f} / {faults}" for sys_s, faults in kernel))
    for name, entry in metrics.items():
        note = e2e[name][1] if not args.trace else ""
        report_line(name, entry["value"], entry["unit"], note)
    if not args.trace:
        name = "identity_gap_max" if args.workload == "identities" else "rel_l2_max"
        report_line(name, accuracy, "ratio", "worst over the pass's outputs; not gated across seeds")
    report_line("fail_ratio", len(failed) / len(checks), "ratio", f"{len(failed)} of {len(checks)} checks failed")
    for name, _, detail in failed:
        print(f"# FAILED check: {name} ({detail})")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "conetomo", "__init__.py")):
        print(f"error: no conetomo sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            seconds, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
