"""Self-test of the benchmark.

    python3 perfbench/selftest.py                       # the workloads of BENCHMARK.json
    python3 perfbench/selftest.py --workload identities # any one workload

Run from the root of a checkout. It checks that
1. the span arithmetic and the ray ledger give known answers on fixed input;
2. two traced runs of a workload with the same seed report identical count
   metrics (units count and bytes, plus phantoms.rays_unique_ratio) and pass
   every correctness check;
3. over the workloads of BENCHMARK.json, each of its per-layer metrics is
   non-zero on at least one workload, so a misspelt name cannot read 0;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_span_arithmetic():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracer import RayLedger, layer_metrics

    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    spans = [("pass", 0.0, 10.0, None, "r"), ("a", 1.0, 4.0, 7, "r"), ("b", 2.0, 3.0, 8, "r"), ("c", 5.0, 6.0, 7, "r")]
    got = layer_metrics(spans, 7, [("x.bytes", 5), ("x.bytes", 6)])
    expect(got["a.self_s"] == 2.0 and got["b.self_s"] == 1.0 and got["c.self_s"] == 1.0, "self time = duration - children")
    expect(got["trace.unattributed_s"] == 6.0 and got["trace.spans"] == 3 and got["x.bytes"] == 11, "remainder, spans and counts")
    ledger = RayLedger()
    ledger.add("p", (0.0, 0.0), ("lattice", 200, 200))
    ledger.add("p", (0.0, 0.0), ("lattice", 200, 200))
    expect(ledger.evaluated == 160000 and ledger.distinct() == 400, "a repeated 200x200 cone block is 400 distinct rays")


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(done.returncode == 0, f"{workload}: traced run exits 0")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "camera", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout, "without src/ the benchmark fails and prints no result")


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    gated = [w["name"] for w in spec["workloads"]]
    per_layer = spec["per_layer"]
    chosen = args.workload or gated
    exact = [m["name"] for m in per_layer if m["unit"] in ("count", "bytes")] + ["phantoms.rays_unique_ratio"]

    check_span_arithmetic()
    seen_nonzero = set()
    for w in chosen:
        first, second = traced(w, args.seed), traced(w, args.seed)
        expect(first["correct"] and second["correct"], f"{w}: every check passes")
        diff = [n for n in exact if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        expect(not diff, f"{w}: count metrics repeat exactly across two runs" + (f" (differ: {diff})" if diff else ""))
        seen_nonzero.update(n for n, m in first["metrics"].items() if m["value"])
    if set(gated) <= set(chosen):
        never = [m["name"] for m in per_layer if m["name"] not in seen_nonzero and not m["name"].startswith("trace.")]
        expect(not never, "every per-layer metric is non-zero on some workload" + (f" (zero: {never})" if never else ""))
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
