import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import conetomo


def rel_l2(got, want) -> float:
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / np.linalg.norm(want))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def run_child(args, timeout=120):
    """Run ``python args...`` in a fresh process that imports this conetomo,
    so a crash fails the calling test instead of killing the test run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conetomo.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
