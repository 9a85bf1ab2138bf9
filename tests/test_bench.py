"""Smoke test of the benchmark's traced path.

Each workload of BENCHMARK.json runs one short traced pass of
bench/worker.py: the tracer wraps the module attributes listed in
bench/workloads.py PATCHES, and the per-layer metrics are computed. A name
the benchmark reads that the package no longer has, or a check that stops
passing, fails here. The worker writes its records under the git-ignored
.bench_build/.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_run_reports_no_failures(workload):
    spawn_clock = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", "1", "--spawn-clock", repr(spawn_clock)],
        cwd=ROOT, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    failed_checks = [c for c in out["checks"] if not c[1]]  # (name, ok, detail)
    assert out["errors"] == [], out["errors"]
    assert out["failed"] == 0, failed_checks
    assert out["layer"] is not None
