"""passagelab benchmark: run one workload, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload diffusion_mc --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json; README.md in this
directory says why each workload exists. With --trace 0 the last stdout
line carries the end-to-end metrics, with --trace 1 the per-layer ones.
Lines before it repeat the figures for people, with the machine block.
The same record, with every check, is written under .bench_build/bench/.

Each workload runs in fresh worker processes: two that stop after set-up
and one that measures. Each of these three cold starts is followed by a bare
cold start that only imports numpy and scipy, and set-up time is reported
relative to it (see `setup_seconds`). Every process is waited for; on
timeout its process group is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2
# The bare cold start: the third-party imports passagelab makes, and no
# package code. setup_s is expressed at a machine speed where it takes
# 0.75 s, a typical time on the 2-core Xeon VM the benchmark was built on
# (0.55-1.1 s were seen there).
BARE_START = "import numpy, scipy.interpolate, scipy.special, scipy.stats"
NOMINAL_BARE_S = 0.75
TIME_LIMIT_S = 170.0
# One BLAS thread: on two cores a second BLAS thread did not shorten
# solve_wq but made it wait on whatever else ran on the other core.
# A fixed mmap threshold: arrays of 4 MiB and more always come from mmap and
# go back to the system when freed, so peak RSS is the live peak. With the
# default sliding threshold it also depended on heap layout and moved
# between about 600 and 686 MiB on transform_solve from run to run.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MALLOC_MMAP_THRESHOLD_="4194304")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON it printed last."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--spawn-clock", repr(clock())],
        cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        # the worker may have pool children; they share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker exceeded the time limit") from None
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def bare_start(deadline: float) -> float:
    """Seconds from spawn to the end of BARE_START's imports."""
    t0 = clock()
    out = subprocess.run(
        [sys.executable, "-c", BARE_START + "; import time; "
         "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"],
        cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - clock())).stdout
    return float(out.strip().splitlines()[-1]) - t0


def setup_seconds(setups: list[float], bares: list[float]) -> float:
    """Set-up time at the nominal machine speed.

    Each cold start is divided by the bare cold start that follows it, and
    the median ratio is scaled by NOMINAL_BARE_S. The bare start runs no
    package code, so only the machine moves it. On the 2-core VM the
    benchmark was built on, over thirty alternating pairs, the medians of
    successive blocks of five raw cold starts spanned 28% while those of
    the ratios spanned 9%.
    """
    return statistics.median(s / b for s, b in zip(setups, bares)) * NOMINAL_BARE_S


def human(res: dict, setup_s: float, setup_raw_s: float, args,
          spec: dict) -> list[str]:
    m = res["machine"]
    failed_frac = res["failed"] / res["attempted"]
    lines = [
        f"# passagelab bench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"# machine nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']} blas_threads={m['blas_threads']} "
        f"seed={m['seed']}",
        f"# rounds {res['rounds']} timed, {res['items_per_round']} "
        f"{res['item']} each; checks {len(res['checks'])}, failed {res['failed']}",
        f"setup_s\t{setup_s:.6g}\ts\t(median of {SETUP_PROBES + 1} cold starts, "
        f"at {NOMINAL_BARE_S:g} s per bare start)",
        f"setup_raw_s\t{setup_raw_s:.6g}\ts\t(median of the same, unscaled)",
        f"wall_s\t{res['wall_s']:.6g}\ts\t(median round)",
        f"wall_rel\t{res['wall_rel']:.6g}\tratio\t(mean round over mean reference kernel)",
        f"peak_rss_mb\t{res['peak_rss_mb']:.6g}\tMiB",
        f"failed_frac\t{failed_frac:.6g}\tratio",
    ]
    lines += [f"{k}\t{v:.6g}\t{u}" for k, (v, u) in res["extra_metrics"].items()]
    lines += [f"# count {k} = {v:.10g}" for k, v in res["derived"].items()]
    if res["layer"] is not None:
        units = {d["name"]: d["unit"] for d in spec["per_layer"]}
        lines += [f"layer {k}\t{v:.6g}\t{units[k]}" for k, v in res["layer"].items()]
    lines += [f"# FAILED check: {name} {detail}"
              for name, ok, detail in res["checks"] if not ok]
    lines += [f"# error: {e}" for e in res["errors"]]
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "passagelab" / "__init__.py").is_file():
        print("error: no passagelab sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2

    deadline = clock() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probe = common + ["--seconds", "0", "--setup-only"]
    setups: list[float] = []
    bares: list[float] = []

    def cold_start(worker_args: list[str]) -> dict:
        out = spawn(worker_args, deadline)
        setups.append(out["setup_s"])
        bares.append(bare_start(deadline))
        return out

    try:
        # half the probes before the measured run and half after, so the
        # median spans the run rather than one moment of the machine
        for _ in range(SETUP_PROBES // 2):
            cold_start(probe)
        res = cold_start(common + ["--seconds", repr(args.seconds),
                                   "--trace", str(args.trace)])
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            cold_start(probe)
    except (WorkerError, json.JSONDecodeError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_s = setup_seconds(setups, bares)
    setup_raw_s = statistics.median(setups)

    if args.trace:
        metrics = {d["name"]: {"value": res["layer"][d["name"]], "unit": d["unit"]}
                   for d in spec["per_layer"]}
    else:
        values = {"setup_s": setup_s, "wall_rel": res["wall_rel"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                   for d in spec["end_to_end"]}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    record = dict(res, setup_s=setup_s, setup_raw_s=setup_raw_s,
                  setup_samples=setups, bare_start_samples=bares, result=result)
    out_dir = ROOT / ".bench_build" / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print("\n".join(human(res, setup_s, setup_raw_s, args, spec)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
