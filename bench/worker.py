"""Run one benchmark workload in this process and print one JSON object.

run.py starts this file once per set-up probe (--setup-only) and once for
the measured run, so every process starts cold. Set-up time runs from the
parent's clock reading just before the spawn to the end of the warm-up:
interpreter start, imports and warm-up, not the first round's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "bench"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "seed": seed}


class ReferenceKernel:
    """Interpreter work, small-array numpy calls, and exp/log over 4 MiB
    arrays with a matrix-vector product (as in the quadrature of
    weber._log_integral_batch), in about equal parts.

    It calls no passagelab code, so no change to the package can move it;
    only the speed of the machine can. It allocates nothing while timed, so
    the heap the package leaves behind cannot move it either. Timed between
    rounds, it turns round times into multiples of the machine's current
    speed.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.x = np.linspace(-3.0, 3.0, 256)
        self.small = np.empty(256)
        # 4 MiB arrays: past the caches, and 12 MiB in all in peak_rss_mb
        self.z = np.linspace(-4.0, 4.0, 512)[:, None]
        t = np.linspace(0.01, 8.0, 1024)[None, :]
        self.t = t
        self.t_full = np.broadcast_to(t, (512, 1024)).copy()
        self.half_t2 = 0.5 * t * t
        self.a = np.empty((512, 1024))
        self.b = np.empty((512, 1024))
        self.w = np.full(1024, 1e-3)
        self.v = np.empty(512)

    def __call__(self):
        np, y, a, b = self.np, self.small, self.a, self.b
        acc = 0.0
        for i in range(100_000):
            acc += (i % 7) * 0.5
        for _ in range(1000):
            np.multiply(self.x, self.x, out=y)
            np.multiply(y, -0.5, out=y)
            np.exp(y, out=y)
            np.cumsum(y, out=y)
            acc += float(y[-1])
        for _ in range(8):
            np.multiply(self.z, self.t, out=a)
            np.log(self.t_full, out=b)
            b *= 1.5
            b -= a
            b -= self.half_t2
            np.exp(b, out=b)
            np.dot(b, self.w, out=self.v)


def reference(w, kernel) -> list[float]:
    """Times of w.ref_reps runs of the kernel."""
    out = []
    for _ in range(w.ref_reps):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def run_phase(w, tr, kernel, seconds: float, inputs, r: int, phase: str):
    """Repeat rounds until `seconds` of timed work and w.min_rounds are done.

    The reference kernel runs before the first round and after each round.
    Returns the round times, the reference times, the next round index and
    any error. A round that raises ends the phase; its items count as failed.
    """
    times: list[float] = []
    refs = reference(w, kernel)
    while True:
        t0 = time.perf_counter()
        try:
            out = tr.round(w.run_round, inputs, tr)
        except Exception as exc:   # reported as failed items, never hidden
            return times, refs, r + 1, f"round {r}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        refs += reference(w, kernel)
        summary = w.record(inputs, out)
        summary.update(phase=phase, seconds=times[-1])
        w.rounds.append(summary)
        r += 1
        if sum(times) >= seconds and len(times) >= w.min_rounds:
            return times, refs, r, None
        inputs = w.prepare(r)


def relative(times: list[float], refs: list[float]) -> float:
    """Mean round time over mean reference time.

    Means, not medians: both sides then integrate the machine's speed over
    the whole phase. On a shared two-core host the speed drifted by 25%
    within a minute while this ratio moved by about 3%.
    """
    return statistics.fmean(times) / statistics.fmean(refs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-clock", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import passagelab
    if Path(passagelab.__file__).resolve().parent != (SRC / "passagelab").resolve():
        print(f"error: passagelab was imported from {passagelab.__file__}, "
              "not from this checkout's src/", file=sys.stderr)
        return 2
    import workloads
    from tracing import NullTracer, Tracer

    WORKDIR.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    w.warm_up()
    setup_s = clock() - args.spawn_clock
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    inputs = w.prepare(0)

    kernel = ReferenceKernel()
    kernel()   # first-touch costs stay out of the reference times
    errors = []
    timed, timed_refs, r, err = run_phase(w, NullTracer(), kernel, args.seconds,
                                          inputs, 0, "timed")
    errors.append(err)
    if not timed:
        print(f"error: no round completed: {err}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds_tried = len(timed) + (err is not None)

    layer = None
    if args.trace:
        tracer = Tracer()
        with ExitStack() as stack:
            for module, attr, name, count in workloads.PATCHES:
                stack.enter_context(tracer.patched(module, attr, name, count))
            traced, traced_refs, r, err = run_phase(w, tracer, kernel, args.seconds,
                                                    w.prepare(r), r, "traced")
        errors.append(err)
        rounds_tried += len(traced) + (err is not None)
        overhead = relative(traced, traced_refs) / relative(timed, timed_refs) \
            - 1.0 if traced else 0.0
        values = workloads.layer_metrics(w, tracer.spans, overhead)
        values.update(w.derived())
        values.update(w.traced_extra())
        # every per_layer metric of BENCHMARK.json; 0 where the workload
        # does not run that layer
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer = {d["name"]: float(values.get(d["name"], 0.0))
                 for d in spec["per_layer"]}
        tracer.dump(WORKDIR / f"spans-{w.name}-seed{args.seed}.json")

    ledger = workloads.Ledger()
    try:
        w.gates(ledger)
    except Exception as exc:
        ledger.check(f"checks raised {type(exc).__name__}: {exc}", False)
    try:
        ok, detail = w.self_check(), ""
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    ledger.check("self-check: a wrong target registers a failure", ok, detail)

    errors = [e for e in errors if e]
    failed_items = w.items_per_round * len(errors)
    wall_s = statistics.median(timed)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_rel": relative(timed, timed_refs),
        "reference_seconds": timed_refs,
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(timed),
        "round_seconds": timed,
        "item": w.item,
        "items_per_round": w.items_per_round,
        "attempted": rounds_tried * w.items_per_round + len(ledger.results),
        "failed": failed_items + ledger.failed,
        "checks": ledger.results,
        "errors": errors,
        "extra_metrics": w.extra_metrics(wall_s),
        "derived": w.derived(),
        "layer": layer,
        "machine": machine(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
