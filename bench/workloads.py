"""The benchmark's workloads: inputs, timed rounds, checks and counts.

Each workload makes its inputs from the run's seed and repeats a fixed-size
round, the timed unit. Checks run after the timed region and look at the
outputs of every round. Only public passagelab functions are called. See
README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from passagelab import analytic, mc, paths, simulate, weber
from passagelab.acceptance import (
    AcceptanceSettings,
    random_compliant_path,
    random_violating_path,
)
from passagelab.paths import Barrier, Mode
from passagelab.simulate import (
    CP_MODE_CODES,
    CompoundPoissonSpec,
    ExponentialJumps,
    LatticeJumps,
    ModelParams,
    SimConfig,
)

from tracing import NullTracer, layer_self, summarize

REF = AcceptanceSettings()
P = REF.params
ZERO = Barrier.constant(0.0)

# lower-layer functions the traced run wraps, at the attribute the caller
# looks them up by: (module, attribute, span name, work count)
PATCHES = [
    (analytic, "log_pcf_d_batch", "weber.log_pcf_d_batch",
     lambda nu, z, *a, **k: int(np.size(z))),
    (analytic, "log_pcf_d", "weber.log_pcf_d", None),
    (analytic, "composite_gl", "quad.composite_gl", None),
    (analytic, "homogeneous_basis", "analytic.homogeneous_basis", None),
    (paths, "first_passage", "paths.first_passage", None),
    (paths, "running_supremum", "paths.running_supremum", None),
    (simulate, "first_passage", "paths.first_passage", None),
]

LAYERS = ("simulate", "mc", "weber", "quad", "analytic", "paths")


def derive_seed(*keys: int) -> int:
    """64-bit seed for one input stream, a pure function of the keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0])


def pooled(estimates) -> tuple[float, float]:
    """Mean and standard error over equal-sized independent batches."""
    means = [e[0] for e in estimates]
    return (statistics.fmean(means),
            math.sqrt(sum(e[1] ** 2 for e in estimates)) / len(estimates))


class Ledger:
    """Correctness checks; each failed check counts in `failed`."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def within(self, name: str, value: float, target: float, tol: float) -> bool:
        return self.check(name, abs(value - target) <= tol,
                          f"value={value:.12g} target={target:.12g} tol={tol:.3g}")

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


class Workload:
    name = ""
    item = ""              # what one item of a round is
    items_per_round = 0
    min_rounds = 1
    ref_reps = 1           # reference kernel runs after each round (worker.py),
                           # about 7-12% of a round

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rounds: list[dict] = []   # one summary per round, tagged by phase

    def warm_up(self) -> None:
        """Cheap calls that fill lazy imports and caches before timing."""

    def prepare(self, r: int):
        """Inputs of round r (untimed)."""
        raise NotImplementedError

    def run_round(self, inputs, tr):
        """The timed unit; returns what `record` needs."""
        raise NotImplementedError

    def record(self, inputs, out) -> dict:
        """Summary of one round's outputs for the checks and counts."""
        raise NotImplementedError

    def gates(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def self_check(self) -> bool:
        """Feed one gate a wrong target; True if it registers a failure."""
        raise NotImplementedError

    def extra_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, reported alongside wall_s."""
        return {}

    def derived(self) -> dict[str, float]:
        """Exact or computed counts taken from public outputs."""
        return {}

    def traced_extra(self) -> dict[str, float]:
        """Per-layer figures measured outside the spans (traced run only)."""
        return {}

    def of_phase(self, phase: str) -> list[dict]:
        return [r for r in self.rounds if r["phase"] == phase]


# ---------------------------------------------------------------------------
# diffusion_mc: the Monte Carlo route (criterion 3's work)

class DiffusionMC(Workload):
    name = "diffusion_mc"
    item = "path"
    items_per_round = 500
    Q = (0.0, 0.01, 0.05, 0.1)
    MIN_JUMPS = 200          # overshoot law test; about 395 per round expected
    W2_PATHS = 8192          # two 4096-path blocks, so both workers get one

    def config(self, stream: int, r: int, n: int) -> SimConfig:
        return SimConfig(horizon=REF.horizon, step=REF.step,
                         seed=derive_seed(self.seed, stream, r),
                         bridge_correction=True, n_paths=n)

    def warm_up(self):
        cfg = self.config(0, 0, 64)
        res = simulate.run_paths(P, cfg, q_list=self.Q, workers=1)
        self._estimate(res, cfg, NullTracer(), min_samples=1)

    def prepare(self, r):
        return self.config(1, r, self.items_per_round)

    def _estimate(self, res, cfg, tr, min_samples):
        est = {"modes": tr.call("mc.estimate_mode_probs",
                                mc.estimate_mode_probs, P, cfg, res)}
        for q in self.Q:
            est["ind", q] = tr.call("mc.estimate_gq_indicator",
                                    mc.estimate_gq_indicator, P, cfg, q, res)
            est["comp", q] = tr.call("mc.estimate_gq_compensator",
                                     mc.estimate_gq_compensator, P, cfg, q, res)
            est["hf", q] = tr.call("mc.estimate_hq_fq",
                                   mc.estimate_hq_fq, P, cfg, q, res)
        est["law"] = tr.call("mc.overshoot_law_test", mc.overshoot_law_test,
                             P, cfg, res, min_samples=min_samples)
        est["moments"] = tr.call("mc.estimate_overshoot_moments",
                                 mc.estimate_overshoot_moments, P, cfg, res)
        return est

    def run_round(self, cfg, tr):
        t0 = perf_counter()
        res = tr.call("simulate.run_paths", simulate.run_paths, P, cfg,
                      q_list=self.Q, workers=1)
        run_paths_s = perf_counter() - t0
        return res, self._estimate(res, cfg, tr, self.MIN_JUMPS), run_paths_s

    def record(self, cfg, out):
        res, est, run_paths_s = out
        return {
            "n": res.n,
            "run_paths_s": run_paths_s,
            # computed count: time simulated over the step, not engine steps
            "steps": float(np.sum(np.minimum(res.taus, cfg.horizon)) / cfg.step),
            "censored": est["modes"][Mode.CENSORED].mean,
            "ind": {q: (est["ind", q].mean, est["ind", q].std_error) for q in self.Q},
            "comp": {q: (est["comp", q].mean, est["comp", q].std_error)
                     for q in self.Q},
        }

    def _check_g0(self, ledger, target):
        for route in ("ind", "comp"):
            mean, se = pooled([r[route][0.0] for r in self.rounds])
            ledger.within(f"G_0 {route} within 4 SE of analytic.g0",
                          mean, target, 4.0 * se)

    def gates(self, ledger):
        self._check_g0(ledger, analytic.g0(P, P.x))
        for q in self.Q:
            ind = pooled([r["ind"][q] for r in self.rounds])
            comp = pooled([r["comp"][q] for r in self.rounds])
            ledger.within(f"G_{q:g} indicator and compensator agree", ind[0],
                          comp[0], 4.0 * math.hypot(ind[1], comp[1]))
        cens = statistics.fmean(r["censored"] for r in self.rounds)
        ledger.check("censored fraction below 1e-3", cens < 1e-3,
                     f"value={cens:.3g}")

    def self_check(self):
        shadow = Ledger()
        self._check_g0(shadow, analytic.g0(P, P.x) + 0.1)
        return shadow.failed > 0

    def extra_metrics(self, wall_s):
        timed = self.of_phase("timed")
        to_se = statistics.median(
            r["seconds"] * (min(r["ind"][0.05][1], r["comp"][0.05][1]) / 1e-3) ** 2
            for r in timed)
        return {"mc_paths_per_s": (self.items_per_round / wall_s, "paths/s"),
                "mc_s_to_se_1e-3": (to_se, "s")}

    def derived(self):
        n = sum(r["n"] for r in self.rounds)
        return {"simulate.steps_per_path": sum(r["steps"] for r in self.rounds) / n,
                "simulate.crossed_frac":
                    1.0 - statistics.fmean(r["censored"] for r in self.rounds)}

    def traced_extra(self):
        cfg = self.config(5, 0, self.W2_PATHS)
        t0 = perf_counter()
        simulate.run_paths(P, cfg, q_list=self.Q, workers=2)
        w2 = (perf_counter() - t0) / self.W2_PATHS * 1e3
        serial = statistics.median(r["run_paths_s"] for r in self.of_phase("timed")) \
            / self.items_per_round * 1e3
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return {"simulate.run_paths.ms_per_path_w2": w2,
                "simulate.run_paths.parallel_eff": serial / (2.0 * w2),
                "simulate.run_paths.children_peak_rss_mb": children}


# ---------------------------------------------------------------------------
# transform_solve: the integral-equation route (criterion 5's sweep)

class TransformSolve(Workload):
    name = "transform_solve"
    item = "solve"
    items_per_round = 1
    min_rounds = len(REF.q_sweep)     # one run covers the whole sweep
    ref_reps = 12
    # G_q(x0) at the reference model, recorded with the default VolterraGrid
    RECORDED = {0.01: 0.7669689366757754, 0.05: 0.6881472995655015,
                0.1: 0.607867321158902}

    def warm_up(self):
        sol = analytic.solve_wq(P, 0.05, analytic.VolterraGrid(n_cells=64))
        self._residuals(sol, 0.05, NullTracer(), n_points=2)

    def prepare(self, r):
        # The inputs are criterion 5's sweep in order; the seed does not
        # change them. A fixed order also fixes the heap history, and with
        # it peak_rss_mb, which moved by 12% between q orders.
        return REF.q_sweep[r % len(REF.q_sweep)]

    @staticmethod
    def _residuals(sol, q, tr, n_points=24):
        """Criterion 5's residual checks on the solved transform."""
        def gq_fun(v):
            return analytic.gq_from_solution(sol, v)
        lo = sol.grid[0] + 0.05 * (P.a - sol.grid[0])
        worst = max(abs(tr.call("analytic.oide_residual", analytic.oide_residual,
                                P, q, gq_fun, float(x)))
                    for x in np.linspace(lo, P.a - 0.01, n_points))
        compat = abs(tr.call("analytic.compatibility_defect",
                             analytic.compatibility_defect, P, q, gq_fun))
        return worst, compat

    def run_round(self, q, tr):
        t0 = perf_counter()
        sol = tr.call("analytic.solve_wq", analytic.solve_wq, P, q)
        solve_s = perf_counter() - t0
        gq = tr.call("analytic.gq_from_solution", analytic.gq_from_solution,
                     sol, P.x)
        oide, compat = self._residuals(sol, q, tr)
        return {"q": q, "solve_s": solve_s, "gq": gq, "iterations": sol.iterations,
                "converged": sol.converged, "truncation": sol.truncation_error,
                "oide": oide, "compat": compat}

    def record(self, q, out):
        return dict(out)

    def _check_recorded(self, ledger, recorded):
        for s in self.rounds:
            ledger.within(f"G_{s['q']:g}(x0) matches the recorded value",
                          s["gq"], recorded[s["q"]], 1e-8)

    def gates(self, ledger):
        bound = 1e-4 * P.lam
        for s in self.rounds:
            tag = f"q={s['q']:g}"
            ledger.check(f"{tag} converged, truncation error <= 1e-8",
                         s["converged"] and s["truncation"] <= 1e-8,
                         f"truncation={s['truncation']:.3g}")
            ledger.check(f"{tag} oide residual <= 1e-4 lam", s["oide"] <= bound,
                         f"value={s['oide']:.3g}")
            ledger.check(f"{tag} compatibility defect <= 1e-4 lam",
                         s["compat"] <= bound, f"value={s['compat']:.3g}")
        self._check_recorded(ledger, self.RECORDED)
        sol0 = analytic.solve_wq(P, 0.0)
        gap = float(np.max(np.abs(analytic.gq_from_solution(sol0, sol0.grid)
                                  - analytic.g0_profile(P, sol0.grid))))
        ledger.check("collapse at q=0 within 1e-8", gap <= 1e-8,
                     f"value={gap:.3g}")

    def self_check(self):
        shadow = Ledger()
        self._check_recorded(shadow, {q: v + 1e-6 for q, v in self.RECORDED.items()})
        return shadow.failed > 0

    def extra_metrics(self, wall_s):
        times = [r["solve_s"] for r in self.of_phase("timed")]
        return {"solve_s_per_q": (statistics.median(times), "s")}

    def derived(self):
        return {f"analytic.picard_iterations.q{s['q']:g}": float(s["iterations"])
                for s in sorted(self.rounds, key=lambda s: s["q"])}


# ---------------------------------------------------------------------------
# closed_form: one-off closed-form points, each with its own model

class ClosedForm(Workload):
    name = "closed_form"
    item = "point"
    items_per_round = 100
    MPMATH_SAMPLE = 4

    @staticmethod
    def draw(rng) -> tuple[ModelParams, float]:
        """A mean-reverting model, start point and discount of its own."""
        params = ModelParams(alpha=rng.uniform(0.0, 0.2), beta=rng.uniform(-1.0, -0.25),
                             sigma=rng.uniform(0.2, 0.5), lam=rng.uniform(0.5, 1.5),
                             eta=rng.uniform(1.5, 3.0), a=1.0,
                             x=rng.uniform(-1.0, 0.9))
        return params, float(rng.uniform(0.0, 0.5))

    def warm_up(self):
        params, q = self.draw(np.random.default_rng(derive_seed(self.seed, 0)))
        self.run_round([(params, q)], NullTracer())

    def prepare(self, r):
        rng = np.random.default_rng(derive_seed(self.seed, 1, r))
        return [self.draw(rng) for _ in range(self.items_per_round)]

    def run_round(self, points, tr):
        out = []
        for params, q in points:
            g = tr.call("analytic.g0", analytic.g0, params, params.x)
            c = tr.call("analytic.creeping_prob", analytic.creeping_prob,
                        params, params.x)
            s = tr.call("analytic.boundary_slope", analytic.boundary_slope, params)
            analytic.homogeneous_basis(params, q)
            out.append((params, q, g, c, s))
        return out

    def record(self, points, out):
        # A round keeps a count, and only the last round keeps its points, so
        # what a run holds does not grow peak_rss_mb with the number of rounds.
        self.last_points = points
        return {"bad": sum(not (0.0 < g < 1.0 and abs(c - (1.0 - g)) <= 1e-12
                                and 0.0 < s < math.inf)
                           for _, _, g, c, s in out)}

    def _check_pcf(self, ledger, sample, scale=1.0):
        import mpmath
        mpmath.mp.dps = 30
        for params, q in sample:
            ctx = weber.make_context(params, q)
            for nu, z in ((ctx.nu_q, ctx.z(params.x)), (ctx.nu_q + 1.0, ctx.z(params.a)),
                          (ctx.nu_q + 1.0, -ctx.z(params.a))):
                want = float(mpmath.pcfd(nu, z)) * scale
                got = weber.pcf_d(nu, z)
                ledger.within(f"D_{nu:.4g}({z:.4g}) matches mpmath.pcfd",
                              got, want, 1e-9 * abs(want))

    def _sample(self):
        pts = self.last_points
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        return [pts[i] for i in rng.choice(len(pts), self.MPMATH_SAMPLE, replace=False)]

    def gates(self, ledger):
        bad = sum(r["bad"] for r in self.rounds)
        ledger.check("every point: 0 < g0 < 1, creep = 1 - g0 to 1e-12, slope > 0",
                     bad == 0, f"bad={bad}")
        sample = self._sample()
        self._check_pcf(ledger, sample)
        for params, q in sample:
            basis = analytic.homogeneous_basis(params, q)
            robin = analytic.robin_operator(params, float(basis.chi_q(params.a)),
                                            basis.chi_prime(params.a))
            ledger.check("chi meets the Robin condition", abs(robin)
                         <= 1e-8 * abs(basis.boundary_psi), f"value={robin:.3g}")

    def self_check(self):
        shadow = Ledger()
        self._check_pcf(shadow, self._sample()[:1], scale=1.0 + 1e-6)
        return shadow.failed > 0

    def extra_metrics(self, wall_s):
        return {"closed_form_ms_per_point":
                (wall_s / self.items_per_round * 1e3, "ms")}


# ---------------------------------------------------------------------------
# path_algebra: compound Poisson batches and the classify flow

HORIZON_CP = REF.cp_horizon
LAT_SPEC = CompoundPoissonSpec(1.0, LatticeJumps((1.0, 2.0), (0.5, 0.5)), 1.0, 0.0)
EXP_SPEC = CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0)
CP_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
CP_BARRIER = Barrier.constant(LAT_SPEC.barrier_level)
_CODE = {mode: code for code, mode in CP_MODE_CODES.items()}
# a censored batch member is a path that never crosses
_REPLAYED_AS = {Mode.JUMP_HIT: Mode.JUMP_HIT, Mode.JUMP_OVER: Mode.JUMP_OVER,
                Mode.CENSORED: Mode.NO_CROSSING}
# what the classify flow must report for each kind of path file:
# (mode, tau, no premature contact, witness, forecast converged, max sigma)
_EXPECT = {
    "compliant": lambda m, tau, clean, w, conv, smax: conv,
    "violating": lambda m, tau, clean, w, conv, smax: not clean and not conv,
    "touch_and_jump": lambda m, tau, clean, w, conv, smax:
        m is Mode.TOUCH_JUMP and conv,
    "premature_contact": lambda m, tau, clean, w, conv, smax:
        not clean and w == 1.0 and not conv and smax <= 1.0 and tau == 2.0,
}


class PathAlgebra(Workload):
    name = "path_algebra"
    item = "classified path"
    CP_PATHS = 3000          # per batch
    N_RANDOM = 200           # compliant and violating paths each
    N_REPLAY = 100           # per batch
    CORPUS = ("touch_and_jump", "premature_contact")
    items_per_round = 2 * N_RANDOM + len(CORPUS) + 2 * N_REPLAY

    def warm_up(self):
        path = random_compliant_path(np.random.default_rng(derive_seed(self.seed, 0)))
        fname = self.workdir / "warm_up.path"
        paths.save_path(path, fname)
        self.run_round({"files": [("compliant", fname, path)],
                        "seeds": {"lattice": 1, "exp_grid": 2},
                        "replays": [("lattice", 0), ("exp_grid", 0)]},
                       NullTracer(), n_cp=16)

    def prepare(self, r):
        rng = np.random.default_rng(derive_seed(self.seed, 1, r))
        kinds = ["compliant"] * self.N_RANDOM + ["violating"] * self.N_RANDOM
        draws = [random_compliant_path(rng) if k == "compliant"
                 else random_violating_path(rng) for k in kinds]
        folder = self.workdir / "paths"
        folder.mkdir(parents=True, exist_ok=True)
        files = []
        for i, (kind, path) in enumerate(zip(kinds, draws)):
            fname = folder / f"{i}.path"
            paths.save_path(path, fname)
            files.append((kind, fname, path))
        corpus = Path(paths.__file__).parent / "corpus"
        for name in self.CORPUS:
            files.append((name, corpus / f"{name}.path", None))
        seeds = {"lattice": derive_seed(self.seed, 2, r),
                 "exp_grid": derive_seed(self.seed, 3, r)}
        replays = [(which, int(i)) for which in seeds
                   for i in np.sort(rng.choice(self.CP_PATHS, self.N_REPLAY,
                                               replace=False))]
        return {"files": files, "seeds": seeds, "replays": replays}

    @staticmethod
    def _classify(path, barrier, tr):
        rec = paths.first_passage(path, barrier)
        tr.call("paths.restricted_times", paths.restricted_times, rec)
        clean, witness = tr.call("paths.check_no_premature_contact",
                                 paths.check_no_premature_contact, path, barrier)
        ann = tr.call("paths.announcing_sequence", paths.announcing_sequence,
                      path, barrier, n_max=8)
        return rec, clean, witness, ann

    def run_round(self, inputs, tr, n_cp=None):
        n_cp = n_cp or self.CP_PATHS
        seeds = inputs["seeds"]
        t0 = perf_counter()
        lat = tr.call("simulate.run_compound_poisson.lattice",
                      simulate.run_compound_poisson, LAT_SPEC, n_cp,
                      seeds["lattice"], HORIZON_CP)
        probs = tr.call("mc.estimate_cp_mode_probs", mc.estimate_cp_mode_probs,
                        LAT_SPEC, n_cp, seeds["lattice"], HORIZON_CP, result=lat)
        exp = tr.call("simulate.run_compound_poisson.exp_grid",
                      simulate.run_compound_poisson, EXP_SPEC, n_cp,
                      seeds["exp_grid"], HORIZON_CP, grid=CP_GRID)
        mart = tr.call("mc.compensator_martingale_check",
                       mc.compensator_martingale_check, EXP_SPEC, CP_GRID, n_cp,
                       seeds["exp_grid"], horizon=HORIZON_CP, result=exp)
        t1 = perf_counter()
        loaded = [(kind, self._classify(
                      tr.call("paths.load_path", paths.load_path, fname), ZERO, tr))
                  for kind, fname, _ in inputs["files"]]
        specs = {"lattice": LAT_SPEC, "exp_grid": EXP_SPEC}
        replayed = []
        for which, i in inputs["replays"]:
            path, _ = tr.call("simulate.simulate_compound_poisson",
                              simulate.simulate_compound_poisson, specs[which],
                              seeds[which], HORIZON_CP, path_index=i)
            replayed.append((which, i, path, self._classify(path, CP_BARRIER, tr)))
        t2 = perf_counter()
        return {"lat": lat, "exp": exp, "probs": probs, "mart": mart,
                "loaded": loaded, "replayed": replayed,
                "cp_s": t1 - t0, "classify_s": t2 - t1, "n_cp": n_cp}

    def record(self, inputs, out):
        # A round keeps counts, and only the last round keeps its paths (for
        # the round-trip check), so what a run holds does not grow
        # peak_rss_mb with the number of rounds.
        self.last_paths = [path for _, _, path in inputs["files"] if path is not None]
        batches = {"lattice": out["lat"], "exp_grid": out["exp"]}
        hit = out["probs"][Mode.JUMP_HIT]
        bad = dict.fromkeys(_EXPECT, 0)
        for kind, (rec, clean, witness, ann) in out["loaded"]:
            bad[kind] += not _EXPECT[kind](rec.mode, rec.tau, clean, witness,
                                           ann.converged, max(ann.sigma))
        return {
            "cp_s": out["cp_s"], "classify_s": out["classify_s"],
            "n_cp": out["n_cp"],
            "lattice_hit": (hit.mean, hit.std_error),
            "exp_exact_hits": int(np.sum(out["exp"].modes == _CODE[Mode.JUMP_HIT])),
            "mart": (out["mart"].deviations, out["mart"].std_errors),
            "bad": bad,
            "replay_mismatch": sum(
                _REPLAYED_AS[CP_MODE_CODES[int(batches[w].modes[i])]]
                is not res[0].mode for w, i, _, res in out["replayed"]),
            "replays": len(out["replayed"]),
            "events": sum(len(path.jumps) for _, _, path, _ in out["replayed"]),
        }

    def _check_lattice(self, ledger, target):
        mean, se = pooled([r["lattice_hit"] for r in self.rounds])
        ledger.within("lattice JUMP_HIT frequency within 4 SE", mean, target,
                      4.0 * se)

    def gates(self, ledger):
        self._check_lattice(ledger, 0.5 * (1.0 - math.exp(-HORIZON_CP)))
        ledger.check("exponential jumps give no exact hit",
                     sum(r["exp_exact_hits"] for r in self.rounds) == 0)
        devs = np.mean([r["mart"][0] for r in self.rounds], axis=0)
        ses = np.sqrt(np.sum([r["mart"][1] ** 2 for r in self.rounds], axis=0)) \
            / len(self.rounds)
        worst = float(np.max(np.abs(devs) / ses))
        ledger.check("compensator martingale worst sigma <= 4", worst <= 4.0,
                     f"value={worst:.3g}")
        for kind in _EXPECT:
            bad = sum(r["bad"][kind] for r in self.rounds)
            ledger.check(f"{kind} paths classified as expected", bad == 0,
                         f"bad={bad}")
        bad = sum(r["replay_mismatch"] for r in self.rounds)
        ledger.check("replayed paths keep their batch mode", bad == 0, f"bad={bad}")
        trip = self.workdir / "roundtrip.path"
        bad = 0
        for path in self.last_paths:
            paths.save_path(path, trip)
            bad += paths.load_path(trip) != path
        ledger.check("save_path/load_path round trips are equal", bad == 0,
                     f"bad={bad}")

    def self_check(self):
        shadow = Ledger()
        self._check_lattice(shadow, 0.4)
        return shadow.failed > 0

    def extra_metrics(self, wall_s):
        timed = self.of_phase("timed")
        cp = statistics.median(2 * r["n_cp"] / r["cp_s"] for r in timed)
        cl = statistics.median(self.items_per_round / r["classify_s"] for r in timed)
        return {"cp_paths_per_s": (cp, "paths/s"),
                "classify_paths_per_s": (cl, "paths/s")}

    def derived(self):
        return {"simulate.cp_events_per_path":
                sum(r["events"] for r in self.rounds)
                / sum(r["replays"] for r in self.rounds)}


WORKLOADS = {w.name: w for w in (DiffusionMC, TransformSolve, ClosedForm, PathAlgebra)}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run

def layer_metrics(w: Workload, spans, overhead: float) -> dict[str, float]:
    """The per-layer metrics of one traced run of workload w.

    Per-item figures divide by the items of the traced rounds: paths on
    diffusion_mc, solve_wq calls on transform_solve, scan points on
    closed_form and classified paths on path_algebra.
    """
    s = summarize(spans)
    in_solve = summarize(spans, under="analytic.solve_wq")
    in_announce = summarize(spans, under="paths.announcing_sequence")
    traced = w.of_phase("traced")
    items = len(traced) * w.items_per_round

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def total(name, summary=s):
        st = summary.get(name)
        return st.total if st else 0.0

    def calls(name, summary=s):
        st = summary.get(name)
        return st.calls if st else 0

    def count(name, summary=s):
        st = summary.get(name)
        return st.count if st else 0

    n_paths = sum(r.get("n", 0) for r in traced)
    steps = sum(r.get("steps", 0.0) for r in traced)
    solves = calls("analytic.solve_wq")
    points = items if isinstance(w, ClosedForm) else 0
    n_cp = sum(r.get("n_cp", 0) for r in traced)
    replays = calls("simulate.simulate_compound_poisson")
    mc_s = sum(st.total for name, st in s.items() if name.startswith("mc."))
    top = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    selfs = layer_self(s)

    out = {
        "simulate.run_paths.ms_per_path": ratio(total("simulate.run_paths"), n_paths, 1e3),
        "simulate.ns_per_step": ratio(total("simulate.run_paths"), steps, 1e9),
        "simulate.run_compound_poisson.us_per_path.lattice":
            ratio(total("simulate.run_compound_poisson.lattice"), n_cp, 1e6),
        "simulate.run_compound_poisson.us_per_path.exp_grid":
            ratio(total("simulate.run_compound_poisson.exp_grid"), n_cp, 1e6),
        "simulate.simulate_compound_poisson.us_per_path":
            ratio(total("simulate.simulate_compound_poisson"), replays, 1e6),
        "mc.estimators_ms": ratio(mc_s, len(traced), 1e3),
        "weber.log_pcf_d_batch.nodes_per_solve":
            ratio(count("weber.log_pcf_d_batch", in_solve), solves),
        "weber.log_pcf_d_batch.nodes_per_point":
            ratio(count("weber.log_pcf_d_batch"), points),
        "weber.log_pcf_d_batch.us_per_node":
            ratio(total("weber.log_pcf_d_batch"), count("weber.log_pcf_d_batch"), 1e6),
        "weber.share_of_solve":
            ratio(total("weber.log_pcf_d_batch", in_solve)
                  + total("weber.log_pcf_d", in_solve), total("analytic.solve_wq")),
        "weber.log_pcf_d.calls": ratio(calls("weber.log_pcf_d"), items),
        "weber.log_pcf_d.us_per_call":
            ratio(total("weber.log_pcf_d"), calls("weber.log_pcf_d"), 1e6),
        "quad.composite_gl.calls": ratio(calls("quad.composite_gl"), items),
        "quad.composite_gl.ms": ratio(total("quad.composite_gl"), items, 1e3),
        "analytic.solve_wq.self_s":
            ratio(s["analytic.solve_wq"].self, solves) if solves else 0.0,
        "analytic.residuals_ms":
            ratio(total("analytic.oide_residual")
                  + total("analytic.compatibility_defect"), solves, 1e3),
        "analytic.g0.ms": ratio(total("analytic.g0"), calls("analytic.g0"), 1e3),
        "analytic.homogeneous_basis.ms":
            ratio(total("analytic.homogeneous_basis"),
                  calls("analytic.homogeneous_basis"), 1e3),
        "paths.first_passage.calls_per_announce":
            ratio(calls("paths.first_passage", in_announce),
                  calls("paths.announcing_sequence")),
        "trace_overhead_frac": overhead,
    }
    for name in ("first_passage", "running_supremum", "check_no_premature_contact",
                 "announcing_sequence", "load_path"):
        key = f"paths.{name}"
        out[f"{key}.us"] = ratio(total(key), calls(key), 1e6)
    for layer in LAYERS:
        out[f"self_share.{layer}"] = ratio(selfs.get(layer, 0.0), top)
    return out
