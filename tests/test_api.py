"""The public surface, and the names and call shapes the benchmark relies on.

bench/workloads.py calls the package by name, patches some functions at the
attribute its callers look them up by, and passes some arguments by
position. A cleanup that renames or reshapes any of them breaks the
benchmark; these tests make it fail here first.
"""

import inspect
import os
import subprocess
import sys
import textwrap

import pytest

import passagelab
from passagelab import acceptance, analytic, mc, paths, simulate, weber


def test_public_names_are_pinned():
    assert passagelab.__all__ == [
        "AccuracyError", "AnnouncingReport", "Barrier", "CompoundPoissonSpec",
        "ConvergenceError", "CrossingRecord",
        "ExponentialJumps", "InconsistencyError", "Jump", "LatticeJumps",
        "Mode", "ModelParams", "NumericalError", "PiecewisePath",
        "Segment", "SimConfig", "SimResult",
        "StructuralError", "UnderSampleError",
        "UnsupportedRegimeError", "WeberContext", "announcing_sequence",
        "check_no_premature_contact", "classify_mode", "errors",
        "first_passage", "load_corpus", "load_path", "log_pcf_d",
        "make_context", "ou_exact_step", "paths", "pcf_d", "quad",
        "restricted_times", "run_compound_poisson", "run_paths",
        "running_supremum", "save_path", "simulate",
        "simulate_compound_poisson", "simulate_crossing", "weber",
    ]


# every module attribute the benchmark reaches or patches
BENCH_NAMES = [
    (simulate, "CP_MODE_CODES"), (simulate, "first_passage"),
    (simulate, "run_paths"), (simulate, "run_compound_poisson"),
    (simulate, "simulate_compound_poisson"), (simulate, "CompoundPoissonSpec"),
    (simulate, "ExponentialJumps"), (simulate, "LatticeJumps"),
    (simulate, "ModelParams"), (simulate, "SimConfig"),
    (analytic, "log_pcf_d_batch"), (analytic, "log_pcf_d"),
    (analytic, "composite_gl"), (analytic, "homogeneous_basis"),
    (analytic, "VolterraGrid"), (analytic, "solve_wq"),
    (analytic, "gq_from_solution"), (analytic, "g0"), (analytic, "g0_profile"),
    (analytic, "creeping_prob"), (analytic, "boundary_slope"),
    (analytic, "oide_residual"), (analytic, "compatibility_defect"),
    (analytic, "robin_operator"),
    (acceptance, "AcceptanceSettings"), (acceptance, "random_compliant_path"),
    (acceptance, "random_violating_path"),
    (paths, "first_passage"), (paths, "running_supremum"),
    (paths, "restricted_times"), (paths, "check_no_premature_contact"),
    (paths, "announcing_sequence"), (paths, "save_path"), (paths, "load_path"),
    (paths, "Barrier"), (paths, "Mode"),
    (weber, "make_context"), (weber, "pcf_d"), (weber, "log_pcf_d"),
    (weber, "log_pcf_d_batch"),
]


@pytest.mark.parametrize("module,name", BENCH_NAMES,
                         ids=[f"{m.__name__}.{n}" for m, n in BENCH_NAMES])
def test_bench_names_exist(module, name):
    assert hasattr(module, name)


def test_cp_code_table_covers_the_bench_lookups():
    codes = {mode: code for code, mode in simulate.CP_MODE_CODES.items()}
    for mode in (paths.Mode.JUMP_HIT, paths.Mode.JUMP_OVER, paths.Mode.CENSORED):
        assert simulate.CP_MODE_CODES[codes[mode]] is mode


def test_one_mode_code_table():
    Mode = paths.Mode
    assert paths.MODE_CODES == {0: Mode.CREEP, 1: Mode.JUMP_OVER,
                                2: Mode.CENSORED, 3: Mode.JUMP_HIT,
                                4: Mode.TOUCH_JUMP}
    assert simulate.CP_MODE_CODES is paths.MODE_CODES


(P, CFG, RES, Q, SPEC, N, SEED, HORIZON, GRID, LAT, X, FN, SOL, VALUE, NU,
 Z, PATH, BARRIER, REC, FNAME) = (object() for _ in range(20))

# (function, positional arguments, keyword arguments) as the benchmark calls it
BENCH_CALLS = [
    (mc.estimate_mode_probs, (P, CFG, RES), {}),
    (mc.estimate_gq_indicator, (P, CFG, Q, RES), {}),
    (mc.estimate_gq_compensator, (P, CFG, Q, RES), {}),
    (mc.estimate_hq_fq, (P, CFG, Q, RES), {}),
    (mc.overshoot_law_test, (P, CFG, RES), {"min_samples": N}),
    (mc.estimate_overshoot_moments, (P, CFG, RES), {}),
    (mc.estimate_cp_mode_probs, (SPEC, N, SEED, HORIZON), {"result": LAT}),
    (mc.compensator_martingale_check, (SPEC, GRID, N, SEED),
     {"horizon": HORIZON, "result": LAT}),
    (simulate.run_paths, (P, CFG), {"q_list": Q, "workers": N}),
    (simulate.run_compound_poisson, (SPEC, N, SEED, HORIZON), {}),
    (simulate.run_compound_poisson, (SPEC, N, SEED, HORIZON), {"grid": GRID}),
    (simulate.simulate_compound_poisson, (SPEC, SEED, HORIZON),
     {"path_index": N}),
    (analytic.g0, (P, X), {}),
    (analytic.creeping_prob, (P, X), {}),
    (analytic.boundary_slope, (P,), {}),
    (analytic.homogeneous_basis, (P, Q), {}),
    (analytic.oide_residual, (P, Q, FN, X), {}),
    (analytic.compatibility_defect, (P, Q, FN), {}),
    (analytic.solve_wq, (P, Q), {}),
    (analytic.solve_wq, (P, Q, GRID), {}),
    (analytic.gq_from_solution, (SOL, X), {}),
    (analytic.g0_profile, (P, GRID), {}),
    (analytic.robin_operator, (P, VALUE, VALUE), {}),
    (weber.make_context, (P, Q), {}),
    (weber.pcf_d, (NU, Z), {}),
    (paths.first_passage, (PATH, BARRIER), {}),
    (paths.restricted_times, (REC,), {}),
    (paths.check_no_premature_contact, (PATH, BARRIER), {}),
    (paths.announcing_sequence, (PATH, BARRIER), {"n_max": N}),
    (paths.save_path, (PATH, FNAME), {}),
    (paths.load_path, (FNAME,), {}),
]


@pytest.mark.parametrize("fn,args,kwargs", BENCH_CALLS,
                         ids=[f"{fn.__name__}-{len(a)}-{'-'.join(kw)}"
                              for fn, a, kw in BENCH_CALLS])
def test_bench_call_shapes_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_import_leaves_scipy_stats_out():
    # mc needs one KS statistic, not the start-up cost of all of scipy.stats
    code = ("import sys, passagelab, passagelab.mc, passagelab.acceptance, "
            "passagelab.cli; print('scipy.stats' in sys.modules)")
    src = os.path.dirname(os.path.dirname(passagelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# The path, compound Poisson and diffusion routes in a fresh process, then
# one call of each kind that needs SciPy (quadrature, KS p-value, solver).
_SCIPY_FREE_ROUTES = textwrap.dedent("""
    import contextlib, io, math, sys
    import numpy as np
    import passagelab, passagelab.mc, passagelab.acceptance, passagelab.cli
    from passagelab import analytic, mc
    from passagelab.acceptance import (
        AcceptanceSettings, random_compliant_path, random_violating_path)
    from passagelab.paths import (
        Barrier, announcing_sequence, check_no_premature_contact,
        first_passage)
    from passagelab.simulate import (
        CompoundPoissonSpec, ExponentialJumps, LatticeJumps, SimConfig,
        run_compound_poisson, run_paths, simulate_compound_poisson)

    for name in ("touch_and_jump", "premature_contact"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert passagelab.cli.main(["classify", "--corpus", name]) == 0
    rng = np.random.default_rng(3)
    zero = Barrier.constant(0.0)
    for path in (random_compliant_path(rng), random_violating_path(rng)):
        first_passage(path, zero)
        check_no_premature_contact(path, zero)
        announcing_sequence(path, zero)
    times = (1.0, 4.0, 8.0)
    for law in (LatticeJumps((1.0, 2.0), (0.5, 0.5)), ExponentialJumps(2.0)):
        spec = CompoundPoissonSpec(1.0, law, 1.0, 0.0)
        cp = run_compound_poisson(spec, 200, 5, 8.0, grid=times)
        mc.estimate_cp_mode_probs(spec, 200, 5, 8.0, result=cp)
        mc.compensator_martingale_check(spec, times, 200, 5, 8.0, result=cp)
    simulate_compound_poisson(spec, 5, 8.0, path_index=3)
    params = AcceptanceSettings().params
    cfg = SimConfig(horizon=20.0, step=1e-2, seed=11, n_paths=64)
    res = run_paths(params, cfg, q_list=(0.0, 0.05), workers=1)
    mc.estimate_gq_indicator(params, cfg, 0.05, res)
    mc.estimate_gq_compensator(params, cfg, 0.05, res)
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

    sol = analytic.solve_wq(params, 0.05, analytic.VolterraGrid(n_cells=64))
    values = (analytic.g0(params, 0.0),
              mc.overshoot_law_test(params, cfg, res, min_samples=1).p_value,
              analytic.gq_from_solution(sol, 0.0))
    print(all(math.isfinite(v) for v in values))
""")


def test_path_and_simulation_routes_run_without_scipy():
    # SciPy loads where it is called: the quadrature rule, the KS p-value
    # and the Volterra solver, none of which these routes need
    src = os.path.dirname(os.path.dirname(passagelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_ROUTES], env=env,
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out == ["[]", "True"]
