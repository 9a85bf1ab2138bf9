"""Simulation engine: exact diffusion steps, bridge correction, jump paths."""

import concurrent.futures
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from passagelab import simulate
from passagelab.errors import StructuralError
from passagelab.paths import (
    CODE_OF,
    EPS_MODE,
    Barrier,
    CrossingRecord,
    Mode,
    classify_mode,
    first_passage,
)
from passagelab.simulate import (
    CP_STREAM_VERSION,
    CompoundPoissonSpec,
    ExponentialJumps,
    LatticeJumps,
    ModelParams,
    SimConfig,
    STREAM_VERSION,
    _path_rng,
    _StepTables,
    _Stream,
    _bridge_log_prob,
    cp_to_path,
    ou_exact_step,
    run_compound_poisson,
    run_paths,
    simulate_compound_poisson,
    simulate_crossing,
)

REF = ModelParams(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=2.0,
                  a=1.0, x=0.0)
CREEP, JUMP_OVER, CENSORED, JUMP_HIT = (
    CODE_OF[m] for m in (Mode.CREEP, Mode.JUMP_OVER, Mode.CENSORED, Mode.JUMP_HIT))


class TestModelParams:
    @pytest.mark.parametrize("field,value", [
        ("sigma", 0.0), ("sigma", -1.0), ("lam", 0.0), ("eta", -2.0),
    ])
    def test_positive_parameters(self, field, value):
        kw = dict(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=2.0,
                  a=1.0, x=0.0)
        kw[field] = value
        with pytest.raises(StructuralError):
            ModelParams(**kw)

    def test_start_below_barrier(self):
        with pytest.raises(StructuralError):
            ModelParams(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=2.0,
                        a=1.0, x=1.0)

    def test_finite(self):
        with pytest.raises(StructuralError):
            ModelParams(alpha=math.nan, beta=-0.5, sigma=0.3, lam=1.0,
                        eta=2.0, a=1.0, x=0.0)


def _moment_ode_oracle(x0: float, dt: float, params: ModelParams,
                       n_rk: int = 4000):
    """Mean and variance of the diffusion part by RK4 on the moment ODEs.

    dm/dt = alpha + beta m and dv/dt = 2 beta v + sigma^2, independent of
    the closed-form transition used by the sampler.
    """
    h = dt / n_rk
    m, v = x0, 0.0

    def f(state):
        m_, v_ = state
        return (params.alpha + params.beta * m_,
                2.0 * params.beta * v_ + params.sigma ** 2)

    for _ in range(n_rk):
        k1 = f((m, v))
        k2 = f((m + 0.5 * h * k1[0], v + 0.5 * h * k1[1]))
        k3 = f((m + 0.5 * h * k2[0], v + 0.5 * h * k2[1]))
        k4 = f((m + h * k3[0], v + h * k3[1]))
        m += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        v += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
    return m, v


class TestExactStep:
    @pytest.mark.parametrize("beta", [-0.5, -2.0, 0.0])
    def test_transition_moments_match_ode(self, beta):
        params = ModelParams(alpha=0.3, beta=beta, sigma=0.4, lam=1.0,
                             eta=2.0, a=5.0, x=0.0)
        x0, dt = -0.7, 0.8
        m_want, v_want = _moment_ode_oracle(x0, dt, params)
        mean = ou_exact_step(x0, dt, 0.0, params)
        plus = ou_exact_step(x0, dt, 1.0, params)
        assert mean == pytest.approx(m_want, rel=1e-10)
        assert (plus - mean) ** 2 == pytest.approx(v_want, rel=1e-10)

    def test_noise_enters_linearly(self):
        vals = [ou_exact_step(0.2, 0.05, g, REF) for g in (-1.0, 0.0, 1.0)]
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-12)

    def test_segment_matches_stepwise_loop(self):
        # 1300 steps span many widths of the table recursion
        rng = np.random.default_rng(5)
        xi = rng.standard_normal(1300)
        tables = _StepTables(REF, 1e-3, np.array([]))
        seg = tables.walk(np.array([-0.3]), xi[None, :])[0]
        x = -0.3
        walked = []
        for g in xi:
            x = ou_exact_step(x, 1e-3, float(g), REF)
            walked.append(x)
        assert seg == pytest.approx(np.array(walked), rel=1e-12, abs=1e-14)

    def test_segment_long_horizon_stable(self):
        # the rescaled cumulative sum must not overflow over many steps
        params = ModelParams(alpha=0.0, beta=-3.0, sigma=0.5, lam=1.0,
                             eta=2.0, a=10.0, x=0.0)
        xi = np.zeros((1, 60000))
        seg = _StepTables(params, 1e-3, np.array([])).walk(np.array([4.0]), xi)[0]
        assert np.all(np.isfinite(seg))
        assert abs(seg[-1]) < 1e-6  # decayed to the mean level 0

    def test_underflowing_growth_takes_exact_steps(self):
        # exp(beta h) underflows to 0 at beta h = -800, so the tables take
        # one exact step per column and no path turns into nan
        params = dataclasses.replace(REF, beta=-800.0)
        xi = np.random.default_rng(5).standard_normal(7)
        seg = _StepTables(params, 1.0, np.array([])).walk(np.array([-0.3]),
                                                          xi[None, :])[0]
        x = -0.3
        walked = []
        for g in xi:
            x = ou_exact_step(x, 1.0, float(g), params)
            walked.append(x)
        assert np.array_equal(seg, walked)
        cfg = SimConfig(horizon=5.0, step=1.0, seed=1, n_paths=5)
        res = run_paths(params, cfg, q_list=(0.1,))
        assert np.all(np.isfinite(res.comp))
        # between jumps the paths stay within a few 1e-2 of 0 at both
        # betas, so the same jumps cross
        slower = run_paths(dataclasses.replace(params, beta=-100.0), cfg)
        assert np.array_equal(res.modes, slower.modes)
        assert np.array_equal(res.taus, slower.taus)

    def test_overflowing_step_is_rejected(self):
        cfg = SimConfig(horizon=5.0, step=1.0, seed=1, n_paths=5)
        with pytest.raises(StructuralError):
            run_paths(dataclasses.replace(REF, beta=800.0), cfg)

    def test_array_step_lengths(self):
        dts = np.array([1e-3, 0.5, 2.0])
        got = ou_exact_step(0.2, dts, 0.7, REF)
        want = [ou_exact_step(0.2, float(dt), 0.7, REF) for dt in dts]
        assert np.array_equal(got, want)
        with pytest.raises(StructuralError):
            ou_exact_step(0.2, np.array([1e-3, 0.0]), 0.7, REF)


def _cn_survival(y0: float, a: float, sigma: float, dt: float,
                 n_x: int = 4001, n_t: int = 1500, width: float = 1.6):
    """Survival probability of a driftless diffusion below level a.

    Crank-Nicolson on u_t = (sigma^2/2) u_yy with absorption at a, run on
    [a - width, a]; independent of any reflection-principle formula.
    """
    ys = np.linspace(a - width, a, n_x)
    h = ys[1] - ys[0]
    k = dt / n_t
    r = 0.5 * sigma ** 2 * k / (h * h)
    u = np.ones(n_x)
    u[-1] = 0.0
    # interior tridiagonal systems, Dirichlet 0 at a and (approximately)
    # u = 1 at the far-left edge, which the width keeps many sds away
    n_in = n_x - 2
    ab = np.zeros((3, n_in))
    ab[0, 1:] = -0.5 * r
    ab[1, :] = 1.0 + r
    ab[2, :-1] = -0.5 * r
    for _ in range(n_t):
        rhs = u[1:-1] + 0.5 * r * (u[2:] - 2.0 * u[1:-1] + u[:-2])
        rhs[0] += 0.5 * r * (u[0] + u[0])  # left boundary pinned at 1
        rhs[0] -= 0.5 * r * u[0]
        u[1:-1] = solve_banded((1, 1), ab, rhs)
        u[0] = 1.0
        u[-1] = 0.0
    return float(np.interp(y0, ys, u))


def _bridge_prob(y0, y1, sigma, dt):
    return np.exp(_bridge_log_prob(y0, y1, sigma, dt))


class TestBridge:
    def test_limits(self):
        tiny = _bridge_prob(-3.0, -3.0, 0.3, 1e-3)
        assert tiny < 1e-200 or tiny == 0.0
        near = _bridge_prob(-1e-9, -1e-9, 0.3, 1e-3)
        assert near == pytest.approx(1.0, abs=1e-6)

    def test_unconditional_crossing_matches_pde(self):
        # integrate the bridge formula over the free endpoint and compare
        # with an absorbing-boundary PDE solve of the same crossing event
        from scipy.integrate import quad
        from scipy.stats import norm
        sigma, dt, a = 0.3, 0.05, 0.0
        for y0 in (-0.05, -0.12, -0.25):
            sd = sigma * math.sqrt(dt)

            def integrand(v):
                return norm.pdf(v, loc=y0, scale=sd) \
                    * _bridge_prob(y0 - a, v - a, sigma, dt)

            below, _err = quad(integrand, y0 - 10.0 * sd, a, limit=200)
            hit = below + float(norm.sf(a, loc=y0, scale=sd))
            surv_pde = _cn_survival(y0, a, sigma, dt)
            assert 1.0 - hit == pytest.approx(surv_pde, abs=2e-5)


class TestEngine:
    CFG = SimConfig(horizon=10.0, step=2e-3, seed=99, n_paths=768)

    def test_worker_counts_bitwise_identical(self, monkeypatch):
        a = run_paths(REF, self.CFG, q_list=(0.05,), workers=1)
        # blocks of 256 paths, so that three workers share the batch
        monkeypatch.setattr(simulate, "_BLOCK", 256)
        b = run_paths(REF, self.CFG, q_list=(0.05,), workers=3)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.taus, b.taus)
        assert np.array_equal(a.overshoots, b.overshoots, equal_nan=True)
        assert np.array_equal(a.comp, b.comp)
        assert a.work == b.work
        assert set(a.work) == {"strides", "refined", "normals", "uniforms"}
        assert all(type(v) is int and v > 0 for v in a.work.values())

    def test_worker_count_below_one_is_rejected(self):
        for workers in (0, -2):
            with pytest.raises(StructuralError):
                run_paths(REF, self.CFG, workers=workers)

    def test_workers_none_runs_serially(self, monkeypatch):
        # the worker count is the caller's to set, so no pool may start here
        monkeypatch.setattr(simulate, "_BLOCK", 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert run_paths(REF, dataclasses.replace(self.CFG, n_paths=16)).n == 16

    def test_pool_is_no_larger_than_the_block_count(self, monkeypatch):
        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulate, "_BLOCK", 256)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        assert run_paths(REF, self.CFG, workers=8).n == 768
        assert sizes == [3]

    def test_same_seed_reproduces(self):
        a = run_paths(REF, self.CFG, workers=1)
        b = run_paths(REF, self.CFG, workers=1)
        assert np.array_equal(a.taus, b.taus)

    def test_different_seeds_differ(self):
        other = SimConfig(horizon=10.0, step=2e-3, seed=100, n_paths=768)
        a = run_paths(REF, self.CFG, workers=1)
        b = run_paths(REF, other, workers=1)
        assert not np.array_equal(a.taus, b.taus)

    def test_result_shapes_and_codes(self):
        res = run_paths(REF, self.CFG, q_list=(0.0, 0.1), workers=1)
        assert res.n == 768
        assert res.comp.shape == (768, 2)
        assert set(np.unique(res.modes)) <= {CREEP, JUMP_OVER, CENSORED}
        assert res.q_index(0.1) == 1
        with pytest.raises(StructuralError):
            res.q_index(0.2)

    def test_overshoots_only_for_jump_crossings(self):
        res = run_paths(REF, self.CFG, workers=1)
        over = res.modes == JUMP_OVER
        assert np.all(res.overshoots[over] > 0.0)
        assert np.all(np.isnan(res.overshoots[~over]))
        # creep paths sit exactly at the barrier when they cross
        creep = res.modes == CREEP
        assert np.all(res.pre_jump_levels[creep] == REF.a)

    def test_vanishing_jump_sizes_remove_jump_crossings(self):
        # mean jump size 1e-12: a jump clears the barrier only from within
        # about 1e-12 of it, so every crossing is a creep
        tiny = dataclasses.replace(REF, eta=1e12)
        res = run_paths(tiny, self.CFG, workers=1)
        assert not np.any(res.modes == JUMP_OVER)
        assert np.any(res.modes == CREEP)

    def test_single_path_summary(self):
        out = simulate_crossing(REF, self.CFG, q=0.05, path_index=7)
        assert out.n == 1 and out.q_list == (0.05,)
        assert out.comp.shape == (1, 1)
        assert out.modes[0] in (CREEP, JUMP_OVER, CENSORED)
        if out.modes[0] == JUMP_OVER:
            assert out.overshoots[0] > 0.0
        assert out.comp[0, 0] >= 0.0

    def test_records_stream_version(self):
        assert run_paths(REF, dataclasses.replace(self.CFG, n_paths=4)
                         ).stream_version == STREAM_VERSION == 3

    def test_chunks_reuse_their_work_arrays(self, monkeypatch):
        # a chunk's transient memory is its traced peak less the larger of
        # its start and end, so arrays that persist in the group's scratch
        # do not count; allocating every work array anew in each chunk gave
        # a median of 414 KiB on this batch
        transients = []
        chunk = simulate._Group._chunk

        def traced(group, live):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            chunk(group, live)
            end, peak = tracemalloc.get_traced_memory()
            transients.append(peak - max(start, end))

        monkeypatch.setattr(simulate._Group, "_chunk", traced)
        cfg = SimConfig(horizon=50.0, step=1e-3, seed=5, n_paths=500)
        tracemalloc.start()
        try:
            run_paths(REF, cfg, q_list=(0.0, 0.01, 0.05, 0.1), workers=1)
        finally:
            tracemalloc.stop()
        assert len(transients) > 10
        assert np.median(transients) <= 128 * 1024


_FIELDS = ("modes", "taus", "overshoots", "pre_jump_levels", "comp")


def _assert_same(a, b, rows=slice(None), q_cols=slice(None)):
    """Every field of a equals the rows (and q columns) of b, bit for bit."""
    for name in _FIELDS:
        want = getattr(b, name)[rows]
        if name == "comp":
            want = want[:, q_cols]
        assert np.array_equal(getattr(a, name), want, equal_nan=True), name


class TestReplay:
    """Bitwise equalities that the per-path streams promise."""

    CFG = SimConfig(horizon=10.0, step=2e-3, seed=7, n_paths=1000)
    Q = (0.0, 0.05)

    @pytest.fixture(scope="class")
    def batch(self):
        return run_paths(REF, self.CFG, q_list=self.Q, workers=1)

    def test_single_path_replays_batch_member(self, batch):
        picks = np.random.default_rng(17).choice(self.CFG.n_paths, 20,
                                                 replace=False)
        for i in picks:
            out = simulate_crossing(REF, self.CFG, q=0.05, path_index=int(i))
            _assert_same(out, batch, rows=slice(i, i + 1), q_cols=[1])

    def test_shorter_batch_is_a_prefix(self, batch):
        short = run_paths(REF, dataclasses.replace(self.CFG, n_paths=300),
                          q_list=self.Q, workers=1)
        for name in _FIELDS:
            assert np.array_equal(getattr(short, name),
                                  getattr(batch, name)[:300], equal_nan=True)

    # width 3 grows the group's scratch arrays mid-batch; 256 is wider than
    # the default, so reused rows are exercised in both directions
    @pytest.mark.parametrize("width", [1, 3, 7, 128, 256])
    def test_group_width_does_not_change_results(self, batch, width,
                                                 monkeypatch):
        monkeypatch.setattr(simulate, "_GROUP_WIDTH", width)
        other = run_paths(REF, self.CFG, q_list=self.Q, workers=1)
        _assert_same(batch, other)
        assert batch.work == other.work

    def test_block_size_does_not_change_results(self, batch, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK", 333)
        other = run_paths(REF, self.CFG, q_list=self.Q, workers=2)
        _assert_same(batch, other)
        assert batch.work == other.work

    def test_q_list_does_not_change_results(self, batch):
        alone = run_paths(REF, self.CFG, q_list=(0.05,), workers=1)
        assert np.array_equal(alone.taus, batch.taus)
        assert np.array_equal(alone.comp[:, 0], batch.comp[:, 1])

    @pytest.mark.parametrize("beta,bridge", [(0.0, True), (0.8, False)])
    def test_other_models_replay(self, beta, bridge):
        params = dataclasses.replace(REF, beta=beta)
        cfg = SimConfig(horizon=5.0, step=0.05, seed=3, n_paths=40,
                        bridge_correction=bridge)
        res = run_paths(params, cfg, q_list=(0.1,), workers=1)
        assert np.all(np.isin(res.modes, (CREEP, JUMP_OVER, CENSORED)))
        for i in (0, 13, 39):
            out = simulate_crossing(params, cfg, q=0.1, path_index=i)
            _assert_same(out, res, rows=slice(i, i + 1))


def _mode_gap(a, b, code):
    """Difference of a mode's frequency in two batches, in standard errors."""
    pa, pb = (float(np.mean(r.modes == code)) for r in (a, b))
    se = math.sqrt(pa * (1.0 - pa) / a.n + pb * (1.0 - pb) / b.n)
    return abs(pa - pb) / se


class TestStrides:
    """The coarse-stride walk against the plain fine walk it refines.

    With _STRIDE forced to 1 every stride is one fine step and is its own
    fine walk, so that engine draws every path on the fine grid.
    """

    Q = (0.05,)

    def _pair(self, params, cfg, monkeypatch):
        coarse = run_paths(params, cfg, q_list=self.Q)
        with monkeypatch.context() as mp:
            mp.setattr(simulate, "_STRIDE", 1)
            fine = run_paths(params, dataclasses.replace(cfg, seed=cfg.seed + 1),
                             q_list=self.Q)
        return coarse, fine

    def test_same_law_as_the_fine_walk(self, monkeypatch):
        from scipy.stats import ks_2samp
        cfg = SimConfig(horizon=10.0, step=5e-3, seed=4100, n_paths=3000)
        coarse, fine = self._pair(REF, cfg, monkeypatch)
        assert coarse.work["strides"] * 8 < fine.work["strides"]
        for code in (CREEP, JUMP_OVER, CENSORED):
            assert _mode_gap(coarse, fine, code) < 4.0
        crossed = [r.taus[np.isfinite(r.taus)] for r in (coarse, fine)]
        assert ks_2samp(*crossed).pvalue > 0.01
        creeps = [r.taus[r.modes == CREEP] for r in (coarse, fine)]
        assert ks_2samp(*creeps).pvalue > 0.01
        # the Rao-Blackwell integral and the trapezoid agree in mean
        means = [r.comp[:, 0].mean() for r in (coarse, fine)]
        se = math.hypot(*(r.comp[:, 0].std() / math.sqrt(r.n)
                          for r in (coarse, fine)))
        assert abs(means[0] - means[1]) < 4.0 * se

    def test_brownian_creep_probability(self):
        # no drift, no mean reversion, no jumps to speak of: the barrier one
        # unit above the start is reached by t = 1 with probability
        # P(max W >= 1) = 2 (1 - Phi(1)) by the reflection principle
        params = ModelParams(alpha=0.0, beta=0.0, sigma=1.0, lam=1e-9,
                             eta=2.0, a=1.0, x=0.0)
        res = run_paths(params, SimConfig(horizon=1.0, step=1e-3, seed=77,
                                          n_paths=20_000))
        want = math.erfc(1.0 / math.sqrt(2.0))
        got = float(np.mean(res.modes == CREEP))
        assert abs(got - want) < 4.0 * math.sqrt(want * (1.0 - want) / res.n)
        assert not np.any(res.modes == JUMP_OVER)

    def test_horizon_shorter_than_one_stride(self, monkeypatch):
        # 30 fine steps, fewer than a stride: each path is one partial stride
        near = dataclasses.replace(REF, x=0.95)
        cfg = SimConfig(horizon=0.03, step=1e-3, seed=4200, n_paths=3000)
        assert cfg.horizon < simulate._STRIDE * cfg.step
        coarse, fine = self._pair(near, cfg, monkeypatch)
        # one stride per epoch, and few paths take a jump that stays below
        assert coarse.n <= coarse.work["strides"] < 1.01 * coarse.n
        assert np.all(coarse.taus[np.isfinite(coarse.taus)] <= cfg.horizon)
        assert np.all(np.isfinite(coarse.comp))
        for code in (CREEP, CENSORED):
            assert _mode_gap(coarse, fine, code) < 4.0

    def test_start_at_the_barrier_creeps_at_once(self):
        # the first stride's bridge probability is about 1, so it is
        # refined, and its first fine step crosses
        cfg = SimConfig(horizon=5.0, step=1e-3, seed=4300, n_paths=200)
        res = run_paths(dataclasses.replace(REF, x=REF.a - 1e-12), cfg,
                        q_list=(0.1,))
        assert np.all(res.modes == CREEP)
        assert np.all(res.taus <= cfg.step)
        assert res.work["refined"] >= res.n
        assert np.all(res.comp <= REF.lam * cfg.step)

    def test_strong_drift_towards_the_barrier(self, monkeypatch):
        # the mean level -alpha/beta = 15 lies far above a, so the first
        # strides' lognormal means have a constant term of about exp(300),
        # while their gaps of several units below a make the means
        # themselves far below exp(-300); the compensator must not lift them
        steep = ModelParams(alpha=300.0, beta=-20.0, sigma=0.01, lam=1.0,
                            eta=500.0, a=1.0, x=-20.0)
        cfg = SimConfig(horizon=1.0, step=1e-3, seed=5, n_paths=200)
        coarse, fine = self._pair(steep, cfg, monkeypatch)
        assert np.all(coarse.modes == CREEP) and np.all(fine.modes == CREEP)
        # about 1.4 strides to the crossing; only the crossing one is refined
        assert coarse.work["refined"] == coarse.n
        assert np.median(coarse.comp[:, 0]) == pytest.approx(
            np.median(fine.comp[:, 0]), rel=0.02)
        assert coarse.comp.max() < 1.1 * fine.comp.max()

    def test_steep_jump_tail_keeps_the_compensator_finite(self):
        # eta sigma sqrt(h) is far above 1, so every stride is one fine step
        # and takes the trapezoid; the lognormal mean would overflow
        steep = dataclasses.replace(REF, eta=1e12)
        res = run_paths(steep, SimConfig(horizon=5.0, step=1e-3, seed=5,
                                         n_paths=300), q_list=(0.0, 0.1))
        assert res.work["normals"] == res.work["strides"]   # no fine normals
        assert np.all(np.isfinite(res.comp))
        assert res.comp.max() < 0.01

    @pytest.mark.parametrize("beta", [-0.5, 0.8, 0.0])
    def test_bridge_law_is_gaussian_conditioning(self, beta):
        # mean and variance of X_s given both ends, from the covariances of
        # the exact steps: Cov(X_s, X_L) = Var(X_s) exp(beta (L - s))
        params = dataclasses.replace(REF, beta=beta)
        L, s = 0.7, np.array([0.05, 0.3, 0.69])
        g_s, m_s, sd_s = (np.asarray(c) for c in simulate._ou_coeffs(s, params))
        g_r, _, _ = simulate._ou_coeffs(L - s, params)
        g_L, m_L, sd_L = simulate._ou_coeffs(L, params)
        x0, x1 = -0.4, 0.2
        c = sd_s ** 2 * g_r / sd_L ** 2
        mean = x0 * g_s + m_s + c * (x1 - x0 * g_L - m_L)
        var = sd_s ** 2 - c * c * sd_L ** 2
        A, B, C, V = simulate._bridge_law(params, L, s)
        assert np.allclose(A * x0 + B * x1 + C, mean, rtol=1e-12, atol=1e-14)
        assert np.allclose(V, var, rtol=1e-10, atol=1e-15)
        assert np.allclose(B, c, rtol=1e-12)

    def test_chord_factor_is_exact_for_a_mean_level_at_the_barrier(self):
        # with -alpha/beta = a the barrier's image in the time-changed clock
        # is a straight line, so an OU bridge from gap y0 to gap y1 over L
        # reaches it with probability exp(-2 y0 y1 / (sigma^2 L))^(bL/sinh bL)
        params = ModelParams(alpha=2.0, beta=-2.0, sigma=1.0, lam=1.0,
                             eta=2.0, a=1.0, x=0.5)
        L, n, x1 = 1.0, 256, 0.4
        h = L / n
        z = np.random.default_rng(3).standard_normal((2000, n))
        walk = _StepTables(params, h, np.array([])).walk(
            np.full(z.shape[0], params.x), z)
        walk += simulate._bridge_law(params, L, h * np.arange(1, n + 1))[1] \
            * (x1 - walk[:, -1:])
        y = np.hstack([np.full((z.shape[0], 1), params.x), walk]) - params.a
        # each fine step's own bridge probability, bL = 2 / 256 there
        stay = -np.expm1(np.minimum(simulate._bridge_log_prob(
            y[:, :-1], y[:, 1:], params.sigma, h), 0.0))
        hit = 1.0 - np.prod(stay, axis=1)
        se = hit.std() / math.sqrt(hit.size)
        log_p = simulate._bridge_log_prob(params.x - params.a, x1 - params.a,
                                          params.sigma, L)
        assert abs(hit.mean() - math.exp(
            log_p * simulate._chord_factor(params.beta, L))) < 4.0 * se
        assert abs(hit.mean() - math.exp(log_p)) > 10.0 * se

    def test_written_out_rule_is_the_quadrature_rule(self):
        from passagelab.quad import _gl_rule
        nodes, weights = _gl_rule(4)
        assert np.array_equal(simulate._GL_NODES, nodes)
        assert np.array_equal(simulate._GL_WEIGHTS, weights)

    def test_bridge_law_is_continuous_at_beta_zero(self):
        L, s = 0.7, np.array([0.05, 0.3, 0.69])
        at_zero = simulate._bridge_law(dataclasses.replace(REF, beta=0.0), L, s)
        for beta in (1e-7, -1e-7):
            near = simulate._bridge_law(dataclasses.replace(REF, beta=beta), L, s)
            for got, want in zip(near, at_zero):
                assert np.allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_stream_layout_is_pinned(self):
        # values recorded from the stream layout of STREAM_VERSION 3
        res = run_paths(REF, SimConfig(horizon=10.0, step=1e-3, seed=2026,
                                       n_paths=6), q_list=(0.05,))
        assert res.modes.tolist() == [CREEP, CREEP, JUMP_OVER, JUMP_OVER,
                                      CREEP, CREEP]
        assert [float(t).hex() for t in res.taus] == [
            "0x1.bb7597dfc5fffp-1", "0x1.742a9320fb9dfp+2",
            "0x1.e52b80170f0e4p+1", "0x1.422a08a52fc27p-3",
            "0x1.15fd9cb3bc60ap+1", "0x1.12b22d6937684p+3"]
        assert [float(c).hex() for c in res.comp[:, 0]] == [
            "0x1.a5db703fede50p-2", "0x1.a9746863b9a8ep+0",
            "0x1.137ff5fab7fd2p+0", "0x1.4a0f0f78c750ap-6",
            "0x1.41929b504e0a2p-1", "0x1.52d16c1e109e1p+1"]
        assert res.work == {"strides": 375, "refined": 63, "normals": 4393,
                            "uniforms": 1548}


CP_SPEC = CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0)


class TestCompoundPoisson:
    def test_degenerate_unit_jump_hits_exactly(self):
        spec = CompoundPoissonSpec(intensity=1.0, jump_law=LatticeJumps((1.0,), (1.0,)),
                                   barrier_level=1.0, start=0.0)
        res = run_compound_poisson(spec, 500, seed=1, horizon=50.0)
        crossed = res.modes != CENSORED
        # every crossing is an exact hit
        assert np.all(res.modes[crossed] == JUMP_HIT)

    def test_degenerate_jump_overshoot_value(self):
        spec = CompoundPoissonSpec(intensity=1.0, jump_law=LatticeJumps((1.0,), (1.0,)),
                                   barrier_level=1.5, start=0.0)
        path, rec = simulate_compound_poisson(spec, seed=3, horizon=100.0)
        assert rec.mode is Mode.JUMP_OVER
        assert rec.y_at == pytest.approx(0.5)  # lands at 2, barrier 1.5

    def test_exponential_jumps_never_hit_exactly(self):
        spec = CompoundPoissonSpec(intensity=1.0, jump_law=ExponentialJumps(2.0),
                                   barrier_level=1.0, start=0.0)
        res = run_compound_poisson(spec, 3000, seed=5, horizon=8.0)
        assert int((res.modes == JUMP_HIT).sum()) == 0

    def test_path_route_agrees_with_batch(self):
        # replaying a batch member through the PiecewisePath machinery must
        # reproduce the batch classification and crossing time exactly
        spec = CompoundPoissonSpec(intensity=1.5, jump_law=ExponentialJumps(3.0),
                                   barrier_level=1.0, start=0.0)
        res = run_compound_poisson(spec, 40, seed=11, horizon=6.0)
        for i in range(40):
            _, rec = simulate_compound_poisson(spec, seed=11, horizon=6.0,
                                               path_index=i)
            replayed = Mode.CENSORED if rec.mode is Mode.NO_CROSSING \
                else rec.mode
            assert CODE_OF[replayed] == res.modes[i]
            if rec.mode is not Mode.CENSORED:
                assert rec.tau == res.taus[i]

    @pytest.mark.parametrize("barrier,mode", [(0.3, Mode.JUMP_HIT),
                                              (0.8, Mode.TOUCH_JUMP)])
    def test_lattice_batch_classifies_like_replay(self, barrier, mode):
        # sums of 0.1 steps miss 0.3 by +6e-17 and 0.8 by -1e-16; the batch
        # reads those landings with first_passage's tolerance
        spec = CompoundPoissonSpec(intensity=1.0,
                                   jump_law=LatticeJumps((0.1,), (1.0,)),
                                   barrier_level=barrier, start=0.0)
        res = run_compound_poisson(spec, 200, seed=1, horizon=50.0)
        for i in range(200):
            _, rec = simulate_compound_poisson(spec, seed=1, horizon=50.0,
                                               path_index=i)
            replayed = Mode.CENSORED if rec.mode is Mode.NO_CROSSING \
                else rec.mode
            assert simulate.CP_MODE_CODES[int(res.modes[i])] is replayed
            assert res.taus[i] == rec.tau
        assert np.all(res.modes == CODE_OF[mode])

    def test_compensator_linear_before_first_jump(self):
        lam, rate = 2.0, 3.0
        spec = CompoundPoissonSpec(intensity=lam, jump_law=ExponentialJumps(rate),
                                   barrier_level=1.0, start=0.0)
        grid = (0.25, 0.5)
        res = run_compound_poisson(spec, 200, seed=7, horizon=1.0, grid=grid)
        # paths that have not jumped by t have compensator lam*tail(a)*t
        quiet = res.taus > 0.5
        still = res.crossed_at[:, 1] == 0.0
        want = lam * math.exp(-rate * 1.0)
        for t_idx, t in enumerate(grid):
            vals = res.comp_at[quiet & still, t_idx]
            # all-quiet paths share it only if no sub-barrier jump happened;
            # the minimum over them is the no-jump value
            assert float(vals.min()) == pytest.approx(want * t, rel=1e-12)

    def test_horizon_censoring(self):
        spec = CompoundPoissonSpec(intensity=0.01, jump_law=LatticeJumps((2.0,), (1.0,)),
                                   barrier_level=1.0, start=0.0)
        res = run_compound_poisson(spec, 100, seed=9, horizon=0.5)
        assert np.all(np.isinf(res.taus[res.modes == CENSORED]))
        assert (res.modes == CENSORED).sum() > 90

    def test_spec_validation(self):
        with pytest.raises(StructuralError):
            CompoundPoissonSpec(intensity=1.0, jump_law=LatticeJumps((1.0,), (1.0,)),
                                barrier_level=0.0, start=0.0)
        with pytest.raises(StructuralError):
            CompoundPoissonSpec(intensity=-1.0, jump_law=LatticeJumps((1.0,), (1.0,)),
                                barrier_level=1.0, start=0.0)

    def test_stream_layout_is_pinned(self):
        # values recorded from the stream layout of CP_STREAM_VERSION 2: raw
        # Philox outputs 2e and 2e + 1 give event e its gap and its jump
        lat = run_compound_poisson(
            CompoundPoissonSpec(1.0, LatticeJumps((1.0, 2.0), (0.5, 0.5)),
                                1.0, 0.0), 6, seed=2026, horizon=8.0)
        assert lat.modes.tolist() == [JUMP_OVER, JUMP_HIT, JUMP_OVER,
                                      JUMP_HIT, JUMP_HIT, JUMP_OVER]
        assert [float(t).hex() for t in lat.taus[:3]] == [
            "0x1.128be040b866fp-5", "0x1.9a34286cd8d8ep-3",
            "0x1.43a9383209f52p-1"]
        exp = run_compound_poisson(
            CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0), 6,
            seed=2026, horizon=8.0, grid=(0.5, 2.0, 8.0))
        assert exp.modes.tolist() == [JUMP_OVER] * 6
        assert [float(t).hex() for t in exp.taus[:3]] == [
            "0x1.1d2538d148daep-1", "0x1.36cd9fd24b693p+2",
            "0x1.60966ea02e67dp+1"]
        assert [float(c).hex() for c in exp.comp_at[0]] == [
            "0x1.99fdae797c926p-3", "0x1.d928eb3be4703p-3",
            "0x1.d928eb3be4703p-3"]
        assert [float(c).hex() for c in exp.comp_at[3]] == [
            "0x1.152aaa3bf81ccp-4", "0x1.152aaa3bf81ccp-2",
            "0x1.0038d2fac44bap+0"]
        assert exp.crossed_at.tolist() == [
            [0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("law", [
        LatticeJumps((1.0, 2.0), (0.5, 0.5)),
        LatticeJumps((0.1, 0.3, 0.7, 2.0), (0.1, 0.2, 0.3, 0.4)),
        LatticeJumps((0.5, 1.0, 1.5), (0.0, 1 / 3, 2 / 3))])
    def test_lattice_draw_matches_numpy_choice(self, law):
        # the same index as rng.choice(len(values), p=probs) for the same
        # uniform, which choice draws with rng.random()
        for seed in range(5):
            ours = np.random.Generator(np.random.Philox(seed))
            ref = np.random.Generator(np.random.Philox(seed))
            got = law.invert(ours.random(500))
            want = [law.values[ref.choice(len(law.values),
                                          p=np.asarray(law.probs))]
                    for _ in range(500)]
            assert got.tolist() == want

    def test_lattice_tail_closed_above(self):
        law = LatticeJumps((1.0, 2.0), (0.5, 0.5))
        assert law.tail(1.0) == 1.0
        assert law.tail(1.5) == 0.5
        assert law.tail(2.0) == 0.5
        assert law.tail(2.1) == 0.0

    @pytest.mark.parametrize("law", [
        ExponentialJumps(2.0), LatticeJumps((0.4, 0.9), (0.5, 0.5))])
    def test_compensator_sums_each_path_in_its_own_order(self, law):
        # the batch's one array pass against the piece-by-piece sum over the
        # jumps of every replayed path, bitwise; the lattice path starts on
        # a piece of rate 0
        spec = CompoundPoissonSpec(1.5, law, 1.0, 0.0)
        grid = np.array([0.25, 1.0, 3.0, 6.0])
        res = run_compound_poisson(spec, 200, seed=31, horizon=6.0,
                                   grid=grid)
        for i in range(200):
            path, rec = simulate_compound_poisson(spec, 31, 6.0, path_index=i)
            times = [j.time for j in path.jumps]
            levels = [j.right_value for j in path.jumps]
            crossed = rec.mode is not Mode.NO_CROSSING
            ends = times if crossed else times + [6.0]
            want = np.zeros(grid.shape[0])
            for s0, s1, lvl in zip([0.0] + times, ends, [0.0] + levels):
                rate = 1.5 * law.tail(1.0 - lvl)
                if rate:
                    want += rate * np.clip(np.minimum(grid, s1) - s0, 0.0,
                                           None)
            assert [c.hex() for c in res.comp_at[i].tolist()] \
                == [c.hex() for c in want.tolist()]

    def test_lane_numbers_do_not_depend_on_the_batch(self, monkeypatch):
        # path i's mode, tau and compensator are bitwise the same for every
        # batch size and on either side of a lane chunk boundary
        spec = CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0)
        grid = (0.5, 2.0, 8.0)

        def batch(n):
            res = run_compound_poisson(spec, n, seed=17, horizon=8.0,
                                       grid=grid)
            return res.modes, res.taus, res.comp_at

        full = batch(5000)
        assert simulate._CP_LANES == 4096
        for n in (5, 4095, 4097):
            for got, want in zip(batch(n), full):
                assert np.array_equal(got, want[:n])
        monkeypatch.setattr(simulate, "_CP_LANES", 7)
        for got, want in zip(batch(40), full):
            assert np.array_equal(got, want[:40])

    def test_replays_in_threads_match_the_batch(self):
        # each thread re-keys its own generator, so concurrent replays
        # still read their own paths' streams
        spec = CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0)
        res = run_compound_poisson(spec, 64, seed=5, horizon=8.0)

        def taus(lanes):
            return [simulate_compound_poisson(spec, 5, 8.0, path_index=i)[1].tau
                    for i in lanes]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as ex:
                futs = [ex.submit(taus, range(w, 64, 4)) for w in range(4)]
                got = [f.result(timeout=60) for f in futs]
        finally:
            sys.setswitchinterval(switch)
        for w, tau in enumerate(got):
            assert np.array_equal(res.taus[w::4], tau)

    def test_event_at_the_horizon_counts(self):
        # a path cut at its own crossing time still crosses there
        res = run_compound_poisson(CP_SPEC, 20, seed=3, horizon=8.0)
        i = int(np.flatnonzero(np.isfinite(res.taus))[0])
        tau = float(res.taus[i])
        cut = run_compound_poisson(CP_SPEC, 20, seed=3, horizon=tau)
        assert cut.taus[i] == tau and cut.modes[i] == res.modes[i]
        _, rec = simulate_compound_poisson(CP_SPEC, 3, tau, path_index=i)
        assert rec.tau == tau

    def test_compensator_stops_at_the_horizon(self):
        res = run_compound_poisson(CP_SPEC, 50, seed=4, horizon=2.0,
                                   grid=(2.0, 5.0))
        assert (res.modes == CENSORED).sum() > 0
        assert np.array_equal(res.comp_at[:, 0], res.comp_at[:, 1])

    def test_result_records_its_stream_version(self):
        spec = CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0)
        res = run_compound_poisson(spec, 3, seed=0, horizon=1.0)
        assert res.stream_version == CP_STREAM_VERSION == 2

    @pytest.mark.parametrize("y_minus", [-1.0, -2 * EPS_MODE, -EPS_MODE,
                                         -0.5 * EPS_MODE])
    @pytest.mark.parametrize("y_at", [0.0, 0.5 * EPS_MODE, EPS_MODE,
                                      2 * EPS_MODE, 1.0])
    def test_crossing_codes_follow_classify_mode(self, y_minus, y_at):
        want = classify_mode(CrossingRecord(1.0, y_minus, y_at,
                                            Mode.NO_CROSSING))
        got = simulate._crossing_codes(np.array([y_minus]), np.array([y_at]))
        assert got.tolist() == [CODE_OF[want]]

    @pytest.mark.parametrize("call", [
        lambda: run_compound_poisson(CP_SPEC, -3, 0, 8.0),
        lambda: run_compound_poisson(CP_SPEC, 10, 0, -1.0),
        lambda: run_compound_poisson(CP_SPEC, 10, 0, math.nan),
        lambda: run_compound_poisson(CP_SPEC, 10, 2 ** 64, 8.0),
        lambda: run_compound_poisson(CP_SPEC, 10, -1, 8.0),
        lambda: simulate_compound_poisson(CP_SPEC, 0, 8.0, path_index=-1),
        lambda: run_compound_poisson(CP_SPEC, 10, 0, 8.0, grid=(1.0, math.nan)),
        lambda: CompoundPoissonSpec(math.inf, ExponentialJumps(2.0), 1.0, 0.0),
        lambda: ExponentialJumps(math.inf),
        lambda: LatticeJumps((math.nan,), (1.0,)),
    ], ids=["negative-n_paths", "negative-horizon", "nan-horizon",
            "seed-2**64", "seed-minus-1", "replay-index-minus-1",
            "nan-grid-time", "infinite-intensity", "infinite-rate",
            "nan-lattice-value"])
    def test_bad_inputs_raise_structural_error(self, call):
        with pytest.raises(StructuralError):
            call()

    def test_cp_path_exact_jump_bookkeeping(self):
        path = cp_to_path(
            CompoundPoissonSpec(intensity=1.0, jump_law=LatticeJumps((0.4,), (1.0,)),
                                barrier_level=1.0, start=0.0),
            [1.0, 2.5], [0.4, 0.8], horizon=4.0)
        assert path.value(0.5) == 0.0
        assert path.value(1.7) == 0.4
        assert path.left_limit(2.5) == 0.4
        assert path.value(2.5) == 0.8
        rec = first_passage(path, Barrier.constant(1.0))
        assert rec.mode is Mode.NO_CROSSING


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_array_philox_matches_numpy(seed):
    # blocks 1-4 of each lane, bitwise against numpy's Philox on its key
    index = np.array([0, 1, 2 ** 48 - 1], dtype=np.uint64)
    keys = (simulate._NS_CP << 48) | index
    want = [np.random.Philox(key=simulate._stream_key(seed, simulate._NS_CP, i))
            .random_raw(16).reshape(4, 4) for i in index.tolist()]
    for k in range(1, 5):
        got = simulate._philox_blocks(k, seed, keys)
        for lane in range(3):
            assert got[:, lane].tolist() == want[lane][k - 1].tolist()


def test_uniforms_lie_strictly_inside_the_unit_interval():
    raw = np.array([0, 1 << 12, 2 ** 64 - 1], dtype=np.uint64)
    assert simulate._uniforms(raw).tolist() == [2.0 ** -53, 3 * 2.0 ** -53,
                                                1.0 - 2.0 ** -53]


def test_per_path_streams_are_stable_and_distinct():
    g1 = _path_rng(11, 1, 3)
    g2 = _path_rng(11, 1, 3)
    g3 = _path_rng(11, 1, 4)
    first = g1.random()
    assert first == g2.random()
    assert first != g3.random()
    with pytest.raises(StructuralError):
        _path_rng(11, 1, 1 << 48)


def test_rekeyed_stream_matches_a_new_generator():
    stream = _Stream()
    for index in (3, 0, 3, (1 << 48) - 1):
        stream.rng.standard_normal(5)   # leave a used state behind
        stream.rng.integers(0, 7, size=3, dtype=np.uint32)
        got = stream.rekey(11, 1, index)
        want = _path_rng(11, 1, index)
        assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
        assert np.array_equal(got.random(4), want.random(4))
        assert got.integers(0, 7, dtype=np.uint32) \
            == want.integers(0, 7, dtype=np.uint32)
