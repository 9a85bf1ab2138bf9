"""Simulation engine: exact diffusion steps, bridge correction, jump paths."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from passagelab import simulate
from passagelab.errors import StructuralError
from passagelab.paths import CODE_OF, Mode, first_passage, Barrier
from passagelab.simulate import (
    CompoundPoissonSpec,
    ExponentialJumps,
    LatticeJumps,
    ModelParams,
    SimConfig,
    STREAM_VERSION,
    _path_rng,
    _StepTables,
    _Stream,
    _bridge_prob,
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
        # 1300 steps span three chunks of the table recursion
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

    def test_worker_counts_bitwise_identical(self):
        a = run_paths(REF, self.CFG, q_list=(0.05,), workers=1)
        b = run_paths(REF, self.CFG, q_list=(0.05,), workers=3)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.taus, b.taus)
        assert np.array_equal(a.overshoots, b.overshoots, equal_nan=True)
        assert np.array_equal(a.comp, b.comp)

    def test_worker_count_below_one_is_rejected(self):
        for workers in (0, -2):
            with pytest.raises(StructuralError):
                run_paths(REF, self.CFG, workers=workers)

    def test_workers_none_runs_serially(self, monkeypatch):
        # the worker count is the caller's to set; run_paths reads no
        # environment, so no pool may start here
        monkeypatch.setenv("PASSAGELAB_WORKERS", "2")
        monkeypatch.setattr(simulate, "_BLOCK", 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert run_paths(REF, dataclasses.replace(self.CFG, n_paths=16)).n == 16

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
                         ).stream_version == STREAM_VERSION == 2


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

    @pytest.mark.parametrize("width", [1, 7, 128])
    def test_group_width_does_not_change_results(self, batch, width,
                                                 monkeypatch):
        monkeypatch.setattr(simulate, "_GROUP_WIDTH", width)
        _assert_same(batch, run_paths(REF, self.CFG, q_list=self.Q, workers=1))

    def test_block_size_does_not_change_results(self, batch, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK", 333)
        _assert_same(batch, run_paths(REF, self.CFG, q_list=self.Q, workers=2))

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
        # values recorded from the per-path stream layout: one exponential
        # waiting time, then one jump draw, per event
        lat = run_compound_poisson(
            CompoundPoissonSpec(1.0, LatticeJumps((1.0, 2.0), (0.5, 0.5)),
                                1.0, 0.0), 6, seed=2026, horizon=8.0)
        assert lat.modes.tolist() == [JUMP_OVER, JUMP_HIT, JUMP_OVER,
                                      JUMP_HIT, JUMP_HIT, JUMP_OVER]
        assert [float(t).hex() for t in lat.taus[:3]] == [
            "0x1.5eb2a39b62dfap+2", "0x1.31f9477716bd9p+1",
            "0x1.6ca81953a78b3p-1"]
        exp = run_compound_poisson(
            CompoundPoissonSpec(1.0, ExponentialJumps(2.0), 1.0, 0.0), 6,
            seed=2026, horizon=8.0, grid=(0.5, 2.0, 8.0))
        assert exp.modes.tolist() == [CENSORED] + [JUMP_OVER] * 5
        assert [float(t).hex() for t in exp.taus[:3]] == [
            "inf", "0x1.778a8bbb00939p+1", "0x1.554ed6e1ae36ep+0"]
        assert [float(c).hex() for c in exp.comp_at[0]] == [
            "0x1.152aaa3bf81ccp-4", "0x1.152aaa3bf81ccp-2",
            "0x1.6d73536f506abp+0"]
        assert [float(c).hex() for c in exp.comp_at[3]] == [
            "0x1.6cdc8cd674fb0p-4", "0x1.140bde38bdf9ep-1",
            "0x1.581a69810c572p+0"]
        assert exp.crossed_at.tolist() == [
            [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("law", [
        LatticeJumps((1.0, 2.0), (0.5, 0.5)),
        LatticeJumps((0.1, 0.3, 0.7, 2.0), (0.1, 0.2, 0.3, 0.4)),
        LatticeJumps((0.5, 1.0, 1.5), (0.0, 1 / 3, 2 / 3))])
    def test_lattice_draw_matches_numpy_choice(self, law):
        # same index and the same stream position as
        # rng.choice(len(values), p=probs)
        for seed in range(5):
            ours = np.random.Generator(np.random.Philox(seed))
            ref = np.random.Generator(np.random.Philox(seed))
            for _ in range(500):
                want = law.values[ref.choice(len(law.values),
                                             p=np.asarray(law.probs))]
                assert law.draw(ours) == want
            assert ours.random() == ref.random()

    def test_lattice_tail_closed_above(self):
        law = LatticeJumps((1.0, 2.0), (0.5, 0.5))
        assert law.tail(1.0) == 1.0
        assert law.tail(1.5) == 0.5
        assert law.tail(2.0) == 0.5
        assert law.tail(2.1) == 0.0

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
