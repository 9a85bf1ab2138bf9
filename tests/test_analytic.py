"""Closed forms and the integral-equation solver for the discounted transform."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from passagelab import analytic, mc, simulate, weber
from passagelab.analytic import (
    HomogeneousBasis,
    VolterraGrid,
    basis_operator_residual,
    boundary_slope,
    compatibility_defect,
    creeping_prob,
    g0,
    g0_prime,
    g0_profile,
    gq_from_solution,
    homogeneous_basis,
    ode3_residual,
    oide_residual,
    robin_operator,
    solve_wq,
)
from passagelab.errors import (AccuracyError, ConvergenceError,
                               NumericalError, StructuralError,
                               UnsupportedRegimeError)
from passagelab.simulate import ModelParams, SimConfig
from passagelab.weber import (
    TABLE_RTOL,
    LogPcfTable,
    log_pcf_d,
    log_pcf_d_batch,
    make_context,
    pcf_d,
)

REF = ModelParams(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=2.0,
                  a=1.0, x=0.0)

# anchor value for the reference configuration, pinned from the adaptive
# quadrature route at rtol 1e-12 (the acceptance suite cross-checks it
# against two Monte Carlo routes)
G0_AT_ZERO = 0.789204514403


@pytest.fixture(scope="module")
def basis0() -> HomogeneousBasis:
    return homogeneous_basis(REF, 0.0)


# a draw of the widened box with a signed solution w_q (up to +0.0735)
STALLED = ModelParams(alpha=0.19395121082161892, beta=-1.7012069745403153,
                      sigma=0.4348437202181015, lam=0.4057252730603772,
                      eta=4.361175190391078, a=1.0, x=0.0)
STALLED_Q = 0.4143990354882612


@pytest.fixture(scope="module")
def sol05():
    return solve_wq(REF, 0.05, VolterraGrid(n_cells=4096))


def _psi_prime(basis: HomogeneousBasis, x: float) -> float:
    """d psi_q / dx by the exact cylinder-function derivative rule."""
    ctx = basis.ctx
    z = ctx.z(x)
    return analytic._psi_prime_from(ctx, x, log_pcf_d(ctx.nu_q, z),
                                    log_pcf_d(ctx.nu_q + 1.0, z))


def _interior_mask(sol) -> np.ndarray:
    """Nodes clear of the truncation boundary layer at the left edge."""
    x_min = float(sol.grid[0])
    return sol.grid >= x_min + 0.02 * (REF.a - x_min)


class TestBasis:
    def test_boundary_form_on_psi_closed_form(self, basis0):
        ctx = basis0.ctx
        a = REF.a
        want = (REF.sigma * math.sqrt(ctx.b) / math.sqrt(2.0)) \
            * math.exp(ctx.p(a)) * pcf_d(ctx.nu_q + 1.0, ctx.z(a))
        got = robin_operator(REF, float(basis0.psi_q(a)),
                             _psi_prime(basis0, a))
        assert got == pytest.approx(want, rel=1e-12)
        assert basis0.boundary_psi == pytest.approx(want, rel=1e-12)
        assert want > 0.0

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.7])
    def test_second_member_is_in_the_boundary_kernel(self, q):
        basis = homogeneous_basis(REF, q)
        a = REF.a
        val = robin_operator(REF, float(basis.chi_q(a)), basis.chi_prime(a))
        assert abs(val) <= 1e-12 * abs(basis.boundary_psi)

    def test_wronskian_constant_matches_gamma_formula(self, basis0):
        ctx = basis0.ctx
        want = math.log(-ctx.z1) + 0.5 * math.log(2.0 * math.pi) \
            - math.lgamma(-ctx.nu_q)
        assert basis0.log_wronskian_scale == pytest.approx(want, rel=1e-13)

    def test_wronskian_from_members(self, basis0):
        # Abel's identity: W(x) = -exp(log_wronskian_scale + 2 p(x))
        for x in (-2.0, 0.0, 0.9):
            direct = float(basis0.psi_q(x)) * basis0.chi_prime(x) \
                - _psi_prime(basis0, x) * float(basis0.chi_q(x))
            want = -math.exp(basis0.log_wronskian_scale
                             + 2.0 * basis0.ctx.p(x))
            assert direct == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("x", [-1.5, 0.0, 0.8])
    def test_prime_formulas_match_finite_differences(self, basis0, x):
        h = 1e-6 * max(1.0, abs(x))
        fd_psi = (float(basis0.psi_q(x + h)) - float(basis0.psi_q(x - h))) \
            / (2.0 * h)
        fd_chi = (float(basis0.chi_q(x + h)) - float(basis0.chi_q(x - h))) \
            / (2.0 * h)
        assert _psi_prime(basis0, x) == pytest.approx(fd_psi, rel=1e-8)
        assert basis0.chi_prime(x) == pytest.approx(fd_chi, rel=1e-8)

    def test_gauge_cancels_jump_tail(self, basis0):
        # the decaying member must absorb e^{eta x} exactly for the seed
        # term to stay bounded: the linear parts satisfy it algebraically
        ctx = basis0.ctx
        assert ctx.p_lin - 0.5 * ctx.z0 * ctx.z1 == pytest.approx(REF.eta,
                                                                  rel=1e-13)

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_operator_residual_small_on_both_members(self, q):
        basis = homogeneous_basis(REF, q)
        xs = np.linspace(REF.a - 3.0, REF.a, 25)
        for member in ("psi", "chi"):
            res = basis_operator_residual(basis, member, xs)
            assert float(np.max(np.abs(res))) <= 1e-7

    def test_operator_residual_rejects_unknown_member(self, basis0):
        with pytest.raises(StructuralError):
            basis_operator_residual(basis0, "phi", 0.0)


class TestClosedForms:
    def test_g0_at_barrier_and_range(self):
        assert g0(REF, REF.a) == 0.0
        val = g0(REF, 0.0)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(G0_AT_ZERO, abs=1e-9)

    def test_partition_with_creeping(self):
        for x in (-1.0, 0.0, 0.9):
            assert g0(REF, x) + creeping_prob(REF, x) == pytest.approx(1.0)

    def test_g0_decreasing_toward_barrier(self):
        vals = [g0(REF, x) for x in (-2.0, -0.5, 0.4, 0.95)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_g0_prime_matches_quadrature_route(self):
        for x in (-1.0, 0.2):
            h = 1e-5
            fd = (g0(REF, x + h) - g0(REF, x - h)) / (2.0 * h)
            assert g0_prime(REF, x) == pytest.approx(fd, rel=1e-6)
        assert g0_prime(REF, 0.5) < 0.0

    def test_profile_matches_pointwise(self):
        grid = np.linspace(-2.0, REF.a, 2049)
        prof = g0_profile(REF, grid)
        for i in (0, 700, 1400, 2048):
            assert prof[i] == pytest.approx(g0(REF, float(grid[i])),
                                            abs=1e-9)

    def test_profile_converges_fourth_order(self):
        # halving the cell width must shrink the defect by about 16x; the
        # two-point Gauss rule is degree-3 exact, so expect much better
        errs = []
        for n in (128, 512):
            grid = np.linspace(-2.0, REF.a, n + 1)
            prof = g0_profile(REF, grid)
            errs.append(abs(prof[0] - g0(REF, -2.0)))
        assert errs[1] < errs[0] / 100.0

    def test_profile_grid_validation(self):
        with pytest.raises(StructuralError):
            g0_profile(REF, np.linspace(-2.0, 0.5, 8))

    def test_boundary_slope_matches_one_sided_difference(self):
        slope = boundary_slope(REF)
        h = 1e-6
        fd = g0(REF, REF.a - h) / h
        assert slope > 0.0
        assert fd == pytest.approx(slope, rel=1e-4)

    def test_profile_working_set_is_bounded(self):
        # the quadrature runs its rows in bounded blocks; over 32768
        # cylinder values the unblocked levels peaked at 166 MiB
        grid = np.linspace(-6.25, REF.a, 16385)
        tracemalloc.start()
        try:
            g0_profile(REF, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_forms_warn_nowhere_on_the_benchmark_box(self):
        # seeded draws from the box of the closed_form benchmark workload
        rng = np.random.default_rng(2020)
        for _ in range(50):
            params = ModelParams(
                alpha=rng.uniform(0.0, 0.2), beta=rng.uniform(-1.0, -0.25),
                sigma=rng.uniform(0.2, 0.5), lam=rng.uniform(0.5, 1.5),
                eta=rng.uniform(1.5, 3.0), a=1.0, x=rng.uniform(-1.0, 0.9))
            q = rng.uniform(0.0, 0.5)
            assert 0.0 < g0(params, params.x) < 1.0
            assert 0.0 < creeping_prob(params, params.x) < 1.0
            assert boundary_slope(params) > 0.0
            basis = homogeneous_basis(params, q)
            assert math.isfinite(basis.chi_prime(params.x))

    def test_stalled_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(weber, "_MAX_PANELS", 1)
        with pytest.raises(AccuracyError, match="stalled"):
            g0(REF, 0.0)

    def test_domain_errors(self):
        with pytest.raises(StructuralError):
            g0(REF, 1.5)
        with pytest.raises(StructuralError):
            g0_prime(REF, 2.0)


class TestVolterra:
    def test_zero_discount_returns_seed(self):
        sol = solve_wq(REF, 0.0, VolterraGrid(n_cells=1024))
        assert sol.converged and sol.iterations <= 1
        assert np.array_equal(sol.w_values, sol.w0_values)
        assert gq_from_solution(sol, REF.a) == 0.0

    def test_positive_discount_converges(self, sol05):
        assert sol05.converged
        assert sol05.iterations < 30
        assert sol05.sup_delta <= 1e-10
        assert sol05.truncation_error <= 1e-9

    def test_records_contraction_and_table_fit(self, sol05):
        history = np.array(sol05.delta_history)
        rates = history[1:] / history[:-1]
        assert np.all(rates < 0.2)
        assert 0.0 <= sol05.table_rel_error <= TABLE_RTOL
        assert sol05.table_fit_nodes > 0

    def test_undiscounted_derivative_nonpositive(self):
        # at q = 0 the transform is a plain crossing probability, monotone
        # in the start level, and the solver returns the seed unmodified
        sol = solve_wq(REF, 0.0, VolterraGrid(n_cells=1024))
        assert np.all(sol.w_values <= 0.0)

    def test_discounted_transform_is_unimodal(self, sol05):
        # for q > 0 the discount pulls the far field down to zero, so the
        # transform rises with x far below the barrier, peaks, then falls
        # to zero at the barrier; the derivative changes sign exactly once
        interior = np.where(_interior_mask(sol05))[0]
        w_in = sol05.w_values[interior]
        pos = np.where(w_in > 0.0)[0]
        assert pos.size > 0
        assert np.array_equal(pos, np.arange(pos.size))  # a single prefix
        peak_x = float(sol05.grid[interior[pos[-1]]])
        assert 0.2 < peak_x < 0.7

    def test_transform_bounded_by_undiscounted(self, sol05):
        interior = _interior_mask(sol05)
        gq_nodes = gq_from_solution(sol05, sol05.grid[interior])
        g0_nodes = g0_profile(REF, sol05.grid)[interior]
        assert np.all(gq_nodes >= -1e-15)
        assert np.all(gq_nodes <= g0_nodes + 1e-12)
        # and decreasing from the peak to the barrier
        past_peak = sol05.grid[interior] >= 0.7
        assert np.all(np.diff(gq_nodes[past_peak]) <= 1e-14)

    def test_monotone_in_discount(self):
        cheap = VolterraGrid(n_cells=2048)
        g_lo = gq_from_solution(solve_wq(REF, 0.01, cheap), 0.0)
        g_hi = gq_from_solution(solve_wq(REF, 0.1, cheap), 0.0)
        assert g_lo > g_hi > 0.0

    def test_domain_errors(self, sol05):
        with pytest.raises(StructuralError):
            gq_from_solution(sol05, float(sol05.grid[0]) - 1.0)
        with pytest.raises(StructuralError):
            gq_from_solution(sol05, REF.a + 1e-9)

    def test_grid_validation(self):
        with pytest.raises(StructuralError):
            VolterraGrid(n_cells=4)

    def test_truncation_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "TRUNCATION_TOL", 0.0)
        with pytest.raises(AccuracyError, match="truncation error"):
            solve_wq(REF, 0.05, VolterraGrid(n_cells=64))

    @pytest.mark.parametrize("params,q,grid", [
        (REF, 0.05, VolterraGrid(n_cells=64, max_iter=2))],
        ids=["iteration-cap"])
    def test_unconverged_loop_raises(self, params, q, grid):
        with pytest.raises(ConvergenceError,
                           match=f"after {grid.max_iter} iterations"):
            solve_wq(params, q, grid)

    def test_seed_below_tol_returns_zero(self):
        # tol bounds the absolute residual, and w = 0 leaves |w0| <= tol
        tiny = dataclasses.replace(REF, lam=1e-14)
        sol = solve_wq(tiny, 0.05, VolterraGrid(n_cells=64))
        assert np.all(sol.w_values == 0.0)
        assert sol.sup_delta == np.linalg.norm(sol.w0_values) <= 1e-10

    def test_formerly_stalled_draw_matches_monte_carlo(self):
        # Picard iteration does not converge here (the spectral radius of
        # eta q K is about 5.7); the solution is signed, and the compensator
        # route's standard error is about 7 times below the indicator's
        sol = solve_wq(STALLED, STALLED_Q, VolterraGrid(n_cells=4096))
        g = gq_from_solution(sol, STALLED.x)
        assert g == pytest.approx(0.0352134596, abs=1e-9)
        assert np.max(sol.w_values) > 0.07
        fn = lambda v: gq_from_solution(sol, v)
        for x in (-1.0, 0.0, 0.7):
            assert abs(oide_residual(STALLED, STALLED_Q, fn, x)) \
                <= 1e-4 * STALLED.lam
        assert abs(compatibility_defect(STALLED, STALLED_Q, fn)) \
            <= 1e-4 * STALLED.lam
        # exp(-20 q) = 2.5e-4 of the mass is left past the horizon
        cfg = SimConfig(horizon=20.0, seed=9, n_paths=5000)
        res = simulate.run_paths(STALLED, cfg, q_list=(STALLED_Q,))
        comp = mc.estimate_gq_compensator(STALLED, cfg, STALLED_Q, res)
        ind = mc.estimate_gq_indicator(STALLED, cfg, STALLED_Q, res)
        assert comp.std_error < ind.std_error / 5.0
        for est in (comp, ind):
            assert abs(est.mean - g) <= 4.0 * est.std_error


class TestResiduals:
    def test_closed_form_satisfies_equation(self):
        fn = lambda v: g0(REF, v) if np.ndim(v) == 0 \
            else np.array([g0(REF, float(u)) for u in np.atleast_1d(v)])
        for x in (-1.0, 0.0, 0.6):
            assert abs(oide_residual(REF, 0.0, fn, x)) <= 1e-6 * REF.lam

    def test_solution_satisfies_equation(self, sol05):
        fn = lambda v: gq_from_solution(sol05, v)
        for x in (-1.0, 0.0, 0.7):
            assert abs(oide_residual(REF, 0.05, fn, x)) <= 1e-6 * REF.lam

    def test_compatibility_at_barrier(self, sol05):
        fn = lambda v: gq_from_solution(sol05, v)
        assert abs(compatibility_defect(REF, 0.05, fn)) <= 1e-4 * REF.lam

    def test_third_order_form_closed_route(self):
        fn = lambda v: g0(REF, float(v))
        for x in (-1.0, 0.0, 0.6):
            assert abs(ode3_residual(REF, 0.0, fn, x, h=5e-3)) <= 1e-6 * REF.lam

    def test_third_order_form_spline_route(self, sol05):
        fn = lambda v: gq_from_solution(sol05, v)
        for x in (-1.0, 0.0):
            assert abs(ode3_residual(REF, 0.05, fn, x, h=1e-2)) <= 1e-6 * REF.lam

    def test_residual_point_must_be_interior(self):
        fn = lambda v: g0(REF, float(v))
        with pytest.raises(StructuralError):
            oide_residual(REF, 0.0, fn, REF.a)


def test_seed_term_sign_and_consistency():
    grid = VolterraGrid(n_cells=64)
    assert np.all(solve_wq(REF, 0.2, grid).w0_values < 0.0)
    at_zero = solve_wq(REF, 0.0, grid)
    assert at_zero.w0_values[32] == pytest.approx(
        g0_prime(REF, at_zero.grid[32]), rel=1e-9)


def _record_quadrature_calls(monkeypatch) -> list:
    """Patch weber's quadrature to record each call's rows (c, z, weighted)."""
    calls = []
    integral = weber._log_integral_batch

    def counted(c, c1, z, rtol, log_weight=None, weighted=None):
        calls.append(list(zip(c.tolist(), z.tolist(), weighted.tolist())))
        return integral(c, c1, z, rtol, log_weight, weighted)

    monkeypatch.setattr(weber, "_log_integral_batch", counted)
    return calls


def _quadrature_rows(nu: float, z: float, weighted: bool = False) -> list:
    """The rows (c, z, weighted) log D_nu(z) takes in weber's quadrature:
    one row, c = -nu - 1, for every nu < 0."""
    return [(-nu - 1.0, z, weighted)]


def _assert_same_rows(got: list, want: list):
    assert len(got) == len(want)
    got, want = sorted(got), sorted(want)
    assert [r[2] for r in got] == [r[2] for r in want]
    assert np.array([r[:2] for r in got]) == pytest.approx(
        np.array([r[:2] for r in want]), rel=1e-15, abs=1e-15)


def test_closed_forms_evaluate_each_scalar_cylinder_value_once(monkeypatch):
    # every cylinder value a closed form needs is one row of a single
    # quadrature call, an order in (-1, 0) included; lam = 0.3 puts
    # nu + 1 = -0.6 in that range
    calls = _record_quadrature_calls(monkeypatch)
    for params in (REF, dataclasses.replace(REF, lam=0.3)):
        ctx0, ctx = make_context(params, 0.0), make_context(params, 0.05)
        za0, za = ctx0.z(params.a), ctx.z(params.a)
        d1_a = _quadrature_rows(ctx0.nu_q + 1.0, za0)
        basis_rows = [row for nu in (ctx.nu_q, ctx.nu_q + 1.0)
                      for z in (za, -za) for row in _quadrature_rows(nu, z)]
        for run, want in (
                (lambda: g0(params, 0.0),
                 _quadrature_rows(ctx0.nu_q, za0, True) + d1_a),
                (lambda: creeping_prob(params, 0.0),
                 _quadrature_rows(ctx0.nu_q, za0, True) + d1_a),
                (lambda: boundary_slope(params),
                 _quadrature_rows(ctx0.nu_q, za0) + d1_a),
                (lambda: homogeneous_basis(params, 0.05), basis_rows)):
            calls.clear()
            run()
            assert len(calls) == 1
            _assert_same_rows(calls[0], want)


# ---------------------------------------------------------------------------
# g0 as one weighted cylinder integral

def _mp_g0(mp, params: ModelParams, x: float):
    """G0(x) by mpmath.quad of |w0| = K exp(p) pcfd(nu, z) over [x, a].

    The integrand is divided by its value at the barrier, because quad's
    stopping rule is absolute; pieces start one decay length below the
    barrier and double in width from there.
    """
    b, sig, lam, eta, alpha, a = (mp.mpf(v) for v in (
        -params.beta, params.sigma, params.lam, params.eta, params.alpha,
        params.a))
    sig2 = sig * sig
    nu = -1 - lam / b
    z0 = mp.sqrt(2) * (alpha + eta * sig2 / 2) / (sig * mp.sqrt(b))
    z1 = -mp.sqrt(2 * b) / sig
    p = lambda y: (eta / 2 - alpha / sig2) * y + b / (2 * sig2) * y * y
    z = lambda y: z0 + z1 * y
    d_a = mp.pcfd(nu, z(a))
    scale = mp.sqrt(2) * lam / (sig * mp.sqrt(b)) * d_a / mp.pcfd(nu + 1, z(a))
    peak = (-z(a) + mp.sqrt(z(a) ** 2 - 4 * nu)) / 2
    cuts, width = [a], 1 / (eta + abs(z1) * peak)
    while cuts[-1] > x:
        cuts.append(max(mp.mpf(x), cuts[-1] - width))
        width *= 2
    return scale * mp.quad(
        lambda y: mp.exp(p(y) - p(a)) * mp.pcfd(nu, z(y)) / d_a, cuts[::-1])


# REF with one field moved to the edge of what g0 is asked for; x = -50 is
# among the reference points. beta = -1e-3 (nu = -1001) is left to the
# g0_profile cross-check: mpmath.pcfd takes most of a second per value there.
G0_EXTREMES = [("eta=20", {"eta": 20.0}), ("eta=0.05", {"eta": 0.05}),
               ("sigma=0.05", {"sigma": 0.05}), ("lam=1e-6", {"lam": 1e-6}),
               ("lam=50", {"lam": 50.0}),
               # nu + 1 = -1.1: log D_{nu+1}(z(a)) at the default rtol
               # 1e-10 put g0 2.3e-11 off
               ("lam=0.55", {"lam": 0.55})]
G0_ORACLE_CASES = [pytest.param(REF, x, id=f"ref-x={x:g}") for x in
                   (-50.0, -5.0, 0.0, 0.9, REF.a - 1e-3, REF.a - 1e-6)] + [
    pytest.param(dataclasses.replace(REF, **kw), 0.0, id=name)
    for name, kw in G0_EXTREMES] + [
    # nu + 1 = -0.02, z(a) = -33.2: g0 is within 1.2e-13 of mpmath, but
    # creeping_prob = 1 - g0 = 1.8e-3 magnifies that to 6.5e-11 relative
    pytest.param(dataclasses.replace(REF, beta=-50.0), 0.0, id="beta=-50",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "creeping_prob = 1 - g0 near 1.8e-3 carries g0's "
                     "rounding as 6.5e-11 relative, above the 1e-12 bound")))]


@pytest.mark.parametrize("params,x", G0_ORACLE_CASES)
def test_g0_and_creeping_match_mpmath(params, x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = _mp_g0(mp, params, x)
        g_want, c_want = float(want), float(1 - want)
    assert abs(g0(params, x) - g_want) <= 1e-12 * g_want
    assert abs(creeping_prob(params, x) - c_want) <= 1e-12 * c_want


# ClosedForm.draw's box in bench/workloads.py
DRAW_MODELS = st.builds(
    ModelParams, alpha=st.floats(0.0, 0.2), beta=st.floats(-1.0, -0.25),
    sigma=st.floats(0.2, 0.5), lam=st.floats(0.5, 1.5),
    eta=st.floats(1.5, 3.0), a=st.just(1.0), x=st.floats(-1.0, 0.9))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(params=DRAW_MODELS)
@example(params=dataclasses.replace(REF, beta=-1e-3))
def test_g0_matches_profile_route(params):
    # the x-side quadrature of w0 on 4096 cells is good to a few 1e-12
    # here; the t-integral shares only the normalising D_{nu+1}(z(a))
    grid = np.linspace(params.x, params.a, 4097)
    want = g0_profile(params, grid)[0]
    assert g0(params, params.x) == pytest.approx(want, rel=1e-10)
    # G0(a - dx) / dx tends to the boundary slope at first order in dx
    slope = boundary_slope(params)
    errs = [abs(g0(params, params.a - dx) / dx - slope) / slope
            for dx in (1e-3, 1e-4, 1e-5)]
    assert errs[2] <= 1e-3
    assert errs[1] <= 0.2 * errs[0] and errs[2] <= 0.2 * errs[1]


def test_g0_is_two_cylinder_integrals_and_no_x_quadrature(monkeypatch):
    # the x-integral sits inside the t-integral of D_nu(z(a)), the one
    # weighted row; the other value is log D_{nu+1}(z(a)), which normalises
    # w0. Both share one quadrature call, as does every other closed form.
    def forbidden(*args, **kwargs):
        raise AssertionError("a closed form ran an x-side quadrature")

    calls = _record_quadrature_calls(monkeypatch)
    monkeypatch.setattr(analytic, "composite_gl", forbidden)
    for run, n_rows, n_weighted in (
            (lambda: g0(REF, 0.0), 2, 1),
            (lambda: creeping_prob(REF, 0.0), 2, 1),
            (lambda: boundary_slope(REF), 2, 0),
            (lambda: homogeneous_basis(REF, 0.05), 4, 0)):
        calls.clear()
        run()
        assert len(calls) == 1
        assert len(calls[0]) == n_rows
        assert sum(row[2] for row in calls[0]) == n_weighted
    assert g0(REF, 0.0) == pytest.approx(G0_AT_ZERO, abs=1e-12)


# ---------------------------------------------------------------------------
# the solver's certified Weber tables

MODELS = st.builds(
    ModelParams, alpha=st.floats(-0.3, 0.3), beta=st.floats(-2.0, -0.1),
    sigma=st.floats(0.1, 1.0), lam=st.floats(0.2, 3.0),
    eta=st.floats(0.5, 5.0), a=st.just(1.0), x=st.just(0.0))
OFF_NODE = st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)
REF_FRACS = [0.0, 0.3, 1.0, 0.51, 0.77, 0.999]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(params=MODELS, q=st.floats(0.0, 0.5), fracs=OFF_NODE)
@example(params=REF, q=0.0, fracs=REF_FRACS)
@example(params=REF, q=0.01, fracs=REF_FRACS)
@example(params=REF, q=0.05, fracs=REF_FRACS)
@example(params=REF, q=0.1, fracs=REF_FRACS)
@example(params=REF, q=0.5, fracs=REF_FRACS)
def test_solver_tables_match_direct_quadrature(params, q, fracs):
    # the z-intervals solve_wq fits by default, those of the truncation
    # check's deep grid, for D_nu(+z) and D_nu(-z)
    ctx = make_context(params, q)
    x_min = analytic._auto_x_min(params, q)
    z_lo, z_hi = ctx.z(params.a), ctx.z(x_min - (params.a - x_min))
    for lo, hi in ((z_lo, z_hi), (-z_hi, -z_lo)):
        table = LogPcfTable(ctx.nu_q, lo, hi)
        zs = np.clip(lo + np.array(fracs) * (hi - lo), lo, hi)
        # TABLE_RTOL, or ten times the rounding error of log D far out in z
        bound = np.maximum(TABLE_RTOL, 10.0 * weber._ROUND_ULPS
                           * np.finfo(float).eps * 0.25 * zs * zs)
        direct = [log_pcf_d(ctx.nu_q, z, b / 10.0) for z, b in zip(zs, bound)]
        assert np.all(np.abs(np.expm1(table(zs) - direct)) <= bound)


# MODELS with sigma widened to [0.05, 1], where the decay point of psi can
# lie above the start or too close to the barrier
WIDE_MODELS = st.builds(dataclasses.replace, MODELS,
                        sigma=st.floats(0.05, 1.0))


def _scalar_x_min(params, q) -> float:
    """_auto_x_min's scan with one scalar cylinder value per step."""
    ctx = make_context(params, q)
    step = 0.25 * max(1.0, params.sigma / math.sqrt(ctx.b), 1.0 / params.eta)
    x, best = params.a, -math.inf
    for _ in range(100_000):
        lp = ctx.p(x) + log_pcf_d(ctx.nu_q, float(ctx.z(x)))
        best = max(best, lp)
        if lp - best <= analytic._LOG_EPS:
            return x
        x -= step
    raise AssertionError("the scalar scan found no left end")


def _assert_scalar_scan(params, q):
    """_auto_x_min returns bitwise the scalar scan's x, or both raise."""
    try:
        want = _scalar_x_min(params, q)
    except NumericalError:
        with pytest.raises(NumericalError):
            analytic._auto_x_min(params, q)
        return
    assert analytic._auto_x_min(params, q) == want


@pytest.mark.parametrize("q,x_min", [(0.0, -6.25), (0.01, -6.25),
                                     (0.05, -6.25), (0.1, -6.0)])
def test_auto_x_min_batches_the_scalar_scan(q, x_min):
    _assert_scalar_scan(REF, q)
    assert analytic._auto_x_min(REF, q) == x_min


def _g0_gap(sol) -> float:
    """Criterion 4's statistic: the solve against the closed-form profile."""
    return float(np.max(np.abs(gq_from_solution(sol, sol.grid)
                               - g0_profile(sol.params, sol.grid))))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(params=WIDE_MODELS, q=st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
def test_solve_is_accurate_or_raises(params, q):
    # the batched domain scan stops where the scalar one does
    _assert_scalar_scan(params, q)
    # q = 0 is judged by criterion 4's rule on criterion 4's grid; it costs
    # no Krylov iterations. The linear solve always converges, so only the
    # domain (AccuracyError) may fail.
    grid = VolterraGrid() if q == 0.0 else VolterraGrid(n_cells=1024)
    try:
        sol = solve_wq(params, q, grid)
    except AccuracyError:
        return
    assert sol.grid[0] <= params.x
    assert sol.truncation_error <= analytic.TRUNCATION_TOL
    if q == 0.0:
        gap = _g0_gap(sol)
        if gap > 1e-8:
            # near sigma = 0.05 the uniform grid under-resolves the barrier
            # layer, of width about sigma^2 / |alpha + beta a|; that error
            # is O(h^4), so it must fall as the grid is refined, which a
            # wrong domain would not
            finer = solve_wq(params, q, VolterraGrid(n_cells=2 * grid.n_cells))
            assert _g0_gap(finer) <= gap / 8.0


# G_q(x) on n_cells=1024 for 40 draws of the widened box, in the order
# default_rng(5) draws them (alpha, beta, sigma, lam, eta, q for each
# model). Picard iteration does not converge on draws 9, 16, 22, 23 and 34;
# on the other 33 it agrees to 1.6e-11. Draws 2 and 15 have z(a) = 3.0 and
# 6.4, where D_{nu+1}(z(a)) is e^-26 and e^-36 of D_{nu+1}(-z(a)); their
# values agree with 4096 cells to 2.0e-8 and 2.4e-9.
_BOX = ((-0.3, 0.3), (-2.0, -0.1), (0.05, 1.0), (0.2, 3.0), (0.5, 5.0),
        (0.0, 0.5))
_BOX_GQ = (
    0.587973702035, 0.706399062647, 0.339089616743, 0.354376036546,
    0.665764234849, 0.667947804338, 0.491936107627, 0.349338549816,
    0.518143521989, 0.097527705844, 0.708566038244, 0.160339051558,
    0.189464674748, 0.466030616131, 0.747769132951, 0.073109247063,
    0.035213459523, 0.680430290023, 0.657604602482, 0.199384208208,
    0.172735955795, 0.333275900735, 0.085309944553, 0.195783677171,
    0.587960110160, 0.442720548274, 0.799533635654, 0.257145646583,
    0.526303893837, 0.694059121135, 0.115186570288, 0.305540401279,
    0.097052560506, 0.858669945346, 0.134150304853, 0.669281059927,
    0.670333930516, 0.175431527085, 0.774500477970, 0.865745688986)


def _box_draws() -> list[tuple[ModelParams, float]]:
    rng = np.random.default_rng(5)
    draws = []
    for _ in _BOX_GQ:
        alpha, beta, sigma, lam, eta, q = (rng.uniform(lo, hi)
                                           for lo, hi in _BOX)
        draws.append((ModelParams(alpha=alpha, beta=beta, sigma=sigma,
                                  lam=lam, eta=eta, a=1.0, x=0.0), q))
    return draws


def test_box_sweep_solves_every_draw():
    for (params, q), want in zip(_box_draws(), _BOX_GQ):
        sol = solve_wq(params, q, VolterraGrid(n_cells=1024))
        assert gq_from_solution(sol, 0.0) == pytest.approx(want, abs=1e-9)


def _far_below(alpha: float) -> ModelParams:
    """The reference model with eta = 1 and its mean level 2 alpha: z(a) is
    10.3, 23.6, 37.0 and 50.3 at alpha = 2, 4, 6 and 8."""
    return dataclasses.replace(REF, alpha=alpha, eta=1.0)


@pytest.mark.parametrize("params,q", [
    pytest.param(params, q, id=f"box{i}")
    for i, (params, q) in enumerate(_box_draws())] + [
    pytest.param(_far_below(alpha), q, id=f"alpha={alpha}-q={q}")
    for alpha in (2, 4, 6, 8) for q in (0.0, 0.05, 0.5)])
def test_chi_meets_robin_on_its_own_scale(params, q):
    # boundary_psi falls like exp(-z(a)^2 / 4), so only the sizes of chi's
    # own two terms can scale the residual at large z(a)
    basis = homogeneous_basis(params, q)
    a = params.a
    value, deriv = float(basis.chi_q(a)), basis.chi_prime(a)
    scale = abs(0.5 * params.sigma ** 2 * deriv) \
        + abs((params.alpha + params.beta * a) * value)
    assert 0.0 < scale < math.inf
    assert abs(robin_operator(params, value, deriv)) <= 1e-13 * scale


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [12.0, 16.0])
def test_chi_past_double_range_is_an_unsupported_regime(alpha):
    # z(a) = 77 at alpha = 12, where log chi(a) = 1360
    params = _far_below(alpha)
    basis = homogeneous_basis(params, 0.05)
    for value in (basis.chi_q, basis.chi_prime):
        with pytest.raises(UnsupportedRegimeError, match="log chi = "):
            value(params.a)


@pytest.mark.filterwarnings("error")
def test_barrier_where_chi_overflows_solves():
    # the solver takes chi in log space and scales it, so alpha = 12,
    # where chi(a) = e^1360, still solves
    gs = [gq_from_solution(solve_wq(_far_below(12.0), 0.05,
                                    VolterraGrid(n_cells=n)), 0.0)
          for n in (256, 1024)]
    assert gs[0] == pytest.approx(gs[1], abs=1e-6)
    assert gs[1] == pytest.approx(0.0517759, abs=1e-7)


def test_barrier_far_below_the_mean_level_solves():
    # z(a) = 50.3 and log_ratio = 1278: the ratio of the basis would
    # overflow in linear space
    params = _far_below(8.0)
    gs = [gq_from_solution(solve_wq(params, 0.05, VolterraGrid(n_cells=n)),
                           0.0) for n in (1024, 4096)]
    assert gs[0] == pytest.approx(gs[1], abs=1e-8)
    cfg = SimConfig(horizon=60.0, seed=11, n_paths=20_000)
    res = simulate.run_paths(params, cfg, q_list=(0.05,), workers=1)
    comp = mc.estimate_gq_compensator(params, cfg, 0.05, res)
    assert abs(comp.mean - gs[1]) <= 3.0 * comp.std_error


class _DirectTable:
    """Stands in for LogPcfTable: every value by direct quadrature."""

    max_rel_error = 0.0
    fit_nodes = 0

    def __init__(self, nu, z_lo, z_hi):
        self.nu = nu

    def __call__(self, z):
        return log_pcf_d_batch(self.nu, z)


def _assert_same_solve(monkeypatch, params, q, spec):
    table_sol = solve_wq(params, q, spec)
    monkeypatch.setattr(analytic, "LogPcfTable", _DirectTable)
    direct_sol = solve_wq(params, q, spec)
    assert table_sol.iterations == direct_sol.iterations
    assert np.max(np.abs(table_sol.w_values - direct_sol.w_values)) <= 1e-10
    assert table_sol.truncation_error == pytest.approx(
        direct_sol.truncation_error, abs=1e-10)


@pytest.mark.parametrize("q", [0.0, 0.05])
def test_table_solve_matches_direct_quadrature_solve(monkeypatch, q):
    _assert_same_solve(monkeypatch, REF, q, VolterraGrid(n_cells=1024))


@pytest.mark.parametrize("params,x_min", [
    # deep grids reaching z = 124 and z = 671, where the rounding error of
    # log D is above TABLE_RTOL
    (ModelParams(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=0.5, a=1.0,
                 x=0.0), None),
    (REF, -100.0),
    # nu = -1.125, where direct quadrature at its default tolerance is only
    # good to about 2e-11
    (ModelParams(alpha=0.1, beta=-2.0, sigma=1.0, lam=0.2, eta=0.5, a=1.0,
                 x=0.0), None),
])
def test_table_solve_matches_direct_quadrature_far_out(monkeypatch, params,
                                                       x_min):
    if x_min is not None:
        monkeypatch.setattr(analytic, "_auto_x_min", lambda p, q: x_min)
    _assert_same_solve(monkeypatch, params, 0.05, VolterraGrid(n_cells=512))


# ---------------------------------------------------------------------------
# the Krylov solve's kernel application in scaled linear space

def _scan_cases():
    """name -> (log |terms|, signs, fewest bands the scan must cut them into)."""
    rng = np.random.default_rng(12)
    rise = np.linspace(-2600.0, 2600.0, 400) + rng.normal(0.0, 30.0, 400)
    fall = rise[::-1].copy()  # its running maximum is reached at once
    both = np.concatenate([rise, fall])
    holes = both.copy()
    holes[[0, 1, 2, 57, 399, 400, 533, 799]] = -math.inf
    plus = np.ones(both.shape[0])
    signs = rng.choice([-1.0, 1.0], both.shape[0])
    return {"rising": (rise, plus[:400], 8), "falling": (fall, plus[:400], 1),
            "rise-fall": (both, plus, 8), "with-inf": (holes, plus, 8),
            "all-inf": (np.full(9, -math.inf), plus[:9], 1),
            "signed": (holes, signs, 8)}


@pytest.mark.parametrize("name", list(_scan_cases()))
def test_banded_scan_matches_logaddexp_accumulate(name):
    x, signs, min_bands = _scan_cases()[name]
    scan = analytic._BandedScan(x)
    got = scan.accumulate(signs * np.exp(x - scan.shift))
    assert len(scan._bands) >= min_bands
    if np.all(np.isinf(x)):
        assert np.all(got == 0.0)
        return
    assert np.ptp(x[np.isfinite(x)]) >= 5000.0
    # the positive and the negative terms summed apart, in log space, and
    # taken into each sum's scale; those logs reach 2,600, so they carry
    # about eps * 2600 = 3e-13 relative error
    with np.errstate(divide="ignore"):
        pos, neg = (np.logaddexp.accumulate(np.where(signs == s, x, -np.inf))
                    - scan.shift for s in (1.0, -1.0))
    want = np.exp(pos) - np.exp(neg)
    size = np.exp(np.logaddexp(pos, neg))
    assert np.all(np.abs(got - want) <= 1e-12 * size)
    if np.all(signs > 0.0):
        assert np.array_equal(got == 0.0, np.isinf(pos))


def _dense_green_product(xs, nodes, lpsi, lchi, logP, logQ, w):
    """The kernel's Green-matrix product, one term per (x_i, node), and the
    same product of the terms' absolute values."""
    n_cells = xs.shape[0] - 1
    anti = CubicSpline(xs, w).antiderivative()
    tail = anti(nodes) - anti(xs[-1])
    # node-major layout: node m lies in cell m % n_cells
    left = np.tile(np.arange(n_cells), 3)[None, :] \
        < np.arange(n_cells + 1)[:, None]
    green = np.exp(np.where(left, lchi[:, None] + logP[None, :],
                            lpsi[:, None] + logQ[None, :]))
    return green @ tail, green @ np.abs(tail)


SIG_SMALL = ModelParams(alpha=0.0, beta=-2.0, sigma=0.0625, lam=1.0,
                        eta=1.0, a=1.0, x=0.0)


@pytest.mark.parametrize("params,q,min_bands", [
    # the weights' logs span 1,055 and 5,246 nats on these domains
    (REF, 0.05, 2), (SIG_SMALL, 0.05, 8), (STALLED, STALLED_Q, 1),
], ids=["reference", "sigma=0.0625", "stalled"])
def test_kernel_matches_dense_green_product(params, q, min_bands):
    # the deep domain of the truncation check that accepted the solve, and
    # the signed solution w_q on it
    spec = VolterraGrid(n_cells=256)
    x_min = solve_wq(params, q, spec).grid[0]
    deep = x_min - (params.a - x_min)
    basis = homogeneous_basis(params, q)
    sol = analytic._solve_on(analytic._WeberTables(params, q, deep, basis),
                             deep, spec.n_cells, spec.tol, spec.max_iter)
    xs, w = sol.grid, sol.w_values
    assert np.min(w) < 0.0 < np.max(w)
    nodes, log_gw = analytic._gauss_nodes(xs)
    log_gw += math.log(2.0 / params.sigma ** 2) - basis.log_wronskian_scale \
        - 2.0 * basis.ctx.p(nodes)
    logP = basis.log_psi(nodes) + log_gw
    logQ = basis.log_chi(nodes) + log_gw
    lpsi, lchi = basis.log_psi(xs), basis.log_chi(xs)
    want, size = _dense_green_product(xs, nodes, lpsi, lchi, logP, logQ, w)
    kernel = analytic._GreenKernel(xs, nodes, lpsi, lchi, logP.copy(),
                                   logQ.copy())
    assert max(len(kernel.scan_p._bands),
               len(kernel.scan_q._bands)) >= min_bands
    assert np.all(np.abs(kernel(w) - want) <= 1e-12 * size)


def _mesh(kind, n_cells, x_min=-6.0, a=1.0):
    """A uniform mesh, or one graded to the barrier by expm1 with rate
    kappa: x = a - (a - x_min) expm1(kappa u) / expm1(kappa)."""
    if kind == "uniform":
        return np.linspace(x_min, a, n_cells + 1)
    kappa = float(kind.split("=")[1])
    u = np.linspace(1.0, 0.0, n_cells + 1)
    return a - (a - x_min) * np.expm1(kappa * u) / np.expm1(kappa)


@pytest.mark.parametrize("kind,n_cells", [
    ("uniform", 16), ("uniform", 17), ("uniform", 1024), ("uniform", 16384),
    ("kappa=4", 1024), ("kappa=8", 1024),
])
def test_spline_tail_matches_cubic_spline_antiderivative(kind, n_cells):
    xs = _mesh(kind, n_cells)
    assert np.all(np.diff(xs) > 0.0)
    nodes, _ = analytic._gauss_nodes(xs)
    tail = analytic._SplineTail(xs, nodes)
    rng = np.random.default_rng(n_cells)
    for w in (rng.normal(size=xs.shape[0]),
              np.sin(9.0 * xs) + rng.uniform(-0.1, 0.1, xs.shape[0])):
        anti = CubicSpline(xs, w).antiderivative()
        want = (anti(nodes) - anti(xs[-1])).reshape(3, n_cells)
        got = tail(w)
        assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want)))


def test_reference_sweep_iteration_counts():
    # criterion 5's sweep on the default grid, as the benchmark records it
    assert [solve_wq(REF, q).iterations for q in (0.01, 0.05, 0.1)] \
        == [6, 7, 8]
