"""Closed forms and the integral equation for the jump-crossing transform.

Everything here concerns the mean-reverting diffusion (beta < 0) with
upward exponential jumps below a constant barrier a. The object of
interest is the discounted probability of crossing by a jump,

    G_q(x) = E_x[ exp(-q tau) ; crossing happens with strict overshoot ],

together with its q = 0 value and derivative. The derivative w_q = G_q'
solves a second-order equation driven by an exponential integral term;
pulling the integral through turns it into a linear system

    (I - eta * q * K) w_q = w0,   K: the Green kernel applied to the
                                     tail integral of w,

whose q = 0 solution is the closed form w0; solve_wq solves it by GMRES.
G0 itself, the integral of |w0| from x to the barrier, is taken with the
x-integral swapped inside the t-integral that represents D_nu: one
weighted cylinder integral per point (see g0). Each closed form (g0,
creeping_prob, g0_prime, boundary_slope, homogeneous_basis and
HomogeneousBasis.chi_prime) is one quadrature call: it hands every
cylinder value it needs to one log_pcf_d_batch call. g0_profile
integrates w0 over x instead, an independent second route to the same
values. The homogeneous solutions of the underlying operator are
parabolic cylinder functions in a gauge that removes the first-order
term: psi decays to the left and picks out the bounded solution, chi
satisfies the reflecting (Robin) condition at the barrier. All basis
values are handled in log space because chi grows like exp(2 p(x) - eta x)
far below the barrier; the solver's kernel sums scale them once per grid
(see _BandedScan).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (AccuracyError, ConvergenceError, StructuralError,
                     UnsupportedRegimeError)
from .quad import composite_gl, fd_derivative
from .simulate import ModelParams
from .weber import (
    LogPcfTable,
    WeberContext,
    log_pcf_d,
    log_pcf_d_batch,
    make_context,
)

_LOG_EPS = math.log(1e-12)
_LOG_MAX_FLOAT = math.log(sys.float_info.max)
# Largest truncation_error solve_wq returns: above the coarsest grids in use
# at the reference model (1.7e-7 at n_cells=64, q = 0.05; at most 3.3e-6 at
# n_cells=16, q <= 0.5), below first cuts too shallow (1.3e-5 up to 0.19).
TRUNCATION_TOL = 1e-5
# convergence tolerance of the cylinder integrals behind g0
_G0_RTOL = 1e-12


@dataclass(eq=False)
class HomogeneousBasis:
    """Log-space basis pair for the gauge-reduced operator at discount q.

    psi_q decays like exp(eta x) to the left; chi_q is the combination
    annihilated by the Robin boundary operator at the barrier. The
    Wronskian psi chi' - psi' chi is -exp(log_wronskian_scale + 2 p(x)):
    its constant is computed once at the barrier, and Abel's identity
    carries it to every x. log_ratio is the log of psi's coefficient in
    chi, D_{nu+1}(-z(a)) / D_{nu+1}(z(a)): both values are positive for
    q >= 0, as nu + 1 < 0, but the ratio passes exp(709) near z(a) = 37.
    log_d1_a is log D_{nu+1}(z(a)). boundary_psi, the Robin operator
    applied to psi_q at the barrier, falls like exp(-z(a)^2 / 4) (5.3e-317
    at z(a) = 50), so it cannot scale chi's Robin residual at large z(a);
    |0.5 sigma^2 chi'(a)| + |(alpha + beta a) chi(a)| can.
    """

    params: ModelParams
    q: float
    ctx: WeberContext
    log_ratio: float
    log_wronskian_scale: float  # log(-W(x) e^{-2p(x)}), W itself is negative
    boundary_psi: float
    log_d1_a: float  # log D_{nu+1}(z(a))

    def log_psi(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.log_psi_from(
            xs, log_pcf_d_batch(self.ctx.nu_q, self.ctx.z(xs)))
        return out if np.ndim(x) else out[0]

    def log_chi(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        zs = self.ctx.z(xs)
        out = self.log_chi_from(xs, log_pcf_d_batch(self.ctx.nu_q, zs),
                                log_pcf_d_batch(self.ctx.nu_q, -zs))
        return out if np.ndim(x) else out[0]

    def log_psi_from(self, xs: np.ndarray, log_d: np.ndarray) -> np.ndarray:
        """log psi_q at xs, given log D_nu(z(xs))."""
        return self.ctx.p(xs) + log_d

    def log_chi_from(self, xs: np.ndarray, log_d: np.ndarray,
                     log_d_neg: np.ndarray) -> np.ndarray:
        """log chi_q at xs, given log D_nu(z(xs)) and log D_nu(-z(xs))."""
        return self.ctx.p(xs) + np.logaddexp(log_d_neg, self.log_ratio + log_d)

    def psi_q(self, x):
        return np.exp(self.log_psi(x))

    def chi_q(self, x):
        """chi_q at x; UnsupportedRegimeError where it leaves double range."""
        log_chi = self.log_chi(x)
        with np.errstate(over="raise"):
            try:
                return np.exp(log_chi)
            except FloatingPointError:
                raise _out_of_range("chi_q", x, np.max(log_chi)) from None

    def chi_prime(self, x) -> float:
        """d chi_q / dx; its four terms are scaled by the largest, so it
        overflows only where chi'(x) itself leaves double range, and then
        raises UnsupportedRegimeError."""
        ctx = self.ctx
        z = ctx.z(x)
        A = ctx.p_prime(x) + 0.5 * ctx.z1 * z
        l0p, l1p, l0m, l1m = log_pcf_d_batch(
            [ctx.nu_q, ctx.nu_q1] * 2, [z, z, -z, -z]).tolist()
        logs = (l0m, self.log_ratio + l0p, l1m, self.log_ratio + l1p)
        top = max(logs)
        t0m, t0p, t1m, t1p = (math.exp(v - top) for v in logs)
        try:
            value = math.exp(ctx.p(x) + top) * (
                A * (t0m + t0p) + ctx.z1 * (t1m - t1p))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise _out_of_range("chi_prime", x,
                                self.log_chi_from(x, l0p, l0m))
        return value


def _out_of_range(what: str, x, log_chi) -> UnsupportedRegimeError:
    return UnsupportedRegimeError(
        f"{what} at x = {x!r} leaves double range: log chi = {log_chi:.6g}, "
        f"above log(max float) = {_LOG_MAX_FLOAT:.6g}")


def _psi_prime_from(ctx: WeberContext, x: float, log_d0: float,
                    log_d1: float) -> float:
    """d psi_q / dx at x, given log D_nu(z(x)) and log D_{nu+1}(z(x))."""
    A = ctx.p_prime(x) + 0.5 * ctx.z1 * ctx.z(x)
    return math.exp(ctx.p(x)) * (A * math.exp(log_d0)
                                 - ctx.z1 * math.exp(log_d1))


def robin_operator(params: ModelParams, value_at_a: float,
                   deriv_at_a: float) -> float:
    """0.5 sigma^2 w'(a-) + (alpha + beta a) w(a-), the barrier-side form."""
    return 0.5 * params.sigma ** 2 * deriv_at_a \
        + (params.alpha + params.beta * params.a) * value_at_a


def homogeneous_basis(params: ModelParams, q: float) -> HomogeneousBasis:
    ctx = make_context(params, q)
    za = ctx.z(params.a)
    nu, nu1 = ctx.nu_q, ctx.nu_q1
    l_d1_pos, l_d1_neg, l_d0_pos, l_d0_neg = log_pcf_d_batch(
        [nu1, nu1, nu, nu], [za, -za, za, -za]).tolist()
    log_ratio = l_d1_neg - l_d1_pos
    # Wronskian at the barrier splits off exp(2p); both cross terms positive
    log_scale = math.log(-ctx.z1) + np.logaddexp(
        l_d0_pos + l_d1_neg, l_d0_neg + l_d1_pos)
    boundary_psi = robin_operator(
        params, float(np.exp(ctx.p(params.a) + l_d0_pos)),
        _psi_prime_from(ctx, params.a, l_d0_pos, l_d1_pos))
    return HomogeneousBasis(params, float(q), ctx, float(log_ratio),
                            float(log_scale), boundary_psi, l_d1_pos)


# ---------------------------------------------------------------------------
# closed forms at q = 0 and the inhomogeneous seed for general q

def _log_w0_fn(params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    """xs -> log |w0(xs)| at q = 0, with the context and log D_{nu+1}(z(a))
    evaluated once; w0 itself is negative (the transform decreases in x)."""
    ctx = make_context(params, 0.0)
    log_d1_a = log_pcf_d(ctx.nu_q1, ctx.z(params.a))
    return lambda xs: _log_w0_from(params, ctx, xs,
                                   log_pcf_d_batch(ctx.nu_q, ctx.z(xs)),
                                   log_d1_a)


def _log_w0_from(params: ModelParams, ctx: WeberContext, xs: np.ndarray,
                 log_d: np.ndarray, log_d1_a: float) -> np.ndarray:
    """log |w0| at xs, given log D_nu(z(xs)) and log D_{nu+1}(z(a))."""
    a = params.a
    pref = math.log(math.sqrt(2.0) * params.lam
                    / (params.sigma * math.sqrt(ctx.b)))
    return pref + ctx.p(xs) - ctx.p(a) + log_d - log_d1_a


def g0_prime(params: ModelParams, x: float) -> float:
    """Derivative in x of the undiscounted jump-crossing probability."""
    if x > params.a:
        raise StructuralError(f"x = {x!r} must not exceed the barrier")
    ctx = make_context(params, 0.0)
    log_d, log_d1_a = log_pcf_d_batch(
        [ctx.nu_q, ctx.nu_q1], [ctx.z(x), ctx.z(params.a)]).tolist()
    return -float(np.exp(_log_w0_from(params, ctx, float(x), log_d, log_d1_a)))


def g0(params: ModelParams, x: float) -> float:
    """Undiscounted probability that the crossing happens by a jump.

    G0(x) is the integral of |w0| from x to the barrier, evaluated as one
    integral over the variable t of the D_nu representation. Write
    |w0(y)| = K exp(p(y)) D_nu(z(y)) with D_nu as its t-integral. The
    gauge identity p(y) - z(y)^2/4 = eta y - z0^2/4 and z(y) = z(a) +
    |z1| (a - y) make the (y, t) integrand that of |w0(a)| times
    exp(-u (a - y)), u = eta + |z1| t. All of it is positive, so the
    y-integral over [x, a] can go inside (Fubini), and G0(x) is |w0(a)|
    with the integrand of D_nu(z(a)) weighted by

        w(t) = (1 - exp(-u L)) / u,    L = a - x,

    which is smooth and lies in (0, min(L, 1/eta)]. The weighted integral
    and log D_{nu+1}(z(a)) are two values of one log_pcf_d_batch call,
    converged to rtol _G0_RTOL = 1e-12; AccuracyError is raised if either
    stalls.
    g0_profile integrates w0 over x instead, so the two are independent
    routes to the same number.
    """
    if x > params.a:
        raise StructuralError(f"x = {x!r} must not exceed the barrier")
    if x == params.a:
        return 0.0
    a, eta, dist = params.a, params.eta, params.a - x
    ctx = make_context(params, 0.0)
    rate = -ctx.z1

    def log_weight(t: np.ndarray) -> np.ndarray:
        u = eta + rate * t
        return np.log(-np.expm1(-u * dist) / u)

    za = ctx.z(a)
    log_d, log_d1_a = log_pcf_d_batch([ctx.nu_q, ctx.nu_q1], [za, za],
                                      _G0_RTOL, log_weight,
                                      [True, False]).tolist()
    return math.exp(_log_w0_from(params, ctx, a, log_d, log_d1_a))


def g0_profile(params: ModelParams, grid: Sequence[float]) -> np.ndarray:
    """g0 on a grid, by cumulative per-cell quadrature from the barrier.

    The grid must be increasing and end at the barrier. Each cell uses a
    two-point Gauss rule on the closed-form integrand, so the profile is an
    integration route independent of any interpolation of w0, and only as
    accurate as the grid resolves the integrand's layer at the barrier: at
    the acceptance suite's reference model on np.linspace(0, 1, 7) it reads
    0.786853 at x = 0, where g0 is 0.789205 (0.789204 on 65 points).
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.shape[0] < 2 or np.any(np.diff(xs) <= 0):
        raise StructuralError("grid must be strictly increasing")
    if xs[-1] != params.a:
        raise StructuralError("grid must end exactly at the barrier")
    mid = 0.5 * (xs[:-1] + xs[1:])
    half = 0.5 * np.diff(xs)
    offset = half / math.sqrt(3.0)
    nodes = np.concatenate([mid - offset, mid + offset])
    vals = np.exp(_log_w0_fn(params)(nodes)).reshape(2, -1)
    cell = half * (vals[0] + vals[1])
    out = np.zeros_like(xs)
    out[:-1] = np.cumsum(cell[::-1])[::-1]
    return out


def creeping_prob(params: ModelParams, x: float) -> float:
    """Probability the barrier is first reached continuously (no overshoot)."""
    return 1.0 - g0(params, x)


def boundary_slope(params: ModelParams) -> float:
    """-g0'(a-): the slope of the jump-crossing probability at the barrier."""
    return -g0_prime(params, params.a)


# ---------------------------------------------------------------------------
# the Volterra system for q > 0

_GL3_POINTS = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass(frozen=True)
class VolterraGrid:
    """Discretisation controls for solve_wq; it chooses the domain itself."""

    n_cells: int = 16384
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if self.n_cells < 16:
            raise StructuralError("n_cells must be at least 16")
        if not (self.tol > 0.0 and self.max_iter >= 1):
            raise StructuralError("need tol > 0 and max_iter >= 1")


@dataclass(eq=False)
class VolterraSolution:
    """Converged derivative w_q on its grid, plus the right-hand side w0.

    delta_history holds the residual 2-norm after every Krylov iteration,
    on the scale grid.tol is compared against. table_rel_error and
    table_fit_nodes describe the solve's LogPcfTable fits: the worst
    certified relative error in D_nu and the quadrature nodes spent on them.
    """

    params: ModelParams
    q: float
    grid: np.ndarray
    w_values: np.ndarray
    w0_values: np.ndarray
    delta_history: tuple[float, ...]
    truncation_error: float
    table_rel_error: float
    table_fit_nodes: int

    @property
    def converged(self) -> bool:
        """Always True: solve_wq raises ConvergenceError instead."""
        return True

    @property
    def iterations(self) -> int:
        return len(self.delta_history)

    @property
    def sup_delta(self) -> float:
        """The last iteration's residual 2-norm."""
        return self.delta_history[-1]

    def _antiderivative(self):
        """The spline antiderivative of w and its value at the barrier."""
        cached = getattr(self, "_anti", None)
        if cached is None:
            from scipy.interpolate import CubicSpline
            anti = CubicSpline(self.grid, self.w_values).antiderivative()
            cached = self._anti = (anti, anti(self.params.a))
        return cached


# Width in nats of the bands _BandedScan cuts its terms into; exp underflows
# below -745, so every weight within one band of its band's top stays normal.
_BAND_NATS = 600.0


class _BandedScan:
    """Running sums of terms whose weights' logs span more than a double.

    Built once from the log of the largest weight each term can carry,
    log_max, in scan order. The running maximum of log_max is cut into
    bands _BAND_NATS wide, and the terms of each band are handed in scaled
    by exp(-shift), shift = (band + 1) * _BAND_NATS, so the band's
    running-maximum weight scales into [exp(-_BAND_NATS), 1). Each band
    takes one linear cumsum, started from the total of the bands before it
    in its own scale, and the sums come back in that scale. The terms may
    have either sign; no weight a band scales to zero is above exp(-145)
    of its band's running-maximum weight.
    """

    def __init__(self, log_max: np.ndarray):
        top = np.maximum.accumulate(log_max)
        finite = np.isfinite(top)
        # terms before the first finite weight are zero; they join the
        # first band
        top = np.where(finite, top, top[finite][0] if finite.any() else 0.0)
        self.shift = (np.floor(top / _BAND_NATS) + 1.0) * _BAND_NATS
        edges = [0, *(np.flatnonzero(np.diff(self.shift)) + 1).tolist(),
                 top.shape[0]]
        shifts = self.shift[edges[:-1]]
        # the factor that takes the bands before into a band's own scale
        factors = np.exp(-np.diff(shifts, prepend=shifts[0]))
        self._bands = list(zip(edges[:-1], edges[1:], factors.tolist()))

    def accumulate(self, terms: np.ndarray) -> np.ndarray:
        """Running sums of the terms; both scaled by exp(-shift)."""
        out = np.empty(terms.shape[0])
        carry = 0.0
        for lo, hi, factor in self._bands:
            part = np.cumsum(terms[lo:hi], out=out[lo:hi])
            part += carry * factor
            carry = part[-1]
        return out


def _auto_x_min(params: ModelParams, q: float) -> float:
    """solve_wq's first left end: where psi_q is 1e-12 of its peak.

    Steps left from the barrier by a fixed step, x -= step, and stops at
    the first x where log psi_q is 1e-12 below its running maximum. The
    steps are evaluated in batches of 16, 16, 32, 64, ..., so a stop at
    the k-th step evaluates at most max(16, 2k) points.
    """
    ctx = make_context(params, q)
    step = 0.25 * max(1.0, params.sigma / math.sqrt(ctx.b), 1.0 / params.eta)
    x = params.a
    best = -math.inf
    done, cap = 0, 100_000
    while done < cap:
        xs = np.empty(min(max(16, done), cap - done))
        for k in range(xs.shape[0]):
            xs[k] = x
            x -= step
        lp = ctx.p(xs) + log_pcf_d_batch(ctx.nu_q, ctx.z(xs))
        top = np.maximum(np.maximum.accumulate(lp), best)
        hit = np.flatnonzero(lp - top <= _LOG_EPS)
        if hit.size:
            return float(xs[hit[0]])
        best = float(top[-1])
        done += xs.shape[0]
    raise StructuralError("could not locate a decayed left endpoint")


def solve_wq(params: ModelParams, q: float,
             grid: VolterraGrid | None = None) -> VolterraSolution:
    """Solution of the integral equation for w_q = G_q'.

    The linear system (I - eta q K) w = w0 on a fixed Gauss grid is solved
    by unrestarted GMRES from zero (K: see _GreenKernel). q = 0 returns w0
    itself; a solve whose residual 2-norm is still above grid.tol after
    grid.max_iter Krylov iterations raises ConvergenceError. The domain
    starts where psi_q has decayed to 1e-12 of its peak, or at
    x - (a - x)/20 if lower, so it holds x. truncation_error is the
    change of G_q when the solve is repeated on a domain twice as deep;
    while it exceeds TRUNCATION_TOL the solve moves to the deeper domain,
    at most three times, and then raises AccuracyError.

    The Weber functions on the grids are read from one certified
    LogPcfTable of D_nu(+z) and one of D_nu(-z) (the latter only for
    q > 0, where psi and chi are needed), each fitted once per domain over
    the z-range of the extended grid; the closed forms and the homogeneous
    basis constants keep direct quadrature.
    """
    if q < 0.0:
        raise StructuralError(f"q must be nonnegative, got {q!r}")
    spec = grid or VolterraGrid()
    x_min = min(_auto_x_min(params, q), params.x - (params.a - params.x) / 20)
    basis = homogeneous_basis(params, q) if q > 0.0 else None
    for _ in range(4):  # the first domain and up to three deeper ones
        deep = x_min - (params.a - x_min)
        tables = _WeberTables(params, q, deep, basis)
        sol = _solve_on(tables, x_min, spec.n_cells, spec.tol, spec.max_iter)
        ref = _solve_on(tables, deep, 2 * spec.n_cells, spec.tol,
                        spec.max_iter)
        # the cut perturbs the kernel inside a thin layer at x_min (the
        # Green function keeps O(1) diagonal mass there); judge truncation
        # on the part of the grid past that layer
        inner = sol.grid[sol.grid >= x_min + 0.02 * (params.a - x_min)]
        sol.truncation_error = float(np.max(np.abs(
            gq_from_solution(sol, inner) - gq_from_solution(ref, inner))))
        if sol.truncation_error <= TRUNCATION_TOL:
            return sol
        x_min = deep
    raise AccuracyError(f"q={q!r}: truncation error {sol.truncation_error:.3g}"
                        f" at x_min={sol.grid[0]:.6g}")


class _WeberTables:
    """The Weber functions one solve_wq call reads, for x in [x_lo, a].

    Holds log D_{nu+1}(z(a)), the LogPcfTable of D_nu(+z) and, for q > 0,
    that of D_nu(-z) together with the homogeneous basis, which must be
    given then (log D_{nu+1}(z(a)) is read off it); psi, chi and w0 are
    formed from the table values by the same formulas the closed forms use.
    """

    def __init__(self, params: ModelParams, q: float, x_lo: float,
                 basis: HomogeneousBasis | None):
        self.params, self.q, self.basis = params, q, basis
        self.ctx = make_context(params, q)
        z_lo, z_hi = self.ctx.z(params.a), self.ctx.z(x_lo)
        self.pos = LogPcfTable(self.ctx.nu_q, z_lo, z_hi)
        fits = [self.pos]
        self.neg = None
        if q > 0.0:
            self.log_d1_a = basis.log_d1_a
            self.neg = LogPcfTable(self.ctx.nu_q, -z_hi, -z_lo)
            fits.append(self.neg)
        else:
            self.log_d1_a = log_pcf_d(self.ctx.nu_q1, z_lo)
        self.rel_error = max(t.max_rel_error for t in fits)
        self.fit_nodes = sum(t.fit_nodes for t in fits)

    def log_d(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """log D_nu(z(xs)) and, for q > 0, log D_nu(-z(xs))."""
        zs = self.ctx.z(xs)
        return self.pos(zs), None if self.neg is None else self.neg(-zs)


def _gauss_nodes(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 3-point Gauss nodes of the cells of xs, and their log weights.

    Node-major: entry j * n_cells + k is the j-th node of cell k.
    """
    mid = 0.5 * (xs[:-1] + xs[1:])
    half = 0.5 * np.diff(xs)
    nodes = (mid[None, :] + half[None, :] * _GL3_POINTS[:, None]).ravel()
    return nodes, np.log(half[None, :] * _GL3_WEIGHTS[:, None]).ravel()


class _SplineTail:
    """T(y) = -int_y^a w at the Gauss nodes, off the not-a-knot spline of w.

    A linear map from w on xs, set up once per grid; any mesh will do. The
    spline's knot slopes s solve a tridiagonal system with the rows
    CubicSpline uses, whose matrix depends on xs alone, so it is LU-factored
    here once. The nodes sit at fixed fractions t_j of their cells (read
    off the first cell), so the integral of the cubic Hermite piece of cell
    k from its j-th node to the cell's right end is

        dx_k (c_j0 w_k + c_j2 w_k+1) + dx_k^2 (c_j1 s_k + c_j3 s_k+1)

    with a constant matrix c of Hermite basis integrals over [t_j, 1]; its
    row t = 0 gives whole cells, which one reversed cumsum adds up to the
    right of each node. Per grid it keeps the LU factors and dx.
    """

    def __init__(self, xs: np.ndarray, nodes: np.ndarray):
        from scipy.linalg.lapack import dgttrf
        n_cells = xs.shape[0] - 1
        self.dx = dx = np.diff(xs)
        # not-a-knot end rows; rows 1..n-1 are
        # dx_i s_i-1 + 2 (dx_i-1 + dx_i) s_i + dx_i-1 s_i+1
        self.d_start, self.d_end = xs[2] - xs[0], xs[-1] - xs[-3]
        diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([self.d_start], dx[:-1]))
        lower = np.concatenate((dx[1:], [self.d_end]))
        *self.lu, info = dgttrf(lower, diag, upper, overwrite_dl=True,
                                overwrite_d=True, overwrite_du=True)
        if info:
            raise StructuralError("singular spline system: cells must have "
                                  "positive width")
        t = np.concatenate(([0.0], (nodes[::n_cells] - xs[0]) / dx[0]))[:, None]
        t2, t3, t4 = t * t, t * t * t, t * t * t * t
        # columns: h00, h10, h01, h11 integrated over [t, 1]
        self.c = np.hstack([0.5 - (0.5 * t4 - t3 + t),
                            1.0 / 12.0 - (0.25 * t4 - 2.0 / 3.0 * t3 + 0.5 * t2),
                            0.5 - (t3 - 0.5 * t4),
                            -1.0 / 12.0 - (0.25 * t4 - t3 / 3.0)])

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """T at the nodes, one row per node of the cell, one column per cell."""
        from scipy.linalg.lapack import dgttrs
        dx = self.dx
        slope = np.diff(w)
        slope /= dx
        rhs = np.empty(w.shape[0])
        np.multiply(dx[1:], slope[:-1], out=rhs[1:-1])
        rhs[1:-1] += dx[:-1] * slope[1:]
        rhs[1:-1] *= 3.0
        d0, d1 = self.d_start, self.d_end
        rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d0
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        s, _ = dgttrs(*self.lu, rhs, overwrite_b=True)
        ends = np.empty((4, dx.shape[0]))
        ends[0] = w[:-1]
        np.multiply(dx, s[:-1], out=ends[1])
        ends[2] = w[1:]
        np.multiply(dx, s[1:], out=ends[3])
        parts = self.c @ ends
        parts *= dx
        # the whole cells to the right of each cell
        right = np.cumsum(parts[0, :0:-1])[::-1]
        tail = parts[1:]
        tail[:, :-1] += right
        return np.negative(tail, out=tail)


class _GreenKernel:
    """The Green kernel applied to the tail integral of w, at the grid nodes.

    A linear map: for w on xs, with T(y) = -int_y^a w, it returns

        chi(x_i) sum_{y < x_i} P(y) T(y) + psi(x_i) sum_{y > x_i} Q(y) T(y)

    over the Gauss nodes y of _gauss_nodes(xs) (the kernel is separable on
    each side of the diagonal); P and Q are the kernel's psi and chi sides
    times the Gauss weights, given as logs. The sums are a prefix and a
    suffix over cells, each run by a _BandedScan; logP and logQ are
    overwritten with its scaled weights, and chi and psi are scaled back
    by the shift of the sum they multiply. T comes from a _SplineTail, the
    spline antiderivative's linear map factored once per grid, so a product
    builds no spline.
    """

    def __init__(self, xs: np.ndarray, nodes: np.ndarray,
                 lpsi_nodes: np.ndarray, lchi_nodes: np.ndarray,
                 logP: np.ndarray, logQ: np.ndarray):
        n_cells = xs.shape[0] - 1
        self.n_points = xs.shape[0]
        self.tail = _SplineTail(xs, nodes)
        # psi's prefix runs left to right, chi's suffix right to left
        self.P = logP.reshape(3, n_cells)
        self.Q = logQ.reshape(3, n_cells)
        self.scan_p = _BandedScan(np.max(self.P, axis=0))
        self.scan_q = _BandedScan(np.max(self.Q, axis=0)[::-1])
        self.P -= self.scan_p.shift
        self.Q -= self.scan_q.shift[::-1]
        np.exp(self.P, out=self.P)
        np.exp(self.Q, out=self.Q)
        # x_0 has no cell to its left, x_n none to its right
        self.chi = np.exp(lchi_nodes[1:] + self.scan_p.shift)
        self.psi = np.exp(lpsi_nodes[:-1] + self.scan_q.shift[::-1])

    def __call__(self, w: np.ndarray) -> np.ndarray:
        tail = self.tail(w)
        terms = self.P * tail
        cell_p = terms[0] + terms[1]
        cell_p += terms[2]
        np.multiply(self.Q, tail, out=terms)
        cell_q = terms[0] + terms[1]
        cell_q += terms[2]
        out = np.zeros(self.n_points)
        np.multiply(self.chi, self.scan_p.accumulate(cell_p), out=out[1:])
        out[:-1] += self.psi * self.scan_q.accumulate(cell_q[::-1])[::-1]
        return out


def _solve_on(tables: _WeberTables, x_min: float, n_cells: int,
              tol: float, max_iter: int) -> VolterraSolution:
    params, q = tables.params, tables.q
    xs = np.linspace(x_min, params.a, n_cells + 1)
    ld_nodes, ld_neg_nodes = tables.log_d(xs)
    w0 = -np.exp(_log_w0_from(params, tables.ctx, xs, ld_nodes,
                              tables.log_d1_a))
    if q == 0.0:
        return VolterraSolution(params, q, xs, w0.copy(), w0, (0.0,),
                                math.nan, tables.rel_error, tables.fit_nodes)

    basis, ctx = tables.basis, tables.ctx
    eta_q = params.eta * q
    gl_nodes, gl_logw = _gauss_nodes(xs)
    ld_gl, ld_neg_gl = tables.log_d(gl_nodes)
    # log of the Green kernel's y-factor: 2/(sigma^2 |W(y)|) times psi(y)
    # or chi(y), and the Gauss weight
    gl_logw += math.log(2.0 / params.sigma ** 2) \
        - basis.log_wronskian_scale - 2.0 * ctx.p(gl_nodes)
    kernel = _GreenKernel(
        xs, gl_nodes, basis.log_psi_from(xs, ld_nodes),
        basis.log_chi_from(xs, ld_nodes, ld_neg_nodes),
        basis.log_psi_from(gl_nodes, ld_gl) + gl_logw,
        basis.log_chi_from(gl_nodes, ld_gl, ld_neg_gl) + gl_logw)
    del gl_nodes, gl_logw, ld_gl, ld_neg_gl

    from scipy.sparse.linalg import LinearOperator, gmres
    # one restart cycle of max_iter steps; the callback gets |r| / |w0|.
    # With |w0| <= tol gmres takes no step and returns w = 0.
    b_norm = float(np.linalg.norm(w0))
    history = []
    system = LinearOperator((xs.shape[0],) * 2, dtype=float,
                            matvec=lambda v: v - eta_q * kernel(v))
    w, info = gmres(system, w0, rtol=0.0, atol=tol, restart=max_iter,
                    maxiter=1, callback_type="pr_norm",
                    callback=lambda r: history.append(float(r) * b_norm))
    if info:
        # near the rounding floor this is above the last running estimate
        residual = float(np.linalg.norm(w0 - system.matvec(w)))
        raise ConvergenceError(f"q={q:.12g}: residual={residual:.12g} after "
                               f"{len(history)} iterations (tol {tol:.12g})")
    return VolterraSolution(params, q, xs, w, w0, tuple(history) or (b_norm,),
                            math.nan, tables.rel_error, tables.fit_nodes)


def gq_from_solution(sol: VolterraSolution, x) -> np.ndarray | float:
    """G_q(x) = -integral of w_q from x to the barrier, off the spline."""
    anti, anti_a = sol._antiderivative()
    xs = np.asarray(x, dtype=float)
    if np.any(xs < sol.grid[0]) or np.any(xs > sol.params.a):
        raise StructuralError("x outside the solved domain")
    out = anti(xs) - anti_a
    return float(out) if np.isscalar(x) or xs.ndim == 0 else out


# ---------------------------------------------------------------------------
# residual diagnostics

def oide_residual(params: ModelParams, q: float, g: Callable,
                  x: float) -> float:
    """Defect of g in the integro-differential crossing equation at x.

    g must accept an array of points: the exponential tail integral is
    adaptive Gauss quadrature of g itself, called on each level's node
    array. Derivatives are fourth-order finite differences with fixed
    steps 1e-3 and 2e-3 times max(1, |x|), tuned for functions evaluated
    near machine precision but backed by quadrature or interpolation.
    """
    a, eta, lam = params.a, params.eta, params.lam
    if not x < a:
        raise StructuralError("residual point must lie strictly below a")
    scale = max(1.0, abs(x))
    h1 = 1e-3 * scale
    h2 = 2e-3 * scale
    side1 = "central" if x + 2.0 * h1 <= a else "left"
    side2 = "central" if x + 2.0 * h2 <= a else "left"
    d1 = fd_derivative(g, x, order=1, h=h1, side=side1)
    d2 = fd_derivative(g, x, order=2, h=h2, side=side2)

    def integrand(ys):
        return g(ys) * eta * np.exp(-eta * (ys - x))

    tail = composite_gl(integrand, x, a, rtol=1e-11, atol=1e-13)
    gx = float(g(x))
    return 0.5 * params.sigma ** 2 * d2 + (params.alpha + params.beta * x) * d1 \
        + lam * tail - (lam + q) * gx + lam * math.exp(-eta * (a - x))


def compatibility_defect(params: ModelParams, q: float, g: Callable) -> float:
    """Barrier-side second-order condition every admissible g must satisfy.

    Evaluates 0.5 sigma^2 g''(a-) + (alpha + beta a) g'(a-) + lam with
    one-sided stencils of step 2e-3 from below; the discount enters only
    through g.
    """
    a = params.a
    d1 = fd_derivative(g, a, order=1, h=2e-3, side="left")
    d2 = fd_derivative(g, a, order=2, h=2e-3, side="left")
    return 0.5 * params.sigma ** 2 * d2 \
        + (params.alpha + params.beta * a) * d1 + params.lam


def basis_operator_residual(basis: HomogeneousBasis, member: str,
                            x) -> np.ndarray | float:
    """Relative defect of the gauge operator on psi_q or chi_q at x.

    Both members are annihilated exactly; this measures how far fourth
    order finite differences are from seeing that. Stencil values are
    normalised by the member's value at each centre (working from logs, so
    chi's growth far below the barrier cannot overflow), and the step
    adapts to the local log-slope. The defect is normalised by the sum of
    the three term magnitudes; accepts a scalar or an array of points.
    """
    params, ctx, q = basis.params, basis.ctx, basis.q
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if member == "psi":
        log_f = basis.log_psi
        rate = np.full_like(xs, params.eta + abs(ctx.z1))
    elif member == "chi":
        log_f = basis.log_chi
        rate = np.abs(2.0 * ctx.p_prime(xs) - params.eta) \
            + params.eta + abs(ctx.z1)
    else:
        raise StructuralError(f"member must be 'psi' or 'chi', not {member!r}")
    h = np.minimum(1e-3 * np.maximum(1.0, np.abs(xs)), 0.02 / rate)
    # one batched evaluation of the 7 stencil points per centre
    offsets = np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])
    pts = xs[:, None] + h[:, None] * offsets[None, :]
    logs = log_f(pts.ravel()).reshape(pts.shape)
    rel = np.exp(logs - logs[:, 3:4])  # member / member(centre)
    d1 = (8.0 * (rel[:, 4] - rel[:, 2]) - (rel[:, 5] - rel[:, 1])) / (12.0 * h)
    step2 = 2.0 * h
    d2 = (-rel[:, 0] + 16.0 * rel[:, 1] - 30.0 * rel[:, 3]
          + 16.0 * rel[:, 5] - rel[:, 6]) / (12.0 * step2 ** 2)
    sig2 = params.sigma ** 2
    drift = params.alpha + params.beta * xs
    c1 = drift - 0.5 * params.eta * sig2
    c0 = params.beta - params.eta * drift - params.lam - q
    num = 0.5 * sig2 * d2 + c1 * d1 + c0
    den = np.abs(0.5 * sig2 * d2) + np.abs(c1 * d1) + np.abs(c0)
    out = num / den
    return out if np.ndim(x) else float(out[0])


def ode3_residual(params: ModelParams, q: float, g: Callable, x: float,
                  h: float = 2e-3) -> float:
    """Defect in the pure third-order form (integral term eliminated).

    Complements oide_residual: no quadrature of g is involved, at the cost
    of a third difference whose step must stay well above the noise floor
    of g (interpolation or quadrature error to the power 1/3).
    """
    if not x + 3.0 * h < params.a:
        raise StructuralError("third-order residual needs room below a")
    alpha, beta, sig2 = params.alpha, params.beta, params.sigma ** 2
    eta, lam = params.eta, params.lam
    d1 = fd_derivative(g, x, order=1, h=h)
    d2 = fd_derivative(g, x, order=2, h=h)
    d3 = fd_derivative(g, x, order=3, h=h)
    drift = alpha + beta * x
    return 0.5 * sig2 * d3 + (drift - 0.5 * eta * sig2) * d2 \
        + (beta - eta * drift - lam - q) * d1 + eta * q * float(g(x))
