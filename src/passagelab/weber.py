"""Weber parabolic cylinder functions and the gauge that produces them.

The mean-reverting model is reduced, by an exponential-quadratic gauge and
an affine change of variable, to Weber's equation; the bounded and unbounded
solutions are D_nu evaluated at +z(x) and -z(x). This module evaluates D_nu
for nu <= 0 from its real integral representation

    D_nu(z) = exp(-z^2/4) / Gamma(-nu) * I(nu, z),
    I(nu, z) = int_0^inf t^(-nu-1) exp(-z t - t^2/2) dt      (nu < 0)

and packages the gauge bookkeeping into WeberContext. log_pcf_d_batch
broadcasts orders against arguments and runs every value as a row of one
quadrature call; an order in (-1, 0), whose integrand is singular at
t = 0, is a row like any other, with the singular term integrated
exactly. The same quadrature takes an optional smooth positive weight w(t)
on the integrand, which is how the undiscounted closed form folds its
x-integral into the t-integral. Each row refines its own panel count. A
pass puts the head and tail nodes of its panel levels into one array (the
first pass takes 1 and 2 panels together), and rows go through it in
blocks of bounded size, so a large batch does not grow the working set;
every value is bitwise what separate per-level head and tail sums over
all rows give. The panel rules are built once per count. LogPcfTable
replaces that quadrature, on one fixed interval of z, by a certified
piecewise Chebyshev interpolant for callers that need D_nu at very many
points.

Everything is computed in log space first: the integrand is factored by its
peak value, so the returned log is accurate even where exp(p(x)) D_nu(z(x))
style products would overflow a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import AccuracyError, UnsupportedRegimeError
from .quad import _gl_rule

if TYPE_CHECKING:
    from .simulate import ModelParams

TOL_PCF = 1e-10
_GL_N = 64
_MAX_PANELS = 128
# most nodes (head and tail rows times the columns of a pass) one block of
# _log_integral_batch holds: 128 KiB per node array, so a block's arrays stay
# in cache (of 2^13 ... 2^18, the fastest for g0_profile over 32768 values on
# a 2-core x86-64 host)
_BLOCK_NODES = 1 << 14

# LogPcfTable: certified bound on the relative error in D, fit points per
# piece and the most pieces a table may split into. Far out in z, direct
# quadrature rounds log D to within about 2 eps z^2/4 (the size of the
# Gaussian factor it carries), so no piece's data tolerance is set below
# _ROUND_ULPS eps z^2/4; that floor passes TABLE_RTOL / 10 beyond |z| = 67.
TABLE_RTOL = TOL_PCF / 10.0
_CHEB_N = 24
_MAX_PIECES = 64
_ROUND_ULPS = 4.0


def _phi(c, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    # log integrand, c = -nu - 1 > -1; at c = 0, 0 log t - z t is bitwise -z t
    return c * np.log(t) - z * t - 0.5 * t * t


@lru_cache(maxsize=8)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s, weights w and log s of the _GL_N-point Gauss rule on each of
    `panels` equal panels of [0, 1]; read-only, shared by every call."""
    nodes, weights = _gl_rule(_GL_N)
    edges = np.linspace(0.0, 1.0, panels + 1)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    s = (lo + width * (0.5 * (nodes + 1.0))[None, :]).ravel()
    w = (width * (0.5 * weights)[None, :]).ravel()
    rule = (s, w, np.log(s))
    for arr in rule:
        arr.flags.writeable = False
    return rule


@lru_cache(maxsize=8)
def _pass_rule(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The panel rules of `levels` side by side: nodes s, log s, and each
    level's (column slice, weights); read-only, shared by every call."""
    rules = [_panel_rule(panels) for panels in levels]
    s = np.concatenate([rule[0] for rule in rules])
    log_s = np.concatenate([rule[2] for rule in rules])
    for arr in (s, log_s):
        arr.flags.writeable = False
    ends = np.cumsum([len(rule[0]) for rule in rules])
    cols = tuple((slice(end - len(rule[0]), end), rule[1])
                 for end, rule in zip(ends.tolist(), rules))
    return s, log_s, cols


def _row_blocks(n: int, n_blocks: int) -> list[slice]:
    """About n_blocks slices covering range(n), each a multiple of 4 long
    but the last, which is never shorter than 4 unless n is: the row groups
    of the BLAS matrix-vector kernel, which sums a group of 4 rows, a
    remainder of 2 or 3 rows and a matrix of 1 row in different orders."""
    step = 4 * max(1, -(-n // (4 * n_blocks)))
    bounds = list(range(0, n, step)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _log_integral_batch(c: np.ndarray, c1: np.ndarray, z: np.ndarray,
                        rtol: float,
                        log_weight: Callable[[np.ndarray], np.ndarray]
                        | None = None,
                        weighted: np.ndarray | None = None) -> np.ndarray:
    """log of int_0^inf t^c exp(-z t - t^2/2) w(t) dt, one value per row.

    c > -1, c1 = c + 1 (exact: rebuilt from c it loses digits as c nears
    -1) and z are 1-d arrays of one length, the rows with c < 0 first.
    w = 1 unless log_weight, a function of t alone, gives log w; it then
    applies to the rows (c >= 0) where the boolean array `weighted` is
    True. w must be positive, smooth and bounded, because the peak t* and
    the substitutions are those of the unweighted integrand. A row with
    c < 0 has t^c exp(-phimax) taken out of its head integrand and that
    term's exact integral, t*^c1 / c1 exp(-phimax), added back. Each row
    refines its panel count until two levels agree to rtol and then leaves
    the active set.

    A pass evaluates one or more panel levels at once. One node array has
    a head row (t = t* s^2) and a tail row (t = t* - log s) per integral,
    with the nodes of every level of the pass side by side; one log, one
    weight call and one exp cover them all, each node with the arithmetic
    of a level on its own. Each level's head and tail sums are then two
    matrix-vector products on its columns. The first pass takes levels 1
    and 2 together, each deeper pass one level, up to _MAX_PANELS.

    Rows go through a pass in blocks of about _BLOCK_NODES nodes, so the
    working set does not grow with the batch. The head rows (those with
    t* > 0) and the tail rows are split separately, in blocks of whole
    BLAS row groups (see _row_blocks), so each sum has the bits of one
    product over all rows on single-threaded BLAS. (A threaded product of
    a very large batch, which the blocks avoid, may group rows otherwise.)
    """
    if log_weight is None or not weighted.any():
        weighted = None
    n_sing = int(np.count_nonzero(c < 0.0))
    sing = slice(0, n_sing)
    disc = np.maximum(z * z + 4.0 * c, 0.0)
    tstar = np.where(c > 0.0, 0.5 * (-z + np.sqrt(disc)), np.maximum(-z, 0.0))
    if n_sing:
        # the interior maximum of _phi where it has one, else 1 / (1 + z+)
        zs = z[sing]
        tstar[sing] = np.where((zs < 0.0) & (disc[sing] > 0.0),
                               0.5 * (-zs + np.sqrt(disc[sing])),
                               1.0 / (1.0 + np.maximum(zs, 0.0)))
    phimax = np.where(tstar > 0.0, _phi(c, z, np.maximum(tstar, 1e-300)), 0.0)
    exact = np.zeros(len(z))
    if n_sing:
        # the integral of t^c exp(-phimax) over the head [0, t*]
        exact[sing] = np.exp(c1[sing] * np.log(tstar[sing]) - phimax[sing]) \
            / c1[sing]
    # what a block gathers of each row: c, z, t*, phimax
    row_data = np.array((c, z, tstar, phimax))

    def block_sums(heads: np.ndarray, tails: np.ndarray,
                   levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        # the head sums of the rows `heads` and the tail sums of the rows
        # `tails` at each level, from one node array: head rows, then tail rows
        s, log_s, cols = _pass_rule(levels)
        rows = np.concatenate((heads, tails))
        m = len(heads)
        cc, zz, ts, pm = row_data[:, rows, None]
        t = np.empty((len(rows), len(s)))
        # head: t = t* s^2 (softens the t^c endpoint), dt = 2 t* s ds
        np.multiply(ts[:m], s, out=t[:m])
        t[:m] *= s
        np.maximum(t[:m], 1e-300, out=t[:m])
        # tail: t = t* - log u, dt = -du/u, so the 1/u becomes exp(t - t*)
        np.subtract(ts[m:], log_s, out=t[m:])
        f = np.log(t)
        f *= cc
        tmp = zz * t
        f -= tmp
        np.multiply(t, 0.5, out=tmp)
        tmp *= t
        f -= tmp
        if weighted is not None:
            wt = weighted[rows]
            if wt.any():
                f[wt] += log_weight(t[wt])
        f -= pm
        np.subtract(t[m:], ts[m:], out=tmp[m:])
        f[m:] += tmp[m:]
        np.exp(f, out=f)
        f[:m] *= 2.0 * ts[:m]
        f[:m] *= s
        # the singular rows come first: take t^c exp(-phimax) out of their
        # head integrand
        k = int(np.searchsorted(heads, n_sing)) if n_sing else 0
        if k:
            t_s = t[:k]
            f[:k] *= -np.expm1(zz[:k] * t_s + 0.5 * t_s * t_s)
        head = np.empty((len(cols), m))
        tail = np.empty((len(cols), len(tails)))
        for i, (sl, w) in enumerate(cols):
            np.matmul(f[:m, sl], w, out=head[i])
            np.matmul(f[m:, sl], w, out=tail[i])
        return head, tail

    def level_values(idx: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
        # one row per level: each row of idx at that level's panel count
        has_head = tstar[idx] > 0.0
        all_heads = bool(has_head.all())
        heads = idx if all_heads else idx[has_head]
        n_blocks = -(-(len(heads) + len(idx)) * len(_pass_rule(levels)[0])
                     // _BLOCK_NODES)
        if n_blocks <= 1:
            head, tail = block_sums(heads, idx, levels)
        else:
            head = np.empty((len(levels), len(heads)))
            tail = np.empty((len(levels), len(idx)))
            for hb, tb in zip_longest(_row_blocks(len(heads), n_blocks),
                                      _row_blocks(len(idx), n_blocks),
                                      fillvalue=slice(0, 0)):
                head[:, hb], tail[:, tb] = block_sums(heads[hb], idx[tb],
                                                      levels)
        if not all_heads:
            full = np.zeros((len(levels), len(idx)))
            full[:, has_head] = head
            head = full
        k = int(np.searchsorted(idx, n_sing)) if n_sing else 0
        if k:
            head[:, :k] += exact[idx[:k]]
        return head + tail

    n = len(z)
    out = np.empty(n)
    active = np.arange(n)
    first = level_values(active, (1, 2) if _MAX_PANELS >= 2 else (1,))
    prev = first[0]
    panels = 2
    while panels <= _MAX_PANELS and len(active):
        cur = first[1] if panels == 2 else level_values(active, (panels,))[0]
        ok = np.abs(cur - prev) <= rtol * np.abs(cur)
        done = active[ok]
        out[done] = cur[ok]
        active = active[~ok]
        prev = cur[~ok]
        panels *= 2
    if len(active):
        raise AccuracyError(
            f"parabolic cylinder quadrature stalled at rtol={rtol:g} for "
            f"{len(active)} argument(s), first z={z[active[0]]:g}")
    return np.log(out) + phimax


def log_pcf_d_batch(nu, z, rtol: float = TOL_PCF,
                    log_weight: Callable[[np.ndarray], np.ndarray]
                    | None = None, weighted=True) -> np.ndarray:
    """Elementwise log D_nu(z) for nu <= 0 (D_nu > 0 on this range).

    nu broadcasts against z, so one call takes values of several orders
    and arguments, and all of them share one quadrature call, one row per
    nu < 0. With log_weight, the values where the boolean mask `weighted`
    (broadcast against z) is True get the smooth positive weight
    w(t) = exp(log_weight(t)) on their integrand t^(-nu-1) exp(-z t - t^2/2);
    they need nu <= -1.
    """
    nu = np.asarray(nu, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if nu.shape != z.shape:
        nu, z = np.broadcast_arrays(nu, z)
    if (nu > 0.0).any():
        raise UnsupportedRegimeError(
            f"pcf order must be <= 0, got {nu.max():g}")
    if log_weight is None:
        weighted = np.zeros(z.shape, dtype=bool)
    else:
        weighted = np.broadcast_to(np.asarray(weighted, dtype=bool), z.shape)
        if (weighted & (nu > -1.0)).any():
            raise UnsupportedRegimeError(
                f"weighted pcf order must be <= -1, got "
                f"{nu[weighted].max():g}")
    # one row per nu < 0, those in (-1, 0) first as _log_integral_batch needs
    orders = nu.tolist()
    rows = [i for i, v in enumerate(orders) if v != 0.0 and not v <= -1.0]
    rows += [i for i, v in enumerate(orders) if v <= -1.0]
    lgam = np.array([math.lgamma(-orders[i]) for i in rows])
    rows = np.array(rows, dtype=np.intp)
    out = -0.25 * z * z
    nu = nu[rows]
    out[rows] = out[rows] - lgam + _log_integral_batch(
        -nu - 1.0, -nu, z[rows], rtol, log_weight, weighted[rows])
    return out


def log_pcf_d(nu: float, z: float, rtol: float = TOL_PCF) -> float:
    return float(log_pcf_d_batch(nu, z, rtol)[0])


def pcf_d(nu: float, z: float) -> float:
    """Weber parabolic cylinder function D_nu(z), nu <= 0."""
    return math.exp(log_pcf_d(nu, z))


def _cheb_fit_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points t and the matrix m with coef = f(t) @ m."""
    t = _cheb.chebpts1(n)
    m = _cheb.chebvander(t, n - 1) * (2.0 / n)
    m[:, 0] *= 0.5
    return t, m


class LogPcfTable:
    """log D_nu on [z_lo, z_hi] from a certified piecewise Chebyshev fit.

    D_nu has no real zeros for nu <= 0, so log D_nu is analytic on the real
    line and a Chebyshev interpolant converges geometrically on any bounded
    interval (Trefethen, Approximation Theory and Approximation Practice,
    ch. 8). The fitted function is g(z) = log D_nu(z) + s z^2/4, with s the
    sign of the interval's midpoint: the Gaussian factor dominates log D_nu
    on the side the interval reaches furthest, and taking it out keeps g
    small, so the fit's absolute error in g, which is the relative error in
    D, stays near rounding.

    Each piece has a data tolerance: TABLE_RTOL / 10, or the rounding error
    _ROUND_ULPS eps z^2/4 of log D on the piece where that is larger. The
    piece interpolates g at _CHEB_N first-kind Chebyshev points, with
    values from direct quadrature to that tolerance, and is halved until
    its last two coefficients fall below it. Every piece is then compared
    with direct quadrature at its second-kind Chebyshev points, which
    interlace the fit points and include both piece ends. Construction
    raises AccuracyError instead of returning a table whose relative error
    in D there exceeds ten data tolerances (TABLE_RTOL wherever rounding
    allows it); max_rel_error is the worst error seen and fit_nodes counts
    the quadrature nodes spent, fit and check together. Evaluating outside
    [z_lo, z_hi] raises AccuracyError.
    """

    def __init__(self, nu: float, z_lo: float, z_hi: float):
        if not z_lo < z_hi:
            raise ValueError(f"need z_lo < z_hi, got [{z_lo:g}, {z_hi:g}]")
        self.nu, self.z_lo, self.z_hi = float(nu), float(z_lo), float(z_hi)
        self._gauge = 1.0 if z_lo + z_hi >= 0.0 else -1.0
        t, m = _cheb_fit_matrix(_CHEB_N)
        done: list[tuple[float, float, np.ndarray]] = []
        pending = [(self.z_lo, self.z_hi)]
        nodes = 0
        while pending:
            if len(done) + len(pending) > _MAX_PIECES:
                raise AccuracyError(
                    f"log D_{nu:g} table on [{z_lo:g}, {z_hi:g}] needs more "
                    f"than {_MAX_PIECES} pieces")
            lo = np.array([p[0] for p in pending])
            hi = np.array([p[1] for p in pending])
            zs = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t
            log_d, tol = self._direct(zs)
            coef = (log_d + self._gauge * 0.25 * zs * zs) @ m
            nodes += zs.size
            ok = np.max(np.abs(coef[:, -2:]), axis=1) <= tol
            split = []
            for i in range(len(pending)):
                if ok[i]:
                    done.append((lo[i], hi[i], coef[i]))
                else:
                    mid = 0.5 * (lo[i] + hi[i])
                    split += [(lo[i], mid), (mid, hi[i])]
            pending = split
        done.sort(key=lambda piece: piece[0])
        self._breaks = np.array([p[0] for p in done] + [self.z_hi])
        self._coef = np.array([p[2] for p in done])
        self.max_rel_error = self._certify()
        self.fit_nodes = nodes + self._coef.shape[0] * (_CHEB_N + 1)

    def _direct(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log D_nu on each row of zs by quadrature, and each row's tolerance."""
        tol = np.maximum(TABLE_RTOL / 10.0, _ROUND_ULPS * np.finfo(float).eps
                         * 0.25 * np.max(zs * zs, axis=1))
        log_d = [log_pcf_d_batch(self.nu, row, rtol)
                 for row, rtol in zip(zs, tol)]
        return np.array(log_d), tol

    def _certify(self) -> float:
        t2 = _cheb.chebpts2(_CHEB_N + 1)
        lo, hi = self._breaks[:-1, None], self._breaks[1:, None]
        zs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t2
        fit = _cheb.chebval(t2, self._coef.T) - self._gauge * 0.25 * zs * zs
        direct, tol = self._direct(zs)
        err = np.max(np.abs(np.expm1(fit - direct)), axis=1)
        bad = np.flatnonzero(~(err <= 10.0 * tol))
        if bad.size:
            k = bad[np.argmax(err[bad] / tol[bad])]
            raise AccuracyError(
                f"log D_{self.nu:g} table on [{self.z_lo:g}, {self.z_hi:g}] "
                f"has relative error {err[k]:.3g} > {10.0 * tol[k]:.3g} off "
                f"its nodes")
        return float(np.max(err))

    def __call__(self, z) -> np.ndarray:
        """Elementwise log D_nu(z); every z must lie in [z_lo, z_hi]."""
        z = np.asarray(z, dtype=float)
        if not (np.all(z >= self.z_lo) and np.all(z <= self.z_hi)):
            raise AccuracyError(
                f"argument outside the log D_{self.nu:g} table's interval "
                f"[{self.z_lo:g}, {self.z_hi:g}]")
        piece = np.searchsorted(self._breaks[1:-1], z, side="right")
        out = np.empty(z.shape)
        for k, coef in enumerate(self._coef):
            sel = piece == k
            lo, hi = self._breaks[k], self._breaks[k + 1]
            out[sel] = _cheb.chebval((2.0 * z[sel] - lo - hi) / (hi - lo), coef)
        return out - self._gauge * 0.25 * z * z


@dataclass(frozen=True)
class WeberContext:
    """Derived quantities of the gauge reduction for one (params, q).

    p(x) = p_lin x + p_quad x^2 is the gauge exponent, z(x) = z0 + z1 x the
    affine argument map, b = -beta the mean-reversion rate and nu_q the
    (always < -1) order of the Weber functions involved. nu_q1 is nu_q + 1,
    formed as -(lam + q) / b: taken as nu_q + 1.0 it keeps only the digits
    that survive the cancellation, which matters where D_{nu_q + 1} is
    nearly proportional to its order (lam + q much smaller than b).
    """

    b: float
    q: float
    nu_q: float
    nu_q1: float
    p_lin: float
    p_quad: float
    z0: float
    z1: float

    def p(self, x):
        return self.p_lin * x + self.p_quad * x * x

    def p_prime(self, x):
        return self.p_lin + 2.0 * self.p_quad * x

    def z(self, x):
        return self.z0 + self.z1 * x


def make_context(params: "ModelParams", q: float) -> WeberContext:
    """Build the gauge context; the reduction needs strict mean reversion."""
    if params.beta >= 0.0:
        raise UnsupportedRegimeError(
            f"closed forms need beta < 0, got beta={params.beta:g}")
    if q < 0.0:
        raise ValueError(f"discount rate must be >= 0, got {q:g}")
    b = -params.beta
    sig2 = params.sigma * params.sigma
    rate = (params.lam + q) / b
    return WeberContext(
        b=b,
        q=q,
        nu_q=-1.0 - rate,
        nu_q1=-rate,
        p_lin=0.5 * params.eta - params.alpha / sig2,
        p_quad=0.5 * b / sig2,
        z0=math.sqrt(2.0) * (params.alpha + 0.5 * params.eta * sig2)
            / (params.sigma * math.sqrt(b)),
        z1=-math.sqrt(2.0 * b) / params.sigma,
    )
