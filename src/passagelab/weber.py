"""Weber parabolic cylinder functions and the gauge that produces them.

The mean-reverting model is reduced, by an exponential-quadratic gauge and
an affine change of variable, to Weber's equation; the bounded and unbounded
solutions are D_nu evaluated at +z(x) and -z(x). This module evaluates D_nu
for nu <= 0 from its real integral representation

    D_nu(z) = exp(-z^2/4) / Gamma(-nu) * I(nu, z),
    I(nu, z) = int_0^inf t^(-nu-1) exp(-z t - t^2/2) dt      (nu < 0)

and packages the gauge bookkeeping into WeberContext. The same quadrature
takes an optional smooth positive weight w(t) on the integrand
(log_pcf_d_weighted), which is how the undiscounted closed form folds its
x-integral into the t-integral. log_pcf_d_batch broadcasts orders against
arguments and runs every value as a row of one quadrature call, weighted
or not; an order in (-1, 0) adds the two rows of its upward recurrence to
that call. Each row refines its own panel count, and the panel rules are
built once per count. LogPcfTable replaces
that quadrature, on one fixed interval of z, by a certified piecewise
Chebyshev interpolant for callers that need D_nu at very many points.

Everything is computed in log space first: the integrand is factored by its
peak value, so the returned log is accurate even where exp(p(x)) D_nu(z(x))
style products would overflow a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    # log integrand, c = -nu - 1 >= 0; at c = 0, 0 log t - z t is bitwise -z t
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


def _log_integral_batch(c: np.ndarray, z: np.ndarray, rtol: float,
                        log_weight: Callable[[np.ndarray], np.ndarray]
                        | None = None,
                        weighted: np.ndarray | None = None) -> np.ndarray:
    """log of int_0^inf t^c exp(-z t - t^2/2) w(t) dt, one value per row.

    c >= 0 and z are 1-d arrays of one length; each (c, z) pair is a row.
    w = 1 unless log_weight, a function of t alone, gives log w; it then
    applies to the rows where the boolean array `weighted` is True. w must
    be positive, smooth and bounded, because the peak t* and the
    substitutions are those of the unweighted integrand. Each row refines
    its panel count until two levels agree to rtol and then leaves the
    active set.
    """
    if log_weight is None:
        weighted = np.zeros(len(z), dtype=bool)

    def log_f(cc, zz, wt, t):
        out = _phi(cc, zz, t)
        if wt.any():
            out[wt] += log_weight(t[wt])
        return out

    tstar = np.where(c > 0.0, 0.5 * (-z + np.sqrt(z * z + 4.0 * c)),
                     np.maximum(-z, 0.0))
    phimax = np.where(tstar > 0.0, _phi(c, z, np.maximum(tstar, 1e-300)), 0.0)

    def level_values(idx: np.ndarray, panels: int) -> np.ndarray:
        cc = c[idx][:, None]
        zz = z[idx][:, None]
        ts = tstar[idx][:, None]
        pm = phimax[idx][:, None]
        wt = weighted[idx]
        s, w, log_s = _panel_rule(panels)
        # head: t = tstar * s^2 (softens the t^c endpoint), dt = 2 tstar s ds
        head = np.zeros(len(idx))
        mask = (ts[:, 0] > 0.0)
        if mask.any():
            t_h = ts[mask] * s * s
            f_h = np.exp(log_f(cc[mask], zz[mask], wt[mask],
                               np.maximum(t_h, 1e-300)) - pm[mask]) \
                * 2.0 * ts[mask] * s
            head[mask] = f_h @ w
        # tail: t = tstar - log u, dt = -du/u, so the 1/u becomes exp(t - tstar)
        t_t = ts - log_s
        f_t = np.exp(log_f(cc, zz, wt, t_t) - pm + (t_t - ts))
        return head + f_t @ w

    n = len(z)
    out = np.empty(n)
    active = np.arange(n)
    prev = level_values(active, 1)
    panels = 2
    while panels <= _MAX_PANELS and len(active):
        cur = level_values(active, panels)
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
    and arguments, and all of them share one quadrature call. An order in
    (-1, 0), whose integrand is singular at t = 0, is lifted by one upward
    recurrence, D_nu = z D_(nu-1) - (nu - 1) D_(nu-2), whose two orders
    <= -1 become rows of that same call. With log_weight, the values where the boolean
    mask `weighted` (broadcast against z) is True get the weight w(t) on
    their integrand, as log_pcf_d_weighted describes; they need nu <= -1.
    """
    nu, z, weighted = np.broadcast_arrays(
        np.asarray(nu, dtype=float), np.atleast_1d(np.asarray(z, dtype=float)),
        np.asarray(weighted) & (log_weight is not None))
    if (nu > 0.0).any():
        raise UnsupportedRegimeError(
            f"pcf order must be <= 0, got {nu.max():g}")
    if (weighted & (nu > -1.0)).any():
        raise UnsupportedRegimeError(
            f"weighted pcf order must be <= -1, got {nu[weighted].max():g}")
    lift = (nu > -1.0) & (nu < 0.0)
    direct = ~lift & (nu != 0.0)
    orders = np.concatenate([nu[direct], nu[lift] - 1.0, nu[lift] - 2.0])
    args = np.concatenate([z[direct], z[lift], z[lift]])
    rows_weighted = np.concatenate([weighted[direct], weighted[lift],
                                    weighted[lift]])
    lgam = np.array([math.lgamma(-v) for v in orders])
    logs = -0.25 * args * args - lgam + _log_integral_batch(
        -orders - 1.0, args, rtol, log_weight, rows_weighted)
    out = -0.25 * z * z
    out[direct] = logs[:direct.sum()]
    if lift.any():
        l1, l2 = np.split(logs[direct.sum():], 2)
        m = np.maximum(l1, l2)
        val = z[lift] * np.exp(l1 - m) + (1.0 - nu[lift]) * np.exp(l2 - m)
        if (val <= 0.0).any():
            raise AccuracyError(
                f"recurrence lost positivity at nu={nu[lift][val <= 0.0][0]:g}")
        out[lift] = m + np.log(val)
    return out


def log_pcf_d(nu: float, z: float, rtol: float = TOL_PCF) -> float:
    return float(log_pcf_d_batch(nu, z, rtol)[0])


def log_pcf_d_weighted(nu: float, z: float,
                       log_weight: Callable[[np.ndarray], np.ndarray],
                       rtol: float = TOL_PCF) -> float:
    """log of D_nu(z) with its integrand weighted by w(t), for nu <= -1:

        exp(-z^2/4) / Gamma(-nu) * int_0^inf t^(-nu-1) exp(-z t - t^2/2) w(t) dt.

    log_weight maps an array of t to log w(t); w must be positive, smooth
    and bounded. w = 1 gives log D_nu(z).
    """
    return float(log_pcf_d_batch(nu, z, rtol, log_weight)[0])


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
    (always < -1) order of the Weber functions involved.
    """

    b: float
    q: float
    nu_q: float
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
    nu_q = -1.0 - (params.lam + q) / b
    return WeberContext(
        b=b,
        q=q,
        nu_q=nu_q,
        p_lin=0.5 * params.eta - params.alpha / sig2,
        p_quad=0.5 * b / sig2,
        z0=math.sqrt(2.0) * (params.alpha + 0.5 * params.eta * sig2)
            / (params.sigma * math.sqrt(b)),
        z1=-math.sqrt(2.0 * b) / params.sigma,
    )
