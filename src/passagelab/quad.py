"""Deterministic quadrature and finite-difference helpers.

Everything here is plain numerics shared by the special-function and
closed-form modules. All routines are pure and deterministic: no RNG,
no global state beyond a node cache.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import AccuracyError

_GL_NODES = 64


@lru_cache(maxsize=32)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_legendre
    x, w = roots_legendre(n)
    x.flags.writeable = w.flags.writeable = False  # cached: shared by callers
    return x, w


def composite_gl(f, a: float, b: float, rtol: float = 1e-12, atol: float = 0.0,
                 max_panels: int = 256) -> float:
    """Integrate a vectorized callable over [a, b] by panel-doubling Gauss rules.

    Uses a fixed 64-node Gauss-Legendre rule per panel and doubles the panel
    count until two successive levels agree to rtol/atol. Raises AccuracyError
    if max_panels is insufficient.
    """
    if b <= a:
        return 0.0
    x0, w0 = _gl_rule(_GL_NODES)
    prev = None
    panels = 1
    while panels <= max_panels:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
        vals = np.asarray(f(pts), dtype=float).reshape(panels, _GL_NODES)
        total = float(np.sum(half * (vals @ w0)))
        if prev is not None and abs(total - prev) <= max(rtol * abs(total), atol):
            return total
        prev = total
        panels *= 2
    raise AccuracyError(
        f"quadrature did not reach rtol={rtol:g} within {max_panels} panels "
        f"(last estimate {prev!r})")


# Central stencils of 4th order; one-sided of 4th order for boundary points.
_C1_CENTRAL = (np.array([-2, -1, 1, 2]), np.array([1 / 12, -8 / 12, 8 / 12, -1 / 12]))
_C2_CENTRAL = (np.array([-2, -1, 0, 1, 2]),
               np.array([-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]))
_C3_CENTRAL = (np.array([-3, -2, -1, 1, 2, 3]),
               np.array([1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8]))
_C1_LEFT = (np.array([0, -1, -2, -3, -4]),
            np.array([25 / 12, -48 / 12, 36 / 12, -16 / 12, 3 / 12]))
_C2_LEFT = (np.array([0, -1, -2, -3, -4, -5]),
            np.array([45 / 12, -154 / 12, 214 / 12, -156 / 12, 61 / 12, -10 / 12]))
_CENTRAL = {1: _C1_CENTRAL, 2: _C2_CENTRAL, 3: _C3_CENTRAL}
_LEFT = {1: _C1_LEFT, 2: _C2_LEFT}


def _apply_stencil(f, x, h, offsets, coeffs, power):
    vals = np.array([f(x + k * h) for k in offsets], dtype=float)
    return float(np.dot(coeffs, vals)) / h ** power


def fd_derivative(f, x: float, order: int = 1, h: float | None = None,
                  side: str = "central") -> float:
    """Finite-difference derivative of a scalar callable.

    order 1, 2 or 3 centrally; orders 1 and 2 one-sided ("left": points at
    x and below, for evaluation at a right boundary). Steps default to
    sizes tuned for the 4th-order stencils used here; pass h explicitly
    when f carries quadrature noise above machine epsilon.
    """
    scale = max(1.0, abs(x))
    if h is None:
        h = (1e-3 if order == 1 else 2e-3) * scale
    table = {"central": _CENTRAL, "left": _LEFT}.get(side)
    if table is None:
        raise ValueError(f"unknown side {side!r}")
    if order not in table:
        raise ValueError(f"order {order} unsupported for side {side!r}")
    offsets, coeffs = table[order]
    return _apply_stencil(f, x, h, offsets, coeffs, order)
