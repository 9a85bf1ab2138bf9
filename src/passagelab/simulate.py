"""Exact-step simulation of barrier crossings for an affine jump diffusion.

The model between jumps is the linear SDE dX = (alpha + beta X) dt
+ sigma dW; jumps arrive at Poisson rate lam and are upward, exponential
with rate eta. The barrier is the constant level a, started from x < a.

Between jump epochs the transition law is Gaussian with exactly known mean
and variance, so the step size controls only barrier monitoring, not the
marginal law. Each epoch has a fine grid of step h = config.step from its
start, with one partial step (of length in (0, h]) onto the epoch itself,
and is walked in exact strides of m fine steps (m = _STRIDE = 64, halved
while |beta| m h or eta sigma sqrt(m h) exceeds 1), the last one partial.
A stride of length L is refined only when its crossing probability
exp(-2 y0 y1 / (sigma^2 L))^(bL / sinh(bL)), for the gaps y = X - a at
its ends and b = |beta|, exceeds _EPS_BRIDGE = 1e-14; it is 1 for a
stride ending at or above a. For beta = 0 that is the Brownian-bridge
probability. Otherwise it is exact for the chord of the barrier's image
in the time-changed clock of the OU process (see _chord_factor) and
leaves out that image's curvature, of order |a - mu| (bL)^2 for the
mean level mu = -alpha/beta. A refined stride walks its fine nodes from
its start and conditions them on the drawn end by the exact Gaussian
correction X_j += c_j (x_end - X_m), c_j = Cov(X_{t_j}, X_L) / Var(X_L)
given X_0, so they have the law of the plain fine walk; a Brownian-bridge
correction for crossings inside a fine step and the trapezoid compensator
run on them. A stride of one fine step is its own fine walk and is always
refined, drawing no fine normals, so m = 1 gives the plain fine walk.
An unrefined stride is not monitored, so a path's crossing law moves by
at most _EPS_BRIDGE per stride for beta = 0, and by about that while
|a - mu| (bL)^2 is small against sigma sqrt(L): about 5e-13 per path at
the reference model (about 51 strides per path; |a - mu| (bL)^2 = 8e-4
against sigma sqrt(L) = 0.076). Its compensator is the Rao-Blackwellised
integral of exp(-q s) lam E[exp(-eta (a - X_s)) | ends], a lognormal mean
under the Gaussian bridge, by a 4-node Gauss-Legendre rule. The
compensator clips the log of its integrand over lam at -300, a change
below lam exp(-300), so that no exp leaves the normal range.

Because jumps are upward and exponential, a crossing is either a creep of
the diffusion part onto the barrier or a strict jump over it; a jump can
land exactly on the barrier only with probability zero, and the engine
never produces that mode.

Paths are advanced in lockstep groups of at most _GROUP_WIDTH paths, one
chunk of at most _CHUNK_STRIDES strides of each path's current epoch at a
time. Path i draws from one counter-based Philox stream keyed by (seed, i),
in this order:

  * at the start of each epoch, two standard exponentials: the gap to the
    next jump (divided by lam) and that jump's size (divided by eta);
  * for each chunk of the epoch, one standard normal per stride, in stride
    order, the partial stride onto the epoch included;
  * then one normal per fine step of each refined stride of more than one
    fine step, in stride order; a chunk refines only up to its first
    stride that ends at or above the barrier;
  * then one uniform per fine step of the refined strides whose bridge
    probability is at least exp(-708), in step order, each stride up to
    its first fine step that ends at or above the barrier.

STREAM_VERSION names this layout and is recorded in every SimResult, with
the batch's totals of strides, refined strides, normals and uniforms drawn.
Every number is a function of (params, config, q, path index) only, so
results are bitwise identical for any worker count, block size or group
width, and simulate_crossing replays any member of a batch bit for bit.

The compound Poisson sandbox walks all of a batch's paths at once, one
event of every live path per step, in lane chunks of _CP_LANES. Path i
reads the raw 64-bit outputs of the Philox4x64-10 stream keyed by
(seed, i) in the compound Poisson namespace, in order, one output per
draw: output 2e gives event e's gap to the previous event (an exponential
of rate intensity), and output 2e + 1, read only when that event falls
within the horizon, its jump size. Each output becomes the uniform
((raw >> 12) + 1/2) 2**-52 in (0, 1), inverted: -log(u)/rate for the gap
and an exponential jump, and the lattice value at the first cdf entry
above u for a lattice jump. CP_STREAM_VERSION names this layout and is
recorded in every CpResult. The batch computes the raw blocks with numpy
array arithmetic; simulate_compound_poisson reads the same blocks from
numpy.random.Philox and runs the same walk on one lane, so it replays any
member of a batch bit for bit.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import StructuralError
from .paths import (
    CODE_OF,
    EPS_MODE,
    MODE_CODES,
    Barrier,
    CrossingRecord,
    Jump,
    Mode,
    PiecewisePath,
    Segment,
    first_passage,
)

_MASK64 = (1 << 64) - 1
# stream namespaces: diffusion paths, compound Poisson paths
_NS_AFFINE = 0
_NS_CP = 1
STREAM_VERSION = 3     # the draw order of a diffusion path's stream
_BLOCK = 4096          # paths per task handed to a worker
_GROUP_WIDTH = 128     # paths advanced in lockstep within a block
_STRIDE = 64           # fine steps per coarse stride, a power of two
_CHUNK_STRIDES = 32    # strides per lockstep chunk
_EPS_BRIDGE = 1e-14    # refine a stride whose crossing probability exceeds it
_LOG_TINY = -708.0     # a fine step below exp(_LOG_TINY) draws no uniform
# the 4-node Gauss-Legendre rule on [-1, 1] of an unrefined stride's
# integral, as quad._gl_rule(4) gives it; written out, because computing it
# loads LAPACK (about 1 MiB resident) into a process that needs it nowhere else
_GL_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                      0.3399810435848563, 0.8611363115940526])
_GL_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625462,
                        0.6521451548625462, 0.3478548451374538])
_CLIP_EXP = 300.0      # bound on the compensator's exponents
# cap on |beta| * h * chunk so the rescaled-cumsum recursion stays in range
_LOG_CHUNK = 60.0


@dataclass(frozen=True)
class ModelParams:
    """Affine jump diffusion with upward exponential jumps and barrier a."""

    alpha: float
    beta: float
    sigma: float
    lam: float
    eta: float
    a: float
    x: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise StructuralError(f"sigma must be positive, got {self.sigma!r}")
        if not self.lam > 0.0:
            raise StructuralError(f"lam must be positive, got {self.lam!r}")
        if not self.eta > 0.0:
            raise StructuralError(f"eta must be positive, got {self.eta!r}")
        if not self.x < self.a:
            raise StructuralError(
                f"start {self.x!r} must lie strictly below the barrier {self.a!r}")
        for name in ("alpha", "beta", "sigma", "lam", "eta", "a", "x"):
            if not math.isfinite(getattr(self, name)):
                raise StructuralError(f"{name} must be finite")


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 50.0
    step: float = 1e-3
    seed: int = 0
    bridge_correction: bool = True
    n_paths: int = 10_000

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise StructuralError(f"bad horizon {self.horizon!r}")
        if not (0.0 < self.step <= self.horizon):
            raise StructuralError(f"bad step {self.step!r}")
        if self.n_paths < 1:
            raise StructuralError("n_paths must be >= 1")
        if not (0 <= int(self.seed) <= _MASK64):
            raise StructuralError("seed must fit in 64 bits")


def _stream_key(seed: int, namespace: int, index: int) -> np.ndarray:
    if not 0 <= seed <= _MASK64:
        raise StructuralError(f"seed {seed!r} does not fit in 64 bits")
    if not 0 <= index < (1 << 48):
        raise StructuralError(
            f"path index {index!r} lies outside the 48-bit stream space")
    return np.array([seed, (namespace << 48) | index], dtype=np.uint64)


def _path_rng(seed: int, namespace: int, index: int) -> np.random.Generator:
    """A new generator on the stream of one path; never shared."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, namespace, index)))


class _Stream:
    """One reusable generator, re-keyed onto a path's stream per path.

    Setting the Philox state to (key, counter 0, empty buffer) gives the
    same draws as a new generator on that key, at a quarter of the cost.
    """

    def __init__(self):
        self.rng = np.random.Generator(np.random.Philox(0))
        self._state = self.rng.bit_generator.state

    def rekey(self, seed: int, namespace: int, index: int) -> np.random.Generator:
        self._state["state"]["key"][:] = _stream_key(seed, namespace, index)
        self.rng.bit_generator.state = self._state
        return self.rng


def _ou_coeffs(dt, params: ModelParams):
    """Growth, mean shift and noise sd of one exact step of length dt.

    dt may be an array. The beta = 0 case (pure drift plus Brownian
    motion) is an explicit branch rather than a limit, so there is no 0/0
    at that parameter point.
    """
    alpha, beta, sigma = params.alpha, params.beta, params.sigma
    dt = np.asarray(dt, dtype=float)
    if beta == 0.0:
        return np.ones_like(dt), alpha * dt, sigma * np.sqrt(dt)
    bdt = beta * dt
    return (np.exp(bdt), (alpha / beta) * np.expm1(bdt),
            sigma * np.sqrt(np.expm1(2.0 * bdt) / (2.0 * beta)))


def ou_exact_step(x, dt, noise, params: ModelParams):
    """One exact Gaussian transition of the diffusion part over dt.

    noise is a standard normal draw; accepts arrays for x, dt and noise.
    """
    if np.any(np.asarray(dt) <= 0.0):
        raise StructuralError(f"dt must be positive, got {dt!r}")
    g, shift, sd = _ou_coeffs(dt, params)
    return np.asarray(x) * g + shift + sd * np.asarray(noise)


def _bridge_log_prob(y0, y1, sigma: float, dt):
    """log P(Brownian bridge from gap y0 to gap y1 over dt reaches 0), both < 0."""
    return -2.0 * y0 * y1 / (sigma * sigma * dt)


def _chord_factor(beta: float, L):
    """bL / sinh(bL), b = |beta|: the OU factor of a step's crossing exponent.

    Over a step of length L the diffusion is exp(beta t) (x0 + M_t) plus a
    shift, M a time-changed Brownian motion. Between gaps y0 and y1 < 0 the
    bridge of M crosses the chord of the barrier's image in M's clock with
    probability exp(-2 y0 y1 / (sigma^2 L)) to the power bL / sinh(bL). The
    image bends away from that chord by about |a - mu| (bL)^2 / 8, for the
    mean level mu = -alpha/beta, which the chord leaves out.
    """
    if beta == 0.0:
        return 1.0
    bl = abs(beta) * np.asarray(L, dtype=float)
    with np.errstate(over="ignore"):
        return bl / np.sinh(bl)


def _bridge_law(params: ModelParams, L, s):
    """Law of X_s inside an exact step of length L, given both of its ends.

    X_s given X_0 and X_L is Gaussian with mean A X_0 + B X_L + C and
    variance V; B = Cov(X_s, X_L | X_0) / Var(X_L | X_0) is also the
    coefficient that conditions a free walk on its end. The terms are
    written with exp(-|beta| t) only, so none overflows for either sign of
    beta, and beta = 0 (Brownian motion with drift) is its own branch.
    L and s may be arrays that broadcast.
    """
    s = np.asarray(s, dtype=float)
    sig2 = params.sigma * params.sigma
    if params.beta == 0.0:
        B = s / L
        return 1.0 - B, B, np.zeros_like(B), sig2 * s * (1.0 - B)
    b = abs(params.beta)
    e_s, e_r, e_L = np.expm1(-2.0 * b * s), np.expm1(-2.0 * b * (L - s)), \
        np.expm1(-2.0 * b * L)
    A = np.exp(-b * s) * e_r / e_L
    B = np.exp(-b * (L - s)) * e_s / e_L
    # C = mu (1 - A - B) about the mean level mu = -alpha/beta, in closed form
    C = -(params.alpha / params.beta) * np.expm1(-b * s) \
        * np.expm1(-b * (L - s)) / (1.0 + np.exp(-b * L))
    return A, B, C, sig2 * e_s * e_r / (-2.0 * b * e_L)


class _StepTables:
    """Fixed-step tables of one call: the OU recursion and discount factors.

    After j steps of size h from x0 with normals z_1..z_j the diffusion is
    exp(beta h j) (x0 + sd_h sum_i exp(-beta h i) z_i) + shift_j, with
    shift_j = (alpha/beta) expm1(beta h j). The width is capped so that
    |beta| h width <= _LOG_CHUNK keeps every weight within double range.
    A table of width 1 takes one exact step per column instead, because
    exp(-beta h) itself leaves double range once |beta| h exceeds about 709.
    A step whose own noise sd overflows is rejected.
    """

    def __init__(self, params: ModelParams, h: float, q_arr: np.ndarray):
        bh = abs(params.beta) * h
        widest = max(_STRIDE, _CHUNK_STRIDES)   # the longest walk of a call
        self.width = widest if bh == 0.0 else \
            max(1, min(widest, int(_LOG_CHUNK / bh)))
        self.params = params
        self.h = h
        with np.errstate(over="ignore"):
            _, _, sd_h = _ou_coeffs(h, params)
        if not np.isfinite(sd_h):
            raise StructuralError(
                f"step {h!r} is too long for beta = {params.beta!r}: "
                "one exact step overflows")
        if self.width > 1:
            j = np.arange(1, self.width + 1)
            self.growth, self.shift, _ = _ou_coeffs(h * j, params)
            self.noise_weight = sd_h / self.growth
        # exp(-q h j) at the nodes j = 0..width of a chunk
        self.disc = np.exp(-np.outer(q_arr, h * np.arange(self.width + 1)))

    def walk(self, x0: np.ndarray, z: np.ndarray, out=None) -> np.ndarray:
        """Values after each of the steps z[:, j], row-wise, for any length."""
        out = np.empty_like(z) if out is None else out
        cur = x0
        if self.width == 1:
            for j in range(z.shape[1]):
                cur = out[:, j] = ou_exact_step(cur, self.h, z[:, j], self.params)
            return out
        for lo in range(0, z.shape[1], self.width):
            v = out[:, lo:lo + self.width]
            k = v.shape[1]
            np.multiply(z[:, lo:lo + k], self.noise_weight[:k], out=v)
            v[:, 0] += cur
            np.cumsum(v, axis=1, out=v)
            v *= self.growth[:k]
            v += self.shift[:k]
            cur = v[:, -1]
        return out


_WORK = ("strides", "refined", "normals", "uniforms")


@dataclass(eq=False)
class SimResult:
    """Per-path crossing summaries for a batch, in path-index order.

    work holds the batch's integer totals of the draws in _WORK: strides
    walked, strides refined, standard normals and bridge uniforms.
    """

    params: ModelParams
    config: SimConfig
    q_list: tuple[float, ...]
    modes: np.ndarray          # int8 codes, see paths.MODE_CODES
    taus: np.ndarray
    overshoots: np.ndarray     # nan unless jump_over
    pre_jump_levels: np.ndarray  # barrier level for creep, nan if censored
    comp: np.ndarray           # shape (n_paths, len(q_list))
    work: dict[str, int]
    stream_version: int = STREAM_VERSION

    @property
    def n(self) -> int:
        return self.modes.shape[0]

    def q_index(self, q: float) -> int:
        for i, qq in enumerate(self.q_list):
            if qq == q:
                return i
        raise StructuralError(f"q = {q!r} was not simulated; have {self.q_list}")


class _Group:
    """Lockstep engine for the paths start..start+count-1 of one block.

    Up to _GROUP_WIDTH slots hold live paths. Each round advances every
    live slot by one chunk of at most _CHUNK_STRIDES strides of its current
    epoch (the last of which may be the partial stride onto the epoch),
    refines the strides near the barrier, ends the epochs and paths that
    are done, and refills the empty slots. Every operation on the group's
    arrays acts on each row alone, so a path's numbers do not depend on
    which slot it ran in or what ran beside it.
    """

    def __init__(self, params: ModelParams, config: SimConfig,
                 q_arr: np.ndarray, start: int, count: int):
        self.p = params
        self.cfg = config
        self.q = q_arr
        self.start = start
        self.count = count
        h = config.step
        self.tab = _StepTables(params, h, q_arr)
        # fine steps per stride, halved while |beta| H or eta sigma sqrt(H)
        # exceeds 1: then the lognormal mean varies little over a stride, so
        # a fixed rule integrates it, exp(beta H) stays small, and on a
        # stride with crossing probability below _EPS_BRIDGE the part of the
        # mean above the barrier, which the trapezoid clips, is below
        # 1e-12 of it
        self.m = _STRIDE
        while self.m > 1 and max(abs(params.beta) * self.m * h, params.eta
                                 * params.sigma * math.sqrt(self.m * h)) > 1.0:
            self.m //= 2
        self.H = self.m * h
        self.coarse = _StepTables(params, self.H, q_arr[:0])
        # conditioning coefficients c_j of the fine nodes of a full stride
        self.cond = _bridge_law(params, self.H, h * np.arange(1, self.m + 1))[1]
        # Rao-Blackwell rule of a full stride: at node i, the exponent
        # rb_a[i] y0 + rb_b[i] y1 + rb_c[i] (see _rb_terms) of stride k of a
        # chunk is weighted by rb_w[q, i * _CHUNK_STRIDES + k], discount
        # included. Strides of one fine step are all refined and take no rule
        self.gl = (0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS)
        self.chord = _chord_factor(params.beta, self.H)
        if self.m > 1:
            s = self.H * self.gl[0]
            *abc, log_w = self._rb_terms(self.H, s, self.H * self.gl[1])
            self.rb_a, self.rb_b, self.rb_c = (v[:, None] for v in abc)
            offsets = (s[:, None] + self.H * np.arange(_CHUNK_STRIDES)).ravel()
            self.rb_w = np.exp(np.repeat(log_w, _CHUNK_STRIDES)
                               - np.outer(q_arr, offsets))
        slots = min(_GROUP_WIDTH, count)
        self.streams = [_Stream() for _ in range(slots)]
        # each slot's draw methods; re-keying keeps the generator objects
        self.normal = [st.rng.standard_normal for st in self.streams]
        self.uniform = [st.rng.random for st in self.streams]
        self.exponential = [st.rng.standard_exponential for st in self.streams]
        self.row = np.full(slots, -1)     # output row of each slot's path
        self.next = 0                     # next output row to start
        self.x = np.zeros(slots)          # value at the chunk start
        self.t0 = np.zeros(slots)         # epoch start
        self.t_end = np.zeros(slots)      # epoch end
        self.jump = np.zeros(slots, dtype=bool)   # epoch ends in a jump
        self.size = np.zeros(slots)       # that jump's size
        self.done = np.zeros(slots, dtype=np.int64)     # strides done
        self.n_str = np.zeros(slots, dtype=np.int64)    # strides in epoch
        self.n_last = np.zeros(slots, dtype=np.int64)   # fine steps, last stride
        self.dt_last = np.zeros(slots)    # the partial fine step onto the epoch
        self.L_last = np.zeros(slots)     # the partial stride onto the epoch
        self.comp = np.zeros((slots, q_arr.shape[0]))
        self.modes = np.empty(count, dtype=np.int8)
        self.taus = np.empty(count)
        self.overshoots = np.full(count, np.nan)
        self.pre = np.empty(count)
        self.out_comp = np.empty((count, q_arr.shape[0]))
        self.work = dict.fromkeys(_WORK, 0)
        self.z = np.zeros((slots, _CHUNK_STRIDES))
        self.z_rows = list(self.z)

    def _rb_terms(self, L, s, w):
        """The Rao-Blackwell integrand of strides of length L at nodes s.

        Returns eta A, eta B, c = eta (C - a (1 - A - B)) + eta^2 V / 2 and
        log(lam w). For the gaps y = X - a of the ends, eta A y0 + eta B y1
        + c is the log of the lognormal mean E[exp(-eta (a - X_s)) | ends],
        and the node adds that mean times lam w exp(-q s).
        """
        A, B, C, V = _bridge_law(self.p, L, s)
        eta = self.p.eta
        c = 0.5 * eta * eta * V + eta * (C - self.p.a * (1.0 - A - B))
        return eta * A, eta * B, c, math.log(self.p.lam) + np.log(w)

    def run(self):
        self._fill()
        while True:
            live = np.flatnonzero(self.row >= 0)
            if live.size == 0:
                break
            self._chunk(live)
            self._fill()
        return (self.start, self.modes, self.taus, self.overshoots, self.pre,
                self.out_comp, self.work)

    def _fill(self):
        """Start the next paths in the empty slots."""
        while self.next < self.count:
            empty = np.flatnonzero(self.row < 0)[:self.count - self.next]
            if empty.size == 0:
                return
            for s in empty:
                self.streams[s].rekey(self.cfg.seed, _NS_AFFINE,
                                      self.start + self.next)
                self.row[s] = self.next
                self.next += 1
            self.x[empty] = self.p.x
            self.comp[empty] = 0.0
            self._epochs(empty, np.zeros(empty.size))

    def _finish(self, slots, mode: Mode, tau, overshoot=math.nan, pre=math.nan):
        if slots.size == 0:
            return
        r = self.row[slots]
        self.modes[r] = CODE_OF[mode]
        self.taus[r] = tau
        self.overshoots[r] = overshoot
        self.pre[r] = pre
        self.out_comp[r] = self.comp[slots]
        self.row[slots] = -1

    def _epochs(self, slots, t0):
        """Draw the next epoch of each slot, which is at x at time t0."""
        if slots.size == 0:
            return
        p, h, horizon = self.p, self.cfg.step, self.cfg.horizon
        draws = np.empty((slots.size, 2))
        for row, s in zip(draws, slots.tolist()):
            self.exponential[s](out=row)
        t_end = t0 + draws[:, 0] / p.lam
        jump = t_end < horizon
        t_end[~jump] = horizon
        size = draws[:, 1] / p.eta
        seg = t_end - t0
        # n fine steps, the last of length dt_last in (0, h]
        n = np.maximum(1, np.ceil(seg / h)).astype(np.int64)
        n -= (seg - (n - 1) * h <= 0.0) & (n > 1)
        strides = (n + self.m - 1) // self.m
        n_last = n - (strides - 1) * self.m
        dt_last = seg - (n - 1) * h
        self.t0[slots] = t0
        self.t_end[slots] = t_end
        self.jump[slots] = jump
        self.size[slots] = size
        self.done[slots] = 0
        self.n_str[slots] = strides
        self.n_last[slots] = n_last
        self.dt_last[slots] = dt_last
        self.L_last[slots] = (n_last - 1) * h + dt_last
        empty = seg <= 0.0
        if empty.any():
            # an epoch of zero length: the jump comes before any step
            self._jumps(slots[empty])

    def _jumps(self, slots):
        """End the epochs of these slots: censor at the horizon, else jump."""
        a = self.p.a
        censor = ~self.jump[slots]
        self._finish(slots[censor], Mode.CENSORED, math.inf)
        slots = slots[~censor]
        x = self.x[slots]
        landed = x + self.size[slots]
        over = landed >= a
        self._finish(slots[over], Mode.JUMP_OVER, self.t_end[slots[over]],
                     landed[over] - a, x[over])
        slots = slots[~over]
        self.x[slots] = landed[~over]
        self._epochs(slots, self.t_end[slots])

    def _chunk(self, live: np.ndarray):
        p, h, a, H = self.p, self.cfg.step, self.p.a, self.H
        width = _CHUNK_STRIDES
        rows = live.shape[0]
        # strides this chunk; `ends` rows finish the epoch with the partial one
        left = self.n_str[live] - self.done[live]
        k = np.minimum(width, left)
        ends = k == left
        z = self.z[:rows]
        for z_row, s, n in zip(self.z_rows, live.tolist(), k.tolist()):
            self.normal[s](out=z_row[:n])
        x0 = self.x[live]
        t_chunk = self.t0[live] + self.done[live] * H
        # xs[:, j] is the value at stride node j of the chunk; node 0 its start
        xs = np.empty((rows, width + 1))
        xs[:, 0] = x0
        self.coarse.walk(x0, z, out=xs[:, 1:])
        er = np.flatnonzero(ends)
        ek = k[er]
        L_e = self.L_last[live[er]]
        xs[er, ek] = ou_exact_step(xs[er, ek - 1], L_e, z[er, ek - 1], p)
        # past the epoch: never near a
        xs[np.arange(width + 1) > np.where(ends, k, width)[:, None]] = -np.inf

        # refine every stride up to the first that ends at or above a whose
        # crossing probability exceeds the bound (one ending at a has 1). A
        # stride of one fine step is its own fine walk, always refined
        y = xs - a
        with np.errstate(invalid="ignore"):
            log_p = _bridge_log_prob(y[:, :-1], y[:, 1:], p.sigma, H) \
                * self.chord
        log_p[er, ek - 1] = _bridge_log_prob(y[er, ek - 1], y[er, ek], p.sigma,
                                             L_e) * _chord_factor(p.beta, L_e)
        steps = np.full((rows, width), self.m)   # fine steps of each stride
        steps[er, ek - 1] = self.n_last[live[er]]
        above = y[:, 1:] >= 0.0
        first = above.argmax(axis=1)
        hit = np.where(above[np.arange(rows), first], first, k - 1)
        refine = ((log_p > math.log(_EPS_BRIDGE)) | (steps == 1)) \
            & (np.arange(width) <= hit[:, None])
        rr, kk = np.nonzero(refine)       # by row, then in stride order
        fine = self._refine(live, xs, rr, kk, steps[rr, kk],
                            ends[rr] & (kk == k[rr] - 1))
        F, n_f, last, cross, piece = fine
        # the first crossing stride of each crossed row
        crossed = np.flatnonzero(cross < n_f)
        cri = crossed[np.diff(rr[crossed], prepend=-1) > 0]
        pr, cs = rr[cri], kk[cri]
        tau = t_chunk[pr] + cs * H + cross[cri] * h + piece[cri]
        self.work["strides"] += int(k.sum())
        self.work["refined"] += rr.size
        self.work["normals"] += int(k.sum() + n_f[n_f > 1].sum())
        if self.q.shape[0]:
            stop = k.copy()               # strides before the crossing one
            stop[pr] = cs
            self._compensate(live, y, k, ends, refine, stop, t_chunk, rr, kk,
                             fine)
        self._finish(live[pr], Mode.CREEP, tau, pre=a)
        # the others move to the chunk end and take the jump at epoch ends
        go = np.ones(rows, dtype=bool)
        go[pr] = False
        self.x[live[go]] = xs[go, k[go]]
        self.done[live[go]] += k[go]
        self._jumps(live[go & ends])

    def _refine(self, live, xs, rr, kk, n_f, last):
        """Walk the refined strides on the fine grid and find the crossings.

        Row i of F holds the n_f[i] fine steps of stride kk[i] of chunk row
        rr[i], conditioned on both of its ends; last[i] marks the partial
        stride onto the epoch. Returns F, n_f, last, each row's first
        crossing step (cross, n_f if none) and the time from the start of
        that step to the crossing (piece).
        """
        p, h, a, m = self.p, self.cfg.step, self.p.a, self.m
        n = rr.shape[0]
        slot = live[rr]
        # one run of normals per path, strides in order, each row left-aligned;
        # a stride of one step needs none
        walked = np.where(n_f > 1, n_f, 0)
        z = np.zeros((n, m))
        drawn = np.empty(walked.sum())
        self._draw(self.normal, slot, walked, drawn)
        z[np.arange(m) < walked[:, None]] = drawn
        F = np.empty((n, m + 1))
        F[:, 0] = xs[rr, kk]
        self.tab.walk(F[:, 0], z, out=F[:, 1:])
        c = np.tile(self.cond, (n, 1))
        li = np.flatnonzero(last)
        if li.size:
            lj = n_f[li]
            F[li, lj] = ou_exact_step(F[li, lj - 1], self.dt_last[slot[li]],
                                      z[li, lj - 1], p)
            L = self.L_last[slot[li], None]
            c[li] = _bridge_law(p, L, np.minimum(h * np.arange(1, m + 1), L))[1]
        ar = np.arange(n)
        end = xs[rr, kk + 1]
        F[:, 1:] += c * (end - F[ar, n_f])[:, None]
        F[ar, n_f] = end
        F[np.arange(m + 1) > n_f[:, None]] = -np.inf

        # each stride's first fine step ending at or above a, else n_f
        above = F[:, 1:] >= a
        first = above.argmax(axis=1)
        cross = np.where(above[ar, first], first, n_f)
        bridged = np.zeros(n, dtype=bool)
        if self.cfg.bridge_correction:
            self.work["uniforms"] += self._bridge(slot, F, n_f, last, cross,
                                                  bridged)
        cc = np.minimum(cross, n_f - 1)
        dt_c = np.where(last & (cc == n_f - 1), self.dt_last[slot], h)
        x_lo, x_hi = F[ar, cc], F[ar, cc + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(x_hi > x_lo, (a - x_lo) / (x_hi - x_lo), 1.0)
        theta = np.where(bridged, 0.5, np.clip(theta, 0.0, 1.0))
        return F, n_f, last, cross, theta * dt_c

    def _bridge(self, slot, F, n_f, last, cross, bridged) -> int:
        """Crossings inside fine steps with both ends below the barrier.

        Draws one uniform per step before `cross` whose bridge probability
        is at least exp(_LOG_TINY), and lowers `cross` to the first step
        where the uniform falls below it. Row i belongs to the path in
        `slot[i]`. Returns the number of uniforms drawn.
        """
        sigma, h, m = self.p.sigma, self.cfg.step, self.m
        y = F - self.p.a
        with np.errstate(invalid="ignore"):
            log_p = _bridge_log_prob(y[:, :-1], y[:, 1:], sigma, h)
        li = np.flatnonzero(last)
        lj = n_f[li] - 1
        log_p[li, lj] = _bridge_log_prob(y[li, lj], y[li, lj + 1], sigma,
                                         self.dt_last[slot[li]])
        at = np.flatnonzero((log_p >= _LOG_TINY)
                            & (np.arange(m) < cross[:, None]))
        if at.size == 0:
            return 0
        rr, cc = at // m, at % m
        # rows of one path are adjacent, so its uniforms are one run of u
        u = np.empty(at.shape[0])
        self._draw(self.uniform, slot[rr], None, u)
        below = np.flatnonzero(u < np.exp(log_p.ravel()[at]))
        first = below[np.diff(rr[below], prepend=-1) > 0]
        cross[rr[first]] = cc[first]
        bridged[rr[first]] = True
        return u.shape[0]

    def _draw(self, method, slots, counts, out):
        """Fill out with counts[i] draws (1 if None) for each entry i.

        method[s] draws from slot s. slots is nondecreasing, so the draws of
        one path are one run of out.
        """
        counts = np.bincount(slots, counts, len(self.streams)).astype(np.int64)
        pos = 0
        for s in np.flatnonzero(counts).tolist():
            n = int(counts[s])
            method[s](out=out[pos:pos + n])
            pos += n

    def _compensate(self, live, y, k, ends, refine, stop, t_chunk, rr, kk,
                    fine):
        """Add each row's integral of exp(-q s) lam exp(-eta (a - X_s)).

        Strides before `stop` count whole, and the crossing stride up to
        tau. An unrefined stride adds the Rao-Blackwell integral of the
        lognormal mean given its ends; a refined one the trapezoid of its
        fine nodes. Each row is summed on its own in a fixed order, so a
        path's sum does not depend on the rows beside it.
        """
        q, H = self.q, self.H
        rows, width = y.shape[0], y.shape[1] - 1
        # full unrefined strides: one einsum per row over the full width. The
        # log of the lognormal mean is clipped to [-_CLIP_EXP, _CLIP_EXP], so
        # that every exp stays in the normal range and the strides left out
        # give finite zeros: a counted stride ends below the barrier with a
        # tiny crossing probability, so only the lower bound can bind there,
        # and it changes the integrand by less than lam exp(-_CLIP_EXP)
        acc = np.zeros((rows, q.shape[0]))
        if self.m > 1:
            whole = (np.arange(width) < np.minimum(stop, k - ends)[:, None]) \
                & ~refine
            rb = y[:, None, :-1] * self.rb_a
            rb += y[:, None, 1:] * self.rb_b
            rb += self.rb_c
            np.clip(rb, -_CLIP_EXP, _CLIP_EXP, out=rb)
            np.exp(rb, out=rb)
            rb *= whole[:, None, :]
            acc += np.einsum("lj,qj->lq", rb.reshape(rows, -1), self.rb_w)
        # an unrefined partial stride onto the epoch, by the same rule
        er = np.flatnonzero(ends & (stop == k))
        er = er[~refine[er, k[er] - 1]]
        if er.size:
            L = self.L_last[live[er], None]
            s = L * self.gl[0]
            eta_a, eta_b, c, log_w = self._rb_terms(L, s, L * self.gl[1])
            node = np.exp(np.clip(eta_a * y[er, k[er] - 1, None]
                                  + eta_b * y[er, k[er], None] + c,
                                  -_CLIP_EXP, _CLIP_EXP) + log_w)
            t = ((k[er] - 1) * H)[:, None] + s
            terms = node[:, :, None] * np.exp(-(t[:, :, None] * q))
            part = acc[er]
            for i in range(s.shape[1]):
                part += terms[:, i]
            acc[er] = part
        # refined strides up to the crossing one, in stride order
        keep = kk <= stop[rr]
        part = self._trapezoid(live[rr[keep]], *(f[keep] for f in fine))
        np.add.at(acc, rr[keep], part * np.exp(-np.outer(kk[keep] * H, q)))
        self.comp[live] += np.exp(-np.outer(t_chunk, q)) * acc

    def _trapezoid(self, slot, F, k, ends, cross, piece):
        """Trapezoid of exp(-q s) lam exp(-eta (a - X_s)) over fine nodes.

        s runs from each row's node 0. The trapezoid runs up to the
        crossing step or the partial step; the crossing step adds its
        piece onto (tau, lam), the partial step its piece onto the epoch.
        """
        p, h, q = self.p, self.cfg.step, self.q
        disc = self.tab.disc[:, :F.shape[1]]
        ar = np.arange(F.shape[0])
        # eta (X - a) clipped to [-_CLIP_EXP, 0], the floor of _compensate
        phi = np.clip(F - p.a, -_CLIP_EXP / p.eta, 0.0)
        phi *= p.eta
        phi += math.log(p.lam)
        np.exp(phi, out=phi)
        er = np.flatnonzero(ends & (cross >= k))
        ek = k[er]
        tail = phi[er, ek]                  # the value at the epoch
        last = np.minimum(cross, k - ends)  # last full-step node
        phi[np.arange(F.shape[1]) > last[:, None]] = 0.0
        acc = np.einsum("lj,qj->lq", phi, disc)
        acc -= 0.5 * (phi[:, 0, None] * disc[:, 0]
                      + phi[ar, last, None] * disc[:, last].T)
        acc *= h
        cr = np.flatnonzero(cross < k)
        cc = cross[cr]
        acc[cr] += 0.5 * piece[cr, None] * (
            phi[cr, cc, None] * disc[:, cc].T
            + p.lam * np.exp(-np.outer(cc * h + piece[cr], q)))
        acc[er] += 0.5 * self.dt_last[slot[er], None] * (
            phi[er, ek - 1, None] * disc[:, ek - 1].T
            + tail[:, None] * np.exp(-np.outer(self.L_last[slot[er]], q)))
        return acc


def _run_block(params: ModelParams, config: SimConfig, q_list,
               start: int, count: int):
    return _Group(params, config, np.asarray(q_list, dtype=float),
                  start, count).run()


def run_paths(params: ModelParams, config: SimConfig,
              q_list: Sequence[float] = (), workers: int | None = None
              ) -> SimResult:
    """Simulate config.n_paths independent paths and stack their summaries.

    Every path draws from its own stream keyed by (seed, index), and the
    output arrays are ordered by index, so the result is bitwise identical
    for any worker count, block size or group width. `workers` of None
    runs serially, a count below 1 raises StructuralError, and at most
    one worker runs per block of _BLOCK paths.
    """
    nw = 1 if workers is None else int(workers)
    if nw < 1:
        raise StructuralError(f"workers must be at least 1, got {workers!r}")
    n = config.n_paths
    q_tuple = tuple(float(q) for q in q_list)
    tasks = [(s, min(_BLOCK, n - s)) for s in range(0, n, _BLOCK)]
    nw = min(nw, len(tasks))
    results = []
    if nw == 1:
        for s, c in tasks:
            results.append(_run_block(params, config, q_tuple, s, c))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=nw) as ex:
            futs = [ex.submit(_run_block, params, config, q_tuple, s, c)
                    for s, c in tasks]
            results = [f.result() for f in futs]
    results.sort(key=lambda r: r[0])
    modes = np.concatenate([r[1] for r in results])
    taus = np.concatenate([r[2] for r in results])
    overshoots = np.concatenate([r[3] for r in results])
    pre = np.concatenate([r[4] for r in results])
    comp = np.concatenate([r[5] for r in results], axis=0)
    work = {key: sum(r[6][key] for r in results) for key in _WORK}
    return SimResult(params, config, q_tuple, modes, taus, overshoots, pre,
                     comp, work)


def simulate_crossing(params: ModelParams, config: SimConfig, q: float = 0.0,
                      path_index: int = 0) -> SimResult:
    """Simulate path path_index alone, as a one-row SimResult with q_list (q,).

    Runs the batch engine on a group of one path, so every field but work
    equals row path_index of a run_paths batch with the same settings.
    """
    q_tuple = (float(q),)
    _, *rows = _run_block(params, config, q_tuple, path_index, 1)
    return SimResult(params, config, q_tuple, *rows)




# ---------------------------------------------------------------------------
# compound Poisson model (piecewise-constant paths, general jump law)

CP_STREAM_VERSION = 2  # the draw order of a compound Poisson path's stream
_CP_LANES = 4096       # compound Poisson paths walked at once
# the multipliers and key increments of Philox4x64 (Salmon et al. 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = 0xFFFFFFFF


def _mulhilo(m: int, x):
    """High and low 64-bit words of m times x, elementwise.

    x is a uint64 array or a Python int below 2**64. The high word is summed
    from 32-bit halves, so no partial sum leaves 64 bits.
    """
    lo = x * m
    if isinstance(lo, int):
        lo &= _MASK64
    m_lo, m_hi = m & _LO32, m >> 32
    x_lo, x_hi = x & _LO32, x >> 32
    t = x_hi * m_lo + ((x_lo * m_lo) >> 32)
    u = x_lo * m_hi + (t & _LO32)
    return x_hi * m_hi + (t >> 32) + (u >> 32), lo


def _philox_blocks(counter: int, key0: int, key1: np.ndarray) -> np.ndarray:
    """Block `counter` of Philox4x64-10 under each key (key0, key1[i]).

    Row j of the (4, n) result is output j of the block, so the blocks
    counter = 1, 2, ... of one key are what numpy.random.Philox(key=...)
    .random_raw returns, in order. The counter words above the first are 0,
    so the first round multiplies Python ints only.
    """
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    c0, c1, c2, c3 = counter, 0, 0, 0
    k0, k1 = key0, key1
    for r in range(10):
        if r:
            k0 = (k0 + w0) & _MASK64
            k1 = k1 + w1
        hi0, lo0 = _mulhilo(m0, c0)
        hi1, lo1 = _mulhilo(m1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3))


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The top 52 bits of each raw output as the midpoint of its cell of (0, 1).

    ((raw >> 12) + 1/2) 2**-52 is exact in double precision and lies in
    [2**-53, 1 - 2**-53]. Keeping 53 bits would round the top cell's
    midpoint up to 1.
    """
    return ((raw >> 12) + 0.5) * 2.0 ** -52


class JumpLaw:
    """Interface of a positive jump law: inversion, and the closed upper tail.

    invert(u) is the jump size of each uniform u in (0, 1); tail(y) is
    P(U >= y), the intensity factor of the compensator. Both take arrays.
    LatticeJumps and ExponentialJumps implement it.
    """

    def invert(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tail(self, y):
        raise NotImplementedError


@dataclass(frozen=True)
class LatticeJumps(JumpLaw):
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise StructuralError("values and probs must match and be nonempty")
        if not all(0.0 < v < math.inf for v in self.values):
            raise StructuralError("jump values must be positive and finite")
        if not all(0.0 <= p <= 1.0 for p in self.probs) \
                or abs(sum(self.probs) - 1.0) > 1e-12:
            raise StructuralError("probs must be a probability vector")

    @cached_property
    def _cdf(self) -> np.ndarray:
        cum = np.cumsum(self.probs)
        return cum / cum[-1]

    @cached_property
    def _tails(self) -> tuple[np.ndarray, np.ndarray]:
        """The values in increasing order, and P(U >= each) followed by 0."""
        order = np.argsort(self.values, kind="stable")
        above = np.cumsum(np.asarray(self.probs)[order[::-1]])[::-1]
        return np.asarray(self.values)[order], np.append(above, 0.0)

    def invert(self, u):
        # the index rng.choice(len(values), p=probs) takes for the uniform u
        return np.asarray(self.values)[np.searchsorted(self._cdf, u, "right")]

    def tail(self, y):
        values, above = self._tails
        return above[np.searchsorted(values, y, "left")]


@dataclass(frozen=True)
class ExponentialJumps(JumpLaw):
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise StructuralError("rate must be positive and finite")

    def invert(self, u):
        return -np.log(u) / self.rate

    def tail(self, y):
        return np.exp(-self.rate * np.maximum(y, 0.0))


@dataclass(frozen=True)
class CompoundPoissonSpec:
    intensity: float
    jump_law: JumpLaw
    barrier_level: float
    start: float

    def __post_init__(self):
        if not 0.0 < self.intensity < math.inf:
            raise StructuralError("intensity must be positive and finite")
        if not (math.isfinite(self.start) and math.isfinite(self.barrier_level)):
            raise StructuralError("start and barrier_level must be finite")
        if not self.start < self.barrier_level:
            raise StructuralError("start must lie strictly below the barrier")


def _cp_horizon(horizon) -> float:
    h = float(horizon)
    if not (h > 0.0 and math.isfinite(h)):
        raise StructuralError(f"bad horizon {horizon!r}")
    return h


# a crossing's code by 2 (pre-jump gap is 0) + (landing gap is 0)
_CROSSING_CODES = np.array([CODE_OF[m] for m in (Mode.JUMP_OVER, Mode.JUMP_HIT,
                                                 Mode.TOUCH_JUMP, Mode.CREEP)],
                           dtype=np.int8)


def _crossing_codes(y_minus: np.ndarray, y_at: np.ndarray) -> np.ndarray:
    """classify_mode's code of each crossing from below, y_minus < 0 <= y_at.

    As classify_mode does, the gaps count as 0 within EPS_MODE: a jump from
    the barrier is touch_jump (creep if it also lands there), and a jump from
    below is jump_hit when it lands there and jump_over otherwise.
    """
    return _CROSSING_CODES[2 * (np.abs(y_minus) <= EPS_MODE)
                           + (np.abs(y_at) <= EPS_MODE)]


def _cp_walk(spec: CompoundPoissonSpec, horizon: float, grid: np.ndarray,
             blocks, n: int, events: list | None = None):
    """Walk n compound Poisson paths (lanes), one event of each live lane per step.

    blocks(k, lanes) returns the raw block k = 1, 2, ... of the stream of
    each lane in `lanes`, shape (4, lanes.size). Event e of a lane reads
    output 2e for its gap and 2e + 1 for its jump, so step e needs block
    e // 2 + 1. A lane stops when its next event falls after the horizon
    (censored) or lands at or above the barrier (crossed). The compensator
    adds lam P(U >= a - level) |[s0, min(t, s1)]| of each flat piece at the
    grid times t, piece after piece, so each lane sums in its own order.
    Returns the mode codes, taus and compensator; a list given as events
    receives each step's (lanes, jump times, post-jump levels).
    """
    lam, a, law = spec.intensity, spec.barrier_level, spec.jump_law
    taus = np.full(n, math.inf)
    y_minus = np.empty(n)
    y_at = np.empty(n)
    comp = np.zeros((n, grid.shape[0]))
    live = np.arange(n)
    t = np.zeros(n)
    x = np.full(n, float(spec.start))
    e = 0
    while live.size:
        j = 2 * (e % 2)
        if j == 0:
            u = _uniforms(blocks(e // 2 + 1, live))
        t1 = t - np.log(u[j]) / lam
        if grid.shape[0]:
            # the flat piece [t, min(t1, horizon)) at level x
            s1 = np.minimum(t1, horizon)
            comp[live] += (lam * law.tail(a - x))[:, None] * np.clip(
                np.minimum(grid, s1[:, None]) - t[:, None], 0.0, None)
        go = (t1 <= horizon).nonzero()[0]
        live, t, x0 = live[go], t1[go], x[go]
        x = x0 + law.invert(u[j + 1, go])
        if events is not None:
            events.append((live, t, x))
        over = x >= a
        if over.any():
            up = live[over]
            taus[up] = t[over]
            y_minus[up] = x0[over] - a
            y_at[up] = x[over] - a
            stay = (~over).nonzero()[0]
            live, t, x, go = live[stay], t[stay], x[stay], go[stay]
        if j == 0:
            u = u[:, go]
        e += 1
    modes = np.full(n, CODE_OF[Mode.CENSORED], dtype=np.int8)
    crossed = np.isfinite(taus)
    modes[crossed] = _crossing_codes(y_minus[crossed], y_at[crossed])
    return modes, taus, comp


def cp_to_path(spec: CompoundPoissonSpec, times: list[float],
               levels: list[float], horizon: float) -> PiecewisePath:
    segs = []
    jumps = []
    cur = spec.start
    t_prev = 0.0
    for t, lvl in zip(times, levels):
        segs.append(Segment(t_prev, t, cur, 0.0))
        jumps.append(Jump(t, cur, lvl))
        cur = lvl
        t_prev = t
    if t_prev < horizon:
        segs.append(Segment(t_prev, horizon, cur, 0.0))
        return PiecewisePath(tuple(segs), tuple(jumps), horizon)
    # crossing exactly at the horizon: pad so the last jump stays interior
    padded = t_prev + 1.0
    segs.append(Segment(t_prev, padded, cur, 0.0))
    return PiecewisePath(tuple(segs), tuple(jumps), padded)


# each thread's generator for replays, re-keyed onto the replayed path per call
_REPLAY = threading.local()


def simulate_compound_poisson(spec: CompoundPoissonSpec, seed: int,
                              horizon: float, path_index: int = 0
                              ) -> tuple[PiecewisePath, CrossingRecord]:
    """One compound Poisson path as a PiecewisePath, classified exactly.

    path_index selects the same stream as path path_index of a batch run
    with this seed, and the path is the batch's walk on that one lane, so
    single-path inspection replays any batch member bit for bit. Its blocks
    come from numpy's Philox, which is faster than the batch's array
    generator on one lane and draws the same numbers.
    """
    horizon = _cp_horizon(horizon)
    if not hasattr(_REPLAY, "stream"):
        _REPLAY.stream = _Stream()
    bits = _REPLAY.stream.rekey(int(seed), _NS_CP, path_index).bit_generator
    events: list = []
    _cp_walk(spec, horizon, np.empty(0),
             lambda k, lanes: bits.random_raw(4)[:, None], 1, events)
    times = [float(t[0]) for _, t, _ in events if t.size]
    levels = [float(x[0]) for _, _, x in events if x.size]
    path = cp_to_path(spec, times, levels, horizon)
    record = first_passage(path, Barrier.constant(spec.barrier_level))
    return path, record


@dataclass(eq=False)
class CpResult:
    """Batch summaries for the compound Poisson model on a time grid.

    taus is inf on a censored path. crossed_at, the indicator 1{tau <= t}
    of shape (n, len(grid)), is derived from taus and grid on each access,
    so a censored row reads 0 throughout. stream_version names the draw
    order the paths came from.
    """

    spec: CompoundPoissonSpec
    horizon: float
    grid: np.ndarray
    modes: np.ndarray        # int8 codes, see paths.MODE_CODES
    taus: np.ndarray
    comp_at: np.ndarray      # compensator at grid times, shape (n, len(grid))
    stream_version: int = CP_STREAM_VERSION

    @property
    def n(self) -> int:
        return self.modes.shape[0]

    @property
    def crossed_at(self) -> np.ndarray:
        return (self.grid >= self.taus[:, None]).astype(float)


# compound Poisson batches write codes from the same table as run_paths
CP_MODE_CODES = MODE_CODES


def run_compound_poisson(spec: CompoundPoissonSpec, n_paths: int, seed: int,
                         horizon: float,
                         grid: Sequence[float] = ()) -> CpResult:
    """Simulate n_paths compound Poisson paths with exact jump bookkeeping.

    A path crosses at its first post-jump level at or above the barrier.
    The crossing is labelled by classify_mode's rule at EPS_MODE from the
    gaps just before and after that jump, as first_passage does for the
    replayed path, so a lattice walk landing within EPS_MODE of the level
    is a jump_hit. The compensator uses the closed-tail intensity
    lam * P(U >= a - X_s) integrated along the flat pieces up to min(t, tau).
    The paths are walked _CP_LANES at a time, and each lane's numbers
    depend on its own stream only.
    """
    if not (isinstance(n_paths, numbers.Integral) and n_paths >= 1):
        raise StructuralError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    n = int(n_paths)
    horizon = _cp_horizon(horizon)
    seed = int(seed)
    _stream_key(seed, _NS_CP, n - 1)
    grid = np.asarray(sorted(float(t) for t in grid))
    if not np.all(np.isfinite(grid)):
        raise StructuralError("grid times must be finite")
    modes = np.empty(n, dtype=np.int8)
    taus = np.empty(n)
    comp = np.empty((n, grid.shape[0]))
    for lo in range(0, n, _CP_LANES):
        hi = min(n, lo + _CP_LANES)
        keys = (_NS_CP << 48) | np.arange(lo, hi, dtype=np.uint64)
        modes[lo:hi], taus[lo:hi], comp[lo:hi] = _cp_walk(
            spec, horizon, grid,
            lambda k, lanes, keys=keys: _philox_blocks(k, seed, keys[lanes]),
            hi - lo)
    return CpResult(spec, horizon, grid, modes, taus, comp)
