"""Exact-step simulation of barrier crossings for an affine jump diffusion.

The model between jumps is the linear SDE dX = (alpha + beta X) dt
+ sigma dW; jumps arrive at Poisson rate lam and are upward, exponential
with rate eta. The barrier is the constant level a, started from x < a.

Between jump epochs the transition law is Gaussian with exactly known mean
and variance, so the step size controls only barrier monitoring, not the
marginal law. Each epoch is walked on a fixed step h = config.step from its
start, with one partial step (of length in (0, h]) onto the epoch itself,
so the jump epochs are placed exactly. Because h is fixed, the growth
weights, mean shifts and discount factors exp(-q h j) of a chunk of steps
are tables built once per call. A Brownian-bridge correction supplies the
probability that the path crossed inside a step whose endpoints are both
below the barrier.

Because jumps are upward and exponential, a crossing is either a creep of
the diffusion part onto the barrier or a strict jump over it; a jump can
land exactly on the barrier only with probability zero, and the engine
never produces that mode.

Paths are advanced in lockstep groups of at most _GROUP_WIDTH paths, one
chunk of at most _CHUNK_STEPS steps of each path's current epoch at a time
(fewer when |beta| h is large, see _StepTables). Path i draws from one
counter-based Philox stream keyed by (seed, i), in this order:

  * at the start of each epoch, two standard exponentials: the gap to the
    next jump (divided by lam) and that jump's size (divided by eta);
  * for each chunk of the epoch, one standard normal per step in step
    order, the partial step onto the epoch included;
  * right after them, one uniform per step of the chunk whose bridge
    probability is nonzero, in step order, up to the chunk's first step
    that ends at or above the barrier. Steps where the probability
    underflows to zero draw none.

STREAM_VERSION names this layout and is recorded in every SimResult.
Every number is a function of (params, config, q, path index) only, so
results are bitwise identical for any worker count, block size or group
width, and simulate_crossing replays any member of a batch bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructuralError
from .paths import (
    CODE_OF,
    MODE_CODES,
    Barrier,
    CrossingRecord,
    Jump,
    Mode,
    PiecewisePath,
    Segment,
    classify_mode,
    first_passage,
)

_MASK64 = (1 << 64) - 1
# stream namespaces: diffusion paths, compound Poisson paths
_NS_AFFINE = 0
_NS_CP = 1
STREAM_VERSION = 2     # the draw order of a diffusion path's stream
_BLOCK = 4096          # paths per task handed to a worker
_GROUP_WIDTH = 64      # paths advanced in lockstep within a block
_CHUNK_STEPS = 512     # steps per lockstep chunk
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
    if index >= (1 << 48):
        raise StructuralError("path index exceeds the 48-bit stream space")
    return np.array([seed & _MASK64, (namespace << 48) | index], dtype=np.uint64)


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


def _bridge_prob(y0, y1, sigma: float, dt):
    """P(Brownian bridge from gap y0 to gap y1 over dt reaches 0), both < 0."""
    return np.exp(-2.0 * y0 * y1 / (sigma * sigma * dt))


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
        self.width = _CHUNK_STEPS if bh == 0.0 else \
            max(1, min(_CHUNK_STEPS, int(_LOG_CHUNK / bh)))
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


@dataclass(eq=False)
class SimResult:
    """Per-path crossing summaries for a batch, in path-index order."""

    params: ModelParams
    config: SimConfig
    q_list: tuple[float, ...]
    modes: np.ndarray          # int8 codes, see paths.MODE_CODES
    taus: np.ndarray
    overshoots: np.ndarray     # nan unless jump_over
    pre_jump_levels: np.ndarray  # barrier level for creep, nan if censored
    comp: np.ndarray           # shape (n_paths, len(q_list))
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
    live slot by one chunk of at most tables.width steps of its current
    epoch (the last of which may be the partial step onto the epoch), ends
    the epochs and paths that are done, and refills the empty slots. Every
    operation on the group's arrays acts on each row alone, so a path's
    numbers do not depend on which slot it ran in or what ran beside it.
    """

    def __init__(self, params: ModelParams, config: SimConfig,
                 q_arr: np.ndarray, start: int, count: int):
        self.p = params
        self.cfg = config
        self.q = q_arr
        self.start = start
        self.count = count
        self.tab = _StepTables(params, config.step, q_arr)
        slots = min(_GROUP_WIDTH, count)
        self.streams = [_Stream() for _ in range(slots)]
        self.row = np.full(slots, -1)     # output row of each slot's path
        self.next = 0                     # next output row to start
        self.x = np.zeros(slots)          # value at the chunk start
        self.t0 = np.zeros(slots)         # epoch start
        self.t_end = np.zeros(slots)      # epoch end
        self.jump = np.zeros(slots, dtype=bool)   # epoch ends in a jump
        self.size = np.zeros(slots)       # that jump's size
        self.done = np.zeros(slots, dtype=np.int64)   # full steps done
        self.n_full = np.zeros(slots, dtype=np.int64)  # full steps in epoch
        self.dt_last = np.zeros(slots)    # the partial step onto the epoch
        self.comp = np.zeros((slots, q_arr.shape[0]))
        self.modes = np.empty(count, dtype=np.int8)
        self.taus = np.empty(count)
        self.overshoots = np.full(count, np.nan)
        self.pre = np.empty(count)
        self.out_comp = np.empty((count, q_arr.shape[0]))
        self.z = np.zeros((slots, self.tab.width))
        self.z_rows = list(self.z)

    def run(self):
        self._fill()
        while True:
            live = np.flatnonzero(self.row >= 0)
            if live.size == 0:
                break
            self._chunk(live)
            self._fill()
        return (self.start, self.modes, self.taus, self.overshoots, self.pre,
                self.out_comp)

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
        r = self.row[slots]
        self.modes[r] = CODE_OF[mode]
        self.taus[r] = tau
        self.overshoots[r] = overshoot
        self.pre[r] = pre
        self.out_comp[r] = self.comp[slots]
        self.row[slots] = -1

    def _epochs(self, slots, t0):
        """Draw the next epoch of each slot, which is at x at time t0."""
        p, h, horizon = self.p, self.cfg.step, self.cfg.horizon
        draws = np.empty((slots.size, 2))
        for row, s in zip(draws, slots.tolist()):
            self.streams[s].rng.standard_exponential(out=row)
        t_end = t0 + draws[:, 0] / p.lam
        jump = t_end < horizon
        t_end[~jump] = horizon
        size = draws[:, 1] / p.eta
        seg = t_end - t0
        n = np.maximum(1, np.ceil(seg / h)).astype(np.int64)
        n -= (seg - (n - 1) * h <= 0.0) & (n > 1)
        self.t0[slots] = t0
        self.t_end[slots] = t_end
        self.jump[slots] = jump
        self.size[slots] = size
        self.done[slots] = 0
        self.n_full[slots] = n - 1
        self.dt_last[slots] = seg - (n - 1) * h
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
        p, h, a = self.p, self.cfg.step, self.p.a
        tab = self.tab
        width = tab.width
        rows = live.shape[0]
        # steps this chunk; `ends` rows finish the epoch with the partial step
        left = self.n_full[live] + 1 - self.done[live]
        k = np.minimum(width, left)
        ends = k == left
        z = self.z[:rows]
        for z_row, s, n in zip(self.z_rows, live.tolist(), k.tolist()):
            self.streams[s].rng.standard_normal(out=z_row[:n])
        x0 = self.x[live]
        t_chunk = self.t0[live] + self.done[live] * h
        # xs[:, j] is the value at node j of the chunk; node 0 is its start
        xs = np.empty((rows, width + 1))
        xs[:, 0] = x0
        tab.walk(x0, z, out=xs[:, 1:])
        er = np.flatnonzero(ends)
        ek = k[er]
        xs[er, ek] = ou_exact_step(xs[er, ek - 1], self.dt_last[live[er]],
                                   z[er, ek - 1], p)
        for i in er[ek < width]:
            xs[i, k[i] + 1:] = -np.inf     # past the epoch: never near a

        # first step (0-based) whose end is at or above the barrier, else k
        above = xs[:, 1:] >= a
        first = above.argmax(axis=1)
        hit = np.where(above[np.arange(rows), first], first, k)
        cross = hit.copy()
        bridged = np.zeros(rows, dtype=bool)
        if self.cfg.bridge_correction:
            self._bridge(live, xs, k, ends, hit, cross, bridged)
        crossed = cross < k
        # crossing step of each crossed row; its length is h unless partial
        cr = np.flatnonzero(crossed)
        cc = cross[cr]
        dt_c = np.where(ends[cr] & (cc == k[cr] - 1), self.dt_last[live[cr]], h)
        x_lo, x_hi = xs[cr, cc], xs[cr, cc + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(x_hi > x_lo, (a - x_lo) / (x_hi - x_lo), 1.0)
        theta = np.where(bridged[cr], 0.5, np.clip(theta, 0.0, 1.0))
        tau = t_chunk[cr] + cc * h + theta * dt_c
        if self.q.shape[0]:
            self._compensate(live, xs, k, ends, cross, t_chunk,
                             (cr, cc, theta * dt_c, tau))
        self._finish(live[cr], Mode.CREEP, tau, pre=a)
        # the others move to the chunk end and take the jump at epoch ends
        go = ~crossed
        self.x[live[go]] = xs[go, k[go]]
        self.done[live[go]] += k[go] - ends[go]
        self._jumps(live[go & ends])

    def _bridge(self, live, xs, k, ends, hit, cross, bridged):
        """Crossings inside steps with both ends below the barrier.

        Draws one uniform per step before the first hard hit whose bridge
        probability is nonzero, and lowers `cross` to the first step where
        the uniform falls below it.
        """
        sigma, h, a = self.p.sigma, self.cfg.step, self.p.a
        # exp(-2 y0 y1 / (sigma^2 dt)) underflows to zero once y0 y1 exceeds
        # 373 sigma^2 dt, and dt <= h, so a step with a nonzero probability
        # has an end within 20 sigma sqrt(h) of the barrier
        near = xs > a - 20.0 * sigma * math.sqrt(h)
        rr, cc = np.nonzero(near[:, :-1] | near[:, 1:])
        before = cc < hit[rr]
        rr, cc = rr[before], cc[before]
        if rr.size == 0:
            return
        dt = np.where(ends[rr] & (cc == k[rr] - 1), self.dt_last[live[rr]], h)
        prob = _bridge_prob(xs[rr, cc] - a, xs[rr, cc + 1] - a, sigma, dt)
        keep = prob > 0.0
        rr, cc, prob = rr[keep], cc[keep], prob[keep]
        counts = np.bincount(rr, minlength=live.shape[0])
        u = np.empty(rr.shape[0])
        pos = 0
        drawn = counts > 0
        for s, m in zip(live[drawn].tolist(), counts[drawn].tolist()):
            self.streams[s].rng.random(out=u[pos:pos + m])
            pos += m
        below = u < prob
        first_rows, first = np.unique(rr[below], return_index=True)
        cross[first_rows] = cc[below][first]
        bridged[first_rows] = True

    def _compensate(self, live, xs, k, ends, cross, t_chunk, crossing):
        """Add each row's trapezoid of exp(-q s) lam exp(-eta (a - X_s)).

        The trapezoid runs over the chunk's nodes up to the crossing step or
        the partial step; the crossing step adds its piece onto (tau, lam),
        the partial step its piece onto the epoch. Each row is summed on its
        own over the full chunk width, so a path's sum does not depend on
        the rows beside it.
        """
        p, h, q = self.p, self.cfg.step, self.q
        disc = self.tab.disc
        ar = np.arange(xs.shape[0])
        phi = np.minimum(xs, p.a)
        phi *= p.eta
        phi += math.log(p.lam) - p.eta * p.a
        np.exp(phi, out=phi)
        cr, cc, piece, tau = crossing
        er = np.flatnonzero(ends & (cross >= k))
        ek = k[er]
        tail = phi[er, ek]                  # the value at the epoch
        last = np.minimum(cross, k - ends)  # last full-step node
        for i in np.flatnonzero(last < xs.shape[1] - 1):
            phi[i, last[i] + 1:] = 0.0
        acc = np.einsum("lj,qj->lq", phi, disc)
        acc -= 0.5 * (phi[:, 0, None] * disc[:, 0]
                      + phi[ar, last, None] * disc[:, last].T)
        acc *= h
        acc[cr] += 0.5 * piece[:, None] * (
            phi[cr, cc, None] * disc[:, cc].T
            + p.lam * np.exp(-np.outer(tau - t_chunk[cr], q)))
        acc[er] += 0.5 * self.dt_last[live[er], None] * (
            phi[er, ek - 1, None] * disc[:, ek - 1].T
            + tail[:, None] * np.exp(-np.outer(self.t_end[live[er]] - t_chunk[er], q)))
        self.comp[live] += np.exp(-np.outer(t_chunk, q)) * acc


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
    runs serially; a count below 1 raises StructuralError.
    """
    nw = 1 if workers is None else int(workers)
    if nw < 1:
        raise StructuralError(f"workers must be at least 1, got {workers!r}")
    n = config.n_paths
    q_tuple = tuple(float(q) for q in q_list)
    tasks = [(s, min(_BLOCK, n - s)) for s in range(0, n, _BLOCK)]
    results = []
    if nw == 1 or len(tasks) == 1:
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
    return SimResult(params, config, q_tuple, modes, taus, overshoots, pre, comp)


def simulate_crossing(params: ModelParams, config: SimConfig, q: float = 0.0,
                      path_index: int = 0) -> SimResult:
    """Simulate path path_index alone, as a one-row SimResult with q_list (q,).

    Runs the batch engine on a group of one path, so every field equals row
    path_index of a run_paths batch with the same settings.
    """
    q_tuple = (float(q),)
    _, *rows = _run_block(params, config, q_tuple, path_index, 1)
    return SimResult(params, config, q_tuple, *rows)


# ---------------------------------------------------------------------------
# compound Poisson model (piecewise-constant paths, general jump law)

class JumpLaw:
    """Interface of a positive jump law: one draw, and the closed upper tail.

    draw(rng) returns one jump size from rng; tail(y) is P(U >= y), the
    intensity factor of the compensator. LatticeJumps and ExponentialJumps
    implement it.
    """

    def draw(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def tail(self, y: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LatticeJumps(JumpLaw):
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise StructuralError("values and probs must match and be nonempty")
        if any(v <= 0.0 for v in self.values):
            raise StructuralError("jump values must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-12 or any(p < 0 for p in self.probs):
            raise StructuralError("probs must be a probability vector")

    def draw(self, rng):
        return float(self.values[rng.choice(len(self.values),
                                            p=np.asarray(self.probs))])

    def tail(self, y):
        return float(sum(p for v, p in zip(self.values, self.probs) if v >= y))


@dataclass(frozen=True)
class ExponentialJumps(JumpLaw):
    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise StructuralError("rate must be positive")

    def draw(self, rng):
        return rng.exponential(1.0 / self.rate)

    def tail(self, y):
        return 1.0 if y <= 0.0 else math.exp(-self.rate * y)


@dataclass(frozen=True)
class CompoundPoissonSpec:
    intensity: float
    jump_law: JumpLaw
    barrier_level: float
    start: float

    def __post_init__(self):
        if not self.intensity > 0.0:
            raise StructuralError("intensity must be positive")
        if not self.start < self.barrier_level:
            raise StructuralError("start must lie strictly below the barrier")


def _cp_events(spec: CompoundPoissonSpec, rng: np.random.Generator,
               horizon: float):
    """Jump times and post-jump levels until crossing or horizon.

    Returns (times, levels, crossed) where levels[k] is the value right
    after times[k]; the walk stops at the first level >= barrier. Each event
    draws the exponential gap to it, then, if it falls within the horizon,
    one jump size from jump_law.draw.
    """
    t = 0.0
    x = spec.start
    times: list[float] = []
    levels: list[float] = []
    crossed = False
    while True:
        t += rng.exponential(1.0 / spec.intensity)
        if t > horizon:
            break
        x = x + spec.jump_law.draw(rng)
        times.append(t)
        levels.append(x)
        if x >= spec.barrier_level:
            crossed = True
            break
    return times, levels, crossed


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


def simulate_compound_poisson(spec: CompoundPoissonSpec, seed: int,
                              horizon: float, path_index: int = 0
                              ) -> tuple[PiecewisePath, CrossingRecord]:
    """One compound Poisson path as a PiecewisePath, classified exactly.

    path_index selects the same stream as path path_index of a batch run
    with this seed, so single-path inspection can replay any batch member.
    """
    rng = _path_rng(int(seed), _NS_CP, path_index)
    times, levels, _ = _cp_events(spec, rng, horizon)
    path = cp_to_path(spec, times, levels, horizon)
    record = first_passage(path, Barrier.constant(spec.barrier_level))
    return path, record


@dataclass(eq=False)
class CpResult:
    """Batch summaries for the compound Poisson model on a time grid.

    taus is inf on a censored path. crossed_at, the indicator 1{tau <= t}
    of shape (n, len(grid)), is derived from taus and grid on each access,
    so a censored row reads 0 throughout.
    """

    spec: CompoundPoissonSpec
    horizon: float
    grid: np.ndarray
    modes: np.ndarray        # int8 codes, see paths.MODE_CODES
    taus: np.ndarray
    comp_at: np.ndarray      # compensator at grid times, shape (n, len(grid))

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
    classify_mode at EPS_MODE labels the crossing from the gaps just before
    and after that jump, as first_passage does for the replayed path, so a
    lattice walk landing within EPS_MODE of the level is a jump_hit. The
    compensator uses the closed-tail intensity lam * P(U >= a - X_s)
    integrated along the flat pieces up to min(t, tau).
    """
    grid = np.asarray(sorted(float(t) for t in grid))
    n_grid = grid.shape[0]
    modes = np.empty(n_paths, dtype=np.int8)
    taus = np.empty(n_paths)
    comp = np.zeros((n_paths, n_grid))
    lam = spec.intensity
    a = spec.barrier_level
    stream = _Stream()
    for i in range(n_paths):
        rng = stream.rekey(int(seed), _NS_CP, i)
        times, levels, did_cross = _cp_events(spec, rng, horizon)
        # the level on each flat piece [0, t_1), [t_1, t_2), ...
        flat_levels = [spec.start] + levels
        if did_cross:
            tau = times[-1]
            rec = CrossingRecord(tau, flat_levels[-2] - a, flat_levels[-1] - a,
                                 Mode.NO_CROSSING)
            modes[i] = CODE_OF[classify_mode(rec)]
        else:
            tau = math.inf
            modes[i] = CODE_OF[Mode.CENSORED]
        taus[i] = tau
        if n_grid:
            # pieces end at the next jump; a censored path's last one at the
            # horizon, while a crossed path stops at tau
            ends = times if did_cross else times + [horizon]
            acc = np.zeros(n_grid)
            for s0, s1, lvl in zip([0.0] + times, ends, flat_levels):
                rate = lam * spec.jump_law.tail(a - lvl)
                if rate == 0.0:
                    continue
                overlap = np.clip(np.minimum(grid, s1) - s0, 0.0, None)
                acc += rate * overlap
            comp[i] = acc
    return CpResult(spec, horizon, grid, modes, taus, comp)
