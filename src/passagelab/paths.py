"""Piecewise-affine cadlag paths and exact first-passage classification.

A path is a finite list of affine segments plus an explicit list of jumps at
segment boundaries. Against a (constant or piecewise-linear) barrier, the
gap process Y_t = X_t - b(t) is again piecewise affine, so the passage time

    tau = inf{t >= 0 : Y_t >= 0}

and the pair (Y_{tau-}, Y_tau) are computed by segment algebra, not by
sampling. The crossing splits four ways:

  creep        Y_{tau-} = 0 = Y_tau   continuous arrival on the barrier
  touch_jump   Y_{tau-} = 0 < Y_tau   left limit touches, value jumps over
  jump_hit     Y_{tau-} < 0 = Y_tau   jump lands exactly on the barrier
  jump_over    Y_{tau-} < 0 < Y_tau   jump crosses with strict overshoot

The first two are reached by left contact, the last two across a spatial
gap. The running supremum of Y, the level-crossing times sigma_n built from
it, and the premature-contact check decide whether the contact part of tau
can be announced by a forecastable sequence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .errors import InconsistencyError, StructuralError

EPS_MODE = 1e-12
INF = math.inf


class Mode(Enum):
    CREEP = "creep"
    TOUCH_JUMP = "touch_jump"
    JUMP_HIT = "jump_hit"
    JUMP_OVER = "jump_over"
    NO_CROSSING = "no_crossing"
    CENSORED = "censored"


# int8 codes of the modes in the simulation engines' batch arrays, and the
# inverse lookup the engines and estimators write and compare with. A compound
# Poisson path reaches code 4, touch_jump, only through the EPS_MODE tolerance.
MODE_CODES = {0: Mode.CREEP, 1: Mode.JUMP_OVER, 2: Mode.CENSORED,
              3: Mode.JUMP_HIT, 4: Mode.TOUCH_JUMP}
CODE_OF = {mode: code for code, mode in MODE_CODES.items()}

# crossings reached by touching the barrier from the left, vs across a gap
CONTACT_MODES = frozenset({Mode.CREEP, Mode.TOUCH_JUMP})
GAP_MODES = frozenset({Mode.JUMP_HIT, Mode.JUMP_OVER})


@dataclass(frozen=True)
class Segment:
    """Affine piece x(t) = intercept + slope * t on [t_start, t_end)."""

    t_start: float
    t_end: float
    intercept: float
    slope: float

    def value(self, t: float) -> float:
        return self.intercept + self.slope * t


@dataclass(frozen=True)
class Jump:
    time: float
    left_limit: float
    right_value: float


def _close(u: float, v: float) -> bool:
    return abs(u - v) <= 1e-12 * max(1.0, abs(u), abs(v))


@dataclass(frozen=True)
class PiecewisePath:
    """Validated cadlag path: contiguous affine segments + explicit jumps.

    The last segment is closed at the horizon; all others are half-open on
    the right. Every discontinuity between consecutive segments must be
    declared in `jumps` (and vice versa), which keeps files self-describing
    and lets validation catch hand-editing mistakes.
    """

    segments: tuple[Segment, ...]
    jumps: tuple[Jump, ...]
    horizon: float

    def __post_init__(self):
        segs = self.segments
        if not segs:
            raise StructuralError("path needs at least one segment")
        if segs[0].t_start != 0.0:
            raise StructuralError("first segment must start at t = 0")
        if not math.isfinite(self.horizon) or self.horizon <= 0.0:
            raise StructuralError(f"bad horizon {self.horizon!r}")
        for s in segs:
            if not (s.t_start < s.t_end):
                raise StructuralError(f"empty or reversed segment {s}")
        for s0, s1 in zip(segs, segs[1:]):
            if s0.t_end != s1.t_start:
                raise StructuralError(
                    f"segments not contiguous at t = {s0.t_end!r}")
        if segs[-1].t_end != self.horizon:
            raise StructuralError("last segment must end at the horizon")

        jump_at = {}
        last_t = -INF
        for j in self.jumps:
            if j.time <= last_t:
                raise StructuralError("jump times must be strictly increasing")
            last_t = j.time
            if _close(j.left_limit, j.right_value):
                raise StructuralError(
                    f"jump at t = {j.time!r} has equal sides; drop it")
            jump_at[j.time] = j
        boundaries = {s.t_start for s in segs[1:]}
        for j in self.jumps:
            if j.time not in boundaries:
                raise StructuralError(
                    f"jump at t = {j.time!r} is not at a segment boundary")
        for s0, s1 in zip(segs, segs[1:]):
            t = s0.t_end
            left, right = s0.value(t), s1.value(t)
            j = jump_at.get(t)
            if j is None:
                if not _close(left, right):
                    raise StructuralError(
                        f"undeclared discontinuity at t = {t!r}: "
                        f"{left!r} -> {right!r}")
            else:
                if not (_close(j.left_limit, left) and _close(j.right_value, right)):
                    raise StructuralError(
                        f"jump at t = {t!r} contradicts segment endpoints")

    def _segment_index(self, t: float) -> int:
        if not (0.0 <= t <= self.horizon):
            raise StructuralError(f"t = {t!r} outside [0, {self.horizon!r}]")
        starts = [s.t_start for s in self.segments]
        i = bisect_right(starts, t) - 1
        return max(i, 0)

    def value(self, t: float) -> float:
        """Right-continuous value X_t."""
        return self.segments[self._segment_index(t)].value(t)

    def left_limit(self, t: float) -> float:
        """X_{t-}; at t = 0 this is defined as X_0."""
        if t == 0.0:
            return self.value(0.0)
        i = self._segment_index(t)
        s = self.segments[i]
        if t == s.t_start:
            return self.segments[i - 1].value(t)
        return s.value(t)


class Barrier:
    """Constant or piecewise-linear (tabulated, interpolated) barrier."""

    def __init__(self, times: tuple[float, ...], values: tuple[float, ...]):
        if len(times) != len(values) or not times:
            raise StructuralError("barrier needs matching knot arrays")
        if not all(t1 > t0 for t0, t1 in zip(times, times[1:])):
            raise StructuralError("barrier knots must strictly increase")
        self.times = tuple(float(t) for t in times)
        self.values = tuple(float(v) for v in values)

    @classmethod
    def constant(cls, level: float) -> "Barrier":
        return cls((0.0,), (float(level),))

    @property
    def is_constant(self) -> bool:
        return len(self.times) == 1

    def _check_covers(self, horizon: float) -> None:
        if self.is_constant:
            return
        if self.times[0] > 0.0 or self.times[-1] < horizon:
            raise StructuralError(
                f"barrier knots cover [{self.times[0]!r}, {self.times[-1]!r}], "
                f"need [0, {horizon!r}]")

    def pieces(self, horizon: float) -> list[tuple[float, float, float, float]]:
        """Affine pieces (t0, t1, intercept, slope) covering [0, horizon]."""
        self._check_covers(horizon)
        if self.is_constant:
            return [(0.0, horizon, self.values[0], 0.0)]
        out = []
        for t0, t1, v0, v1 in zip(self.times, self.times[1:],
                                  self.values, self.values[1:]):
            lo, hi = max(t0, 0.0), min(t1, horizon)
            if lo < hi:
                slope = (v1 - v0) / (t1 - t0)
                out.append((lo, hi, v0 - slope * t0, slope))
        return out

    def value(self, t: float) -> float:
        if self.is_constant:
            return self.values[0]
        if not (self.times[0] <= t <= self.times[-1]):
            raise StructuralError(f"barrier undefined at t = {t!r}")
        i = min(bisect_right(self.times, t) - 1, len(self.times) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        slope = (v1 - v0) / (t1 - t0)
        return (v0 - slope * t0) + slope * t


@dataclass(frozen=True)
class CrossingRecord:
    """Passage time with the one-sided values that decide the mode."""

    tau: float
    y_minus: float
    y_at: float
    mode: Mode


@dataclass(frozen=True)
class AnnouncingReport:
    """Level-crossing times of the running supremum and their limit.

    sigma[n-1] is the first time the running supremum reaches -1/n, rho the
    same capped at n. `converged` records whether the forecast locks on to
    the passage time itself rather than an earlier false contact; it holds
    exactly when the path has no premature left contact.
    """

    sigma: tuple[float, ...]
    rho: tuple[float, ...]
    tau_contact: float
    sigma_limit: float
    converged: bool


def _gap_pieces(path: PiecewisePath, barrier: Barrier):
    """Affine pieces of Y = X - b on a merged partition of [0, horizon].

    One pass over the path's segments and the barrier's pieces, which both
    tile [0, horizon], cuts at every breakpoint of either.
    """
    segs, bar = path.segments, barrier.pieces(path.horizon)
    pieces = []
    i = j = 0
    t0 = 0.0
    while i < len(segs):
        seg, (_, b1, bc, bm) = segs[i], bar[j]
        t1 = min(seg.t_end, b1)
        pieces.append((t0, t1, seg.intercept - bc, seg.slope - bm))
        if seg.t_end == t1:
            i += 1
        if b1 == t1:
            j += 1
        t0 = t1
    return pieces


def classify_mode(record: CrossingRecord, eps: float = EPS_MODE) -> Mode:
    """Mode from (tau, y_minus, y_at); tolerance applies to the = 0 tests only.

    A record that contradicts the passage definition (already above the
    barrier before tau, or still below it at tau) raises InconsistencyError.
    """
    if not math.isfinite(record.tau):
        return Mode.NO_CROSSING
    y_minus, y_at = record.y_minus, record.y_at
    if y_at < -eps:
        raise InconsistencyError(
            f"y_at = {y_at!r} below the barrier at tau = {record.tau!r}")
    if y_minus > eps:
        # only legal at tau = 0, where the left limit is defined as Y_0
        if record.tau == 0.0 and y_minus == y_at:
            return Mode.JUMP_OVER
        raise InconsistencyError(
            f"y_minus = {y_minus!r} already above the barrier before tau")
    if abs(y_minus) <= eps:
        return Mode.CREEP if abs(y_at) <= eps else Mode.TOUCH_JUMP
    return Mode.JUMP_HIT if abs(y_at) <= eps else Mode.JUMP_OVER


def _scan(pieces, level: float = 0.0, start: int = 0):
    """First passage of Y = (c - level) + m t through 0 over pieces[start:].

    The one owner of the crossing test on affine pieces (t0, t1, c, m).
    Returns (k, tau, y_minus, y_at, crept): the index of the crossing piece
    (len(pieces) and tau = +inf if none), and crept = True for a continuous
    arrival inside piece k, else tau = t0 with Y_{tau-} and Y_tau read off
    the pieces. y_minus is None if piece start - 1 would have supplied it.
    """
    prev_end_value = None
    last = len(pieces) - 1
    for k in range(start, last + 1):
        t0, t1, c, m = pieces[k]
        c = c - level
        val0 = c + m * t0
        if val0 >= 0.0:
            # left limit at time zero is the value itself
            return k, t0, val0 if t0 == 0.0 else prev_end_value, val0, False
        val1 = c + m * t1
        if m > 0.0 and (val1 > 0.0 or (k == last and val1 == 0.0)):
            return k, min(max(-c / m, t0), t1), 0.0, 0.0, True
        prev_end_value = val1
    return last + 1, INF, math.nan, math.nan, False


def first_passage(path: PiecewisePath, barrier: Barrier,
                  eps: float = EPS_MODE) -> CrossingRecord:
    """Exact passage record of the path through the barrier.

    Detection is exact segment algebra (no tolerance); eps only enters the
    mode classification. Returns a NO_CROSSING record with tau = +inf when
    the path stays strictly below the barrier through the horizon.
    """
    _, tau, y_minus, y_at, crept = _scan(_gap_pieces(path, barrier))
    if crept:
        return CrossingRecord(tau, 0.0, 0.0, Mode.CREEP)
    if math.isinf(tau):
        return CrossingRecord(INF, math.nan, math.nan, Mode.NO_CROSSING)
    rec = CrossingRecord(tau, y_minus, y_at, Mode.NO_CROSSING)
    return CrossingRecord(tau, y_minus, y_at, classify_mode(rec, eps))


def restricted_times(record: CrossingRecord) -> tuple[float, float]:
    """(tau_contact, tau_gap): tau on its own family, +inf on the other."""
    tau_contact = record.tau if record.mode in CONTACT_MODES else INF
    tau_gap = record.tau if record.mode in GAP_MODES else INF
    return tau_contact, tau_gap


def running_supremum(path: PiecewisePath, barrier: Barrier) -> PiecewisePath:
    """Path of S_t = sup_{s <= t} Y_s (nondecreasing, cadlag, in gap units).

    Supremum means supremum of the value set: a level that Y only approaches
    from below still counts once the approach is complete, which is exactly
    what makes premature contacts visible to the announcing sequence.
    """
    pieces = _gap_pieces(path, barrier)
    jump_times = {j.time for j in path.jumps}
    segs: list[Segment] = []
    jumps: list[Jump] = []

    def emit(t0, t1, intercept, slope):
        if segs:
            last = segs[-1]
            if last.intercept == intercept and last.slope == slope \
                    and last.t_end == t0:
                segs[-1] = Segment(last.t_start, t1, intercept, slope)
                return
        segs.append(Segment(t0, t1, intercept, slope))

    m_cur = None
    for t0, t1, c, m in pieces:
        val0 = c + m * t0
        if m_cur is None:
            new_m = val0
        else:
            new_m = max(m_cur, val0)
            # Y continuous at t0 can only re-attain its max, never exceed it;
            # any excess there is roundoff from re-evaluating c + m t0 on the
            # next piece. A genuine S-jump needs a Y-jump past the old max by
            # more than the path tolerance.
            if new_m > m_cur:
                if t0 in jump_times and not _close(m_cur, new_m):
                    jumps.append(Jump(t0, m_cur, new_m))
        val1 = c + m * t1
        # a rise starting at tc >= t1 after rounding would be an empty segment
        if m <= 0.0 or val1 <= new_m or (tc := (new_m - c) / m) >= t1:
            emit(t0, t1, new_m, 0.0)
            m_cur = new_m
            continue
        if tc > t0:
            emit(t0, tc, new_m, 0.0)
            emit(tc, t1, c, m)
        else:
            emit(t0, t1, c, m)
        m_cur = val1
    return PiecewisePath(tuple(segs), tuple(jumps), path.horizon)


def announcing_sequence(path: PiecewisePath, barrier: Barrier,
                        n_max: int = 16) -> AnnouncingReport:
    """Forecast times sigma_n = inf{t : S_t >= -1/n} and their verdict.

    The limit of the sigma_n is the first time the running supremum reaches
    level 0. The forecast "announces" the contact part of the passage time
    exactly when that limit coincides with tau itself (+inf included): a
    premature left contact drags the whole sequence to the earlier contact
    time instead, and the report flags it via converged = False.

    All the forecast times come from one sweep over the segments of S, the
    levels taken in increasing order -1, -1/2, ..., -1/n_max, 0, each scan
    starting at the segment where the previous level crossed. The times are
    bitwise those of first_passage(S, Barrier.constant(level)): the rounding
    of intercept - level and of c + m t is monotone in the level, so a
    segment that fails the crossing test at one level fails it at every
    higher level too, and no segment before the last crossing can hold the
    next one.
    """
    if n_max < 1:
        raise StructuralError("n_max must be >= 1")
    rec = first_passage(path, barrier)
    tau_contact, _ = restricted_times(rec)
    sup_path = running_supremum(path, barrier)
    pieces = [(s.t_start, s.t_end, s.intercept, s.slope)
              for s in sup_path.segments]
    k, times = 0, []
    for level in [-1.0 / n for n in range(1, n_max + 1)] + [0.0]:
        k, t = _scan(pieces, level, k)[:2]
        times.append(t)
    *sigma, sigma_limit = times
    rho = tuple(min(s, float(n)) for n, s in enumerate(sigma, start=1))
    tau = rec.tau
    if math.isinf(sigma_limit) and math.isinf(tau):
        converged = True
    else:
        converged = abs(sigma_limit - tau) <= 1e-9 * max(1.0, abs(tau)) \
            if math.isfinite(sigma_limit) and math.isfinite(tau) else False
    return AnnouncingReport(tuple(sigma), rho, tau_contact, sigma_limit,
                            converged)


def check_no_premature_contact(path: PiecewisePath, barrier: Barrier,
                               eps: float = EPS_MODE) -> tuple[bool, float | None]:
    """Does Y stay strictly below 0 in the left-limit sense before tau?

    Returns (True, None) if no time u < tau has Y_{u-} = 0, else (False, u)
    with the first such witness. On affine paths the only way to touch the
    barrier before tau without crossing is a down-jump at the moment of
    contact, so scanning the jump times is exhaustive.
    """
    rec = first_passage(path, barrier)
    for j in path.jumps:
        if j.time >= rec.tau:
            break
        y_left = j.left_limit - barrier.value(j.time)
        if abs(y_left) <= eps:
            return False, j.time
    return True, None


# ---------------------------------------------------------------------------
# path files

def save_path(path: PiecewisePath, fname) -> None:
    """Write the line-oriented text form (horizon, segments, jumps)."""
    lines = [f"horizon {path.horizon!r}"]
    for s in path.segments:
        lines.append(f"segment {s.t_start!r} {s.t_end!r} {s.intercept!r} {s.slope!r}")
    for j in path.jumps:
        lines.append(f"jump {j.time!r} {j.left_limit!r} {j.right_value!r}")
    with open(fname, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_path_text(text: str, origin: str) -> PiecewisePath:
    horizon = None
    segments: list[Segment] = []
    jumps: list[Jump] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            vals = [float(p) for p in args]
        except ValueError as exc:
            raise StructuralError(f"{origin}:{ln}: bad number in {raw!r}") from exc
        if key == "horizon":
            if horizon is not None or len(vals) != 1:
                raise StructuralError(f"{origin}:{ln}: bad horizon line")
            horizon = vals[0]
        elif key == "segment":
            if len(vals) != 4:
                raise StructuralError(f"{origin}:{ln}: segment needs 4 numbers")
            segments.append(Segment(*vals))
        elif key == "jump":
            if len(vals) != 3:
                raise StructuralError(f"{origin}:{ln}: jump needs 3 numbers")
            jumps.append(Jump(*vals))
        else:
            raise StructuralError(f"{origin}:{ln}: unknown keyword {key!r}")
    if horizon is None:
        raise StructuralError(f"{origin}: missing horizon line")
    segments.sort(key=lambda s: s.t_start)
    jumps.sort(key=lambda j: j.time)
    return PiecewisePath(tuple(segments), tuple(jumps), horizon)


def load_path(fname) -> PiecewisePath:
    with open(fname) as fh:
        return _parse_path_text(fh.read(), str(fname))


def load_corpus(name: str) -> PiecewisePath:
    """Load one of the bundled demonstration paths by bare name."""
    ref = resources.files("passagelab").joinpath(f"corpus/{name}.path")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise StructuralError(f"no corpus path named {name!r}") from None
    return _parse_path_text(text, f"corpus/{name}.path")
