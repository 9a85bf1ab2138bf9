"""Deterministic path layer: validation, crossing detection, announcing."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passagelab import paths
from passagelab.acceptance import random_compliant_path, random_violating_path
from passagelab.errors import InconsistencyError, StructuralError
from passagelab.paths import (
    CONTACT_MODES,
    EPS_MODE,
    GAP_MODES,
    Barrier,
    CrossingRecord,
    Jump,
    Mode,
    PiecewisePath,
    Segment,
    announcing_sequence,
    check_no_premature_contact,
    classify_mode,
    first_passage,
    load_corpus,
    load_path,
    restricted_times,
    running_supremum,
    save_path,
)
from passagelab.simulate import (
    CompoundPoissonSpec,
    LatticeJumps,
    simulate_compound_poisson,
)

ZERO = Barrier.constant(0.0)

# a rise on [2, 2.2651730038312357) whose start in the running supremum
# against this level rounds to the end of the piece
ROUNDED_RISE = PiecewisePath(
    (Segment(0.0, 2.0, -1.0, 0.5),
     Segment(2.0, 2.2651730038312357, -4.530346007662471, 2.0),
     Segment(2.2651730038312357, 10.0, 0.0, 0.0)),
    (Jump(2.0, 0.0, -0.5303460076624712),), 10.0)
ROUNDED_RISE_BARRIER = Barrier.constant(0.413930191311247)


def ramp_path(y0: float, slope: float, horizon: float = 10.0) -> PiecewisePath:
    return PiecewisePath((Segment(0.0, horizon, y0, slope),), (), horizon)


class TestValidation:
    def test_segments_must_be_contiguous(self):
        segs = (Segment(0.0, 1.0, 0.0, 0.0), Segment(1.5, 2.0, 0.0, 0.0))
        with pytest.raises(StructuralError):
            PiecewisePath(segs, (), 2.0)

    def test_undeclared_discontinuity_rejected(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 2.0, -2.0, 0.0))
        with pytest.raises(StructuralError):
            PiecewisePath(segs, (), 2.0)

    def test_declared_jump_accepted(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 2.0, -2.0, 0.0))
        path = PiecewisePath(segs, (Jump(1.0, -1.0, -2.0),), 2.0)
        assert path.value(0.5) == -1.0
        assert path.left_limit(1.0) == -1.0
        assert path.value(1.0) == -2.0

    def test_jump_with_equal_sides_rejected(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 2.0, -1.0, 0.0))
        with pytest.raises(StructuralError):
            PiecewisePath(segs, (Jump(1.0, -1.0, -1.0),), 2.0)

    def test_jump_away_from_boundary_rejected(self):
        segs = (Segment(0.0, 2.0, -1.0, 0.0),)
        with pytest.raises(StructuralError):
            PiecewisePath(segs, (Jump(1.0, -1.0, 0.5),), 2.0)

    def test_jump_sides_must_match_segments(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 2.0, -2.0, 0.0))
        with pytest.raises(StructuralError):
            PiecewisePath(segs, (Jump(1.0, -1.0, -1.5),), 2.0)

    def test_horizon_must_match_cover(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0),)
        with pytest.raises(StructuralError):
            PiecewisePath(segs, (), 2.0)

    def test_left_limit_convention_at_origin(self):
        path = ramp_path(-1.0, 0.5)
        assert path.left_limit(0.0) == path.value(0.0) == -1.0


class TestBarrier:
    def test_constant(self):
        b = Barrier.constant(1.5)
        assert b.is_constant
        assert b.value(123.0) == 1.5

    def test_piecewise_interpolation(self):
        b = Barrier((0.0, 2.0, 4.0), (0.0, 1.0, 1.0))
        assert b.value(1.0) == pytest.approx(0.5)
        assert b.value(3.0) == pytest.approx(1.0)
        with pytest.raises(StructuralError):
            b.value(5.0)

    def test_coverage_check(self):
        b = Barrier((0.0, 2.0), (0.0, 1.0))
        with pytest.raises(StructuralError):
            b.pieces(horizon=3.0)

    def test_knots_must_increase(self):
        with pytest.raises(StructuralError):
            Barrier((0.0, 0.0), (1.0, 2.0))

    def test_nan_knot_rejected(self):
        # a nan knot compares false both ways, and its pieces would leave a
        # gap in the tiling of [0, horizon]
        with pytest.raises(StructuralError):
            Barrier((0.0, math.nan, 10.0), (1.0, 2.0, 3.0))


class TestFirstPassage:
    def test_interior_root_is_exact(self):
        path = ramp_path(-1.0, 0.5)
        rec = first_passage(path, ZERO)
        assert rec.tau == pytest.approx(2.0, abs=0.0)
        assert rec.mode is Mode.CREEP
        assert rec.y_minus == 0.0 and rec.y_at == 0.0

    def test_moving_barrier(self):
        path = ramp_path(0.0, 0.0, horizon=4.0)
        barrier = Barrier((0.0, 4.0), (2.0, -2.0))
        rec = first_passage(path, barrier)
        assert rec.tau == pytest.approx(2.0)
        assert rec.mode is Mode.CREEP

    def test_start_at_barrier(self):
        rec = first_passage(ramp_path(0.0, -1.0), ZERO)
        assert rec.tau == 0.0
        assert rec.mode is Mode.CREEP

    def test_start_above_barrier(self):
        rec = first_passage(ramp_path(0.5, -1.0), ZERO)
        assert rec.tau == 0.0
        assert rec.mode is Mode.JUMP_OVER

    def test_no_crossing(self):
        rec = first_passage(ramp_path(-1.0, -0.5), ZERO)
        assert math.isinf(rec.tau)
        assert rec.mode is Mode.NO_CROSSING

    def test_jump_onto_barrier(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 3.0, 0.0, 0.0))
        path = PiecewisePath(segs, (Jump(1.0, -1.0, 0.0),), 3.0)
        rec = first_passage(path, ZERO)
        assert rec.tau == 1.0
        assert rec.mode is Mode.JUMP_HIT

    def test_jump_over_barrier(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 3.0, 0.7, 0.0))
        path = PiecewisePath(segs, (Jump(1.0, -1.0, 0.7),), 3.0)
        rec = first_passage(path, ZERO)
        assert rec.tau == 1.0
        assert rec.mode is Mode.JUMP_OVER
        assert rec.y_minus == -1.0 and rec.y_at == 0.7

    def test_touch_at_horizon_counts(self):
        # the path reaches the barrier exactly at the closed right endpoint
        path = ramp_path(-1.0, 0.1, horizon=10.0)
        rec = first_passage(path, ZERO)
        assert rec.tau == pytest.approx(10.0)
        assert rec.mode is Mode.CREEP

    def test_restricted_times_split(self):
        creep = first_passage(ramp_path(-1.0, 0.5), ZERO)
        t_contact, t_gap = restricted_times(creep)
        assert t_contact == creep.tau and math.isinf(t_gap)
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 3.0, 0.7, 0.0))
        over = first_passage(
            PiecewisePath(segs, (Jump(1.0, -1.0, 0.7),), 3.0), ZERO)
        t_contact, t_gap = restricted_times(over)
        assert math.isinf(t_contact) and t_gap == over.tau


class TestClassifyMode:
    def test_four_finite_modes(self):
        assert classify_mode(CrossingRecord(1.0, 0.0, 0.0, None)) is Mode.CREEP
        assert classify_mode(CrossingRecord(1.0, 0.0, 0.4, None)) is Mode.TOUCH_JUMP
        assert classify_mode(CrossingRecord(1.0, -0.4, 0.0, None)) is Mode.JUMP_HIT
        assert classify_mode(CrossingRecord(1.0, -0.4, 0.4, None)) is Mode.JUMP_OVER

    def test_family_partition(self):
        assert Mode.CREEP in CONTACT_MODES and Mode.TOUCH_JUMP in CONTACT_MODES
        assert Mode.JUMP_HIT in GAP_MODES and Mode.JUMP_OVER in GAP_MODES
        assert not (CONTACT_MODES & GAP_MODES)

    def test_infinite_tau(self):
        rec = CrossingRecord(math.inf, math.nan, math.nan, None)
        assert classify_mode(rec) is Mode.NO_CROSSING

    def test_above_barrier_before_crossing_is_inconsistent(self):
        with pytest.raises(InconsistencyError):
            classify_mode(CrossingRecord(1.0, 0.5, 0.7, None))

    def test_below_barrier_at_crossing_is_inconsistent(self):
        with pytest.raises(InconsistencyError):
            classify_mode(CrossingRecord(1.0, -0.5, -0.2, None))

    def test_start_on_barrier_convention(self):
        # tau = 0 with equal strictly positive sides reads as a start above
        # the barrier, which counts as an immediate gap crossing
        rec = CrossingRecord(0.0, 0.5, 0.5, None)
        assert classify_mode(rec) is Mode.JUMP_OVER


class TestRunningSupremum:
    def test_ramp_then_flat(self):
        segs = (Segment(0.0, 2.0, -2.0, 1.0), Segment(2.0, 4.0, 2.0, -1.0))
        path = PiecewisePath(segs, (), 4.0)
        sup = running_supremum(path, ZERO)
        assert sup.value(1.0) == pytest.approx(-1.0)
        assert sup.value(3.0) == pytest.approx(0.0)
        assert sup.value(4.0) == pytest.approx(0.0)
        assert sup.jumps == ()

    def test_upward_jump_enters_supremum(self):
        segs = (Segment(0.0, 1.0, -2.0, 0.0), Segment(1.0, 2.0, -0.5, 0.0))
        path = PiecewisePath(segs, (Jump(1.0, -2.0, -0.5),), 2.0)
        sup = running_supremum(path, ZERO)
        assert sup.value(0.5) == -2.0
        assert sup.value(1.5) == -0.5
        assert len(sup.jumps) == 1

    def test_downward_jump_ignored(self):
        segs = (Segment(0.0, 1.0, -1.0, 0.0), Segment(1.0, 2.0, -3.0, 0.0))
        path = PiecewisePath(segs, (Jump(1.0, -1.0, -3.0),), 2.0)
        sup = running_supremum(path, ZERO)
        assert sup.jumps == ()
        assert sup.value(1.7) == -1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_paths_dominate_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        path = random_compliant_path(rng)
        sup = running_supremum(path, ZERO)
        ts = np.linspace(0.0, path.horizon, 400)
        prev = -math.inf
        for t in ts:
            s_val = sup.value(float(t))
            assert s_val >= path.value(float(t)) - 1e-12
            assert s_val >= prev - 1e-12
            prev = s_val

    def test_many_random_paths_validate(self):
        # regression: re-evaluating a continuous junction on the next piece
        # can land one ulp above the running max and must not emit a jump;
        # against a nonzero level the start of a rise can round onto the
        # end of its piece and must not emit an empty segment
        rng = np.random.default_rng(20260819)
        other = np.random.default_rng(3)
        for _ in range(200):
            path = random_compliant_path(rng)
            running_supremum(path, ZERO)
            level = Barrier.constant(float(other.uniform(-1.0, 1.0)))
            running_supremum(path, level)
            running_supremum(random_violating_path(other), level)

    def test_rise_rounding_onto_its_end_stays_flat(self):
        sup = running_supremum(ROUNDED_RISE, ROUNDED_RISE_BARRIER)
        assert all(s.t_start < s.t_end for s in sup.segments)
        rep = announcing_sequence(ROUNDED_RISE, ROUNDED_RISE_BARRIER, n_max=8)
        assert rep.sigma == (0.827860382622494, 1.827860382622494) \
            + (math.inf,) * 6
        assert math.isinf(rep.sigma_limit) and rep.converged


class TestAnnouncing:
    def test_corpus_touch_and_jump(self):
        path = load_corpus("touch_and_jump")
        rec = first_passage(path, ZERO)
        assert rec.mode is Mode.TOUCH_JUMP
        assert rec.tau == 2.0
        rep = announcing_sequence(path, ZERO, n_max=6)
        assert rep.converged
        assert rep.sigma_limit == pytest.approx(2.0)
        assert all(s <= 2.0 for s in rep.sigma)
        assert rep.rho == tuple(min(s, float(n))
                                for n, s in enumerate(rep.sigma, start=1))

    def test_corpus_premature_contact(self):
        path = load_corpus("premature_contact")
        rec = first_passage(path, ZERO)
        assert rec.mode is Mode.CREEP and rec.tau == 2.0
        ok, witness = check_no_premature_contact(path, ZERO)
        assert not ok and witness == 1.0
        rep = announcing_sequence(path, ZERO, n_max=6)
        assert not rep.converged
        assert rep.sigma_limit == pytest.approx(1.0)
        assert max(rep.sigma) <= 1.0

    def test_no_crossing_converges_vacuously(self):
        rep = announcing_sequence(ramp_path(-2.0, -0.1), ZERO)
        assert math.isinf(rep.sigma_limit)
        assert rep.converged

    def test_sigma_sequence_monotone(self):
        path = load_corpus("touch_and_jump")
        rep = announcing_sequence(path, ZERO, n_max=10)
        assert all(s0 <= s1 + 1e-12
                   for s0, s1 in zip(rep.sigma, rep.sigma[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_both_directions(self, seed):
        rng = np.random.default_rng(100 + seed)
        good = random_compliant_path(rng)
        assert check_no_premature_contact(good, ZERO)[0]
        assert announcing_sequence(good, ZERO, n_max=8).converged
        bad = random_violating_path(rng)
        ok, witness = check_no_premature_contact(bad, ZERO)
        assert not ok and witness is not None
        assert not announcing_sequence(bad, ZERO, n_max=8).converged

    def test_n_max_validated(self):
        with pytest.raises(StructuralError):
            announcing_sequence(ramp_path(-1.0, 0.0), ZERO, n_max=0)

    def test_one_passage_and_one_supremum_per_call(self, monkeypatch):
        calls = {"first_passage": 0, "running_supremum": 0}
        for name in calls:
            def counted(*args, _real=getattr(paths, name), _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(paths, name, counted)
        announcing_sequence(load_corpus("premature_contact"), ZERO, n_max=16)
        assert calls == {"first_passage": 1, "running_supremum": 1}

    @pytest.mark.parametrize("source", ["lattice", "corpus"])
    def test_sweep_is_bitwise_on_replays_and_corpus(self, source):
        if source == "lattice":
            spec = CompoundPoissonSpec(1.0, LatticeJumps((1.0, 2.0), (0.5, 0.5)),
                                       1.0, 0.0)
            level = Barrier.constant(spec.barrier_level)
            cases = [(simulate_compound_poisson(spec, 7, 8.0, path_index=i)[0],
                      level) for i in range(40)]
        else:
            cases = [(load_corpus(name), ZERO)
                     for name in ("touch_and_jump", "premature_contact")]
        for path, barrier in cases:
            for n_max in (1, 8, 16):
                _assert_sweep_is_oracle(path, barrier, n_max)


class TestPathFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        path = random_compliant_path(rng)
        fname = tmp_path / "sample.path"
        save_path(path, fname)
        back = load_path(fname)
        assert back.segments == path.segments
        assert back.jumps == path.jumps
        assert back.horizon == path.horizon

    def test_comments_and_blank_lines(self, tmp_path):
        fname = tmp_path / "commented.path"
        fname.write_text(
            "# a tiny flat path\n\nhorizon 2.0\nsegment 0.0 2.0 -1.0 0.0  # flat\n")
        path = load_path(fname)
        assert path.value(1.0) == -1.0

    def test_malformed_line_rejected(self, tmp_path):
        fname = tmp_path / "broken.path"
        fname.write_text("horizon 2.0\nsegment 0.0 2.0 -1.0\n")
        with pytest.raises(StructuralError):
            load_path(fname)

    def test_unknown_corpus_name(self):
        with pytest.raises(StructuralError):
            load_corpus("does_not_exist")


# Property tests over the suite's own random path generators: a seed and a
# choice of generator per example, drawn deterministically.
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_SEEDS = st.integers(0, 2 ** 32 - 1)


def _draw(seed: int, compliant: bool) -> PiecewisePath:
    rng = np.random.default_rng(seed)
    return random_compliant_path(rng) if compliant else random_violating_path(rng)


def _sample_times(path: PiecewisePath, seed: int) -> np.ndarray:
    """A dense grid, random times, every breakpoint and the horizon."""
    rng = np.random.default_rng(seed)
    knots = [s.t_start for s in path.segments] + [path.horizon]
    return np.unique(np.concatenate((np.linspace(0.0, path.horizon, 1001),
                                     rng.uniform(0.0, path.horizon, 200),
                                     knots)))


def _assert_sweep_is_oracle(path: PiecewisePath, barrier: Barrier,
                            n_max: int) -> None:
    """announcing_sequence's times equal, bit for bit, one first_passage
    call on the running supremum per level."""
    sup = running_supremum(path, barrier)
    sigma = [first_passage(sup, Barrier.constant(-1.0 / n)).tau
             for n in range(1, n_max + 1)]
    limit = first_passage(sup, ZERO).tau
    rep = announcing_sequence(path, barrier, n_max=n_max)
    assert [s.hex() for s in rep.sigma] == [s.hex() for s in sigma]
    assert rep.sigma_limit.hex() == limit.hex()


def _barrier(kind: str, path: PiecewisePath, seed: int) -> Barrier:
    """Level 0, a constant level in (-1, 1), or _moving_barrier."""
    if kind == "zero":
        return ZERO
    if kind == "constant":
        rng = np.random.default_rng([seed, 2])
        return Barrier.constant(float(rng.uniform(-1.0, 1.0)))
    return _moving_barrier(path, seed)


_BARRIER_KINDS = st.sampled_from(("zero", "constant", "moving"))


def _moving_barrier(path: PiecewisePath, seed: int) -> Barrier:
    """Piecewise-linear barrier around 0 with knots at about half the path's
    segment boundaries and at 1-3 times in between; the first knot is at or
    before 0 and the last at or past the horizon."""
    rng = np.random.default_rng([seed, 1])
    knots = {float(rng.choice([0.0, -1.0])),
             path.horizon + float(rng.choice([0.0, 1.0]))}
    knots.update(s.t_start for s in path.segments[1:] if rng.random() < 0.5)
    knots.update(rng.uniform(0.0, path.horizon, int(rng.integers(1, 4))))
    knots = sorted(knots)
    return Barrier(tuple(knots), tuple(rng.uniform(-0.5, 0.5, len(knots))))


class TestPathProperties:
    @_PROPERTY
    @given(seed=_SEEDS, compliant=st.booleans())
    def test_save_then_load_is_identity(self, seed, compliant):
        path = _draw(seed, compliant)
        with tempfile.TemporaryDirectory() as folder:
            fname = os.path.join(folder, "drawn.path")
            save_path(path, fname)
            assert load_path(fname) == path

    @_PROPERTY
    @given(seed=_SEEDS, compliant=st.booleans(), kind=_BARRIER_KINDS)
    def test_running_supremum_is_monotone_and_dominates(self, seed, compliant,
                                                        kind):
        path = _draw(seed, compliant)
        barrier = _barrier(kind, path, seed)
        sup = running_supremum(path, barrier)
        ts = _sample_times(path, seed)
        s = np.array([sup.value(float(t)) for t in ts])
        y = np.array([path.value(float(t)) - barrier.value(float(t))
                      for t in ts])
        # S is built from c + m t with c = intercept - b, which rounds
        # otherwise than X_t - b(t) does unless b = 0
        tol = 0.0 if kind == "zero" else 1e-13
        assert np.all(np.diff(s) >= 0.0)
        assert np.all(s >= y - tol * np.maximum(1.0, np.abs(y)))

    @_PROPERTY
    @given(seed=_SEEDS, compliant=st.booleans(), kind=_BARRIER_KINDS,
           n_max=st.sampled_from((1, 8, 16)))
    def test_sweep_is_bitwise_the_per_level_passage(self, seed, compliant,
                                                    kind, n_max):
        path = _draw(seed, compliant)
        _assert_sweep_is_oracle(path, _barrier(kind, path, seed), n_max)

    # twice the examples, so each barrier kind gets about as many as the
    # other property tests
    @settings(_PROPERTY, max_examples=2 * _PROPERTY.max_examples)
    @given(seed=_SEEDS, compliant=st.booleans(), moving=st.booleans())
    def test_first_passage_agrees_with_dense_sampling(self, seed, compliant,
                                                      moving):
        path = _draw(seed, compliant)
        barrier = _moving_barrier(path, seed) if moving else ZERO
        tau = first_passage(path, barrier).tau
        ts = np.union1d(_sample_times(path, seed),
                        [t for t in barrier.times if 0.0 <= t <= path.horizon])
        gap = lambda t: path.value(t) - barrier.value(t)
        before = ts[ts < tau]
        assert all(gap(float(t)) < 0.0 for t in before)
        if math.isfinite(tau):
            # a jump or an exact hit at tau, or a continuous arrival at 0
            assert gap(tau) >= 0.0 \
                or abs(path.left_limit(tau) - barrier.value(tau)) <= EPS_MODE
        else:
            assert before.size == ts.size
