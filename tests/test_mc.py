"""Monte Carlo estimators over precomputed simulation batches."""

import dataclasses
import math

import numpy as np
import pytest

from passagelab.errors import StructuralError, UnderSampleError
from passagelab.mc import (
    compensator_martingale_check,
    estimate_cp_mode_probs,
    estimate_gq_compensator,
    estimate_gq_indicator,
    estimate_hq_fq,
    estimate_mode_probs,
    estimate_overshoot_moments,
    overshoot_law_test,
)
from passagelab.paths import CODE_OF, Mode
from passagelab.simulate import (
    CP_STREAM_VERSION,
    CompoundPoissonSpec,
    ExponentialJumps,
    LatticeJumps,
    ModelParams,
    SimConfig,
    run_compound_poisson,
    run_paths,
)

REF = ModelParams(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=2.0,
                  a=1.0, x=0.0)
CFG = SimConfig(horizon=25.0, step=2e-3, seed=314, n_paths=1500)


@pytest.fixture(scope="module")
def batch():
    return run_paths(REF, CFG, q_list=(0.0, 0.05))


@pytest.fixture(scope="module")
def cp_batch():
    spec = CompoundPoissonSpec(intensity=1.0, jump_law=ExponentialJumps(2.0),
                               barrier_level=1.0, start=0.0)
    grid = (0.5, 1.0, 2.0, 4.0)
    return spec, grid, run_compound_poisson(spec, 4000, seed=21, horizon=4.0,
                                            grid=grid)


class TestModeProbs:
    def test_frequencies_partition(self, batch):
        probs = estimate_mode_probs(REF, CFG, result=batch)
        total = sum(e.mean for e in probs.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(e.n == 1500 for e in probs.values())

    def test_binomial_standard_error(self, batch):
        probs = estimate_mode_probs(REF, CFG, result=batch)
        est = probs[Mode.JUMP_OVER]
        want = math.sqrt(est.mean * (1.0 - est.mean) / (est.n - 1))
        assert est.std_error == pytest.approx(want, rel=1e-2)

    def test_mismatched_settings_rejected(self, batch):
        other = SimConfig(horizon=25.0, step=2e-3, seed=315, n_paths=1500)
        with pytest.raises(StructuralError):
            estimate_mode_probs(REF, other, result=batch)

    def test_other_stream_version_rejected(self, batch):
        old = dataclasses.replace(batch, stream_version=batch.stream_version - 1)
        with pytest.raises(StructuralError):
            estimate_mode_probs(REF, CFG, result=old)


class TestTransformEstimates:
    def test_zero_discount_equals_frequency(self, batch):
        est = estimate_gq_indicator(REF, CFG, 0.0, result=batch)
        over = batch.modes == CODE_OF[Mode.JUMP_OVER]
        freq = float(np.mean(over))
        assert est.mean == freq
        assert est.breakdown["jump_over_count"] == int(over.sum())

    def test_discount_decreases_estimate(self, batch):
        e0 = estimate_gq_indicator(REF, CFG, 0.0, result=batch)
        e5 = estimate_gq_indicator(REF, CFG, 0.05, result=batch)
        assert 0.0 < e5.mean < e0.mean

    def test_compensator_route_agrees_loosely(self, batch):
        ind = estimate_gq_indicator(REF, CFG, 0.05, result=batch)
        comp = estimate_gq_compensator(REF, CFG, 0.05, result=batch)
        gap = abs(ind.mean - comp.mean)
        assert gap <= 6.0 * math.hypot(ind.std_error, comp.std_error)

    def test_compensator_requires_matching_transform(self, batch):
        with pytest.raises(StructuralError):
            estimate_gq_compensator(REF, CFG, 0.02, result=batch)

    def test_crossing_transform_splits(self, batch):
        h_est, f_est = estimate_hq_fq(REF, CFG, 0.05, result=batch)
        g_est = estimate_gq_indicator(REF, CFG, 0.05, result=batch)
        assert h_est.mean == pytest.approx(f_est.mean + g_est.mean, abs=1e-12)
        assert f_est.mean > 0.0

    def test_within_helper(self, batch):
        est = estimate_gq_indicator(REF, CFG, 0.0, result=batch)
        assert est.within(est.mean)
        assert not est.within(est.mean + 10.0 * est.std_error)


class TestOvershoots:
    def test_law_and_independence(self, batch):
        test = overshoot_law_test(REF, CFG, result=batch, min_samples=200)
        assert test.n > 1000
        assert test.p_value > 1e-3
        assert abs(test.level_correlation) <= 5.0 / math.sqrt(test.n)
        assert test.mean_overshoot == pytest.approx(1.0 / REF.eta, rel=0.1)

    def test_statistic_matches_scipy_kstest(self, batch):
        from scipy import stats
        test = overshoot_law_test(REF, CFG, result=batch, min_samples=200)
        over = batch.modes == CODE_OF[Mode.JUMP_OVER]
        want = stats.kstest(batch.overshoots[over], "expon",
                            args=(0.0, 1.0 / REF.eta), method="asymp")
        assert test.ks_statistic == float(want.statistic)
        assert test.p_value == float(want.pvalue)

    def test_under_sampling_raises(self, batch):
        with pytest.raises(UnderSampleError):
            overshoot_law_test(REF, CFG, result=batch, min_samples=10 ** 7)

    def test_moments_positive(self, batch):
        m_est, t2_est = estimate_overshoot_moments(REF, CFG, result=batch)
        assert m_est.mean > 0.0
        assert t2_est.mean > m_est.mean  # crossing times well above 1 here
        assert m_est.std_error > 0.0


class TestCompoundPoisson:
    def test_mode_probs_partition(self, cp_batch):
        spec, _grid, res = cp_batch
        probs = estimate_cp_mode_probs(spec, 4000, 21, 4.0, result=res)
        total = sum(e.mean for e in probs.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert probs[Mode.JUMP_HIT].mean == 0.0  # diffuse law, no exact hits

    def test_mode_probs_cover_every_compound_poisson_code(self):
        # 0.1 steps stop 1e-16 below 0.8 and then jump over: touch_jump
        spec = CompoundPoissonSpec(intensity=1.0,
                                   jump_law=LatticeJumps((0.1,), (1.0,)),
                                   barrier_level=0.8, start=0.0)
        res = run_compound_poisson(spec, 200, seed=1, horizon=50.0)
        probs = estimate_cp_mode_probs(spec, 200, 1, 50.0, result=res)
        assert list(probs) == [Mode.JUMP_HIT, Mode.JUMP_OVER, Mode.CENSORED,
                               Mode.TOUCH_JUMP, Mode.CREEP]
        assert probs[Mode.TOUCH_JUMP].mean == 1.0
        assert sum(e.mean for e in probs.values()) == 1.0

    def test_martingale_deviations_within_noise(self, cp_batch):
        spec, grid, res = cp_batch
        check = compensator_martingale_check(spec, grid, 4000, 21,
                                             horizon=4.0, result=res)
        assert check.n == 4000
        assert check.worst_sigma <= 4.0
        assert check.max_abs_deviation < 0.05

    def test_other_stream_version_rejected(self, cp_batch):
        spec, grid, res = cp_batch
        old = dataclasses.replace(res, stream_version=CP_STREAM_VERSION - 1)
        with pytest.raises(StructuralError, match="stream version"):
            estimate_cp_mode_probs(spec, 4000, 21, 4.0, result=old)
        with pytest.raises(StructuralError, match="stream version"):
            compensator_martingale_check(spec, grid, 4000, 21, horizon=4.0,
                                         result=old)

    def test_grid_mismatch_rejected(self, cp_batch):
        spec, _grid, res = cp_batch
        with pytest.raises(StructuralError):
            compensator_martingale_check(spec, (0.25, 0.5), 4000, 21,
                                         horizon=4.0, result=res)

    def test_grid_beyond_horizon_rejected(self, cp_batch):
        spec, _grid, _res = cp_batch
        with pytest.raises(StructuralError):
            compensator_martingale_check(spec, (5.0,), 10, 0, horizon=4.0)
