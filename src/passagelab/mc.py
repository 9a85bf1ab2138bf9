"""Estimators connecting simulated crossings to the closed-form transforms.

The diffusion estimators read a precomputed SimResult, so that several
quantities share one simulation; the params and config they are given
must be the ones it was simulated under. The compound Poisson estimators
take a CpResult, or simulate one from (n_paths, seed, horizon) when given
None. Standard errors are sample standard deviations of the per-path
contributions divided by sqrt(n), so "within k standard errors" statements
compose across independent runs; on fewer than 2 paths they raise
UnderSampleError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expm1, kolmogorov

from .errors import StructuralError, UnderSampleError
from .paths import CODE_OF, Mode
from .simulate import (
    STREAM_VERSION,
    CompoundPoissonSpec,
    CpResult,
    ModelParams,
    SimConfig,
    SimResult,
    run_compound_poisson,
)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    breakdown: dict | None = None

    def within(self, target: float, k: float = 3.0) -> bool:
        """Is target inside k standard errors of the estimate?"""
        return abs(self.mean - target) <= k * self.std_error


@dataclass(frozen=True)
class OvershootTest:
    """Distribution and independence checks for the jump-over overshoot."""

    n: int
    ks_statistic: float
    p_value: float
    level_correlation: float
    mean_overshoot: float


@dataclass(frozen=True)
class CompensatorCheck:
    """Deviation of indicator minus compensator along a time grid."""

    times: np.ndarray
    deviations: np.ndarray
    std_errors: np.ndarray
    n: int

    @property
    def max_abs_deviation(self) -> float:
        return float(np.max(np.abs(self.deviations))) if self.times.size else 0.0

    @property
    def worst_sigma(self) -> float:
        """Largest |deviation| / SE over the grid."""
        if not self.times.size:
            return 0.0
        safe = np.where(self.std_errors > 0, self.std_errors, np.inf)
        return float(np.max(np.abs(self.deviations) / safe))


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    n = samples.shape[0]
    if n < 2:
        raise UnderSampleError(f"a standard error needs 2 paths, got {n}")
    mean = float(np.mean(samples))
    sd = float(np.std(samples, ddof=1))
    return mean, sd / math.sqrt(n)


def _checked(params: ModelParams, config: SimConfig,
             result: SimResult) -> SimResult:
    if result.params != params or result.config != config:
        raise StructuralError(
            "precomputed result was generated under different settings")
    if result.stream_version != STREAM_VERSION:
        raise StructuralError(
            f"precomputed result uses stream version {result.stream_version}, "
            f"this engine draws version {STREAM_VERSION}")
    return result


def _mode_probs(modes: np.ndarray, order: tuple[Mode, ...]
                ) -> dict[Mode, McEstimate]:
    out = {}
    for mode in order:
        mean, se = _mean_se((modes == CODE_OF[mode]).astype(float))
        out[mode] = McEstimate(mean, se, modes.shape[0])
    return out


def estimate_mode_probs(params: ModelParams, config: SimConfig,
                        result: SimResult) -> dict[Mode, McEstimate]:
    """Sample frequencies of creep / jump_over / censored with binomial SEs."""
    res = _checked(params, config, result)
    return _mode_probs(res.modes, (Mode.CREEP, Mode.JUMP_OVER, Mode.CENSORED))


def estimate_gq_indicator(params: ModelParams, config: SimConfig, q: float,
                          result: SimResult) -> McEstimate:
    """E[exp(-q tau); crossing by a jump], straight from the indicators."""
    res = _checked(params, config, result)
    over = res.modes == CODE_OF[Mode.JUMP_OVER]
    samples = np.where(over, np.exp(-q * np.where(over, res.taus, 0.0)), 0.0)
    mean, se = _mean_se(samples)
    return McEstimate(mean, se, res.n,
                      {"jump_over_count": int(over.sum())})


def estimate_gq_compensator(params: ModelParams, config: SimConfig, q: float,
                            result: SimResult) -> McEstimate:
    """Same transform via the projected jump-intensity integral.

    Averages the pathwise integral of exp(-q s) lam exp(-eta (a - X_s))
    up to tau: the intensity of crossing jumps seen from just below the
    barrier. Jumps never enter directly, and the route is biased only by
    the time discretisation of the integral. It does not reduce variance:
    at the reference model (4000 paths, seed 7) its standard error was
    1.86, 1.61 and 1.38 times that of estimate_gq_indicator at q = 0, 0.05
    and 0.1.
    """
    res = _checked(params, config, result)
    samples = res.comp[:, res.q_index(float(q))]
    mean, se = _mean_se(samples)
    censored = int((res.modes == CODE_OF[Mode.CENSORED]).sum())
    return McEstimate(mean, se, res.n, {"censored_count": censored})


def estimate_hq_fq(params: ModelParams, config: SimConfig, q: float,
                   result: SimResult) -> tuple[McEstimate, McEstimate]:
    """(H, F): transform over all crossings, and its creep-only part."""
    res = _checked(params, config, result)
    crossed = res.modes != CODE_OF[Mode.CENSORED]
    disc = np.where(crossed, np.exp(-q * np.where(crossed, res.taus, 0.0)), 0.0)
    h_mean, h_se = _mean_se(disc)
    creep_only = np.where(res.modes == CODE_OF[Mode.CREEP], disc, 0.0)
    f_mean, f_se = _mean_se(creep_only)
    n = res.n
    return (McEstimate(h_mean, h_se, n), McEstimate(f_mean, f_se, n))


def overshoot_law_test(params: ModelParams, config: SimConfig,
                       result: SimResult,
                       min_samples: int = 1000) -> OvershootTest:
    """KS test of the overshoot against its predicted exponential law.

    The two-sided statistic and its asymptotic (Kolmogorov) p-value are
    those of scipy.stats.kstest(..., method="asymp"), bit for bit. Also
    reports the sample correlation between the overshoot and the
    level the path jumped from, which the memoryless property makes zero
    in truth. Raises UnderSampleError when fewer than min_samples paths
    crossed by a jump.
    """
    res = _checked(params, config, result)
    over = res.modes == CODE_OF[Mode.JUMP_OVER]
    n = int(over.sum())
    if n < min_samples:
        raise UnderSampleError(
            f"only {n} jump crossings, need {min_samples} for the law test")
    osh = res.overshoots[over]
    levels = res.pre_jump_levels[over]
    # the cdf divides by the scale 1/eta, as scipy does; multiplying by eta
    # moves last bits
    cdf = -expm1(-np.sort(osh) / (1.0 / params.eta))
    ks = max(np.max(np.arange(1.0, n + 1) / n - cdf),
             np.max(cdf - np.arange(0.0, n) / n))
    corr = float(np.corrcoef(osh, levels)[0, 1])
    return OvershootTest(n, float(ks), float(kolmogorov(ks * math.sqrt(n))),
                         corr, float(osh.mean()))


def estimate_overshoot_moments(params: ModelParams, config: SimConfig,
                               result: SimResult
                               ) -> tuple[McEstimate, McEstimate]:
    """MC moments E[tau; jump crossing] and E[tau^2; jump crossing]."""
    res = _checked(params, config, result)
    over = res.modes == CODE_OF[Mode.JUMP_OVER]
    tau_contrib = np.where(over, res.taus, 0.0)
    m1, se1 = _mean_se(tau_contrib)
    m2, se2 = _mean_se(tau_contrib ** 2)
    n = res.n
    return (McEstimate(m1, se1, n), McEstimate(m2, se2, n))


# ---------------------------------------------------------------------------
# compound Poisson side

def estimate_cp_mode_probs(spec: CompoundPoissonSpec, n_paths: int, seed: int,
                           horizon: float,
                           result: CpResult | None = None
                           ) -> dict[Mode, McEstimate]:
    """Frequencies of every compound Poisson mode; they sum to 1.

    Exact hits, strict overshoots and censored paths come first, then
    touch_jump and creep, which a path reaches only through the EPS_MODE
    tolerance.
    """
    res = result if result is not None else run_compound_poisson(
        spec, n_paths, seed, horizon)
    return _mode_probs(res.modes, (Mode.JUMP_HIT, Mode.JUMP_OVER, Mode.CENSORED,
                                   Mode.TOUCH_JUMP, Mode.CREEP))


def compensator_martingale_check(spec: CompoundPoissonSpec, times,
                                 n_paths: int, seed: int,
                                 horizon: float | None = None,
                                 result: CpResult | None = None
                                 ) -> CompensatorCheck:
    """Mean of 1{tau <= t} minus its compensator at each grid time.

    The compensated indicator is a martingale started at zero, so every
    deviation should vanish within Monte Carlo error; the returned object
    carries the per-time standard errors for exactly that comparison.
    """
    grid = np.asarray(sorted(float(t) for t in times))
    if horizon is None:
        horizon = float(grid[-1]) if grid.size else 1.0
    if grid.size and grid[-1] > horizon:
        raise StructuralError("grid times must not exceed the horizon")
    res = result if result is not None else run_compound_poisson(
        spec, n_paths, seed, horizon, grid=grid)
    if result is not None and (res.grid.shape != grid.shape
                               or not np.array_equal(res.grid, grid)):
        raise StructuralError("precomputed result uses a different time grid")
    if res.n < 2:
        raise UnderSampleError(f"a standard error needs 2 paths, got {res.n}")
    diff = res.crossed_at - res.comp_at
    devs = diff.mean(axis=0)
    ses = diff.std(axis=0, ddof=1) / math.sqrt(res.n)
    return CompensatorCheck(grid, devs, ses, res.n)
