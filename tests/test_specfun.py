"""Special-function layer: cylinder function values and the gauge context."""

import math

import numpy as np
import pytest

from passagelab import weber
from passagelab.errors import AccuracyError, UnsupportedRegimeError
from passagelab.quad import _gl_rule
from passagelab.simulate import ModelParams
from passagelab.weber import (
    TABLE_RTOL,
    LogPcfTable,
    log_pcf_d,
    log_pcf_d_batch,
    make_context,
    pcf_d,
)

# Reference values computed with mpmath.pcfd at 40 decimal digits and
# frozen here so the suite does not depend on mpmath being installed.
FROZEN = [
    (-1.0, 0.0, 1.2533141373155003),
    (0.0, 1.0, 0.7788007830714049),
    (-2.0, 0.0, 1.0),
    (-2.5, 1.3, 0.11349552066330045),
    (-3.0, 1.2666666666666666, 0.07629289222551778),
    (-2.0, -2.066666666666667, 15.120894255339380),
]

REF = ModelParams(alpha=0.1, beta=-0.5, sigma=0.3, lam=1.0, eta=2.0,
                  a=1.0, x=0.0)


@pytest.mark.parametrize("nu,z,want", FROZEN)
def test_frozen_reference_values(nu, z, want):
    assert pcf_d(nu, z) == pytest.approx(want, rel=1e-12)


def test_order_zero_is_gaussian():
    for z in (-4.0, -1.0, 0.0, 0.5, 2.0, 6.0):
        assert pcf_d(0.0, z) == pytest.approx(math.exp(-z * z / 4.0), rel=1e-12)


def test_order_minus_one_matches_erfc_form():
    zs = np.linspace(-6.0, 6.0, 25)
    for z in zs:
        want = math.exp(z * z / 4.0) * math.sqrt(math.pi / 2.0) \
            * math.erfc(z / math.sqrt(2.0))
        assert pcf_d(-1.0, float(z)) == pytest.approx(want, rel=1e-10)


def test_three_term_recurrence():
    # D_{nu+1}(z) = z D_nu(z) - nu D_{nu-1}(z), exercised so that the
    # middle order sits in (-1, 0), where the integrand is singular at 0.
    rng = np.random.default_rng(7)
    for _ in range(12):
        nu = float(rng.uniform(-0.95, -0.05))
        z = float(rng.uniform(-2.5, 2.5))
        lhs = pcf_d(nu + 1.0, z) if nu + 1.0 <= 0.0 else None
        rhs = z * pcf_d(nu, z) - nu * pcf_d(nu - 1.0, z)
        if lhs is None:
            continue
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    # fixed spot checks with all three orders at or below zero
    for nu, z in ((-1.5, 0.7), (-2.2, -1.1), (-4.0, 2.0)):
        lhs = pcf_d(nu + 1.0, z)
        rhs = z * pcf_d(nu, z) - nu * pcf_d(nu - 1.0, z)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_derivative_identity_by_central_difference():
    rng = np.random.default_rng(11)
    for _ in range(10):
        nu = float(rng.uniform(-5.0, -1.1))
        z = float(rng.uniform(-3.0, 3.0))
        h = 1e-4 * max(1.0, abs(z))
        diff = (pcf_d(nu, z + h) - pcf_d(nu, z - h)) / (2.0 * h)
        want = 0.5 * z * pcf_d(nu, z) - pcf_d(nu + 1.0, z)
        assert diff == pytest.approx(want, rel=5e-7)


def test_positive_order_rejected():
    with pytest.raises(UnsupportedRegimeError):
        pcf_d(0.5, 1.0)
    with pytest.raises(UnsupportedRegimeError):
        log_pcf_d_batch(1e-9, np.array([0.0]))
    with pytest.raises(UnsupportedRegimeError):
        log_pcf_d_batch(-0.5, 0.0, weber.TOL_PCF, np.zeros_like)


@pytest.mark.parametrize("nu,z", [(-1.0, 0.0), (-3.0, 1.27), (-2.1, -2.07),
                                  (-1.02, -33.2)])
def test_unit_weight_is_the_plain_integral(nu, z):
    assert log_pcf_d_batch(nu, z, weber.TOL_PCF, np.zeros_like)[0] \
        == log_pcf_d(nu, z)


def test_batch_matches_scalar():
    # Each value leaves the refinement when its own two levels agree, so a
    # batch and a scalar call differ only through the summation order of the
    # matrix-vector product over the nodes; values agree to a few ulp on the
    # log scale and repeated identical calls are bitwise equal.
    zs = np.array([-30.0, -3.0, -0.4, 0.0, 1.7, 12.0, 80.0])
    for nu in (-0.3, -1.0, -2.7, -6.0):
        batch = log_pcf_d_batch(nu, zs)
        scalars = np.array([log_pcf_d(nu, float(z)) for z in zs])
        assert batch == pytest.approx(scalars, abs=1e-13)
        assert np.array_equal(batch, log_pcf_d_batch(nu, zs))


def test_mixed_row_batch_matches_scalar_calls():
    # one call over orders in (-1, 0), at -1 and below, with weighted and
    # unweighted values of both signs of z
    def log_weight(t):
        return -np.log1p(t)

    nu = np.array([-0.4, -0.4, -1.0, -1.0, -2.7, -2.7, -2.7, -0.95, -6.0])
    zs = np.array([1.3, -1.3, 0.7, -2.07, 2.07, -2.07, 1.3, -0.5, 3.0])
    weighted = np.array([0, 0, 0, 1, 0, 1, 1, 0, 0], dtype=bool)
    batch = log_pcf_d_batch(nu, zs, weber.TOL_PCF, log_weight, weighted)
    scalars = [log_pcf_d_batch(n, z, weber.TOL_PCF, log_weight, w)[0]
               for n, z, w in zip(nu.tolist(), zs.tolist(), weighted)]
    assert batch == pytest.approx(scalars, rel=0.0, abs=1e-13)
    assert np.array_equal(
        batch, log_pcf_d_batch(nu, zs, weber.TOL_PCF, log_weight, weighted))
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for k in (0, 1, 2, 4):
            want = float(mp.pcfd(nu[k], zs[k]))
            assert math.exp(batch[k]) == pytest.approx(want, rel=1e-9)


def test_batch_takes_the_broadcast_shape():
    # the rows run on the raveled pair, so an n-d call is the 1-d call
    # reshaped, bit for bit
    z = np.array([[-3.0, -0.4, 0.0], [1.7, 12.0, 1.0]])
    got = log_pcf_d_batch(-2.0, z)
    assert got.shape == (2, 3)
    assert np.array_equal(got.ravel(), log_pcf_d_batch(-2.0, z.ravel()))
    nu = np.array([[-0.4], [-2.7]])
    zs = np.array([-1.3, 0.7, 2.07])
    got = log_pcf_d_batch(nu, zs)
    assert got.shape == (2, 3)
    flat_nu, flat_z = (a.ravel() for a in np.broadcast_arrays(nu, zs))
    assert np.array_equal(got.ravel(), log_pcf_d_batch(flat_nu, flat_z))


def test_cached_rules_are_read_only():
    # the node caches hand the same arrays to every caller
    for arr in (*_gl_rule(64), *weber._panel_rule(4),
                *weber._pass_rule((1, 2))[:2]):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_first_pass_honours_the_panel_cap(monkeypatch):
    # levels 1 and 2 run as one pass; a cap of 2 panels must still stop a
    # row that needs 4 (nu = -3, z = -60) and leave the rows that converge
    # at 2 panels with the values they have under the default cap
    nu, zs = [-0.5, -3.0, -1.5], [-5.0, 5.0, 20.0]
    want = log_pcf_d_batch(nu, zs)
    assert np.isfinite(log_pcf_d(-3.0, -60.0))
    monkeypatch.setattr(weber, "_MAX_PANELS", 2)
    assert np.array_equal(log_pcf_d_batch(nu, zs), want)
    with pytest.raises(AccuracyError, match="stalled .* 1 argument.*z=-60"):
        log_pcf_d_batch(nu + [-3.0], zs + [-60.0])


def test_row_blocks_hold_whole_row_groups():
    # BLAS sums a group of 4 rows, a remainder of 2 or 3 rows and a lone
    # row in different orders, so a block split keeps every row in the
    # kind of group it has in one product over all rows
    for n in range(40):
        for n_blocks in range(1, 12):
            blocks = weber._row_blocks(n, n_blocks)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            assert all((b.stop - b.start) % 4 == 0 for b in blocks[:-1])
            if n >= 4:
                assert blocks[-1].stop - blocks[-1].start >= 4
                assert len(blocks) <= n_blocks


def test_row_blocks_leave_every_value_bitwise(monkeypatch):
    # a batch run in many small blocks gives the bits of one block: blocks
    # hold whole row groups of the BLAS product; the batch mixes singular
    # rows, weighted rows, t* = 0 rows (nu = -1, z >= 0) and rows that
    # refine past the first pass
    rng = np.random.default_rng(11)
    n = 301
    nu = np.where(rng.random(n) < 0.3, -rng.uniform(0.01, 0.99, n),
                  -1.0 - rng.exponential(2.0, n))
    nu[rng.random(n) < 0.1] = -1.0
    zs = rng.uniform(-60.0, 60.0, n)
    weighted = (nu <= -1.0) & (rng.random(n) < 0.5)

    def log_weight(t):
        u = 2.0 + 3.0 * t
        return np.log(-np.expm1(-u) / u)

    blocked = log_pcf_d_batch(nu, zs, 1e-11, log_weight, weighted)
    monkeypatch.setattr(weber, "_BLOCK_NODES", 1 << 40)
    assert np.array_equal(
        log_pcf_d_batch(nu, zs, 1e-11, log_weight, weighted), blocked)
    monkeypatch.setattr(weber, "_BLOCK_NODES", 1 << 9)
    assert np.array_equal(
        log_pcf_d_batch(nu, zs, 1e-11, log_weight, weighted), blocked)


def test_large_argument_asymptotics():
    # D_nu(z) ~ e^{-z^2/4} z^nu for z -> +inf; at z = 40 the first
    # correction term nu(nu-1)/(2 z^2) is ~1e-3, so compare loosely.
    z = 40.0
    for nu in (-1.0, -2.5):
        approx_log = -z * z / 4.0 + nu * math.log(z)
        assert log_pcf_d(nu, z) == pytest.approx(approx_log, abs=5e-3)


def test_against_mpmath_when_available():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(3)
    for _ in range(15):
        nu = float(rng.uniform(-8.0, -0.1))
        z = float(rng.uniform(-20.0, 20.0))
        want = float(mp.log(mp.pcfd(nu, z)))
        assert log_pcf_d(nu, z) == pytest.approx(want, rel=1e-9, abs=1e-9)


# Orders in (-1, 0), whose integrand t^(-nu-1) exp(-z t - t^2/2) is singular
# at t = 0, from next to 0 to next to -1, against arguments of both signs.
GRID_NU = [-1e-12, -1e-9, -2e-6, -1e-3, -0.02, -0.1, -0.3, -0.5, -0.7, -0.9,
           -0.98, -0.999, -0.999999]
GRID_Z = [-40.0, -33.2, -20.0, -10.0, -5.0, -2.07, -1.0, -0.3, 0.0, 0.3, 1.0,
          3.0, 5.0, 10.0, 20.0, 40.0]


@pytest.fixture(scope="module")
def mp_singular_grid():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return np.array([[float(mp.log(mp.pcfd(nu, z))) for z in GRID_Z]
                         for nu in GRID_NU])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_singular_orders_match_mpmath(mp_singular_grid, rtol):
    nu, z = np.meshgrid(GRID_NU, GRID_Z, indexing="ij")
    got = log_pcf_d_batch(nu.ravel(), z.ravel(), rtol).reshape(nu.shape)
    err = np.abs(got - mp_singular_grid)
    assert np.max(err) <= 10.0 * rtol, (
        f"worst at nu={nu.flat[np.argmax(err)]:g}, z={z.flat[np.argmax(err)]:g}")


class TestContext:
    def test_reference_numerology(self):
        ctx = make_context(REF, 0.0)
        assert ctx.b == pytest.approx(0.5)
        assert ctx.nu_q == pytest.approx(-3.0)
        assert ctx.z1 == pytest.approx(-math.sqrt(1.0) / 0.3)
        assert ctx.z(0.0) == pytest.approx(1.2666666666666666)
        assert ctx.z(REF.a) == pytest.approx(-2.066666666666667)
        assert ctx.p(REF.a) == pytest.approx(8.0 / 3.0)

    def test_unit_rate_order(self):
        params = ModelParams(alpha=0.0, beta=-1.0, sigma=1.0, lam=1.0,
                             eta=1.0, a=1.0, x=0.0)
        ctx = make_context(params, 0.0)
        assert ctx.nu_q == pytest.approx(-2.0)
        ctx_q = make_context(params, 0.5)
        assert ctx_q.nu_q == pytest.approx(-2.5)

    def test_order_decreases_with_discount(self):
        for q in (0.0, 0.1, 1.0):
            ctx = make_context(REF, q)
            assert ctx.nu_q == pytest.approx(-1.0 - (REF.lam + q) / 0.5)

    def test_order_plus_one_is_formed_directly(self):
        # nu_q + 1 = -(lam + q)/b, not nu_q + 1.0, which cancels digits
        params = ModelParams(alpha=0.0, beta=-0.5, sigma=0.025, lam=5e-10,
                             eta=2.0, a=1.0, x=0.0)
        ctx = make_context(params, 0.0)
        assert ctx.nu_q1 == -1e-9
        assert ctx.nu_q + 1.0 != ctx.nu_q1
        assert make_context(REF, 0.2).nu_q1 == -(REF.lam + 0.2) / 0.5

    def test_gauge_exponent_derivative(self):
        ctx = make_context(REF, 0.2)
        for x in (-2.0, 0.0, 0.7):
            h = 1e-6
            fd = (ctx.p(x + h) - ctx.p(x - h)) / (2.0 * h)
            assert ctx.p_prime(x) == pytest.approx(fd, rel=1e-8)

    def test_no_mean_reversion_rejected(self):
        flat = ModelParams(alpha=0.1, beta=0.0, sigma=0.3, lam=1.0,
                           eta=2.0, a=1.0, x=0.0)
        with pytest.raises(UnsupportedRegimeError):
            make_context(flat, 0.0)


class TestLogPcfTable:
    # the z-interval solve_wq fits at the reference model and q = 0.05 (the
    # truncation check's deep grid reaches x = -13.5), for D_nu(+z) and
    # D_nu(-z)
    NU = -3.1
    INTERVALS = [(-2.066666666666667, 46.266666666666666),
                 (-46.266666666666666, 2.066666666666667)]

    @pytest.mark.parametrize("lo,hi", INTERVALS)
    def test_matches_mpmath_and_certifies(self, lo, hi):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        table = LogPcfTable(self.NU, lo, hi)
        assert 0.0 <= table.max_rel_error <= TABLE_RTOL
        assert table.fit_nodes > 0
        zs = np.concatenate(([lo, hi], np.random.default_rng(5).uniform(lo, hi, 8)))
        for z, got in zip(zs, table(zs)):
            want = float(mp.log(mp.pcfd(self.NU, z)))
            assert math.expm1(got - want) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("lo,hi", INTERVALS)
    def test_recurrence(self, lo, hi):
        # DLMF 12.8.1: D_{nu+1}(z) - z D_nu(z) + nu D_{nu-1}(z) = 0, divided
        # through by D_nu(z) so both ends of the interval stay in range
        up, mid, down = (LogPcfTable(self.NU + k, lo, hi) for k in (1, 0, -1))
        zs = np.concatenate(([lo, hi], np.linspace(lo, hi, 41)))
        r_up = np.exp(up(zs) - mid(zs))
        r_down = self.NU * np.exp(down(zs) - mid(zs))
        defect = r_up - zs + r_down
        scale = np.abs(r_up) + np.abs(zs) + np.abs(r_down)
        assert np.max(np.abs(defect) / scale) <= 1e-10

    @pytest.mark.parametrize("lo,hi", [(-2.066666666666667, 671.2666666666667),
                                       (-671.2666666666667, 2.066666666666667)])
    def test_far_out_certifies_to_rounding(self, lo, hi):
        # the deep grid of solve_wq at the reference model with x_min = -100:
        # log D reaches 1.1e5 in size, and its rounding error, about
        # 2 eps |log D|, is above TABLE_RTOL at the far end
        table = LogPcfTable(self.NU - 0.1, lo, hi)
        far = max(-lo, hi)
        floor = weber._ROUND_ULPS * np.finfo(float).eps * 0.25 * far * far
        assert TABLE_RTOL < table.max_rel_error <= 10.0 * floor
        zs = np.linspace(lo, hi, 37)
        tol = np.maximum(TABLE_RTOL / 10.0, floor)
        err = np.expm1(table(zs) - log_pcf_d_batch(self.NU - 0.1, zs, tol))
        assert np.max(np.abs(err)) <= 10.0 * tol

    def test_fits_below_the_default_quadrature_tolerance(self):
        # at nu = -1.1 direct quadrature at TOL_PCF is only good to about
        # 2e-11; the table is fitted from values to TABLE_RTOL / 10
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        table = LogPcfTable(-1.1, 0.2, 21.2)
        assert table.max_rel_error <= TABLE_RTOL
        for z in (0.2, 3.7, 10.9, 21.2):
            want = float(mp.log(mp.pcfd(-1.1, z)))
            assert abs(math.expm1(float(table(z)) - want)) <= TABLE_RTOL

    def test_outside_interval_raises(self):
        table = LogPcfTable(self.NU, -1.0, 3.0)
        assert np.isfinite(table(np.array([-1.0, 3.0]))).all()
        for bad in (-1.0 - 1e-12, 3.0 + 1e-12, math.nan):
            with pytest.raises(AccuracyError):
                table(np.array([0.0, bad]))
        with pytest.raises(ValueError):
            LogPcfTable(self.NU, 3.0, -1.0)

    def test_noisy_quadrature_is_not_fitted(self, monkeypatch):
        # 1e-9 relative noise never lets the trailing coefficients settle
        direct = weber.log_pcf_d_batch
        monkeypatch.setattr(
            weber, "log_pcf_d_batch",
            lambda nu, z, rtol: direct(nu, z, rtol)
            + 1e-9 * np.sin(1e3 * np.asarray(z)))
        with pytest.raises(AccuracyError):
            LogPcfTable(self.NU, -1.0, 3.0)

    def test_error_hidden_from_the_fit_nodes_is_caught(self, monkeypatch):
        # [-1, 3] is fitted by one piece. A perturbation by T_n, n the
        # number of fit points, vanishes at every fit node, so the
        # coefficients and their tail are those of the true function; only
        # the off-node check sees it, and construction must refuse the fit.
        n = weber._CHEB_N
        direct = weber.log_pcf_d_batch

        def aliased(nu, z, rtol):
            t = (2.0 * np.asarray(z) - 2.0) / 4.0
            return direct(nu, z, rtol) \
                + 1e-9 * np.cos(n * np.arccos(np.clip(t, -1, 1)))

        assert LogPcfTable(self.NU, -1.0, 3.0).max_rel_error <= TABLE_RTOL
        monkeypatch.setattr(weber, "log_pcf_d_batch", aliased)
        with pytest.raises(AccuracyError, match="off its nodes"):
            LogPcfTable(self.NU, -1.0, 3.0)
