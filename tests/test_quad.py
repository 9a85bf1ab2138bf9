"""Quadrature and finite-difference helpers."""

import math

import numpy as np
import pytest

from passagelab.errors import AccuracyError
from passagelab.quad import composite_gl, fd_derivative


class TestCompositeGl:
    def test_polynomial_is_exact(self):
        val = composite_gl(lambda x: 3.0 * x ** 2, 0.0, 2.0)
        assert val == pytest.approx(8.0, rel=1e-14)

    def test_gaussian_integral(self):
        val = composite_gl(lambda x: np.exp(-x * x / 2.0), -8.0, 8.0)
        assert val == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_empty_interval(self):
        assert composite_gl(np.cos, 1.0, 1.0) == 0.0
        assert composite_gl(np.cos, 2.0, 1.0) == 0.0

    def test_reports_nonconvergence(self):
        # a needle far too thin for the panel budget
        needle = lambda x: np.exp(-1e8 * (x - 0.3) ** 2)
        with pytest.raises(AccuracyError):
            composite_gl(needle, 0.0, 1.0, rtol=1e-12, max_panels=4)

    def test_oscillatory(self):
        val = composite_gl(lambda x: np.sin(40.0 * x), 0.0, 1.0)
        assert val == pytest.approx((1.0 - math.cos(40.0)) / 40.0, rel=1e-10)


class TestFdDerivative:
    @pytest.mark.parametrize("order,want", [(1, 1.0), (2, 1.0), (3, 1.0)])
    def test_central_orders_on_exp(self, order, want):
        got = fd_derivative(math.exp, 0.0, order=order, h=1e-2)
        assert got == pytest.approx(want, abs=1e-7)

    def test_one_sided_orders(self):
        f = lambda x: math.sin(2.0 * x)
        d1 = fd_derivative(f, 0.5, order=1, h=1e-3, side="left")
        d2 = fd_derivative(f, 0.5, order=2, h=1e-3, side="left")
        assert d1 == pytest.approx(2.0 * math.cos(1.0), rel=1e-8)
        assert d2 == pytest.approx(-4.0 * math.sin(1.0), rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fd_derivative(math.exp, 0.0, order=4)
        with pytest.raises(ValueError):
            fd_derivative(math.exp, 0.0, order=3, side="left")
        with pytest.raises(ValueError):
            fd_derivative(math.exp, 0.0, side="right")

    def test_cubic_third_derivative_is_exact(self):
        f = lambda x: x ** 3 - 2.0 * x
        assert fd_derivative(f, 0.7, order=3, h=0.1) == pytest.approx(6.0,
                                                                      rel=1e-12)
