"""Loss descriptors and rate bookkeeping."""

import numpy as np
import pytest

from minimaxlb.loss import LossSpec, RatePower, eval_rho, omega


class TestLossSpec:
    def test_mse(self):
        loss = LossSpec.mse()
        assert loss.kind == "power"
        assert loss.t == 2.0
        assert loss.convex and loss.symmetric
        assert loss.describe() == "mse"
        assert eval_rho(loss, -3.0) == 9.0

    def test_power_general(self):
        loss = LossSpec.power(1.5)
        assert loss.describe() == "power:1.5"
        assert abs(eval_rho(loss, 4.0) - 8.0) < 1e-12

    def test_mae_naming_and_convexity(self):
        assert LossSpec.power(1.0).describe() == "mae"
        assert LossSpec.power(1.0).convex
        assert not LossSpec.power(0.5).convex

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            LossSpec.power(0.0)
        with pytest.raises(ValueError):
            LossSpec.power(-1.0)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_power_requires_finite_exponent(self, t):
        # power:inf used to give a loss with value inf and rate n^inf
        with pytest.raises(ValueError, match="finite exponent"):
            LossSpec.power(t)

    def test_omega_power(self):
        assert omega(LossSpec.power(3.0), -2.0) == 8.0
        assert omega(LossSpec.mse(), 1.5) == 2.25

    @pytest.mark.parametrize("t", [1.0, 2.0, 2.7])
    def test_omega_array_equals_its_scalar_calls(self, t):
        # a local scan ranks its grid with the same bits as the value it
        # reports at the argmax
        s = np.random.default_rng(7).uniform(0.1, 5.0, 2000)
        loss = LossSpec.power(t)
        scalars = np.array([omega(loss, float(x)) for x in s])
        assert np.array_equal(omega(loss, s), scalars)
        assert np.array_equal(omega(loss, -s), scalars)

    def test_custom_loss(self):
        loss = LossSpec.custom(lambda e: abs(e) ** 3, convex=True,
                               symmetric=True)
        assert loss.describe() == "custom"
        assert eval_rho(loss, 2.0) == 8.0
        with pytest.raises(ValueError):
            omega(loss, 1.0)

    def test_custom_loss_with_omega(self):
        loss = LossSpec.custom(lambda e: abs(e), convex=True, symmetric=True,
                               omega=lambda s: abs(s))
        assert omega(loss, -2.0) == 2.0


class TestRatePower:
    def test_render(self):
        assert RatePower(0.5, 1.0, "n").render() == "n^1"
        assert RatePower(1.0, 2.0, "T").render() == "T^2"

    def test_with_power_loss(self):
        base = RatePower(0.5, 0.5, "n")
        lifted = base.with_power_loss(3.0)
        assert lifted.zeta_exponent == 1.5
        assert lifted.xi_exponent == 0.5
        assert lifted.variable == "n"

    def test_validation(self):
        with pytest.raises(ValueError):
            RatePower(0.0, 1.0, "n")
        with pytest.raises(ValueError):
            RatePower(1.0, -1.0, "n")
        with pytest.raises(ValueError):
            RatePower(1.0, 1.0, "m")
