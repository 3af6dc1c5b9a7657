"""Bound engines against independent reference values."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import minimaxlb as mx
from minimaxlb import bounds, catalog, cli, models, numerics
from minimaxlb.loss import LossSpec
from minimaxlb.numerics import gaussian_tail, maximize_simplex, maximize_zoom


# four scalar maps, two identities and two negations: with k of them on the
# first point the prior weight alpha = k/4 takes the values 1/4, 1/2, 3/4
_QUAD = mx.TransformSet(tuple(np.array([[x]])
                              for x in (1.0, 1.0, -1.0, -1.0)))


class TestTwoPoint:
    def test_exp_rate_pair(self, exp_rate):
        rep = mx.two_point_bound(exp_rate, LossSpec.mse(), 1.0, 2.0)
        assert abs(rep.value - oracles.FROZEN["exp_rate_two_point"]) < 1e-9
        assert abs(rep.argmax["q"]
                   - oracles.FROZEN["exp_rate_argmax_q"]) < 1e-5

    def test_gauss_finite_sample(self, gauss):
        # n observations at spacing 0.24: the tail argument is 1.2
        rep = mx.two_point_bound(gauss, LossSpec.mse(), 0.0, 0.24, n=100)
        expect = 2.0 * 0.12 ** 2 * oracles.FROZEN["q_1p2"]
        assert abs(rep.value - expect) < 1e-6
        assert abs(rep.argmax["q"] - 0.5) < 1e-4

    def test_coincident_points_give_zero(self, gauss):
        rep = mx.two_point_bound(gauss, LossSpec.mse(), 1.0, 1.0)
        assert rep.value == 0.0

    @pytest.mark.parametrize("theta0,theta1,n", [
        (1.0, 1.5, 3), (1.0, 2.0, 1), (2.0, 2.1, 40), (1.0, 1.5, 40),
        (1.0, 3.2, 40)])
    def test_uniform_scale_reaches_the_kink(self, uniform_scale, theta0,
                                            theta1, n):
        # pe = min{q, (1-q)A} with A = (theta0/theta1)^n peaks at the kink
        # q = A/(1+A); a search over q stopped up to 1.7e-11 short of it.
        # At A = 6e-21 the split's u = 1/(1+A) rounds to 1, and q = 1 - u
        # alone would give 0.
        rep = mx.two_point_bound(uniform_scale, LossSpec.mse(), theta0, theta1,
                                 n)
        ratio = (theta0 / theta1) ** n
        expect = 2.0 * ((theta1 - theta0) / 2.0) ** 2 * ratio / (1.0 + ratio)
        assert abs(rep.value - expect) <= 1e-14 * expect
        assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("model_id,theta0,theta1,n", [
        ("exp-rate", 1.0, 2.0, 1), ("uniform-scale", 1.0, 1.5, 3),
        ("gauss-location", 0.0, 0.24, 100)])
    def test_prior_search_scores_each_candidate_once(self, model_id, theta0,
                                                     theta1, n):
        # the split's prior and its two neighbours are scored once each; the
        # value reported is the one scored, not a fourth evaluation
        model = models.get_model(model_id)
        calls = []

        def pe(*args):
            calls.append(args)
            return model.oracle.pe(*args)

        counted = dataclasses.replace(model, oracle=dataclasses.replace(
            model.oracle, pe=pe))
        rep = mx.two_point_bound(counted, LossSpec.mse(), theta0, theta1, n)
        assert len(calls) == 3
        assert rep.value == mx.two_point_bound(model, LossSpec.mse(), theta0,
                                               theta1, n).value
        assert rep.reevaluate() == rep.value
        calls.clear()
        rep = mx.transform_two_point_bound(
            counted, LossSpec.mse(), mx.TransformSet.sign_pair(), theta0,
            theta1, 1, n=n)
        assert len(calls) == 3
        assert rep.reevaluate() == rep.value

    def test_rejects_nonconvex_loss(self, gauss):
        crooked = LossSpec.custom(lambda e: math.sqrt(abs(e)), convex=False,
                                  symmetric=True)
        with pytest.raises(ValueError, match="concave_two_point_bound"):
            mx.two_point_bound(gauss, crooked, 0.0, 1.0)

    def test_requires_oracle(self):
        awgn = models.get_model("awgn-smooth")
        with pytest.raises(ValueError, match="exact error oracle"):
            mx.two_point_bound(awgn, LossSpec.mse(), 0.0, 1.0)


# a concave loss, an asymmetric convex one and a concave power loss: the
# bounds with a 2*rho(spacing/2)-type factor need convexity and symmetry
_NOT_CONVEX_SYMMETRIC = [
    LossSpec.custom(lambda e: math.sqrt(abs(e)), convex=False, symmetric=True,
                    omega=lambda s: np.sqrt(np.abs(s))),
    LossSpec.custom(lambda e: e * e * (2.0 if e > 0 else 1.0), convex=True,
                    symmetric=False, omega=lambda s: s * s),
    LossSpec.power(0.5),
]


@pytest.mark.parametrize("loss", _NOT_CONVEX_SYMMETRIC,
                         ids=["concave", "asymmetric", "power-0.5"])
@pytest.mark.parametrize("bound", [
    lambda m, loss: mx.local_two_point_bound(m, loss),
    lambda m, loss: mx.pairwise_ring_bound(m, loss, [0.0, 1.0, 2.0],
                                           [0.3, 0.4, 0.3]),
    lambda m, loss: mx.pairwise_allpairs_bound(m, loss, [0.0, 1.0, 2.0],
                                               [0.3, 0.4, 0.3]),
    lambda m, loss: mx.transform_two_point_bound(
        m, loss, mx.TransformSet.sign_pair(), 0.0, 1.0, 1),
], ids=["local-two-point", "ring", "all-pairs", "transform"])
def test_half_spacing_bounds_refuse_other_losses(gauss, bound, loss):
    with pytest.raises(ValueError, match="convex symmetric loss"):
        bound(gauss, loss)


class TestConcaveTwoPoint:
    def test_uniform_scale_pair(self, uniform_scale):
        rep = mx.concave_two_point_bound(uniform_scale, LossSpec.mse(),
                                         1.0, 2.0)
        assert abs(rep.value - 1.0 / 3.0) < 1e-9
        assert abs(rep.argmax["q"] - 1.0 / 3.0) < 1e-5

    def test_accepts_concave_loss(self, uniform_scale):
        root = LossSpec.custom(lambda e: math.sqrt(abs(e)), convex=False,
                               symmetric=True)
        rep = mx.concave_two_point_bound(uniform_scale, root, 1.0, 2.0)
        assert rep.value > 0.0


class TestLocalTwoPoint:
    def test_gauss_mse(self, local_gauss_mse):
        rep = local_gauss_mse
        assert abs(rep.value - oracles.FROZEN["gauss_local_mse"]) < 1e-8
        assert abs(rep.argmax["s"]
                   - oracles.FROZEN["gauss_local_mse_arg"]) < 1e-4
        assert rep.rate.render() == "n^1"

    def test_gauss_mae(self, gauss):
        rep = mx.local_two_point_bound(gauss, LossSpec.power(1.0))
        assert abs(rep.value - oracles.FROZEN["gauss_local_mae"]) < 1e-8
        assert abs(rep.argmax["s"]
                   - oracles.FROZEN["gauss_local_mae_arg"]) < 1e-4

    def test_uniform_scale_mse(self, local_uniform_mse):
        rep = local_uniform_mse
        assert abs(rep.value
                   - oracles.FROZEN["uniform_scale_local_mse"]) < 1e-8
        assert abs(rep.argmax["s"]
                   - oracles.FROZEN["uniform_scale_local_mse_arg_s"]) < 1e-4
        assert rep.rate.render() == "n^2"

    def test_uniform_scale_half_prior(self, uniform_scale):
        rep = mx.local_two_point_bound(uniform_scale, LossSpec.mse(),
                                       half_prior=True)
        assert abs(rep.value
                   - oracles.FROZEN["uniform_scale_local_mse_half"]) < 1e-8
        assert any("1/2" in note for note in rep.notes)

    @pytest.mark.parametrize("t,key", [(1.0, "uniform_location_t1"),
                                       (2.0, "uniform_location_t2"),
                                       (3.0, "uniform_location_t3")])
    def test_uniform_location_power_family(self, uniform_location, t, key):
        rep = mx.local_two_point_bound(uniform_location, LossSpec.power(t))
        assert abs(rep.value - oracles.FROZEN[key]) < 1e-8

    def test_awgn_smooth(self):
        rep = mx.local_two_point_bound(models.get_model("awgn-smooth"),
                                       LossSpec.mse())
        assert abs(rep.value - oracles.FROZEN["awgn_smooth_mse"]) < 1e-8
        assert rep.rate.render() == "T^1"

    def test_awgn_rect(self):
        rep = mx.local_two_point_bound(models.get_model("awgn-rect"),
                                       LossSpec.mse())
        assert abs(rep.value - oracles.FROZEN["awgn_rect_mse"]) < 1e-8
        assert abs(rep.argmax["s"]
                   - oracles.FROZEN["awgn_rect_mse_arg_s"]) < 1e-4
        assert rep.rate.render() == "T^2"

    def test_exp_family_matches_gauss(self, local_gauss_mse):
        rep = mx.local_two_point_bound(models.get_model("exp-family"),
                                       LossSpec.mse())
        assert abs(rep.value - local_gauss_mse.value) < 1e-6

    def test_requires_limit(self, exp_rate):
        with pytest.raises(ValueError, match="local error limit"):
            mx.local_two_point_bound(exp_rate, LossSpec.mse())

    @pytest.mark.parametrize("model_id", ["gauss-location", "uniform-scale"])
    def test_custom_omega_matches_the_power_loss(self, model_id):
        model = models.get_model(model_id)
        cube = LossSpec.custom(lambda e: abs(e) ** 3, convex=True,
                               symmetric=True, omega=lambda s: np.abs(s) ** 3)
        rep = mx.local_two_point_bound(model, cube)
        power = mx.local_two_point_bound(model, LossSpec.power(3.0))
        assert rep.value == power.value
        assert rep.argmax == power.argmax
        assert rep.reevaluate() == rep.value

    def test_custom_loss_needs_weight_function(self, gauss):
        crooked = LossSpec.custom(lambda e: e * e, convex=True,
                                  symmetric=True)
        with pytest.raises(ValueError, match="omega"):
            mx.local_two_point_bound(gauss, crooked)


class TestMomentTwoPoint:
    def test_uniform_scale_quadratic(self, moment_uniform_t2):
        rep = moment_uniform_t2
        assert abs(rep.value - oracles.FROZEN["moment_uniform_t2"]) < 1e-7
        assert abs(rep.argmax["delta"]
                   - oracles.FROZEN["moment_uniform_t2_arg_delta"]) < 1e-3
        assert rep.rate.render() == "n^2"

    def test_uniform_scale_first_power(self, moment_uniform_t1):
        rep = moment_uniform_t1
        assert abs(rep.value - oracles.FROZEN["moment_uniform_t1"]) < 1e-7
        # the stationary spacing exceeds the value by exactly one
        assert abs(rep.argmax["delta"]
                   - oracles.FROZEN["moment_uniform_t1_arg"]) < 1e-3

    def test_uniform_scale_third_power(self, uniform_scale):
        rep = mx.moment_two_point_bound(uniform_scale, 3.0)
        assert abs(rep.value - oracles.FROZEN["moment_uniform_t3"]) < 1e-7

    @pytest.mark.parametrize("model_id", ["gauss-location", "uniform-scale",
                                          "uniform-location", "awgn-smooth",
                                          "awgn-rect", "exp-family"])
    def test_half_split_reduces_to_local(self, model_id):
        # pinning the mass split at 1/2 with t = 2 is the plain local bound
        model = models.get_model(model_id)
        pinned = mx.moment_two_point_bound(model, 2.0, r_fixed=0.5)
        local = mx.local_two_point_bound(model, LossSpec.mse())
        assert abs(pinned.value - local.value) <= 1e-9 * max(local.value, 1.0)

    @pytest.mark.parametrize("r", [1.5, -0.5, float("nan"), float("inf")])
    def test_split_outside_the_unit_interval_is_refused(self, gauss, r):
        with pytest.raises(ValueError, match=r"r must lie in \[0, 1\]"):
            mx.moment_two_point_bound(gauss, 2.0, r_fixed=r)

    def test_finite_sample_mode(self, gauss):
        rep = mx.moment_two_point_bound(gauss, 2.0, n=100, theta0=0.0)
        assert rep.value > 0.0
        assert rep.rate is None

    def test_rejects_small_exponent(self, uniform_scale):
        with pytest.raises(ValueError):
            mx.moment_two_point_bound(uniform_scale, 0.5)


class TestThreePoint:
    def test_gauss_pinned_pair_priors(self, three_point_gauss_half):
        rep = three_point_gauss_half
        assert abs(rep.value - oracles.FROZEN["gauss_three_point_half"]) < 1e-8
        assert rep.rate.render() == "n^1"
        # the two factors of the product form
        s = rep.argmax["delta"] / 2.0
        pair_factor = 4.0 * s * s * gaussian_tail(s)
        assert abs(pair_factor - oracles.FROZEN["sup_4s2_qtail"]) < 1e-4
        assert abs(rep.value / pair_factor
                   - oracles.FROZEN["simplex_pair_weight_max"]) < 1e-4

    def test_uniform_free_pair_priors(self, three_point_uniform_free):
        rep = three_point_uniform_free
        assert abs(rep.value
                   - oracles.FROZEN["uniform_three_point_free"]) < 1e-9
        assert rep.rate.render() == "n^2"

    def test_free_dominates_pinned_on_uniform(self, three_point_uniform_free,
                                              uniform_scale):
        pinned = mx.three_point_bound(uniform_scale, inner_prior="half")
        assert three_point_uniform_free.value >= pinned.value - 1e-12

    def test_third_weight_pinned_to_zero(self, gauss, three_point_gauss_half):
        rep = mx.three_point_bound(gauss, inner_prior="half", w_zero=True)
        assert rep.argmax["w"] == 0.0
        assert rep.value <= three_point_gauss_half.value + 1e-12
        assert any("pinned to 0" in note for note in rep.notes)

    def test_finite_sample_free_pair_priors(self, gauss):
        kw = dict(s_domain=(0.1, 0.6), n=50, theta0=0.0)
        free = mx.three_point_bound(gauss, **kw)
        half = mx.three_point_bound(gauss, inner_prior="half", **kw)
        assert free.value >= half.value - 1e-12
        assert free.reevaluate() == free.value
        assert 0.0 <= free.argmax["u"] <= 1.0 and 0.0 <= free.argmax["v"] <= 1.0
        assert free.rate is None

    def test_finite_sample_min_form_reaches_the_supremum(self, uniform_scale):
        # with w = 0 the pair 25 - delta, 25 has G(x, y) = min{x, alpha y},
        # alpha = 1 - delta/25, so the bound is the sup over delta of
        # delta^2 alpha / (1 + sqrt(alpha))^2.  With s = sqrt(alpha) that is
        # 625 s^2 (1 - s)^2, whose maximum 625/16 sits at s = 1/2.  A search
        # that ranked the rows by coarse splits left it 2e-7 short.
        rep = mx.three_point_bound(uniform_scale, s_domain=(0, 20), n=1,
                                   theta0=25.0, w_zero=True)
        assert abs(rep.value - 625.0 / 16.0) <= 1e-12 * 625.0 / 16.0
        assert rep.reevaluate() == rep.value

    def test_rejects_unknown_prior_mode(self, gauss):
        with pytest.raises(ValueError):
            mx.three_point_bound(gauss, inner_prior="optimal")


class TestThreePointExactUniform:
    def test_value_and_argmax(self, three_point_exact):
        rep = three_point_exact
        assert abs(rep.value
                   - oracles.FROZEN["uniform_three_point_exact"]) < 1e-8
        assert abs(rep.argmax["s"]
                   - oracles.FROZEN["uniform_three_point_exact_arg_s"]) < 1e-3

    def test_quadratic_in_scale_origin(self, three_point_exact):
        doubled = mx.three_point_exact_uniform(theta0=2.0)
        assert abs(doubled.value - 4.0 * three_point_exact.value) < 1e-6

    def test_rejects_nonpositive_origin(self):
        with pytest.raises(ValueError):
            mx.three_point_exact_uniform(theta0=0.0)

    @pytest.mark.parametrize("theta0", [1e200, 10 ** 200, np.float64(1e200)],
                             ids=["float", "int", "numpy"])
    def test_overflow_is_a_numerical_failure(self, theta0):
        # theta0 ** 2 used to raise a bare OverflowError
        with pytest.raises(ArithmeticError,
                           match="three-point-exact value is not finite"):
            mx.three_point_exact_uniform(theta0=theta0)


class TestTransformSet:
    def test_sign_pair(self):
        ts = mx.TransformSet.sign_pair()
        assert ts.m == 2 and ts.dim == 1

    def test_rotations(self):
        ts = mx.TransformSet.rotations(3)
        assert ts.m == 3 and ts.dim == 2
        v = np.array([1.0, 0.0])
        total = sum(ts.apply(i, v)[0] for i in range(3))
        assert abs(total) < 1e-12

    def test_rejects_non_vanishing_sum(self):
        eye = np.eye(2)
        with pytest.raises(ValueError):
            bounds.TransformSet((eye, eye))

    def test_rejects_single_transform(self):
        with pytest.raises(ValueError):
            bounds.TransformSet((np.eye(2),))

    def test_partial_sum(self):
        ts = mx.TransformSet.rotations(3)
        v = np.array([1.0, 0.0])
        first = ts.partial_sum(1, v)
        assert np.allclose(first, v)


class TestTransformTwoPoint:
    def test_sign_pair_reduces_to_two_point(self, gauss):
        ts = mx.TransformSet.sign_pair()
        viatf = mx.transform_two_point_bound(gauss, LossSpec.mse(), ts,
                                             0.3, 0.8, 1, n=4)
        direct = mx.two_point_bound(gauss, LossSpec.mse(), 0.3, 0.8, n=4)
        assert abs(viatf.value - direct.value) < 1e-9

    def test_three_rotations_plane_gauss(self, gauss):
        ts = mx.TransformSet.rotations(3)
        rep = mx.transform_two_point_bound(
            gauss, LossSpec.mse(), ts,
            np.array([0.0, 0.0]), np.array([0.1, 0.0]), 1)
        assert abs(rep.value - oracles.FROZEN["transform_m3_gauss_d01"]) < 1e-12
        assert abs(rep.argmax["q"]
                   - oracles.FROZEN["transform_m3_gauss_d01_arg_q"]) < 1e-4
        assert any("alpha" in note for note in rep.notes)

    def test_three_rotations_without_a_split(self, gauss):
        # the searched prior runs over the masses, not over the coordinates
        # of the vector test points
        bare = dataclasses.replace(
            gauss, oracle=models.BinaryErrorOracle(gauss.oracle.pe))
        args = (LossSpec.mse(), mx.TransformSet.rotations(3),
                np.array([0.0, 0.0]), np.array([0.1, 0.0]), 1)
        assert mx.transform_two_point_bound(bare, *args).value == \
            pytest.approx(mx.transform_two_point_bound(gauss, *args).value,
                          rel=1e-12)

    def test_three_rotations_matches_prior_scan(self, gauss):
        # independent recomputation of the same objective over the prior
        ts = mx.TransformSet.rotations(3)
        rho = (0.1 / 3.0) ** 2

        def objective(q):
            pe = oracles.gauss_pe(q, 0.1)
            return rho * pe / ((2.0 - q) / 3.0)

        _, ref = oracles.brute_max_1d(objective, 1e-6, 1 - 1e-6)
        rep = mx.transform_two_point_bound(
            gauss, LossSpec.mse(), ts,
            np.array([0.0, 0.0]), np.array([0.1, 0.0]), 1)
        assert abs(rep.value - ref) < 1e-10

    @pytest.mark.parametrize("model_id,theta0,theta1,n", [
        ("exp-rate", 1.0, 2.0, 1), ("gauss-location", 0.0, 0.3, 5),
        ("uniform-scale", 1.0, 1.5, 3), ("uniform-location", 0.0, 0.4, 2)])
    def test_split_prior_tops_a_scan(self, model_id, theta0, theta1, n):
        # k of m maps on theta0 weight the prior by alpha = k/m; the pair
        # split's prior must do at least as well as a fine scan over q
        model = models.get_model(model_id)
        grid = np.linspace(0.0, 1.0, 4097)
        for ts, k in ((mx.TransformSet.sign_pair(), 1), (_QUAD, 1), (_QUAD, 2),
                      (_QUAD, 3)):
            rep = mx.transform_two_point_bound(model, LossSpec.mse(), ts,
                                               theta0, theta1, k, n=n)
            scan = max(rep.objective(float(q)) for q in grid)
            assert rep.value >= scan * (1.0 - 1e-11), (ts.m, k)
            assert rep.reevaluate() == rep.value

    def test_degenerate_priors_give_zero(self, gauss):
        ts = mx.TransformSet.sign_pair()
        for q in (0.0, 1.0):
            rep = mx.transform_two_point_bound(gauss, LossSpec.mse(), ts,
                                               0.0, 1.0, 1, q=q)
            assert rep.value == 0.0

    def test_validates_split_index(self, gauss):
        ts = mx.TransformSet.rotations(3)
        for k in (0, 4):
            with pytest.raises(ValueError):
                mx.transform_two_point_bound(
                    gauss, LossSpec.mse(), ts,
                    np.array([0.0, 0.0]), np.array([0.1, 0.0]), k)


class TestTransformListError:
    def test_hand_value(self):
        ts = mx.TransformSet.sign_pair()
        rep = mx.transform_list_error_bound(
            LossSpec.mse(), ts, [np.array([0.5]), np.array([-0.5])], 0.1)
        assert abs(rep.value - 2.0 * 0.25 * 0.1) < 1e-12

    def test_validates_list_error(self):
        ts = mx.TransformSet.sign_pair()
        with pytest.raises(ValueError):
            mx.transform_list_error_bound(
                LossSpec.mse(), ts, [np.array([0.5]), np.array([-0.5])], 1.5)

    def test_validates_point_count(self):
        ts = mx.TransformSet.sign_pair()
        with pytest.raises(ValueError):
            mx.transform_list_error_bound(LossSpec.mse(), ts,
                                          [np.array([0.5])], 0.1)


class TestRotationNuisance:
    def test_wedge_at_zero(self):
        assert abs(mx.rotation_wedge_integral(0.0) - 1.0 / 3.0) < 1e-9

    def test_wedge_against_scipy(self):
        for s in (0.5, 1.0, 2.0):
            assert abs(mx.rotation_wedge_integral(s)
                       - oracles.wedge_integral_quad(s)) < 1e-8

    def test_wedge_decreasing(self):
        vals = [mx.rotation_wedge_integral(s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_wedge_rejects_negative(self):
        with pytest.raises(ValueError):
            mx.rotation_wedge_integral(-0.1)

    @pytest.mark.parametrize("s", [math.nan, [0.5, math.nan], [1.0, -0.1]],
                             ids=["nan", "array-nan", "array-negative"])
    def test_wedge_rejects_nan_and_negative_arrays(self, s):
        with pytest.raises(ValueError, match="nonnegative"):
            mx.rotation_wedge_integral(np.asarray(s) if isinstance(s, list)
                                       else s)

    def test_wedge_array_calls_are_scalar_calls(self):
        s = np.concatenate([np.linspace(0.0, 6.0, 513), [1e-300, 8.0, 40.0]])
        got = mx.rotation_wedge_integral(s)
        assert got.shape == s.shape
        assert np.array_equal(got, [mx.rotation_wedge_integral(float(x))
                                    for x in s])
        assert isinstance(mx.rotation_wedge_integral(1.0), float)

    @pytest.mark.parametrize("s", [0.25, 1.0887875, 2.0, 5.5])
    def test_hook_geometry_is_three_s_squared(self, s):
        # the test points R_i^T (-s, 0) of the three rotations: the list-error
        # hook's geometry factor, at list error 1, is the engine's 3 s^2
        rotations = mx.TransformSet.rotations(3)
        points = [t.T @ np.array([-s, 0.0]) for t in rotations.transforms]
        rep = mx.transform_list_error_bound(LossSpec.mse(), rotations,
                                            points, 1.0)
        assert abs(rep.value - 3.0 * s * s) <= 1e-14 * 3.0 * s * s

    def test_bound_value(self, nuisance_report):
        rep = nuisance_report
        assert abs(rep.value - oracles.FROZEN["rotation_nuisance"]) < 1e-6
        assert abs(rep.argmax["s"]
                   - oracles.FROZEN["rotation_nuisance_arg_s"]) < 1e-3
        assert rep.rate.render() == "n^1"

    def test_below_single_coordinate_bound(self, nuisance_report,
                                           local_gauss_mse):
        # knowing the rotation angle can only help the estimator
        assert nuisance_report.value < local_gauss_mse.value

    def test_noise_scale(self, nuisance_report):
        scaled = mx.rotation_nuisance_bound(sigma=2.0)
        assert abs(scaled.value - 4.0 * nuisance_report.value) < 1e-9

    def test_wedge_exact_at_zero(self):
        assert mx.rotation_wedge_integral(0.0) == 1.0 / 3.0

    @pytest.mark.parametrize("s", np.linspace(0.0, 6.0, 13))
    def test_wedge_against_mpmath(self, s):
        # absolute on the default s domain, relative where the bound peaks
        got = mx.rotation_wedge_integral(float(s))
        ref = oracles.wedge_integral_mpmath(float(s))
        assert abs(got - ref) <= 1e-16
        if s <= 2.0:
            assert abs(got - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("s", [8.0, 12.0])
    def test_wedge_far_tail_against_mpmath(self, s):
        got = mx.rotation_wedge_integral(s)
        assert abs(got - oracles.wedge_integral_mpmath(s)) <= 1e-26

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_value_is_the_objective_at_the_argmax(self, sigma):
        # the three rotated points have centroid (-s, 0), so the objective is
        # 3 sigma^2 s^2 I(s); the reported value must be that at the argmax
        rep = mx.rotation_nuisance_bound(sigma=sigma)
        s = rep.argmax["s"]
        expect = 3.0 * sigma ** 2 * s * s * oracles.wedge_integral_mpmath(s)
        assert abs(rep.value - expect) <= 1e-14 * expect

    def test_no_engine_path_reaches_quadrature(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature was called")

        monkeypatch.setattr(numerics, "integrate_adaptive", refuse)
        monkeypatch.setattr(numerics, "integrate_semi_infinite", refuse)
        monkeypatch.setattr(bounds, "integrate_semi_infinite", refuse)
        rep = mx.rotation_nuisance_bound()
        assert rep.value > 0.0
        rc = cli.main(["compute", "--model", "nuisance-rotation",
                       "--bound", "nuisance-rotation"])
        assert rc == 0
        assert "value   0.2514" in capsys.readouterr().out


class TestPairwiseSums:
    WEIGHTS = (0.2, 0.5, 0.3)
    THETAS = (0.0, 1.0, 2.0)

    def _reference_m3(self):
        # hand evaluation with the independent tail: all three pairs once
        total = 0.0
        pts, wts = self.THETAS, self.WEIGHTS
        for i in range(3):
            j = (i + 1) % 3
            sep = abs(pts[j] - pts[i])
            mass = wts[i] + wts[j]
            if pts[i] <= pts[j]:
                pe = oracles.gauss_pe(wts[i] / mass, sep)
            else:
                pe = oracles.gauss_pe(1.0 - wts[i] / mass, sep)
            total += (sep / 2.0) ** 2 * mass * pe
        return total

    def test_ring_m3_hand_value(self, gauss):
        rep = mx.pairwise_ring_bound(gauss, LossSpec.mse(),
                                     list(self.THETAS), list(self.WEIGHTS))
        assert abs(rep.value - self._reference_m3()) < 1e-10
        assert abs(rep.value - oracles.FROZEN["ring_m3_gauss"]) < 1e-9

    def test_ring_equals_allpairs_at_three_points(self, gauss):
        ring = mx.pairwise_ring_bound(gauss, LossSpec.mse(),
                                      list(self.THETAS), list(self.WEIGHTS))
        allp = mx.pairwise_allpairs_bound(gauss, LossSpec.mse(),
                                          list(self.THETAS),
                                          list(self.WEIGHTS))
        assert abs(ring.value - allp.value) < 1e-12

    def test_two_point_ring_doubles_the_pair(self, gauss):
        rep = mx.pairwise_ring_bound(gauss, LossSpec.mse(), [0.0, 1.0],
                                     [0.5, 0.5])
        expect = 2.0 * 0.25 * oracles.FROZEN["q_half"]
        assert abs(rep.value - expect) < 1e-12

    def test_coincident_points_give_zero(self, gauss):
        rep = mx.pairwise_ring_bound(gauss, LossSpec.mse(), [1.0, 1.0],
                                     [0.5, 0.5])
        assert rep.value == 0.0

    def test_weight_validation(self, gauss):
        with pytest.raises(ValueError, match="one weight per test point"):
            mx.pairwise_ring_bound(gauss, LossSpec.mse(), [0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            mx.pairwise_ring_bound(gauss, LossSpec.mse(), [0.0, 1.0],
                                   [0.9, 0.3])
        with pytest.raises(ValueError):
            mx.pairwise_allpairs_bound(gauss, LossSpec.mse(), [0.0, 1.0],
                                       [1.2, -0.2])

    def test_single_point_rejected(self, gauss):
        with pytest.raises(ValueError):
            mx.pairwise_ring_bound(gauss, LossSpec.mse(), [0.0], [1.0])


# min{c, (1-c) e^-0.7}, the uniform-scale pair error at spacing 0.7: a kink
# at its maximizer c* = e^-0.7 / (1 + e^-0.7), where the value is c* too
KINK_ARG = math.exp(-0.7) / (1.0 + math.exp(-0.7))


def _kink(c):
    return np.minimum(c, (1.0 - c) * math.exp(-0.7))


class TestInnerSearches:
    @pytest.mark.parametrize("fvec, arg, value", [
        (lambda x: -(x - 0.3137) ** 2, 0.3137, 0.0),
        (lambda x: x, 1.0, 1.0),
        (_kink, KINK_ARG, KINK_ARG),
    ], ids=["interior", "edge", "kink"])
    def test_vec_max_01(self, fvec, arg, value):
        x, val = bounds._vec_max_01(fvec)
        assert abs(x - arg) < 1e-9
        assert abs(val - value) < 1e-12
        assert val == fvec(np.array([x]))[0]

    @pytest.mark.parametrize("fvec, arg, value", [
        (lambda p: -(p[:, 0] - 0.3137) ** 2 - (p[:, 1] - 0.61) ** 2,
         (0.3137, 0.61), 0.0),
        (lambda p: p[:, 0] + p[:, 1], (1.0, 1.0), 2.0),
        (lambda p: p[:, 0] - (p[:, 1] - 0.4) ** 2, (1.0, 0.4), 1.0),
        (lambda p: np.minimum(p[:, 0], 1.0 - p[:, 0]) + _kink(p[:, 1]),
         (0.5, KINK_ARG), 0.5 + KINK_ARG),
    ], ids=["interior", "corner", "edge", "kink"])
    def test_max_box2(self, fvec, arg, value):
        (x, y), val = bounds._max_box2(fvec)
        # a quadratic peak on top of an O(1) value pins its argmax only to
        # about the square root of machine epsilon
        assert abs(x - arg[0]) < 1e-7 and abs(y - arg[1]) < 1e-7
        assert abs(val - value) < 1e-12
        assert val == fvec(np.array([[x, y]]))[0]

    def test_nan_counts_as_minus_infinity(self):
        x, val = bounds._vec_max_01(
            lambda x: np.where(x > 0.8, np.nan, x))
        assert abs(x - 0.8) < 1e-9 and abs(val - 0.8) < 1e-9


class TestPairRisk:
    @pytest.mark.parametrize("model_id", ["gauss-location", "uniform-scale"])
    def test_zero_mass_and_homogeneity(self, model_id):
        lim = models.get_model(model_id).limit

        def pe(c):
            return lim.pe_pair(1.0, 0.7, c)

        a = np.array([0.0, 0.2, 0.05, 0.6])
        b = np.array([0.0, 0.3, 0.45, 0.0])
        g = bounds._pair_risk(pe, a, b)
        assert g[0] == 0.0
        assert abs(g[1] - 0.5 * pe(0.4)) < 1e-15
        for k in (0.25, 4.0):
            assert np.array_equal(bounds._pair_risk(pe, k * a, k * b), k * g)
        assert np.allclose(bounds._pair_risk(pe, 3.0 * a, 3.0 * b), 3.0 * g,
                           rtol=1e-14, atol=0.0)
        assert bounds._pair_risk(pe, 0.0, 0.0) == 0.0


_LIMIT_IDS = ["gauss-location", "awgn-smooth", "awgn-rect", "exp-family",
              "uniform-scale", "uniform-location"]


# the single-level searches against the grid-plus-golden-section search their
# maximize_1d ran before it became a zoom: a value may rise, but not fall
# more than 1e-15 relative below it

_BATTERY_LOSSES = ["mse", "mae", "power:7.3", "power:50"]


def _assert_not_below_golden(value, objective, domain):
    golden = oracles.golden_max_1d(lambda s: float(objective(s)), *domain)[1]
    assert value >= golden - 1e-15 * abs(golden), (value, golden)


class TestSingleLevelAgainstGoldenSection:
    @pytest.mark.parametrize("half", [False, True], ids=["opt", "half"])
    @pytest.mark.parametrize("loss", _BATTERY_LOSSES)
    @pytest.mark.parametrize("model_id", _LIMIT_IDS)
    def test_local_two_point(self, model_id, loss, half):
        rep = mx.local_two_point_bound(
            models.get_model(model_id), catalog.parse_loss(loss),
            half_prior=half)
        _assert_not_below_golden(rep.value, rep.objective, (0.0, 20.0))
        assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_rotation_nuisance(self, sigma):
        rep = mx.rotation_nuisance_bound(sigma=sigma)
        _assert_not_below_golden(
            rep.value, lambda s: 3.0 * sigma ** 2 * s ** 2
            * mx.rotation_wedge_integral(s), (0.0, 6.0))
        assert rep.reevaluate() == rep.value


# prior masses (a, b): zero masses, mass ratios of 1e-12 both ways
_SPLIT_MASSES = np.array([[0.3, 0.7], [0.5, 0.5], [1.0, 1e-12], [1e-12, 1.0],
                          [0.0, 0.4], [0.4, 0.0], [0.0, 0.0], [2e-3, 0.9]])


# test points (theta0, theta1, n) of the registry oracles: both orderings
# and coincident points
_ORACLE_PAIRS = {
    "gauss-location": [(0.0, 0.3, 1), (0.3, 0.0, 4), (1.0, 1.0, 2),
                       (-1.0, 2.0, 1)],
    "uniform-scale": [(1.0, 1.3, 1), (1.3, 1.0, 3), (2.0, 2.0, 1),
                      (25.0, 45.0, 1)],
    "uniform-location": [(0.0, 0.3, 1), (0.3, 0.0, 4), (1.0, 1.0, 2),
                         (0.0, 0.99, 1)],
    "exp-rate": [(1.0, 2.0, 1), (2.0, 1.0, 1), (1.0, 1.0, 1), (0.1, 30.0, 1),
                 (5.0, 5.0001, 1)],
}


def _assert_split_maximum(pe, split):
    """split(a, b) -> (u, value) attains the maximum over u of
    G((1-u)a, u*b) on the masses _SPLIT_MASSES."""
    a, b = _SPLIT_MASSES[:, 0], _SPLIT_MASSES[:, 1]
    u, value = split(a, b)
    grid = np.linspace(0.0, 1.0, 2001)[:, None]
    on_grid = bounds._pair_risk(pe, (1.0 - grid) * a, grid * b)
    assert np.all(value >= on_grid.max(axis=0) - 1e-12)
    assert np.all(np.abs(value - bounds._pair_risk(pe, (1.0 - u) * a, u * b))
                  <= 1e-12)
    assert np.all(value[a * b == 0.0] == 0.0)
    assert np.all((u >= 0.0) & (u <= 1.0))


class TestPairSplit:
    @pytest.mark.parametrize("model_id", _LIMIT_IDS)
    @pytest.mark.parametrize("delta", [1e-9, 0.4, 2.5, 12.0])
    def test_attains_the_split_maximum(self, model_id, delta):
        lim = models.get_model(model_id).limit
        _assert_split_maximum(
            lambda c: lim.pe_pair(1.0, delta, c),
            lambda a, b: lim.pair_split(1.0, delta, a, b))

    @pytest.mark.parametrize("model_id", list(_ORACLE_PAIRS))
    def test_oracle_attains_the_split_maximum(self, model_id):
        oracle = models.get_model(model_id).oracle
        for theta0, theta1, n in _ORACLE_PAIRS[model_id]:
            _assert_split_maximum(
                lambda c: oracle.pe(c, theta0, theta1, n),
                lambda a, b: oracle.pair_split(a, b, theta0, theta1, n))

    def test_oracle_split_validates_like_the_oracle(self):
        with pytest.raises(ValueError):
            models.get_model("exp-rate").oracle.pair_split(0.5, 0.5, 1.0, 2.0, 2)
        # disjoint supports at spacing 1.5: the pair error and split are 0
        oracle = models.get_model("uniform-location").oracle
        assert oracle.pe(0.5, 0.0, 1.5, 1) == 0.0
        assert oracle.pair_split(0.5, 0.5, 0.0, 1.5, 1)[1] == 0.0
        for model_id in ("uniform-location", "uniform-scale"):
            oracle = models.get_model(model_id).oracle
            with pytest.raises(ValueError):
                oracle.pe(0.5, 1.0, 1.5, 0)
            with pytest.raises(ValueError):
                oracle.pair_split(0.5, 0.5, 1.0, 1.5, 0)

    def test_min_form_closed_form(self):
        a = np.array([0.3, 0.5])
        b = np.array([0.7, 0.1])
        for lim, A, B in [
                (models.get_model("uniform-scale").limit, 1.0,
                 math.exp(-0.8 / 2.0)),
                (models.get_model("uniform-location").limit, math.exp(-0.8),
                 math.exp(-0.8))]:
            u, value = lim.pair_split(2.0, 0.8, a, b)
            assert np.allclose(u, A * a / (A * a + B * b), rtol=1e-15, atol=0.0)
            assert np.allclose(value, A * a * B * b / (A * a + B * b),
                               rtol=1e-15, atol=0.0)
        u, value = models.binary_gaussian_split(a, b, 0.0)
        assert np.allclose(u, a / (a + b), rtol=1e-15, atol=0.0)
        assert np.allclose(value, a * b / (a + b), rtol=1e-15, atol=0.0)

    def test_gaussian_equalizes_the_error_types(self):
        # at the optimum both weighted error types are equal: a*Q(x) = b*Q(d-x)
        a = np.array([0.2, 0.6, 1e-200])
        b = np.array([0.9, 0.05, 1.0])
        d = 1.7
        u, value = models.binary_gaussian_split(a, b, d)
        threshold = d / 2.0 - np.log(u * b / ((1.0 - u) * a)) / d
        assert np.allclose(a * gaussian_tail(threshold), value, rtol=1e-12,
                           atol=0.0)
        assert np.allclose(b * gaussian_tail(d - threshold), value, rtol=1e-12,
                           atol=0.0)


def _at_spacing(delta):
    """Stand-in for the outer search of a nested bound: solve the inner
    problem at one spacing only, as a batch of one."""
    def outer(joint, domain, solve=None, simplex=None):
        if simplex:
            row = maximize_simplex(lambda rows: joint(
                np.array([[delta]]), *np.moveaxis(rows, -1, 0)),
                simplex).argmax
        else:
            row = solve(np.array([delta]))[0]
        return delta, tuple(float(c[0]) for c in row)
    return outer


def _pinned_factor(rows, a=1.0, b=1.0):
    """a*qr/(q+r) + b*rw/(r+w), 0 for a pair without mass."""
    def pinned(x, y):
        total = x + y
        return np.where(total > 0.0, x * y / np.where(total > 0.0, total, 1.0),
                        0.0)
    return (a * pinned(rows[:, 0], rows[:, 1])
            + b * pinned(rows[:, 1], rows[:, 2]))


def _pinned_simplex_max(a, b, w_zero):
    """The simplex search of the pinned factor, w held at 0 if w_zero."""
    if w_zero:
        opt = maximize_simplex(
            lambda rows: _pinned_factor(
                np.column_stack([rows, np.zeros(len(rows))]), a, b), dim=2)
        return (*opt.argmax, 0.0), opt.value
    opt = maximize_simplex(lambda rows: _pinned_factor(rows, a, b), dim=3)
    return opt.argmax, opt.value


class TestNestedInnerSolves:
    @pytest.mark.parametrize("model_id", _LIMIT_IDS)
    def test_moment_exact_q_matches_the_box_search(self, model_id, monkeypatch):
        # with r searched, the best q for each r is the limit's pair split
        model = models.get_model(model_id)
        for delta in (0.3, 1.0, 3.0):
            monkeypatch.setattr(bounds, "_nested_max", _at_spacing(delta))
            for t in (1.0, 1.5, 3.0):
                def rows_value(qr):
                    q, r = qr[:, 0], qr[:, 1]
                    return delta ** t * bounds._pair_risk(
                        lambda c: model.limit.pe_pair(1.0, delta, c),
                        (1.0 - r) ** (t - 1.0) * q, r ** (t - 1.0) * (1.0 - q))

                _, box = bounds._max_box2(rows_value)
                rep = mx.moment_two_point_bound(model, t)
                assert rep.argmax["delta"] == delta
                assert rep.value >= box * (1.0 - 1e-12), (delta, t)
                assert rep.reevaluate() == rep.value

    def test_moment_exact_q_at_the_domain_edge(self, uniform_scale):
        # the best spacing is the edge delta = 20, where G(a, b) = min{a, b/e}:
        # the best q gives A*B/(A+B) with A = (1-r)^5, B = r^5/e.  A box
        # search over (q, r) returned 593979.08 here, 1e-4 short.
        rep = mx.moment_two_point_bound(uniform_scale, 6.0, theta=20.0)
        r = np.linspace(0.0, 1.0, 200001)
        big_a, big_b = (1.0 - r) ** 5, r ** 5 / math.e
        ref = 20.0 ** 6 * float(np.max(big_a * big_b / (big_a + big_b)))
        assert rep.argmax["delta"] == 20.0
        assert rep.value >= ref * (1.0 - 1e-12)
        assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("finite", [False, True], ids=["limit", "oracle"])
    def test_a_source_without_a_split_has_it_searched(self, finite,
                                                      monkeypatch):
        # a user-built limit or oracle without pair_split: the three-point
        # engine searches each pair split row by row, the moment engine the
        # (q, r) box; both land on the exact splits' values
        model = models.get_model("uniform-scale")
        if finite:
            bare = dataclasses.replace(
                model, oracle=models.BinaryErrorOracle(model.oracle.pe))
            kw = dict(n=3, theta0=2.0)
        else:
            bare = dataclasses.replace(model, limit=dataclasses.replace(
                model.limit, pair_split=None))
            kw = {}
        searches = {"_rowwise_max_01": 0, "_max_box2": 0}
        for name in searches:
            def counted(*args, _name=name, _fn=getattr(bounds, name)):
                searches[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(bounds, name, counted)
        monkeypatch.setattr(bounds, "_nested_max", _at_spacing(0.9))
        cases = [mx.three_point_bound,
                 lambda m, **k: mx.moment_two_point_bound(m, 2.0, **k)]
        if finite:
            # the two-point priors are splits of the oracle's pair as well
            cases += [
                lambda m, **k: mx.two_point_bound(m, LossSpec.mse(), 2.0, 2.5,
                                                  n=3),
                lambda m, **k: mx.transform_two_point_bound(
                    m, LossSpec.mse(), _QUAD, 2.0, 2.5, 1, n=3)]
        for bound in cases:
            exact = bound(model, **kw)
            before = sum(searches.values())
            searched = bound(bare, **kw)
            assert sum(searches.values()) > before
            assert searched.reevaluate() == searched.value
            assert abs(searched.value - exact.value) <= 1e-9 * exact.value
        assert searches["_rowwise_max_01"] > 0 and searches["_max_box2"] > 0

    @pytest.mark.parametrize("model_id", ["gauss-location", "uniform-scale",
                                          "awgn-rect"])
    @pytest.mark.parametrize("w_zero", [False, True], ids=["w", "w_zero"])
    def test_half_three_point_closed_form_row(self, model_id, w_zero):
        model = models.get_model(model_id)
        rep = mx.three_point_bound(model, inner_prior="half", w_zero=w_zero)
        assert rep.reevaluate() == rep.value
        row, _ = _pinned_simplex_max(1.0, 1.0, w_zero)
        assert np.allclose([rep.argmax[k] for k in "qrw"], row,
                           rtol=0.0, atol=1e-8)

        # flank errors in any ratio b/a, across both kinks at 1/4 and 4:
        # the closed-form row is never beaten by the simplex search
        for ratio in (1e-3, 0.1, 0.25, 0.5, 2.0, 4.0, 10.0):
            a, b = 0.6, 0.6 * ratio
            row = bounds._half_row(a, b, w_zero)
            value = _pinned_factor(np.array([row]), a, b)[0]
            assert value >= _pinned_simplex_max(a, b, w_zero)[1] * (1 - 1e-15)

        # a right-flank error one part in 2^50 off the left one, as at
        # finite sample size where the two flank separations round apart,
        # moves the value by rounding only
        def pe(lo, hi, c):
            scale = np.where(np.asarray(lo) == 0.0, 1.0 - 2.0 ** -50, 1.0)
            return scale * model.limit.pe_pair(1.0, hi - lo, c)

        def split(lo, hi, a, b):
            return model.limit.pair_split(1.0, hi - lo, a, b)

        argmax, objective = bounds._three_point_engine(
            pe, split, bounds._as_domain(None), "half", w_zero)
        assert abs(objective(**argmax) - rep.value) <= 1e-12 * rep.value

    def test_half_row_where_the_flank_product_underflows(self):
        # a*b is 0 in floating point, but the row is formed from b/a
        tiny = bounds._half_row(1e-300, 2e-300, False)
        assert tiny[0] > 0.0 and tiny[2] > 0.0
        assert abs(sum(tiny) - 1.0) <= 1e-15
        assert np.allclose(tiny, bounds._half_row(1.0, 2.0, False),
                           rtol=1e-14, atol=0.0)
        assert bounds._half_row(0.0, 0.0, False) == (0.5, 0.5, 0.0)

    def test_finite_sample_half_row_needs_no_search(self, gauss, monkeypatch):
        # at theta0 = 0.3 the two flank separations round apart, so their
        # errors at prior 1/2 differ in the last bits
        def no_search(*args, **kwargs):
            raise AssertionError("half mode searched the simplex")

        monkeypatch.setattr(bounds, "maximize_simplex", no_search)
        off = mx.three_point_bound(gauss, inner_prior="half", n=50,
                                   theta0=0.3)
        at_zero = mx.three_point_bound(gauss, inner_prior="half", n=50,
                                       theta0=0.0)
        assert abs(off.value - at_zero.value) <= 1e-14 * at_zero.value
        assert off.reevaluate() == off.value

    def test_registry_sources_reach_no_searched_split(self, monkeypatch):
        # every registry oracle and limit carries its split, so neither
        # split-less fallback runs, on the manifest or at finite sample size
        def fallback(*args, **kwargs):
            raise AssertionError("a registry source reached a searched split")

        for name in ("_rowwise_max_01", "_max_box2"):
            monkeypatch.setattr(bounds, name, fallback)
        entries = catalog.run_entries(
            catalog.parse_manifest(catalog.DEFAULT_MANIFEST))
        assert all(e.passed for e in entries), [e.message for e in entries]

        mse = LossSpec.mse()
        for model_id, t0, t1, n, three_point in [
                ("exp-rate", 1.0, 2.0, 1,
                 dict(theta0=5.0, s_domain=(0.0, 4.0))),
                ("gauss-location", 0.0, 0.3, 5, dict(theta0=0.3)),
                ("uniform-scale", 1.0, 1.5, 3, dict(theta0=25.0)),
                ("uniform-location", 0.0, 0.4, 2,
                 dict(theta0=0.0, s_domain=(0.0, 0.9)))]:
            model = models.get_model(model_id)
            reports = [
                mx.two_point_bound(model, mse, t0, t1, n),
                mx.concave_two_point_bound(model, mse, t0, t1, n),
                mx.transform_two_point_bound(
                    model, mse, mx.TransformSet.sign_pair(), t0, t1, 1, n=n)]
            reports += [mx.three_point_bound(model, inner_prior=inner, n=n,
                                             **three_point)
                        for inner in ("free", "half")]
            for rep in reports:
                assert rep.value > 0.0 and rep.reevaluate() == rep.value


def _zoom_rounds(half, stop):
    """Stencil rounds of maximize_zoom from half-width ``half``, shrinking by
    0.35 a round while above ``stop``."""
    rounds = 0
    while half > stop:
        rounds, half = rounds + 1, half * 0.35
    return rounds


@pytest.mark.parametrize("case", ["free", "w_zero", "exact"])
def test_batched_simplex_zoom_stops_at_the_joint_stencil(case, monkeypatch):
    # the 65 spacings' simplex rows only rank the spacings: the joint zoom's
    # first stencil (half-width 1/64, 13 points) steps 1/384, and the batched
    # zoom runs only while its half-width is above that step.  The winning
    # spacing's row alone is then solved to the default stop.
    calls = []

    def forwarding(f, dim, **kwargs):
        stencils = []

        def counted(rows):
            if rows.ndim == 3 and rows.shape[1] > 1:
                # a stencil round; off-simplex rows (q + r > 1) score -inf
                # and count for nothing
                stencils.append(int(np.sum(rows[..., 0] + rows[..., 1]
                                           <= 1.0 + 1e-15)) if dim == 3
                                else rows.shape[0] * rows.shape[1])
            return f(rows)

        opt = maximize_simplex(counted, dim, **kwargs)
        calls.append((dim, kwargs, stencils, opt.evaluations))
        return opt

    monkeypatch.setattr(bounds, "maximize_simplex", forwarding)
    model = models.get_model("uniform-scale")
    rep = {"free": lambda: mx.three_point_bound(model),
           "w_zero": lambda: mx.three_point_bound(model, w_zero=True),
           "exact": mx.three_point_exact_uniform}[case]()
    assert rep.reevaluate() == rep.value
    (dim, kwargs, stencils, evaluations), winner = calls
    assert dim == (2 if case == "w_zero" else 3)
    batch = kwargs["batch"]
    assert batch == bounds._NESTED_CELLS + 1 == 65
    # the scan: 1025 points over two weights, step 1/64 over three
    scan, half = {2: (1025, 1.0 / 16), 3: (65 * 66 // 2, 1.0 / 64)}[dim]
    assert len(stencils) == _zoom_rounds(half, 1.0 / 384) == {2: 4, 3: 2}[dim]
    # scan, the allowed rounds and the final evaluation, nothing else
    assert evaluations == batch * scan + sum(stencils) + batch
    # one spacing, to maximize_simplex's default stop
    assert winner[:2] == (dim, {"batch": 1, "stop": 1e-11})


def _chain(model_id, theta, smax):
    """The moment (t = 2, r searched), w_zero, free and (on uniform-scale)
    exact three-point bounds of one local model, spacings up to smax: the
    exact bound's s is the spacing over theta, so its range is smax/theta."""
    model, domain = models.get_model(model_id), (0.0, smax)
    moment = mx.moment_two_point_bound(model, 2.0, theta, domain)
    pinned = mx.three_point_bound(model, theta, domain, w_zero=True)
    free = mx.three_point_bound(model, theta, domain)
    exact = ([mx.three_point_exact_uniform(theta, (0.0, smax / theta))]
             if model_id == "uniform-scale" else [])
    for rep in [moment, pinned, free, *exact]:
        assert rep.reevaluate() == rep.value
    # w = 0 reduces three-point to the t = 2 moment bound, the middle weight
    # r standing for the loss split r and the pair split u for 1 - q: each
    # objective gives the other's value at the other's argmax
    m, p = moment.argmax, pinned.argmax
    assert moment.objective(p["delta"], 1.0 - p["u"], p["r"]) == pytest.approx(
        pinned.value, rel=1e-12, abs=0.0)
    assert pinned.objective(delta=m["delta"], q=1.0 - m["r"], r=m["r"],
                            w=0.0, u=1.0 - m["q"], v=0.0) == pytest.approx(
        moment.value, rel=1e-12, abs=0.0)
    assert free.value >= pinned.value and free.value >= moment.value
    # the exact three-hypothesis risk dominates its pairwise relaxation
    assert all(e.value >= free.value for e in exact)


@st.composite
def chain_inputs(draw):
    model_id = draw(st.sampled_from(["uniform-scale", "uniform-location"]))
    theta = (draw(st.floats(0.2, 5.0)) if model_id == "uniform-scale"
             else draw(st.floats(-3.0, 3.0)))
    return model_id, theta, draw(st.floats(0.5, 25.0))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(inputs=chain_inputs())
def test_chain_on_uniform_limits(inputs):
    _chain(*inputs)


@pytest.mark.parametrize("model_id,theta,smax", [("gauss-location", 1.0, 20.0),
                                                 ("awgn-rect", 0.5, 6.0)])
def test_chain_on_gaussian_limits(model_id, theta, smax):
    _chain(model_id, theta, smax)


@pytest.mark.xfail(strict=True, reason="the argmax spacing lies inside the "
                   "first outer grid cell, and the joint zoom stalls short")
def test_nested_searches_reach_the_supremum_on_a_fine_scale(uniform_scale):
    # theta = 0.05 on [0, 25] is theta = 1 on [0, 500] scaled by theta^2:
    # the argmax spacings, about 2.5 at theta = 1, lie in the first of the
    # 64 grid cells of width 7.8.  The three bounds fall 31 %, 31 % and 7 %
    # short of their values at theta = 1 on [0, 20], scaled.
    theta, domain = 0.05, (0.0, 25.0)
    for bound in (functools.partial(mx.moment_two_point_bound, uniform_scale,
                                    2.0),
                  functools.partial(mx.three_point_bound, uniform_scale,
                                    w_zero=True),
                  functools.partial(mx.three_point_bound, uniform_scale)):
        reference = bound(theta=1.0, s_domain=(0.0, 20.0)).value
        assert bound(theta=theta, s_domain=domain).value >= (
            theta ** 2 * reference * (1.0 - 1e-9))


# ---------------------------------------------------------------------------
# the nested engines against the search they replaced: a 64-cell grid and
# golden-section search over the spacing, with one full inner solve through
# the public maximizers at every spacing it visits

def _reference_nested(inner, domain=(0.0, 20.0)):
    return oracles.golden_max_1d(inner, *domain, cells=64)[1]


def _max_01(f):
    """The inner 1-D search: a 1025-point scan of [0, 1] plus zoom."""
    return maximize_zoom(lambda x: f(x[:, 0]),
                         np.linspace(0.0, 1.0, 1025)[:, None], 1.0 / 1024,
                         1e-12).value


def _pair_mass(pe, x, y):
    """(x + y) * pe(x / (x + y)), 0 where x + y = 0."""
    total = x + y
    c = np.where(total > 0.0, x / np.where(total > 0.0, total, 1.0), 0.5)
    return np.where(total > 0.0, total * pe(c), 0.0)


def _local_source(model, theta):
    """pe(lo, hi, c) and split(lo, hi, a, b) of a local limit, for test
    points at offsets lo < hi."""
    lim = model.limit
    return (lambda lo, hi, c: lim.pe_pair(theta, hi - lo, c),
            lambda lo, hi, a, b: lim.pair_split(theta, hi - lo, a, b))


def _oracle_source(model, n, theta0):
    oracle = model.oracle
    return (lambda lo, hi, c: oracle.pe(c, theta0 + lo, theta0 + hi, n),
            lambda lo, hi, a, b: oracle.pair_split(a, b, theta0 + lo,
                                                   theta0 + hi, n))


def _moment_inner(pe, split, t, r_fixed):
    if r_fixed is None:
        return lambda d: _max_01(lambda r: d ** t * split(
            0.0, d, (1.0 - r) ** (t - 1.0), r ** (t - 1.0))[1])
    a, b = (1.0 - r_fixed) ** (t - 1.0), r_fixed ** (t - 1.0)
    return lambda d: _max_01(lambda q: d ** t * _pair_mass(
        lambda c: pe(0.0, d, c), a * q, b * (1.0 - q)))


def _three_point_inner(pe, split, inner_prior, w_zero):
    if inner_prior == "half":
        return lambda d: d * d * _pinned_simplex_max(
            2.0 * pe(-d, 0.0, 0.5), 2.0 * pe(0.0, d, 0.5), w_zero)[1]

    def value(d, rows):
        q, r = rows[:, 0], rows[:, 1]
        w = rows[:, 2] if rows.shape[1] == 3 else np.zeros(len(rows))
        return d * d * (split(-d, 0.0, q, r)[1] + split(0.0, d, r, w)[1])

    return lambda d: maximize_simplex(lambda rows: value(d, rows),
                                      2 if w_zero else 3).value


def _assert_not_below(value, reference):
    assert value >= reference * (1.0 - 1e-13), (value, reference)


_RNG = np.random.default_rng(20240611)
_RANDOM_LIMITS = _RNG.uniform(0.5, 2.0, (6, 3))
_RANDOM_T = _RNG.uniform(1.0, 4.0, 6)
_MODES = [("moment", None), ("moment", 0.5), ("free", False), ("free", True),
          ("half", False)]


def _random_limit(index):
    """One of the four Gaussian-type and two uniform limits, at a seeded
    random scale, and the theta to take it at."""
    x, y, z = _RANDOM_LIMITS[index]
    return [(models.get_model("gauss-location", sigma=x), 1.0),
            (models.get_model("awgn-smooth", pdot=x, n0=y), 1.0),
            (models.get_model("awgn-rect", power=x, n0=y, pulse_width=z), 1.0),
            (models.get_model("exp-family", sigma=x), y),
            (models.get_model("uniform-scale"), 4.0 * x),
            (models.get_model("uniform-location"), 1.0)][index]


class TestNestedAgainstReference:
    @pytest.mark.parametrize("mode", range(len(_MODES)),
                             ids=[f"{k}-{v}" for k, v in _MODES])
    @pytest.mark.parametrize("index", range(6), ids=_LIMIT_IDS)
    def test_local_limits(self, index, mode):
        model, theta = _random_limit(index)
        pe, split = _local_source(model, theta)
        kind, arg = _MODES[mode]
        if kind == "moment":
            t = _RANDOM_T[index]
            rep = mx.moment_two_point_bound(model, t, theta=theta, r_fixed=arg)
            inner = _moment_inner(pe, split, t, arg)
        else:
            rep = mx.three_point_bound(model, theta=theta, inner_prior=kind,
                                       w_zero=arg)
            inner = _three_point_inner(pe, split, kind, arg)
        _assert_not_below(rep.value, _reference_nested(inner))
        assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("t", [1.0, 6.0])
    def test_moment_at_the_domain_edge(self, uniform_scale, t):
        # at theta = 20 the best spacing lies past the edge delta = 20
        pe, split = _local_source(uniform_scale, 20.0)
        for r_fixed in (None, 0.5):
            rep = mx.moment_two_point_bound(uniform_scale, t, theta=20.0,
                                            r_fixed=r_fixed)
            assert rep.argmax["delta"] == 20.0
            _assert_not_below(rep.value, _reference_nested(
                _moment_inner(pe, split, t, r_fixed)))
            assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("w_zero", [False, True], ids=["w", "w_zero"])
    def test_three_point_at_the_domain_edge(self, uniform_scale, w_zero):
        pe, split = _local_source(uniform_scale, 20.0)
        for kind in ("free", "half"):
            rep = mx.three_point_bound(uniform_scale, theta=20.0,
                                       inner_prior=kind, w_zero=w_zero)
            assert rep.argmax["delta"] == 20.0
            _assert_not_below(rep.value, _reference_nested(
                _three_point_inner(pe, split, kind, w_zero)))
            assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("ratio", [
        0.25, 4.0, 4.0 * (1.0 - 1e-9), lambda d: 4.0 * np.exp(d - 2.4),
        lambda d: 0.25 * np.exp(2.4 - d)],
        ids=["quarter", "four", "below-four", "crossing-four",
             "crossing-quarter"])
    @pytest.mark.parametrize("w_zero", [False, True], ids=["w", "w_zero"])
    def test_half_rows_at_the_flank_kinks(self, ratio, w_zero):
        # the right flank's error is `ratio` times the left one's, so the
        # best half row sits at (or switches across) its kinks at 1/4 and 4
        model = models.get_model("gauss-location")
        scale = ratio if callable(ratio) else (lambda d: ratio)

        def pe(lo, hi, c):
            factor = np.where(np.asarray(lo) == 0.0, scale(hi - lo), 1.0)
            return factor * model.limit.pe_pair(1.0, hi - lo, c)

        split = _local_source(model, 1.0)[1]
        argmax, objective = bounds._three_point_engine(
            pe, split, bounds._as_domain(None), "half", w_zero)
        _assert_not_below(objective(**argmax), _reference_nested(
            _three_point_inner(pe, split, "half", w_zero)))

    @pytest.mark.parametrize("theta0", [0.37, 1.0, 5.5])
    def test_three_point_exact(self, theta0):
        def inner(s):
            def value(rows):
                q, r, w = rows.T
                es = math.exp(s)
                with np.errstate(invalid="ignore", divide="ignore"):
                    t1 = np.nan_to_num((q * r * es + 4.0 * q * w + r * w / es)
                                       / (q * es * es + r * es + w))
                    t2 = np.nan_to_num(r * w * (1.0 - 1.0 / es) / (r * es + w))
                return s * s * (t1 + t2)
            return maximize_simplex(value, 3).value

        rep = mx.three_point_exact_uniform(theta0)
        _assert_not_below(rep.value, theta0 ** 2 * _reference_nested(inner))
        assert rep.reevaluate() == rep.value

    @pytest.mark.parametrize("model_id, n, theta0, case", [
        ("exp-rate", 1, 5.0, ("free", False, (0.0, 4.0))),
        ("gauss-location", 5, 0.3, ("moment", 0.5, None)),
        ("uniform-scale", 3, 2.0, ("free", True, (0.0, 1.9))),
        ("uniform-location", 2, 0.0, ("moment", None, (0.0, 0.9))),
    ], ids=["exp-rate", "gauss-location", "uniform-scale", "uniform-location"])
    def test_finite_sample(self, model_id, n, theta0, case):
        model = models.get_model(model_id)
        pe, split = _oracle_source(model, n, theta0)
        kind, arg, s_domain = case
        if kind == "moment":
            rep = mx.moment_two_point_bound(model, 2.0, s_domain=s_domain,
                                            r_fixed=arg, n=n, theta0=theta0)
            inner = _moment_inner(pe, split, 2.0, arg)
        else:
            rep = mx.three_point_bound(model, s_domain=s_domain, w_zero=arg,
                                       n=n, theta0=theta0)
            inner = _three_point_inner(pe, split, kind, arg)
        _assert_not_below(rep.value, _reference_nested(
            inner, s_domain or (0.0, 20.0)))
        assert rep.reevaluate() == rep.value


_FINITE_SAMPLE_BOUNDS = {
    "moment": lambda m, r, **kw: mx.moment_two_point_bound(m, 2.0, **kw),
    "moment-r-fixed": lambda m, r, **kw: mx.moment_two_point_bound(
        m, 2.0, r_fixed=r, **kw),
    "three-point-free": lambda m, r, **kw: mx.three_point_bound(m, **kw),
    "three-point-half": lambda m, r, **kw: mx.three_point_bound(
        m, inner_prior="half", **kw),
    "three-point-w-zero": lambda m, r, **kw: mx.three_point_bound(
        m, w_zero=True, **kw),
}


@st.composite
def finite_sample_inputs(draw):
    """A model with an exact oracle, its sample size n, a test point theta0
    and a loss split r."""
    model_id = draw(st.sampled_from(["uniform-scale", "uniform-location",
                                     "exp-rate"]))
    n = 1 if model_id == "exp-rate" else draw(st.integers(1, 20))
    lo = -3.0 if model_id == "uniform-location" else 0.3
    return model_id, n, draw(st.floats(lo, 8.0)), draw(st.floats(0.05, 0.95))


@pytest.mark.parametrize("bound", list(_FINITE_SAMPLE_BOUNDS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(inputs=finite_sample_inputs())
def test_finite_sample_reevaluate_reproduces_the_value(bound, inputs):
    model_id, n, theta0, r = inputs
    rep = _FINITE_SAMPLE_BOUNDS[bound](models.get_model(model_id), r, n=n,
                                       theta0=theta0)
    assert rep.reevaluate() == rep.value


class TestBoundReport:
    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            bounds.BoundReport(bound_id="x", model_id="y", value=-1.0,
                               loss=LossSpec.mse())

    def test_to_dict_shape(self, local_gauss_mse):
        d = local_gauss_mse.to_dict()
        assert d["bound"] == "local-two-point"
        assert d["model"] == "gauss-location"
        assert d["loss"] == "mse"
        assert d["rate"] == "n^1"
        assert isinstance(d["argmax"]["s"], float)
        assert isinstance(d["notes"], list)

    def test_reevaluate_requires_objective(self):
        rep = bounds.BoundReport(bound_id="x", model_id="y", value=0.0,
                                 loss=LossSpec.mse())
        with pytest.raises(ValueError):
            rep.reevaluate()


def _edge_notes_of(rep):
    return [note for note in rep.notes if "upper edge" in note]


class TestEdgeNotes:
    """An outer search that returns the upper end of its spacing domain says
    so in a note; the value and argmax are those of the search."""

    def test_finite_sample_moment_on_the_edge(self):
        # the one-draw rate MSE grows without bound in delta
        rep = catalog.compute_bound("exp-rate", "moment", LossSpec.mse(),
                                    {"n": 1, "theta0": 5.0})
        assert rep.argmax["delta"] == 20.0
        assert _edge_notes_of(rep) == [
            "argmax at the upper edge 20 of the search range [0, 20]; "
            "the supremum may lie beyond it"]

    def test_local_two_point_on_the_edge(self):
        rep = catalog.compute_bound("uniform-location", "local-two-point",
                                    LossSpec.power(50.0), {})
        assert rep.argmax["s"] == 20.0
        assert len(_edge_notes_of(rep)) == 1
        assert "20" in _edge_notes_of(rep)[0]

    def test_interior_argmax_has_no_note(self):
        rep = catalog.compute_bound("gauss-location", "local-two-point",
                                    LossSpec.mse(), {})
        assert rep.argmax["s"] < 20.0
        assert _edge_notes_of(rep) == []

    def test_three_point_engines_name_their_edge(self, uniform_scale):
        relaxed = mx.three_point_bound(uniform_scale, s_domain=(0.0, 0.3))
        exact = mx.three_point_exact_uniform(1.0, s_domain=(0.0, 0.5))
        assert relaxed.argmax["delta"] == 0.3 and exact.argmax["s"] == 0.5
        assert "upper edge 0.3 of the search range [0, 0.3]" \
            in _edge_notes_of(relaxed)[0]
        assert "upper edge 0.5 of the search range [0, 0.5]" \
            in _edge_notes_of(exact)[0]
        assert relaxed.notes[0] == "pair priors free"
        assert _edge_notes_of(mx.three_point_bound(uniform_scale)) == []

    def test_nuisance_rotation_names_its_edge(self, nuisance_report):
        short = mx.rotation_nuisance_bound(s_domain=(0, 1))
        assert short.argmax["s"] == 1.0
        assert _edge_notes_of(short) == [
            "argmax at the upper edge 1 of the search range [0, 1]; "
            "the supremum may lie beyond it"]
        assert nuisance_report.argmax["s"] < 6.0
        assert _edge_notes_of(nuisance_report) == []


def test_reports_reproduce_from_argmax(gauss, uniform_scale, exp_rate,
                                       three_point_gauss_half,
                                       three_point_uniform_free,
                                       three_point_exact, moment_uniform_t2,
                                       local_gauss_mse, local_uniform_mse,
                                       nuisance_report):
    reports = [
        mx.two_point_bound(exp_rate, LossSpec.mse(), 1.0, 2.0),
        mx.concave_two_point_bound(uniform_scale, LossSpec.mse(), 1.0, 2.0),
        local_gauss_mse,
        local_uniform_mse,
        moment_uniform_t2,
        three_point_gauss_half,
        three_point_uniform_free,
        three_point_exact,
        nuisance_report,
        mx.transform_two_point_bound(gauss, LossSpec.mse(),
                                     mx.TransformSet.sign_pair(),
                                     0.0, 1.0, 1),
        mx.pairwise_ring_bound(gauss, LossSpec.mse(), [0.0, 1.0, 2.0],
                               [0.2, 0.5, 0.3]),
        mx.pairwise_allpairs_bound(gauss, LossSpec.mse(), [0.0, 1.0, 2.0],
                                   [0.2, 0.5, 0.3]),
    ]
    for rep in reports:
        again = rep.reevaluate()
        assert abs(again - rep.value) <= 1e-9 * max(abs(rep.value), 1e-30), \
            rep.bound_id
