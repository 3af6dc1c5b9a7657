"""Error oracles, local limits, samplers, and the model registry."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import oracles
from minimaxlb import models
from minimaxlb.numerics import gaussian_tail


class TestBinaryGaussianError:
    def test_half_prior_is_tail(self):
        for d in (0.5, 1.0, 2.0, 4.0):
            assert abs(models.binary_gaussian_error(0.5, d)
                       - gaussian_tail(d / 2.0)) < 1e-14

    def test_matches_oracle_formula(self):
        for q in (0.1, 0.3, 0.5, 0.8):
            for d in (0.2, 1.0, 3.0):
                assert abs(models.binary_gaussian_error(q, d)
                           - oracles.gauss_pe(q, d)) < 1e-12

    def test_degenerate_priors(self):
        assert models.binary_gaussian_error(0.0, 1.0) == 0.0
        assert models.binary_gaussian_error(1.0, 1.0) == 0.0

    def test_zero_distance(self):
        assert models.binary_gaussian_error(0.3, 0.0) == pytest.approx(0.3)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            models.binary_gaussian_error(0.5, -1.0)

    def test_vectorized_over_prior(self):
        out = models.binary_gaussian_error(np.array([0.0, 0.5, 1.0]), 2.0)
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == 0.0
        assert abs(out[1] - gaussian_tail(1.0)) < 1e-14


# distances across the min-form case, the tail and the far tail; masses
# with zeros and ratios of 1e-12 both ways, priors at and near 0 and 1
_DISTANCES = np.array([0.0, 1e-9, 0.3, 1.0, 12.0, 40.0])
_MASS_A = np.array([0.3, 0.5, 1.0, 1e-12, 0.0, 0.4, 0.0, 2e-3, 1.0, 0.7])
_MASS_B = np.array([0.7, 0.5, 1e-12, 1.0, 0.4, 0.0, 0.0, 0.9, 1.0, 7e-13])
_PRIORS = np.array([0.0, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0, 0.77, 1e-300])


class TestGaussianPairArrayDistance:
    def test_error_equals_its_scalar_calls(self):
        out = models.binary_gaussian_error(_PRIORS, _DISTANCES[:, None])
        assert out.shape == (len(_DISTANCES), len(_PRIORS))
        for i, d in enumerate(_DISTANCES):
            for j, q in enumerate(_PRIORS):
                assert out[i, j] == models.binary_gaussian_error(q, d)

    def test_split_equals_its_scalar_calls(self):
        u, value = models.binary_gaussian_split(_MASS_A, _MASS_B,
                                                _DISTANCES[:, None])
        for i, d in enumerate(_DISTANCES):
            for j, (a, b) in enumerate(zip(_MASS_A, _MASS_B)):
                assert (u[i, j], value[i, j]) == \
                    models.binary_gaussian_split(a, b, d)

    @pytest.mark.parametrize("bad", [-1.0, math.nan,
                                     np.array([0.1, -0.2]),
                                     np.array([math.nan, 1.0])])
    def test_a_negative_or_nan_element_raises(self, bad):
        with pytest.raises(ValueError, match="nonnegative"):
            models.binary_gaussian_error(0.3, bad)
        with pytest.raises(ValueError, match="nonnegative"):
            models.binary_gaussian_split(0.3, 0.2, bad)


class TestExponentialRateSplitArrays:
    def test_split_equals_its_scalar_calls(self):
        # each element stops its Newton steps when it converges: stopping
        # them all together moved 181 of these 2000 random elements by up to
        # 3.7e-15 relative from their scalar calls
        rng = np.random.default_rng(20)
        a = np.concatenate([_MASS_A, rng.random(2000)])
        b = np.concatenate([_MASS_B, rng.random(2000)])
        u, value = models.exponential_rate_split(a, b, 1.0, 3.0)
        for k in range(len(a)):
            assert (u[k], value[k]) == \
                models.exponential_rate_split(a[k], b[k], 1.0, 3.0)


_SPLIT_GRID = np.linspace(0.0, 1.0, 2001)
_MASSES = st.one_of(st.just(0.0),
                    st.floats(-320.0, 0.0).map(lambda e: 10.0 ** e))
_RATES = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)).map(
    lambda e: (10.0 ** min(e), 10.0 ** max(e))).filter(lambda r: r[0] < r[1])


def _gaussian_pair_error(x, y, d):
    """G(x, y) = (x+y) pe(x/(x+y)) of two unit Gaussians d apart, formed
    from the masses: x Q(d/2 - ln(y/x)/d) + y Q(d/2 + ln(y/x)/d)."""
    with np.errstate(all="ignore"):
        L = np.log(y) - np.log(x)
        g = x * stats.norm.sf(d / 2 - L / d) + y * stats.norm.sf(d / 2 + L / d)
    return np.where((x > 0) & (y > 0), np.where(d > 0, g, np.minimum(x, y)), 0)


def _rate_pair_error(x, y, theta0, theta1):
    """G(x, y) of one exponential draw: the MAP rule picks theta1 below
    t = ln(y theta1 / (x theta0)) / (theta1 - theta0), never if t <= 0."""
    with np.errstate(all="ignore"):
        t = (np.log(y) - np.log(x) + np.log(theta1 / theta0)) / (theta1 - theta0)
        g = -x * np.expm1(-theta0 * t) + y * np.exp(-theta1 * t)
    return np.where((x > 0) & (y > 0), np.where(t > 0, g, y), 0)


def _check_split(split, reference, a, b, *args):
    """No warning, finite output, a value no grid split of the masses beats,
    and an array call equal to its scalar calls bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, value = split(a, b, *args)
        scalar = [split(*map(float, row)) for row in zip(a, b, *args)]
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(value))
    x = (1.0 - _SPLIT_GRID) * a[:, None]
    y = _SPLIT_GRID * b[:, None]
    best = reference(x, y, *(arg[:, None] for arg in args)).max(axis=1)
    # beyond 1e-12 relative, the grid's own rounding at subnormal masses
    assert np.all(value >= best * (1.0 - 1e-12) - 1e-322)
    assert [(float(s), float(v)) for s, v in scalar] == \
        [(float(s), float(v)) for s, v in zip(u, value)]


class TestExactSplitsAtExtremeInputs:
    """Both exact splits at masses down to 1e-320 and exactly 0, Gaussian
    distances from 0 to 40 and rates over three decades."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(_MASSES, _MASSES, st.floats(0.0, 40.0)),
                    min_size=1, max_size=6))
    def test_gaussian_split(self, rows):
        a, b, d = map(np.array, zip(*rows))
        _check_split(models.binary_gaussian_split, _gaussian_pair_error,
                     a, b, d)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(_MASSES, _MASSES, _RATES), min_size=1,
                    max_size=6))
    @example([(1.0, 2.5e-321, (121.3, 623.6))])
    def test_exponential_rate_split(self, rows):
        # a subnormal mass used to halve t below the smallest normal, where
        # the slope of the equalizer overflowed
        a, b, rates = zip(*rows)
        theta0, theta1 = map(np.array, zip(*rates))
        _check_split(models.exponential_rate_split, _rate_pair_error,
                     np.array(a), np.array(b), theta0, theta1)

    @pytest.mark.parametrize("t", [40, 60, 100, 150])
    def test_rate_moment_bound_raises_no_warning(self, t):
        from minimaxlb import catalog

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = catalog.compute_bound(
                "exp-rate", "moment", catalog.parse_loss(f"power:{t}"),
                {"n": 1, "theta0": 5.0, "smax": 3.0})
        assert math.isfinite(rep.value) and rep.value > 0.0


class TestExponentialRatePe:
    def test_maximum_over_prior(self):
        # stationary prior and value are algebraic in the golden ratio
        x, v = oracles.brute_max_1d(
            lambda q: models.exponential_rate_pe(q, 1.0, 2.0), 1e-6, 1 - 1e-6)
        assert abs(v - oracles.FROZEN["exp_rate_max_pe"]) < 1e-10
        assert abs(x - oracles.FROZEN["exp_rate_argmax_q"]) < 1e-5

    def test_half_prior_exact(self):
        assert models.exponential_rate_pe(0.5, 1.0, 2.0) == 0.375

    def test_no_overflow_near_the_prior_ends(self):
        from minimaxlb import bounds

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # a prior this small errs with probability equal to itself
            assert models.exponential_rate_pe(np.array([1e-320]), 1.0, 2.0)[0] \
                == 1e-320
            pe = models.exponential_rate_pe(
                np.array([1e-300, 0.5, 1.0 - 2.0 ** -53]), 1.0, 1.001)
            rep = bounds.moment_two_point_bound(
                models.get_model("exp-rate"), 2.0, s_domain=(0, 2), n=1,
                theta0=1.0, r_fixed=0.5)
        assert np.all(np.isfinite(pe)) and pe[2] == 2.0 ** -53
        assert rep.value > 0.0 and rep.reevaluate() == rep.value

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            models.exponential_rate_pe(0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            models.exponential_rate_pe(0.5, -1.0, 2.0)
        with pytest.raises(ValueError):
            models.exponential_rate_pe(1.5, 1.0, 2.0)


class TestClosedFormPe:
    # the exact pair errors, read through each model's oracle
    @staticmethod
    def pe(model_id):
        return models.get_model(model_id).oracle.pe

    def test_uniform_scale(self):
        # min of the prior mass and the dominated-likelihood mass
        pe = self.pe("uniform-scale")
        assert pe(0.4, 1.0, 2.0, 1) == pytest.approx(min(0.4, 0.6 * 0.5))
        assert pe(0.5, 1.0, 1.1, 20) == pytest.approx(0.5 * (1.0 / 1.1) ** 20)

    def test_uniform_location(self):
        pe = self.pe("uniform-location")
        assert pe(0.5, 0.0, 0.25, 2) == pytest.approx(0.75 ** 2 * 0.5)
        # from spacing 1 on the supports are disjoint and the test never errs
        assert pe(0.5, 0.0, 1.5, 1) == 0.0
        assert pe(0.3, 0.0, 1.0, 4) == 0.0
        with pytest.raises(ValueError):
            pe(0.5, 0.0, 0.5, 0)

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_uniform_min_forms_keep_their_closed_forms(self, n):
        # both pair errors are the min form of their arms, bit for bit equal
        # to the closed forms written out
        q = np.linspace(0.0, 1.0, 1001)
        pe = self.pe("uniform-scale")
        for theta0, theta1 in [(1.0, 1.0), (1.0, 1.05), (2.0, 2.9),
                               (0.3, 1.2), (5.0, 5.999)]:
            expect = np.minimum(q, (1.0 - q) * (theta0 / theta1) ** n)
            assert np.array_equal(pe(q, theta0, theta1, n), expect)
            assert pe(0.3, theta0, theta1, n) == \
                min(0.3, 0.7 * (theta0 / theta1) ** n)
        pe = self.pe("uniform-location")
        for theta0, theta1 in [(0.0, 0.0), (0.0, 0.01), (-2.0, -1.75),
                               (0.3, 0.8), (3.1, 4.0), (1.0, 1.999)]:
            spacing = theta1 - theta0
            expect = (1.0 - spacing) ** n * np.minimum(q, 1.0 - q)
            assert np.array_equal(pe(q, theta0, theta1, n), expect)
            assert pe(0.3, theta0, theta1, n) == (1.0 - spacing) ** n * 0.3

    def test_gaussian_location_reduces_to_tail(self):
        # n observations collapse to one test at distance sqrt(n) |delta|
        val = models.get_model("gauss-location", sigma=1.0).oracle.pe(
            0.5, 0.0, 0.1, 400)
        assert val == gaussian_tail(math.sqrt(400) * 0.1 / 2.0)


class TestRegistry:
    def test_ids(self):
        for mid in ("gauss-location", "uniform-scale", "uniform-location",
                    "exp-rate", "awgn-smooth", "awgn-rect", "exp-family",
                    "nuisance-rotation"):
            assert mid in models.MODEL_IDS

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown model id"):
            models.get_model("no-such-model")

    def test_exp_rate_single_observation(self):
        model = models.get_model("exp-rate")
        with pytest.raises(ValueError, match="single-observation"):
            model.oracle.pe(0.5, 1.0, 2.0, 2)

    def test_oracles_accept_swapped_arguments(self):
        for mid in ("exp-rate", "uniform-scale", "uniform-location",
                    "gauss-location"):
            pe = models.get_model(mid).oracle.pe
            assert pe(0.3, 1.0, 1.5, 1) == pytest.approx(
                pe(0.7, 1.5, 1.0, 1), abs=1e-14)

    def test_model_params_are_the_float_factory_arguments(self):
        # the parameters the CLI may set; exp-family's fisher callable is not
        assert models.MODEL_PARAMS == {
            "exp-rate": (), "uniform-scale": (), "uniform-location": (),
            "gauss-location": ("sigma",), "awgn-smooth": ("pdot", "n0"),
            "awgn-rect": ("power", "n0", "pulse_width"),
            "exp-family": ("sigma", "h"), "nuisance-rotation": ("sigma",)}

    def test_nuisance_rotation_has_no_view(self):
        # the rotation-transform bound serves it without any model view
        model = models.get_model("nuisance-rotation")
        assert model.oracle is None
        assert model.limit is None
        assert model.sampler is None

    # each model's parameter space (lo, hi) and the views it has
    _SPECS = {
        "exp-rate": ((0.0, math.inf), {"oracle", "sampler"}),
        "uniform-scale": ((0.0, math.inf), {"oracle", "limit", "sampler"}),
        "uniform-location": ((-1e308, math.inf),
                             {"oracle", "limit", "sampler"}),
        "gauss-location": ((-1e308, math.inf),
                           {"oracle", "limit", "sampler"}),
        "awgn-smooth": ((-1e308, math.inf), {"limit"}),
        "awgn-rect": ((-1e308, math.inf), {"limit"}),
        "exp-family": ((-1e308, math.inf), {"limit"}),
        "nuisance-rotation": ((-1e308, math.inf), set())}

    @pytest.mark.parametrize("model_id", models.MODEL_IDS)
    def test_model_record(self, model_id):
        model = models.get_model(model_id)
        (lo, hi), views = self._SPECS[model_id]
        assert model.id == model_id
        assert (model.parameter_space.lo, model.parameter_space.hi) == (lo, hi)
        assert {v for v in ("oracle", "limit", "sampler")
                if getattr(model, v) is not None} == views
        with pytest.raises(AttributeError):
            model.id = "other"


class TestLocalLimits:
    def test_gauss(self):
        lim = models.get_model("gauss-location").limit
        assert abs(lim.pe_inf(0.0, 1.3) - gaussian_tail(1.3)) < 1e-14
        # the optimal prior is 1/2: there the pair error at spacing 2s is pe_inf
        assert lim.pe_pair(0.0, 2.6, 0.5) == lim.pe_inf(0.0, 1.3)
        assert max(lim.pe_pair(0.0, 2.6, np.linspace(0.0, 1.0, 101))) \
            == lim.pe_pair(0.0, 2.6, 0.5)
        assert abs(lim.pe_pair(0.0, 2.0, 0.5) - gaussian_tail(1.0)) < 1e-14
        assert lim.rate.variable == "n" and lim.rate.xi_exponent == 0.5

    def test_gauss_sigma_scaling(self):
        lim = models.get_model("gauss-location", sigma=2.0).limit
        assert abs(lim.pe_inf(0.0, 1.0) - gaussian_tail(0.5)) < 1e-14

    def test_uniform_scale(self):
        lim = models.get_model("uniform-scale").limit
        s, theta = 0.7, 1.0
        expect = 1.0 / (1.0 + math.exp(2.0 * s / theta))
        assert abs(lim.pe_inf(theta, s) - expect) < 1e-14
        # at the optimal prior q* = expect the pair error at spacing 2s is q*
        assert abs(lim.pe_pair(theta, 2.0 * s, expect) - expect) < 1e-14
        assert max(lim.pe_pair(theta, 2.0 * s, np.linspace(0.0, 1.0, 101))) \
            <= expect
        assert abs(lim.pe_inf_halfprior(theta, s)
                   - 0.5 * math.exp(-2.0 * s / theta)) < 1e-14
        assert abs(lim.pe_pair(theta, 1.4, 0.25)
                   - min(0.25, 0.75 * math.exp(-1.4))) < 1e-14
        assert lim.rate.zeta_exponent == 2.0

    def test_uniform_scale_rejects_nonpositive_theta(self):
        lim = models.get_model("uniform-scale").limit
        with pytest.raises(ValueError):
            lim.pe_inf(0.0, 1.0)

    def test_uniform_location(self):
        lim = models.get_model("uniform-location").limit
        assert abs(lim.pe_inf(0.0, 1.0) - 0.5 * math.exp(-2.0)) < 1e-14
        assert abs(lim.pe_pair(0.0, 1.0, 0.3)
                   - 0.3 * math.exp(-1.0)) < 1e-14

    def test_awgn_families(self):
        smooth = models.get_model("awgn-smooth").limit
        assert abs(smooth.pe_inf(0.0, 1.0)
                   - gaussian_tail(math.sqrt(2.0))) < 1e-14
        assert smooth.rate.variable == "T"
        rect = models.get_model("awgn-rect").limit
        assert abs(rect.pe_inf(0.0, 2.0) - gaussian_tail(2.0)) < 1e-14
        assert rect.rate.zeta_exponent == 2.0

    def test_gaussian_type_limits_share_one_error_curve(self):
        # pe_inf = pe_inf_halfprior = Q(dist(theta, 2s)/2) reproduces each
        # limit's own closed form bit for bit
        s = np.linspace(0.0, 20.0, 10001)
        scale = 1.1 / (0.9 * 0.3)
        cases = [
            (models.get_model("gauss-location", sigma=0.7).limit, s / 0.7),
            (models.get_model("awgn-smooth", pdot=1.3, n0=0.4).limit,
             math.sqrt(2.0 * 1.3 / 0.4) * s),
            (models.get_model("awgn-rect", power=1.1, n0=0.9,
                              pulse_width=0.3).limit,
             np.sqrt(2.0 * scale * s)),
            (models.get_model("exp-family",
                              fisher=lambda theta: 1.7 + theta * theta).limit,
             s * math.sqrt(1.7 + 1.3 * 1.3))]
        for lim, arg in cases:
            assert lim.pe_inf_halfprior is lim.pe_inf
            assert np.array_equal(lim.pe_inf(1.3, s), gaussian_tail(arg))
            assert lim.pe_inf(1.3, 2.5) == gaussian_tail(arg[1250])
            # a negative spacing is a NaN distance for awgn-rect
            with pytest.raises(ValueError, match="nonnegative"), \
                    np.errstate(invalid="ignore"):
                lim.pe_pair(1.3, -0.5, 0.5)

    @pytest.mark.parametrize("model_id", [
        "gauss-location", "awgn-smooth", "awgn-rect", "exp-family",
        "uniform-scale", "uniform-location"])
    def test_views_derive_from_the_pair_error(self, model_id):
        # pe_inf is the pair split of unit masses at spacing 2s, and
        # pe_inf_halfprior the pair error at prior 1/2 there
        lim = models.get_model(model_id).limit
        s = np.linspace(0.0, 20.0, 2001)
        best = np.array([float(lim.pair_split(1.3, 2.0 * x, 1.0, 1.0)[1])
                         for x in s])
        half = np.array([float(lim.pe_pair(1.3, 2.0 * x, 0.5)) for x in s])
        views = [(np.array([float(lim.pe_inf(1.3, x)) for x in s]), best),
                 (np.asarray(lim.pe_inf(1.3, s)), best),
                 (np.array([float(lim.pe_inf_halfprior(1.3, x)) for x in s]),
                  half),
                 (np.asarray(lim.pe_inf_halfprior(1.3, s)), half)]
        for view, expect in views:
            if model_id.startswith("uniform"):
                assert np.all(np.abs(view - expect) <= 2.0 * np.spacing(expect))
            else:
                assert np.array_equal(view, expect)

    def test_exp_family_default_matches_gauss(self):
        lim = models.get_model("exp-family").limit
        assert abs(lim.pe_inf(1.0, 1.3) - gaussian_tail(1.3)) < 1e-6

    def test_exp_family_nonpositive_information(self):
        lim = models.get_model("exp-family", fisher=lambda theta: -1.0).limit
        with pytest.raises(ValueError, match="Fisher information"):
            lim.pe_inf(1.0, 1.0)


class TestFisher:
    def test_quadratic_log_partition(self):
        val = models.fisher_from_log_partition(lambda t: 0.5 * t * t, -1.0)
        assert abs(val - 1.0) < 1e-6

    def test_quartic_log_partition(self):
        val = models.fisher_from_log_partition(lambda t: t ** 4, 1.5)
        assert abs(val - 27.0) < 1e-5

    def test_scaled(self):
        val = models.fisher_from_log_partition(lambda t: 2.0 * t * t, 0.3)
        assert abs(val - 4.0) < 1e-6

    def test_bad_step(self):
        with pytest.raises(ValueError):
            models.fisher_from_log_partition(lambda t: t * t, 0.0, h=0.0)

    def test_non_finite_values(self):
        with pytest.raises(ArithmeticError):
            models.fisher_from_log_partition(lambda t: float("nan"), 0.0)


_PAIRS = st.tuples(st.floats(0.2, 2.0), st.floats(0.01, 0.8))
_ORACLE_IDS = ("exp-rate", "uniform-scale", "uniform-location",
               "gauss-location")


@pytest.mark.parametrize("model_id", _ORACLE_IDS)
class TestOracleProperties:
    @settings(max_examples=60, derandomize=True)
    @given(pair=_PAIRS, q1=st.floats(0.01, 0.99), q2=st.floats(0.01, 0.99),
           lam=st.floats(0.0, 1.0))
    def test_concave_in_prior(self, model_id, pair, q1, q2, lam):
        pe = models.get_model(model_id).oracle.pe
        base, delta = pair
        t0, t1 = base, base + delta
        mix = pe(lam * q1 + (1 - lam) * q2, t0, t1, 1)
        assert lam * pe(q1, t0, t1, 1) + (1 - lam) * pe(q2, t0, t1, 1) \
            <= mix + 1e-12

    @settings(max_examples=60, derandomize=True)
    @given(pair=_PAIRS, q=st.floats(0.001, 0.999))
    def test_swap_symmetry(self, model_id, pair, q):
        pe = models.get_model(model_id).oracle.pe
        base, delta = pair
        assert pe(q, base, base + delta, 1) == pytest.approx(
            pe(1.0 - q, base + delta, base, 1), abs=1e-13)

    @settings(max_examples=60, derandomize=True)
    @given(pair=_PAIRS, q=st.floats(0.001, 0.999))
    def test_bounded_by_trivial_test(self, model_id, pair, q):
        pe = models.get_model(model_id).oracle.pe
        base, delta = pair
        assert pe(q, base, base + delta, 1) <= min(q, 1.0 - q) + 1e-12

    def test_zero_at_prior_endpoints(self, model_id):
        pe = models.get_model(model_id).oracle.pe
        assert pe(0.0, 1.0, 1.5, 1) == 0.0
        assert pe(1.0, 1.0, 1.5, 1) == 0.0


# per oracle: test points theta0 and theta1 in both orders and coincident,
# and n
_ARRAY_POINTS = {
    "exp-rate": ([0.5, 1.0, 2.0, 2.0, 3.5, 0.7], [1.5, 1.0, 0.9, 2.0, 1.2, 6.0], 1),
    "uniform-scale": ([1.0, 2.0, 1.3, 0.4, 5.0, 2.0],
                      [1.2, 1.1, 1.3, 3.0, 4.0, 2.0], 3),
    "uniform-location": ([0.0, 0.5, -1.0, 0.2, 2.0, 0.3],
                         [0.3, 0.1, -1.0, 1.7, 1.2, 0.3], 2),
    "gauss-location": ([0.0, 0.5, -1.0, 0.2, 2.0, 0.3],
                       [0.3, 0.1, -1.0, 1.7, 1.2, 0.3], 4),
}


def _row(model_id, x):
    # gauss-location reads a trailing axis of the points beyond the prior's
    # as vector coordinates, so its priors and masses get a row axis too
    return x[None] if model_id == "gauss-location" else x


@pytest.mark.parametrize("model_id", _ORACLE_IDS)
class TestOracleArrays:
    """A registry oracle over arrays of test points: a (B, 1) column of
    pairs broadcast against (m,) priors or masses equals its scalar calls
    bit for bit."""

    def test_pe_equals_its_scalar_calls(self, model_id):
        oracle = models.get_model(model_id).oracle
        theta0, theta1, n = _ARRAY_POINTS[model_id]
        out = oracle.pe(_row(model_id, _PRIORS), np.array(theta0)[:, None],
                        np.array(theta1)[:, None], n)
        assert out.shape == (len(theta0), len(_PRIORS))
        for i, (t0, t1) in enumerate(zip(theta0, theta1)):
            for j, q in enumerate(_PRIORS):
                assert out[i, j] == oracle.pe(float(q), t0, t1, n)

    def test_split_equals_its_scalar_calls(self, model_id):
        oracle = models.get_model(model_id).oracle
        theta0, theta1, n = _ARRAY_POINTS[model_id]
        u, value = oracle.pair_split(_row(model_id, _MASS_A),
                                     _row(model_id, _MASS_B),
                                     np.array(theta0)[:, None],
                                     np.array(theta1)[:, None], n)
        assert u.shape == value.shape == (len(theta0), len(_MASS_A))
        for i, (t0, t1) in enumerate(zip(theta0, theta1)):
            for j, (a, b) in enumerate(zip(_MASS_A, _MASS_B)):
                assert (u[i, j], value[i, j]) == \
                    oracle.pair_split(float(a), float(b), t0, t1, n)

    def test_coincident_points_give_the_min_form(self, model_id):
        oracle = models.get_model(model_id).oracle
        theta, full = np.array([0.5, 1.0, 2.0]), np.ones(3)
        assert np.array_equal(oracle.pe(0.3 * full, theta, theta, 1),
                              np.full(3, 0.3))
        u, value = oracle.pair_split(0.3 * full, 0.6 * full, theta, theta, 1)
        assert np.array_equal(value, np.full(3, 0.3 * (0.6 / 0.8999999999999999)))
        assert np.array_equal(u, np.full(3, 0.3 / 0.8999999999999999))


_OUT_OF_SPACE = [("exp-rate", -1.0), ("exp-rate", 0.0), ("exp-rate", math.nan),
                 ("exp-rate", math.inf), ("uniform-scale", -1.0),
                 ("uniform-scale", math.nan), ("uniform-scale", math.inf),
                 ("uniform-location", math.nan), ("uniform-location", math.inf),
                 ("gauss-location", math.nan), ("gauss-location", -math.inf)]


@pytest.mark.parametrize("model_id,bad", _OUT_OF_SPACE)
def test_one_point_out_of_space_raises_the_scalar_error(model_id, bad):
    oracle = models.get_model(model_id).oracle
    with pytest.raises(ValueError) as scalar:
        oracle.pe(0.3, 1.0, bad, 1)
    message = re.escape(str(scalar.value))
    for theta1 in (np.array([1.5, 2.0, bad, 1.0]), np.array([[1.5], [bad]])):
        full = np.ones(theta1.shape)
        with pytest.raises(ValueError, match=message):
            oracle.pe(0.3 * full, 1.0, theta1, 1)
        with pytest.raises(ValueError, match=message):
            oracle.pair_split(0.3 * full, 0.4 * full, theta1, 1.0, 1)
    # coincident out-of-space points are refused too
    with pytest.raises(ValueError, match=message):
        oracle.pe(np.full(2, 0.3), np.array([1.0, bad]), np.array([1.0, bad]), 1)


class TestGaussVectorPoints:
    def test_vectors_equal_scalar_points_at_their_distance(self):
        # a trailing axis beyond the prior's (or the masses') holds the
        # coordinates of vector test points
        oracle = models.get_model("gauss-location", sigma=1.3).oracle
        rng = np.random.default_rng(5)
        theta0, theta1 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        dist = np.linalg.norm(theta1 - theta0, axis=-1)
        q, a, b = _PRIORS[:6], _MASS_A[:6], _MASS_B[:6]
        pe = oracle.pe(q, theta0, theta1, 3)
        u, value = oracle.pair_split(a, b, theta0, theta1, 3)
        assert pe.shape == u.shape == value.shape == (6,)
        for k in range(6):
            assert pe[k] == oracle.pe(float(q[k]), 0.0, float(dist[k]), 3)
            assert oracle.pe(0.3, theta0[k], theta1[k], 3) == \
                oracle.pe(0.3, 0.0, float(dist[k]), 3)
            assert (u[k], value[k]) == oracle.pair_split(
                float(a[k]), float(b[k]), float(dist[k]), 0.0, 3)


class TestMonteCarlo:
    def test_gauss_agrees_with_closed_form(self):
        est = models.monte_carlo_pe(models.GaussianLocationSampler(1.0),
                                    0.5, 0.0, 1.0, 16, 100_000, 271828)
        assert abs(est.estimate - oracles.FROZEN["mc_gauss_pe"]) \
            <= 3.0 * est.half_width

    def test_uniform_agrees_with_closed_form(self):
        est = models.monte_carlo_pe(models.UniformScaleSampler(),
                                    0.5, 1.0, 1.1, 20, 100_000, 271828)
        assert abs(est.estimate - oracles.FROZEN["mc_uniform_pe"]) \
            <= 3.0 * est.half_width

    def test_exp_rate_sampler(self):
        est = models.monte_carlo_pe(models.ExponentialRateSampler(),
                                    0.5, 1.0, 2.0, 1, 100_000, 7)
        assert abs(est.estimate - 0.375) <= 3.0 * est.half_width

    def test_uniform_location_sampler(self):
        est = models.monte_carlo_pe(models.UniformLocationSampler(),
                                    0.5, 0.0, 0.25, 2, 100_000, 7)
        assert abs(est.estimate - 0.75 ** 2 * 0.5) <= 3.0 * est.half_width

    def test_half_width_stays_positive_without_errors(self):
        # the MAP rule never errs on means 10 noise units apart at 10^5
        # trials; the Wilson interval is still [0, 3.84e-5]
        est = models.monte_carlo_pe(models.GaussianLocationSampler(1.0),
                                    0.5, 0.0, 10.0, 1, 100_000, 271828)
        assert est.estimate == 0.0
        assert est.half_width > 0.0
        z2 = 1.96 ** 2
        assert abs(est.half_width - z2 / (100_000 + z2)) <= 1e-18

    def test_reproducible(self):
        args = (models.GaussianLocationSampler(1.0), 0.4, 0.0, 0.8, 4)
        a = models.monte_carlo_pe(*args, 20_000, 99)
        b = models.monte_carlo_pe(*args, 20_000, 99)
        assert a.estimate == b.estimate

    @pytest.mark.parametrize("sampler, theta0, theta1", [
        (models.GaussianLocationSampler(1.3), 0.0, 0.4),
        (models.UniformScaleSampler(), 1.0, 1.05),
        (models.UniformLocationSampler(), 0.0, 0.01),
        (models.ExponentialRateSampler(), 1.0, 2.0)])
    def test_chunks_match_one_shot_sampling(self, sampler, theta0, theta1,
                                            monkeypatch):
        # each hypothesis's rows of 30 000 trials span several chunks of
        # 7 000; the one-shot reference draws the H1 count, then every H0
        # statistic, then every H1 statistic, at once
        q, n, trials, seed = 0.45, 16, 30_000, 5
        monkeypatch.setattr(models, "_MC_CHUNK_ROWS", 7_000)
        rng = np.random.default_rng(seed)
        n_h1 = int(rng.binomial(trials, 1.0 - q))
        errors = 0
        for theta, count, truth_h1 in ((theta0, trials - n_h1, False),
                                       (theta1, n_h1, True)):
            stat = sampler.sample_statistic(rng, theta, n, count)
            decide_h0 = (math.log(q) + sampler.stat_log_likelihood(stat, n, theta0)
                         >= math.log(1.0 - q)
                         + sampler.stat_log_likelihood(stat, n, theta1))
            errors += int(np.count_nonzero(decide_h0 == truth_h1))
        est = models.monte_carlo_pe(sampler, q, theta0, theta1, n, trials, seed)
        assert min(n_h1, trials - n_h1) > models._MC_CHUNK_ROWS
        assert est.estimate == errors / trials

    @pytest.mark.parametrize("sampler, theta0, theta1", [
        (models.UniformScaleSampler(), 1.0, 1.05),
        (models.UniformScaleSampler(), 1.05, 1.0),
        (models.UniformLocationSampler(), 0.0, 0.01),
        (models.UniformLocationSampler(), 0.01, 0.0)])
    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_a_sure_prior_matches_the_full_likelihoods(self, sampler, theta0,
                                                       theta1, q):
        # a log prior of -inf meets a log-likelihood of -inf on rows outside
        # one support: the decision is -inf >= -inf (or -inf >= finite).  On
        # rows drawn under both hypotheses, some outside a support, it is the
        # same from the per-row statistic as from the full likelihoods
        n, rows = 16, 10_000
        rng = np.random.default_rng(5)
        x = np.concatenate([sampler.sample(rng, theta0, n, rows),
                            sampler.sample(rng, theta1, n, rows)])
        stat = sampler.statistic(x)
        log_q0 = math.log(q) if q > 0 else -math.inf
        log_q1 = math.log(1.0 - q) if q < 1 else -math.inf
        full = (log_q0 + sampler.log_likelihood(x, theta0)
                >= log_q1 + sampler.log_likelihood(x, theta1))
        reduced = (log_q0 + sampler.stat_log_likelihood(stat, n, theta0)
                   >= log_q1 + sampler.stat_log_likelihood(stat, n, theta1))
        assert any(np.isneginf(sampler.log_likelihood(x, t)).any()
                   for t in (theta0, theta1))
        assert np.array_equal(full, reduced)
        # the sure hypothesis is always decided, so the MAP rule never errs
        est = models.monte_carlo_pe(sampler, q, theta0, theta1, n, 20_000, 5)
        assert est.estimate == 0.0

    @pytest.mark.parametrize("sampler, theta", [
        (models.GaussianLocationSampler(1.3), 0.4),
        (models.UniformScaleSampler(), 1.7),
        (models.UniformLocationSampler(), -0.3),
        (models.ExponentialRateSampler(), 2.5)])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_statistic_is_drawn_from_its_exact_law(self, sampler, theta, n):
        # two-sample Kolmogorov-Smirnov test of the directly drawn statistic
        # against the statistic of n drawn observations
        size = 4_000
        direct = sampler.sample_statistic(np.random.default_rng(11), theta,
                                          n, size)
        reference = sampler.statistic(
            sampler.sample(np.random.default_rng(12), theta, n, size))
        if isinstance(direct, tuple):
            # uniform-location: the smallest, the largest and their spread
            direct = (*direct, direct[1] - direct[0])
            reference = (*reference, reference[1] - reference[0])
        else:
            direct, reference = (direct,), (reference,)
        for got, want in zip(direct, reference):
            assert got.shape == (size,)
            assert stats.ks_2samp(got, want).pvalue >= 1e-3

    def test_never_draws_the_observations(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("monte_carlo_pe drew every observation")

        for sampler, theta0, theta1, n in (
                (models.GaussianLocationSampler(1.0), 0.0, 1.0, 16),
                (models.UniformScaleSampler(), 1.0, 1.1, 20),
                (models.UniformLocationSampler(), 0.0, 0.25, 2),
                (models.ExponentialRateSampler(), 1.0, 2.0, 3)):
            monkeypatch.setattr(sampler, "sample", refuse)
            monkeypatch.setattr(sampler, "log_likelihood", refuse)
            monkeypatch.setattr(sampler, "statistic", refuse)
            est = models.monte_carlo_pe(sampler, 0.5, theta0, theta1, n,
                                        10_000, 3)
            assert 0.0 < est.estimate < 1.0

    def test_cost_does_not_grow_with_n(self):
        # 10^4 trials of 10^6 observations each: drawing every observation
        # would take 10^10 values
        n, trials, sigma, d = 10 ** 6, 10_000, 1.3, 2.0
        est = models.monte_carlo_pe(models.GaussianLocationSampler(sigma),
                                    0.5, 0.0, d * sigma / math.sqrt(n), n,
                                    trials, 271828)
        assert abs(est.estimate - oracles.gauss_pe(0.5, d)) <= est.half_width

    @pytest.mark.parametrize("sampler", [
        models.GaussianLocationSampler(0.7), models.UniformScaleSampler(),
        models.UniformLocationSampler(), models.ExponentialRateSampler()])
    def test_statistic_ranks_hypotheses_as_the_likelihood(self, sampler):
        # stat_log_likelihood is the log-likelihood up to a term that does
        # not depend on theta
        rng = np.random.default_rng(3)
        x = sampler.sample(rng, 1.0, 5, 200)
        stat = sampler.statistic(x)
        gaps = []
        for t in (1.0, 1.02, 1.5):
            full = sampler.log_likelihood(x, t)
            reduced = sampler.stat_log_likelihood(stat, 5, t)
            assert np.array_equal(np.isneginf(full), np.isneginf(reduced))
            fits = np.isfinite(full)
            gaps.append(np.where(fits, full - np.where(fits, reduced, 0.0),
                                 np.nan))
        gaps = np.array(gaps)
        assert np.isfinite(gaps).all(axis=0).any()
        spread = np.nanmax(gaps, axis=0) - np.nanmin(gaps, axis=0)
        assert np.nanmax(spread) <= 1e-12

    @pytest.mark.parametrize("n", [0, -2])
    def test_requires_an_observation(self, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            models.monte_carlo_pe(models.GaussianLocationSampler(1.0),
                                  0.5, 0.0, 1.0, n, 10_000, 1)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            models.monte_carlo_pe(models.GaussianLocationSampler(1.0),
                                  0.5, 0.0, 1.0, 1, 100, 1)
