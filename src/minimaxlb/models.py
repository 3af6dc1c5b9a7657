"""Parametric model library.

Each model exposes one or both of:

* an exact binary MAP error, reached only as model.oracle.pe(q, theta0,
  theta1, n): the Bayes error of deciding between p(.|theta0) and
  p(.|theta1) from n iid draws under priors (q, 1-q);
* a local error limit model.limit, describing what happens when the two
  test points approach each other at the model's natural contraction rate
  xi = v^(-gamma) (v is the sample size n, or the time T of waveform models).

The local limit carries three views of the same object:

    pe_inf(theta, s)          limit of max_q pe(q, theta, theta + 2*s*xi)
    pe_inf_halfprior(theta,s) same with q frozen at 1/2
    pe_pair(theta, delta, q)  limit of pe(q, theta, theta + delta*xi)

pe_pair is the primitive of the multi-point engines, which weight pairs of
test points with priors of their own.  Both sources of pair errors also
carry a pair split: with G(x, y) = (x+y) * pe(x/(x+y)) the Bayes error of a
pair with prior masses x and y, it returns (u, value), value the maximum
over u in [0, 1] of G((1-u)*a, u*b) and u the split that attains it,
elementwise over the masses a, b >= 0 (value 0 where a or b is 0).  It
solves every prior the engines need: the two-point and transform priors
split two fixed masses, and the nested engines split each flank pair of a
simplex row (the pinned three-point row is in closed form).  Every limit,
and both min-form oracles, come from one builder per kind of pair error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit, log_ndtr

from .loss import RatePower
from .numerics import Interval, gaussian_tail

__all__ = [
    "BinaryErrorOracle",
    "LocalErrorLimit",
    "Model",
    "PeEstimate",
    "binary_gaussian_error",
    "binary_gaussian_split",
    "exponential_rate_pe",
    "exponential_rate_split",
    "fisher_from_log_partition",
    "monte_carlo_pe",
    "get_model",
    "MODEL_IDS",
    "MODEL_PARAMS",
]


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class BinaryErrorOracle:
    """Exact MAP error pe(q, theta0, theta1, n) for one model.

    Registry oracles accept either ordering of the test points and coincident
    points (where pe = min{q, 1-q}); they are concave in q with pe(0) = pe(1) = 0
    and satisfy pe(q, a, b) = pe(1-q, b, a).

    pair_split(a, b, theta0, theta1, n) -> (u, value), vectorized over the
    masses a (on theta0) and b (on theta1), is the exact maximum over u in
    [0, 1] of G((1-u)*a, u*b), G(x, y) = (x+y) * pe(x/(x+y), theta0, theta1,
    n), and the u that attains it; value is 0 where a or b is 0.  All
    registry oracles define it, for the same orderings as pe; an oracle
    without one (None) has its splits searched.

    Registry oracles take arrays of test points too, broadcast against q
    (or a and b), each element equal to its own scalar call; one element out
    of the space raises the scalar call's ValueError.  On gauss-location a
    trailing axis of theta0 and theta1 beyond q's (or a's and b's) holds
    vector coordinates, and the distance is the Euclidean norm over it.  The
    finite-sample nested bounds and the pairwise combiners pass arrays of
    test points, so a custom oracle must accept them.
    """

    pe: Callable
    pair_split: Optional[Callable] = None


@dataclass(frozen=True)
class LocalErrorLimit:
    """Limiting error probabilities under test-point contraction.

    rate describes the contraction: xi = variable^(-xi_exponent).  The stored
    zeta_exponent pairs with squared error; bound engines rescale it for the
    loss they actually use.  pe_inf(theta, s) and pe_inf_halfprior are
    elementwise over an array s: a spacing search scores its grid in one call.

    pair_split(theta, delta, a, b) -> (u, value), vectorized over the masses
    a, b >= 0, is the exact maximum over u in [0, 1] of the pair's
    unnormalized Bayes error G((1-u)*a, u*b), G(x, y) = (x+y) *
    pe_pair(theta, delta, x/(x+y)), and the u that attains it; value is 0
    where a or b is 0.
    """

    pe_inf: Callable
    rate: RatePower
    pe_inf_halfprior: Optional[Callable] = None
    pe_pair: Optional[Callable] = None
    pair_split: Optional[Callable] = None


@dataclass(frozen=True)
class Model:
    """A registry entry: the model's id, its parameter space and whichever
    views it supports."""

    id: str
    parameter_space: Interval
    oracle: Optional[BinaryErrorOracle] = None
    limit: Optional[LocalErrorLimit] = None
    sampler: Optional[object] = None


# ---------------------------------------------------------------------------
# closed-form error probabilities

def binary_gaussian_error(q, d):
    """MAP error for two unit-variance Gaussian hypotheses whose means are
    d apart, priors (q, 1-q).

    The likelihood-ratio threshold sits at d/2 - ln((1-q)/q)/d from the first
    mean, giving q*Q(d/2 - L/d) + (1-q)*Q(d/2 + L/d) with L = ln((1-q)/q).
    Symmetric in q <-> 1-q; d = 0 degenerates to min{q, 1-q}.  d may be an
    array, broadcast against q.
    """
    q = np.asarray(q, dtype=float)
    d = _distance(d)
    ds = np.where(d > 0.0, d, 1.0)
    interior = (q > 0.0) & (q < 1.0)
    qs = np.where(interior, q, 0.5)
    L = np.log((1.0 - qs) / qs)
    pe = qs * gaussian_tail(ds / 2.0 - L / ds) + (1.0 - qs) * gaussian_tail(ds / 2.0 + L / ds)
    out = np.where(d > 0.0, np.where(interior, pe, 0.0), np.minimum(q, 1.0 - q))
    return float(out) if out.ndim == 0 else out


def _distance(d):
    """A pair distance as a float array (0-d for a scalar); ValueError if
    any element is negative or NaN."""
    d = np.asarray(d, dtype=float)
    if not (d >= 0.0).all():
        raise ValueError("distance must be nonnegative")
    return d


def _min_form_pe(A, B, q):
    """Min-form pair error min{A*q, B*(1-q)}, arms A, B >= 0: the error of a
    pair whose MAP test errs only where the hypotheses overlap."""
    q = np.asarray(q, dtype=float)
    out = np.minimum(A * q, B * (1.0 - q))
    return float(out) if out.ndim == 0 else out


def _min_form_split(A: float, B: float, a, b):
    """Exact pair split for a min-form pair error, G(x, y) = min{A*x, B*y}.

    min{A(1-u)a, B*u*b} peaks where its two arms meet: u = Aa/(Aa + Bb),
    value Aa*Bb/(Aa + Bb).  Value 0 (and u = 1/2) where either arm is 0.
    """
    x = A * np.asarray(a, dtype=float)
    y = B * np.asarray(b, dtype=float)
    pos = (x > 0.0) & (y > 0.0)
    total = np.where(pos, x + y, 1.0)
    return np.where(pos, x / total, 0.5), np.where(pos, x * (y / total), 0.0)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SPLIT_XTOL = 1e-14
_SPLIT_MAX_ITERS = 100
_TINY = np.finfo(float).tiny


def _newton(step, x):
    """Iterate the elementwise safeguarded step (x_new, done) = step(x) from
    the array x, at most _SPLIT_MAX_ITERS times.  Each element keeps the
    iterate of the step that converged it, so an element of an array call
    equals its own scalar call."""
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_SPLIT_MAX_ITERS):
        x_new, done = step(x)
        x = np.where(active, x_new, x)
        active &= ~done
        if not active.any():
            break
    return x


def binary_gaussian_split(a, b, d):
    """Exact pair split for two unit-variance Gaussian hypotheses d apart.

    Returns (u, value): value = max over u in [0, 1] of G((1-u)*a, u*b), with
    G(x, y) = (x+y) * binary_gaussian_error(x/(x+y), d), and the u attaining
    it, elementwise over the masses a, b >= 0.  G is concave in u and peaks
    where the two weighted error types are equal: at the MAP threshold x*
    (measured from the first mean) with a*Q(x*) = b*Q(d - x*).  The root of
    f(x) = ln(a/b) + ln Q(x) - ln Q(d - x) is found in log space by Newton
    steps kept inside a bisection bracket.  Then value = a*Q(x*) and
    u = expit(d*(d/2 - x*) + ln(a/b)).  d = 0 is the min-form case
    G(x, y) = min{x, y}.  Value 0 (and u = 1/2) where a or b is 0.  d may
    be an array, broadcast against a and b; an element equals its own scalar
    call (see _newton).
    """
    d = _distance(d)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pos = (a > 0.0) & (b > 0.0)
    log_ratio = np.log(np.where(pos, a, 1.0)) - np.log(np.where(pos, b, 1.0))
    mid = 0.5 * d

    def hazard(t, log_tail):
        return np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_tail)

    # f' = -(h(x) + h(d - x)) with h the normal hazard, which is positive and
    # increasing, so |f'| >= h(d/2) and the root lies within
    # |ln(a/b)| / h(d/2) of d/2, on the side of ln(a/b)'s sign.
    h_mid = hazard(mid, log_ndtr(-mid))
    lo = mid + np.minimum(log_ratio, 0.0) / h_mid
    hi = mid + np.maximum(log_ratio, 0.0) / h_mid
    def step(x):
        nonlocal lo, hi
        log_q0 = log_ndtr(-x)
        log_q1 = log_ndtr(x - d)
        f = log_ratio + log_q0 - log_q1
        lo = np.where(f > 0.0, x, lo)
        hi = np.where(f < 0.0, x, hi)
        newton = x + f / (hazard(x, log_q0) + hazard(d - x, log_q1))
        x_new = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        return x_new, np.abs(x_new - x) <= _SPLIT_XTOL * np.maximum(1.0, np.abs(x))

    # start at the Newton step from d/2
    x = _newton(step, mid + log_ratio / (2.0 * h_mid))
    zero_u, zero_value = _min_form_split(1.0, 1.0, a, b)
    live = pos & (d > 0.0)
    return (np.where(live, expit(d * (mid - x) + log_ratio), zero_u),
            np.where(live, a * gaussian_tail(x), zero_value))


def _rates(theta0, theta1):
    theta0, theta1 = np.asarray(theta0, dtype=float), np.asarray(theta1, dtype=float)
    if not ((0.0 < theta0) & (theta0 < theta1) & (theta1 < math.inf)).all():
        raise ValueError("need 0 < theta0 < theta1 < inf")
    return theta0, theta1


def exponential_rate_pe(q, theta0, theta1):
    """MAP error for a single observation of an exponential density with rate
    theta0 versus theta1, 0 < theta0 < theta1 < inf.

    The likelihood ratio is monotone, so the rule is a single threshold
    x0 = ln((1-q)theta1 / (q theta0)) / (theta1 - theta0); when the threshold
    is negative the rule always picks the first hypothesis and the error is
    1 - q.  Elementwise over arrays of q, theta0 and theta1.
    """
    theta0, theta1 = _rates(theta0, theta1)
    q = np.asarray(q, dtype=float)
    if ((q < 0) | (q > 1)).any():
        raise ValueError("prior must lie in [0, 1]")
    interior = (q > 0.0) & (q < 1.0)
    qs = np.where(interior, q, 0.5)
    # the threshold is formed from logs, so a prior near 0 cannot overflow
    # the ratio, and the threshold branch is evaluated at x0 >= 0 only (where
    # it is used), so a prior near 1 cannot overflow the exponentials
    x0 = (np.log1p(-qs) - np.log(qs) + np.log(theta1 / theta0)) / (theta1 - theta0)
    xt = np.maximum(x0, 0.0)
    pe_thresh = qs * (1.0 - np.exp(-theta0 * xt)) + (1.0 - qs) * np.exp(-theta1 * xt)
    pe = np.where(x0 > 0.0, pe_thresh, 1.0 - qs)
    out = np.where(interior, pe, 0.0)
    return float(out) if out.ndim == 0 else out


def exponential_rate_split(a, b, theta0, theta1):
    """Exact pair split for a single exponential observation, rate theta0
    (mass a) versus theta1 (mass b), 0 < theta0 < theta1 < inf.

    The MAP rule picks theta1 below a threshold t, erring with probability
    1 - e^(-theta0 t) under theta0 and e^(-theta1 t) under theta1.  The best
    split equalizes the two weighted error types: a*(1 - e^(-theta0 t*)) =
    b*e^(-theta1 t*), value b*e^(-theta1 t*).  t* is the root of f(t) =
    ln(a/b) + ln(1 - e^(-theta0 t)) + theta1*t, which is increasing and
    concave, so Newton steps from a point where f <= 0 rise monotonically to
    it.  Then u = expit(ln(a*theta0 / (b*theta1)) + (theta1 - theta0)*t*).
    Value 0 (and u = 1/2) where a or b is 0.  Elementwise over arrays of the
    masses and rates; an element equals its own scalar call (see _newton).
    """
    theta0, theta1 = _rates(theta0, theta1)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pos = (a > 0.0) & (b > 0.0)
    log_ratio = np.log(np.where(pos, a, 1.0)) - np.log(np.where(pos, b, 1.0))
    # 1 - e^(-x) <= x gives f(t) <= ln(a/b) + ln(theta0 t) + theta1 t, which
    # is <= 0 at t = min(1/theta1, b/(e a theta0)); the floors keep t normal,
    # so the slope (about 1/t) cannot overflow, and a start past the root
    # then halves back towards it
    t0 = np.exp(np.maximum(np.minimum(-np.log(theta1), -log_ratio - 1.0
                                      - np.log(theta0)), -700.0))
    def step(t):
        em1 = -np.expm1(-theta0 * t)
        f = log_ratio + np.log(em1) + theta1 * t
        # f' = theta0 e^(-theta0 t) / (1 - e^(-theta0 t)) + theta1
        newton = t - f / (theta0 * (1.0 - em1) / em1 + theta1)
        t_new = np.maximum(np.maximum(newton, 0.5 * t), _TINY)
        return t_new, np.abs(t_new - t) <= _SPLIT_XTOL * t

    t = _newton(step, t0)
    return (np.where(pos, expit(log_ratio + np.log(theta0 / theta1)
                                + (theta1 - theta0) * t), 0.5),
            np.where(pos, b * np.exp(-theta1 * t), 0.0))


def _scale_arms(theta0, theta1, n: int):
    """Arms (min{1, (theta1/theta0)^n}, min{1, (theta0/theta1)^n}) of the
    uniform-scale pair error, in either order: pe = min{q, (1-q)
    (theta0/theta1)^n} for theta0 <= theta1, as a draw above theta0 settles
    the matter.  Each ratio is capped at 1 before the power, so it cannot
    overflow; float_power is C pow, as Python's float power (not SIMD pow)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not ((np.minimum(theta0, theta1) > 0.0)
            & (np.maximum(theta0, theta1) < math.inf)).all():
        raise ValueError("need test points in (0, inf)")
    return (np.float_power(np.minimum(1.0, theta1 / theta0), n),
            np.float_power(np.minimum(1.0, theta0 / theta1), n))


def _difference(theta0, theta1):
    """theta1 - theta0, elementwise; ValueError unless both are finite."""
    if not (np.isfinite(theta0) & np.isfinite(theta1)).all():
        raise ValueError("need finite test points")
    return np.subtract(theta1, theta0, dtype=float)


def _location_arms(theta0, theta1, n: int):
    """Arms (A, A), A = max(0, 1 - |theta1 - theta0|)^n, of the
    uniform-location pair error A min{q, 1-q}, in either order: the n draws
    all land in the overlap of the supports with probability A, and there the
    posteriors are flat (float_power as in _scale_arms)."""
    if n < 1:
        raise ValueError("need n >= 1")
    spacing = np.abs(_difference(theta0, theta1))
    overlap = np.float_power(np.maximum(0.0, 1.0 - spacing), n)
    return overlap, overlap


def _separation(theta0, theta1) -> float:
    a = np.atleast_1d(np.asarray(theta0, dtype=float))
    b = np.atleast_1d(np.asarray(theta1, dtype=float))
    return float(np.linalg.norm(b - a))


def _require_scale(name: str, value: float) -> None:
    """Refuse a scale parameter that is not a finite positive number (an
    infinite noise scale would otherwise make every test point coincide)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive number")


def _gaussian_distance(theta0, theta1, n: int, sigma: float, axes: int):
    """Distance of the two sample means in units of their standard error,
    elementwise.  Where theta0 and theta1 have more than ``axes`` axes (those
    of the prior or the masses), the last one holds vector coordinates and
    the separation is the Euclidean norm over it (the factory checks sigma)."""
    if n < 1:
        raise ValueError("need n >= 1")
    diff = _difference(theta0, theta1)
    sep = np.linalg.norm(diff, axis=-1) if diff.ndim > axes else np.abs(diff)
    return math.sqrt(n) * sep / sigma


# ---------------------------------------------------------------------------
# local limits

def _gaussian_limit(dist, rate: RatePower) -> LocalErrorLimit:
    """The local limit whose test points delta apart act as two
    unit-variance Gaussians dist(theta, delta) apart (dist vectorized over
    delta).  The pair error is symmetric in the prior, so the optimal prior
    is 1/2 and pe_inf = pe_inf_halfprior = Q(dist(theta, 2s)/2)."""

    def pe_inf(theta, s):
        spacing = 2.0 * np.asarray(s, dtype=float)
        return gaussian_tail(dist(theta, spacing) / 2.0)

    def pe_pair(theta, delta, q):
        return binary_gaussian_error(q, dist(theta, delta))

    def pair_split(theta, delta, a, b):
        return binary_gaussian_split(a, b, dist(theta, delta))

    return LocalErrorLimit(pe_inf=pe_inf, rate=rate, pe_inf_halfprior=pe_inf,
                           pe_pair=pe_pair, pair_split=pair_split)


def _min_form_limit(arms, rate: RatePower) -> LocalErrorLimit:
    """The local limit whose pair error at spacing delta is the min form
    min{A*q, B*(1-q)}, (A, B) = arms(theta, delta) (delta a float or array).
    At spacing 2s the best prior meets the two arms, so pe_inf = A*B/(A+B)
    (the split of unit masses), and pe_inf_halfprior = min{A, B}/2."""

    def pe_pair(theta, delta, q):
        return _min_form_pe(*arms(theta, delta), q)

    def pair_split(theta, delta, a, b):
        return _min_form_split(*arms(theta, delta), a, b)

    def pe_inf(theta, s):
        A, B = arms(theta, 2.0 * s)
        # the floor makes 0/0 a 0 where both arms vanish
        return A * (B / np.maximum(A + B, 5e-324))

    def pe_inf_halfprior(theta, s):
        return 0.5 * np.minimum(*arms(theta, 2.0 * s))

    return LocalErrorLimit(pe_inf=pe_inf, rate=rate,
                           pe_inf_halfprior=pe_inf_halfprior,
                           pe_pair=pe_pair, pair_split=pair_split)


def _min_form_oracle(arms) -> BinaryErrorOracle:
    """The exact oracle whose pair error is the min form min{A*q, B*(1-q)},
    (A, B) = arms(theta0, theta1, n), with its exact pair split."""

    def pe(q, theta0, theta1, n):
        return _min_form_pe(*arms(theta0, theta1, n), q)

    def pair_split(a, b, theta0, theta1, n):
        return _min_form_split(*arms(theta0, theta1, n), a, b)

    return BinaryErrorOracle(pe, pair_split)


def fisher_from_log_partition(log_z: Callable[[float], float], theta: float,
                              h: float = 1e-3) -> float:
    """Fisher information of an exponential family from its log-normalizer:
    the curvature d^2 log Z / d theta^2, by central second differences at
    steps h and h/2 combined with one Richardson extrapolation
    (4*D(h/2) - D(h))/3, which cancels the leading h^2 error term."""
    _require_scale("h", h)

    def second_diff(step: float) -> float:
        return (log_z(theta + step) - 2.0 * log_z(theta) + log_z(theta - step)) / step ** 2

    d1 = second_diff(h)
    d2 = second_diff(h / 2.0)
    out = (4.0 * d2 - d1) / 3.0
    if not math.isfinite(out):
        raise ArithmeticError("log-partition evaluations were not finite near theta")
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo verification path

@dataclass(frozen=True)
class PeEstimate:
    estimate: float
    half_width: float
    trials: int
    seed: int


# Each sampler draws a row's sufficient statistic straight from its exact law
# (sample_statistic(rng, theta, n, size)): one or two random values a row
# whatever n is.  stat_log_likelihood(stat, n, theta) scores it: the row's
# log-likelihood up to a term that does not depend on theta.  sample,
# log_likelihood and statistic draw and score the n observations themselves;
# monte_carlo_pe does not call them, the tests check the laws against them.

class GaussianLocationSampler:
    def __init__(self, sigma: float = 1.0):
        _require_scale("sigma", sigma)
        self.sigma = sigma

    def sample(self, rng, theta, n, size):
        return rng.normal(theta, self.sigma, size=(size, n))

    def sample_statistic(self, rng, theta, n, size):
        # the sum of n N(theta, sigma^2) draws is N(n theta, n sigma^2)
        return rng.normal(n * theta, self.sigma * math.sqrt(n), size)

    def log_likelihood(self, x, theta):
        z = (x - theta) / self.sigma
        return -0.5 * np.sum(z * z, axis=1) - x.shape[1] * math.log(self.sigma)

    def statistic(self, x):
        return np.sum(x, axis=1)

    def stat_log_likelihood(self, total, n, theta):
        # drops -sum(x^2) / (2 sigma^2) - n log sigma
        return theta * (total - 0.5 * n * theta) / self.sigma ** 2


class UniformScaleSampler:
    def sample(self, rng, theta, n, size):
        return rng.uniform(0.0, theta, size=(size, n))

    def sample_statistic(self, rng, theta, n, size):
        # the largest of n U(0, theta) draws is theta U^(1/n)
        return theta * rng.random(size) ** (1.0 / n)

    def log_likelihood(self, x, theta):
        inside = (x >= 0.0).all(axis=1) & (x <= theta).all(axis=1)
        return np.where(inside, -x.shape[1] * math.log(theta), -np.inf)

    def statistic(self, x):
        # the rows drawn here are nonnegative, so their largest value alone
        # decides which scales they fit
        return np.max(x, axis=1)

    def stat_log_likelihood(self, top, n, theta):
        return np.where(top <= theta, -n * math.log(theta), -np.inf)


class UniformLocationSampler:
    def sample(self, rng, theta, n, size):
        return rng.uniform(theta, theta + 1.0, size=(size, n))

    def sample_statistic(self, rng, theta, n, size):
        # the largest of n U(0, 1) draws is U^(1/n); given it, the other n - 1
        # are U(0, top), so the smallest is top (1 - V^(1/(n-1))).  U and V
        # come in pairs, so rows drawn in chunks are the rows drawn at once
        uv = rng.random((size, 2))
        top = uv[:, 0] ** (1.0 / n)
        low = top if n == 1 else top * (1.0 - uv[:, 1] ** (1.0 / (n - 1)))
        return theta + low, theta + top

    def log_likelihood(self, x, theta):
        inside = (x >= theta).all(axis=1) & (x <= theta + 1.0).all(axis=1)
        return np.where(inside, 0.0, -np.inf)

    def statistic(self, x):
        return np.min(x, axis=1), np.max(x, axis=1)

    def stat_log_likelihood(self, ends, n, theta):
        low, top = ends
        return np.where((low >= theta) & (top <= theta + 1.0), 0.0, -np.inf)


class ExponentialRateSampler:
    def sample(self, rng, theta, n, size):
        return rng.exponential(1.0 / theta, size=(size, n))

    def sample_statistic(self, rng, theta, n, size):
        # the sum of n exponentials of rate theta is Gamma(n, scale 1/theta)
        return rng.gamma(n, 1.0 / theta, size)

    def log_likelihood(self, x, theta):
        return x.shape[1] * math.log(theta) - theta * np.sum(x, axis=1)

    def statistic(self, x):
        return np.sum(x, axis=1)

    def stat_log_likelihood(self, total, n, theta):
        return n * math.log(theta) - theta * total


_MC_CHUNK_ROWS = 2 ** 17
_MC_Z = 1.96  # two-sided 95% normal quantile


def monte_carlo_pe(sampler, q: float, theta0, theta1, n: int, trials: int,
                   seed: int) -> PeEstimate:
    """Estimate pe(q, theta0, theta1, n) by simulating the MAP rule.

    Draws how many of the trials have H1 true (binomial with probability
    1-q), then draws each trial's sufficient statistic for n observations
    straight from its exact law under the true model (so the cost is
    O(trials) whatever n is), decides by comparing log q + log p(x|theta0)
    against log(1-q) + log p(x|theta1), both read from the statistic up to a
    common term, and reports the empirical error rate with the half-width of
    its 95% Wilson (1927) score interval: the larger distance from the
    estimate to the interval's ends, which stays positive at an empirical
    rate of 0 or 1.  Fully determined by ``seed``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if trials < 10_000:
        raise ValueError("need at least 10^4 trials for a meaningful half-width")
    if not 0.0 <= q <= 1.0:
        raise ValueError("prior must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n_h1 = int(rng.binomial(trials, 1.0 - q))
    n_h0 = trials - n_h1

    log_q0 = math.log(q) if q > 0 else -math.inf
    log_q1 = math.log(1.0 - q) if q < 1 else -math.inf
    # all H0 rows, then all H1 rows, in chunks of at most _MC_CHUNK_ROWS: the
    # same statistics as one sample_statistic call per hypothesis
    errors = 0
    for theta, count, truth_h1 in ((theta0, n_h0, False), (theta1, n_h1, True)):
        for start in range(0, count, _MC_CHUNK_ROWS):
            stat = sampler.sample_statistic(
                rng, theta, n, min(_MC_CHUNK_ROWS, count - start))
            decide_h0 = (log_q0 + sampler.stat_log_likelihood(stat, n, theta0)
                         >= log_q1 + sampler.stat_log_likelihood(stat, n, theta1))
            errors += int(np.count_nonzero(decide_h0 == truth_h1))

    p_hat = errors / trials
    z2n = _MC_Z * _MC_Z / trials
    center = (p_hat + 0.5 * z2n) / (1.0 + z2n)
    radius = _MC_Z / (1.0 + z2n) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + 0.25 * z2n / trials)
    half_width = radius + abs(center - p_hat)
    return PeEstimate(estimate=p_hat, half_width=half_width, trials=trials,
                      seed=seed)


# ---------------------------------------------------------------------------
# registry

def _make_exp_rate() -> Model:
    def oriented(theta0, theta1, n):
        # (swap, same, lo, hi): the pair error is written for lo < hi, so
        # theta0 > theta1 swaps the points' roles; coincident points are
        # scored at (lo/2, lo), where an out-of-space rate still raises, then
        # get the min form
        if n != 1:
            raise ValueError(
                "the exponential rate oracle is single-observation (n = 1)")
        same, lo = theta0 == theta1, np.minimum(theta0, theta1)
        return (theta0 > theta1, same, np.where(same, 0.5 * lo, lo),
                np.maximum(theta0, theta1))

    def pe(q, theta0, theta1, n):
        swap, same, lo, hi = oriented(theta0, theta1, n)
        out = np.where(same, _min_form_pe(1.0, 1.0, q),
                       exponential_rate_pe(np.where(swap, 1.0 - q, q), lo, hi))
        return float(out) if out.ndim == 0 else out

    def pair_split(a, b, theta0, theta1, n):
        swap, same, lo, hi = oriented(theta0, theta1, n)
        # G(x, y) at (theta0, theta1) is G(y, x) at (theta1, theta0)
        u, value = exponential_rate_split(np.where(swap, b, a),
                                          np.where(swap, a, b), lo, hi)
        same_u, same_value = _min_form_split(1.0, 1.0, a, b)
        return (np.where(same, same_u, np.where(swap, 1.0 - u, u)),
                np.where(same, same_value, value))

    # single observation of an exponential density with rate theta
    return Model("exp-rate", Interval(0.0, math.inf),
                 oracle=BinaryErrorOracle(pe, pair_split),
                 sampler=ExponentialRateSampler())


# the real line, as far as an Interval (whose lower end is finite) reaches
_REAL_LINE = Interval(-1e308, math.inf)


def _make_uniform_scale() -> Model:
    # Uniform[0, theta].  Local limit: xi = 1/n, pair error
    # min{q, (1-q) e^(-delta/theta)}, so pe_inf(theta, s) = 1/(1 + e^(2s/theta))
    # at the optimizing prior, which is itself 1/(1 + e^(2s/theta)); the
    # frozen-prior variant is e^(-2s/theta)/2.
    def arms(theta, delta):
        if not theta > 0:
            raise ValueError("theta must be positive")
        return 1.0, np.exp(-delta / theta)

    return Model("uniform-scale", Interval(0.0, math.inf),
                 oracle=_min_form_oracle(_scale_arms),
                 limit=_min_form_limit(arms, RatePower(1.0, 2.0, "n")),
                 sampler=UniformScaleSampler())


def _make_uniform_location() -> Model:
    # Uniform[theta, theta+1].  Local limit: xi = 1/n, pair error
    # e^(-delta) min{q, 1-q}, so pe_inf(theta, s) = e^(-2s)/2, parameter-free.
    def arms(theta, delta):
        overlap = np.exp(-delta)
        return overlap, overlap

    return Model("uniform-location", _REAL_LINE,
                 oracle=_min_form_oracle(_location_arms),
                 limit=_min_form_limit(arms, RatePower(1.0, 2.0, "n")),
                 sampler=UniformLocationSampler())


def _make_gauss_location(sigma: float = 1.0) -> Model:
    # n iid N(theta, sigma^2) draws; both views depend on the separation
    # only and pe is symmetric in q <-> 1-q, so G(x, y) = G(y, x)
    def pe(q, theta0, theta1, n):
        return binary_gaussian_error(q, _gaussian_distance(
            theta0, theta1, n, sigma, np.ndim(q)))

    def pair_split(a, b, theta0, theta1, n):
        return binary_gaussian_split(a, b, _gaussian_distance(
            theta0, theta1, n, sigma, max(np.ndim(a), np.ndim(b))))

    # local limit: xi = n^(-1/2), pe_inf(theta, s) = Q(s/sigma), optimal
    # prior identically 1/2
    _require_scale("sigma", sigma)
    limit = _gaussian_limit(lambda theta, delta: delta / sigma,
                            RatePower(0.5, 1.0, "n"))
    return Model("gauss-location", _REAL_LINE,
                 oracle=BinaryErrorOracle(pe, pair_split), limit=limit,
                 sampler=GaussianLocationSampler(sigma))


# The waveform models estimate a parameter of a known signal observed in
# white Gaussian noise of two-sided spectral density n0/2 over [0, T].

def _make_awgn_smooth(pdot: float = 1.0, n0: float = 1.0) -> Model:
    # differentiable signal parameterization with derivative power pdot: the
    # correlation decays quadratically, so xi = T^(-1/2) and
    # pe_inf(theta, s) = Q(sqrt(2*pdot/n0) * s)
    _require_scale("pdot", pdot)
    _require_scale("n0", n0)
    coef = math.sqrt(2.0 * pdot / n0)
    return Model("awgn-smooth", _REAL_LINE, limit=_gaussian_limit(
        lambda theta, delta: coef * delta, RatePower(0.5, 1.0, "T")))


def _make_awgn_rect(power: float = 1.0, n0: float = 1.0,
                    pulse_width: float = 1.0) -> Model:
    # time-shift of a rectangular pulse of power ``power`` and duration
    # pulse_width: the correlation decays linearly in the shift, which makes
    # the exponent linear too, so xi = 1/T and
    # pe_inf(theta, s) = Q(sqrt(2*power*s/(n0*pulse_width)))
    _require_scale("power", power)
    _require_scale("n0", n0)
    _require_scale("pulse_width", pulse_width)
    scale = power / (n0 * pulse_width)
    return Model("awgn-rect", _REAL_LINE, limit=_gaussian_limit(
        lambda theta, delta: 2.0 * np.sqrt(scale * delta),
        RatePower(1.0, 2.0, "T")))


def _make_exp_family(fisher: Callable[[float], float] = None,
                     sigma: float = 1.0, h: float = 1e-3) -> Model:
    # a smooth exponential family with Fisher information fisher(theta):
    # xi = n^(-1/2), pe_inf(theta, s) = Q(s * sqrt(fisher(theta))).  The
    # default family is Gaussian in its natural parameterization, whose
    # log-normalizer is theta^2 sigma^2 / 2; the Fisher information is then
    # computed numerically rather than assumed.
    if fisher is None:
        _require_scale("sigma", sigma)

        def log_z(theta):
            return 0.5 * theta * theta * sigma * sigma

        def fisher(theta):
            return fisher_from_log_partition(log_z, theta, h)

    def dist(theta, delta):
        info = float(fisher(float(theta)))
        if not info > 0:
            raise ValueError("Fisher information must be positive")
        return delta * math.sqrt(info)

    return Model("exp-family", _REAL_LINE,
                 limit=_gaussian_limit(dist, RatePower(0.5, 1.0, "n")))


def _make_nuisance_rotation(sigma: float = 1.0) -> Model:
    # 2-D Gaussian location with an unknown second coordinate: no view here,
    # the rotation-transform bound serves it
    _require_scale("sigma", sigma)
    return Model("nuisance-rotation", _REAL_LINE)


_FACTORIES = {
    "exp-rate": _make_exp_rate,
    "uniform-scale": _make_uniform_scale,
    "uniform-location": _make_uniform_location,
    "gauss-location": _make_gauss_location,
    "awgn-smooth": _make_awgn_smooth,
    "awgn-rect": _make_awgn_rect,
    "exp-family": _make_exp_family,
    "nuisance-rotation": _make_nuisance_rotation,
}

MODEL_IDS = tuple(sorted(_FACTORIES))

# float-valued construction parameters per model, read off the factory
# signatures; exp-family's ``fisher`` callable is not among them
MODEL_PARAMS = {mid: tuple(k for k, p in inspect.signature(f).parameters.items()
                           if isinstance(p.default, float))
                for mid, f in _FACTORIES.items()}


def get_model(model_id: str, **params) -> Model:
    """Build a registry model by id.  Unknown ids raise ValueError; unknown
    or invalid parameters raise whatever the factory raises."""
    try:
        factory = _FACTORIES[model_id]
    except KeyError:
        raise ValueError(f"unknown model id: {model_id!r} "
                         f"(known: {', '.join(MODEL_IDS)})") from None
    return factory(**params)
