"""Reference values and output checks for the benchmark.

Everything here is independent of the package under test: the Gaussian tail
comes from ``math.erfc``, the error probabilities are written out from their
closed forms, and the few suprema without a closed form are found by a plain
scan-and-golden search on the log of a log-concave objective.

A check compares one computed value against a reference:

* above the reference by more than ``OVERSHOOT`` (relative) is a failure: a
  lower bound must never exceed the supremum it approximates;
* below the reference by more than the call's tolerance is a failure;
* otherwise the call passes, and ``-log10`` of its relative gap feeds
  ``accuracy_digits_min`` when the reference is high precision.

A failure that is the documented symptom of one of the program's known
defects carries a ``known`` tag: a shortfall when the reference argmax lies
beyond the default s-domain, a zero Wald half-width when p_hat = 0 is likely,
and a miss within the finite-difference error of a numerically
differentiated Fisher information (exp-family outside ``reproduce``).  Such
failures lower ``pass_frac`` but are not counted as unexpected failures; any
other failure of the same call is.

The FROZEN reference digits are read from ``tests/oracles.py`` of the
checkout under test.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

ORACLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tests", "oracles.py")


@functools.lru_cache(maxsize=None)
def frozen() -> dict:
    """The FROZEN table of tests/oracles.py (12 significant digits,
    cross-checked there against 30-digit mpmath runs), loaded by file path
    on first use, after set-up has been timed."""
    spec = importlib.util.spec_from_file_location("_bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return dict(oracles.FROZEN)


# A value may exceed its reference by one unit in the tenth significant
# digit: the CLI prints 10 significant digits and FROZEN carries 12.
OVERSHOOT = 1e-9
# Default shortfall tolerance for values found by a search.
SEARCH_TOL = 1e-8
# Shortfall tolerance for values evaluated in closed form at fixed inputs.
EVAL_TOL = 1e-9
# Upper end of the s-domain the local engines search by default.
DEFAULT_SMAX = 20.0
# Wilson interval half-width in standard errors for the Monte-Carlo checks;
# a correct sampler falls outside it with probability below 1e-6.
WILSON_Z = 5.0
# Relative error of the package's finite-difference Fisher information; the
# local two-point value scales as I^(-t/2), so it misses by up to t/2 times
# this, either way, beyond the usual tolerances.
FISHER_FD_REL = 2e-9
# Below this many expected errors (or non-errors) p_hat = 0 (or 1) is likely
# and the package's Wald half-width collapses to 0; the benchmark's own
# check then uses exact binomial tails, each at least MC_ALPHA (about the
# two-sided tail of WILSON_Z).
MC_DEGENERATE = 20.0
MC_ALPHA = 1e-6

EDGE = "edge-argmax"
MC_WALD = "mc-wald-degenerate"
FISHER = "fisher-finite-difference"


@dataclass
class Outcome:
    """Result of one checked call."""

    label: str
    seconds: float
    passed: bool
    known: Optional[str] = None
    digits: Optional[float] = None
    message: str = ""


def q_tail(x: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def digits_of(value: float, reference: float) -> float:
    """-log10 of the relative gap, capped at 16 (double precision)."""
    gap = abs(value - reference) / abs(reference)
    return 16.0 if gap <= 1e-16 else min(16.0, -math.log10(gap))


def compare(label: str, seconds: float, value, reference: float, *,
            tol: float = SEARCH_TOL, lower_only: bool = False,
            short_known: Optional[str] = None,
            fisher: float = 0.0) -> Outcome:
    """Check ``value`` against ``reference``.

    With ``lower_only`` the reference is only a floor (one link of the
    dominance chain): the value must not fall below it, and no accuracy is
    derived.  Otherwise the value must not exceed the reference either.
    A miss by at most ``fisher`` (relative) beyond either tolerance is
    tagged ``FISHER``; any other shortfall is tagged ``short_known``.
    """
    out = Outcome(label, seconds, False)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        out.message = f"value is not a finite number: {value!r}"
        return out
    scale = abs(reference)
    if value < reference - tol * scale:
        fd = value >= reference - (tol + fisher) * scale
        out.known = FISHER if fd else short_known
        out.message = f"{value!r} below reference {reference!r}"
        return out
    if not lower_only and value > reference + OVERSHOOT * scale:
        if value <= reference + (OVERSHOOT + fisher) * scale:
            out.known = FISHER
        out.message = f"{value!r} overshoots reference {reference!r}"
        return out
    out.passed = True
    if not lower_only:
        out.digits = digits_of(value, reference)
    return out


def fisher_band(model: str, t: float) -> float:
    """Relative error of a local value explained by the finite-difference
    Fisher information (exp-family only)."""
    return FISHER_FD_REL * t / 2.0 if model == "exp-family" else 0.0


def failed(label: str, seconds: float, message: str) -> Outcome:
    return Outcome(label, seconds, False, message=message)


# ---------------------------------------------------------------------------
# scalar search used where no closed form exists

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def argmax_log_concave(logf: Callable[[float], float], lo: float, hi: float,
                       grid: int = 400):
    """Maximize a unimodal function (given by its log) on [lo, hi]: a
    geometric scan, then golden section to 1e-13 relative in x."""
    ratio = (hi / lo) ** (1.0 / grid)
    xs = [lo * ratio ** i for i in range(grid + 1)]
    vals = [logf(x) for x in xs]
    i = max(range(len(xs)), key=vals.__getitem__)
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid)]
    while b - a > 1e-13 * b:
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        if logf(c) >= logf(d):
            b = d
        else:
            a = c
    return 0.5 * (a + b)


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# local two-point references

def local_pe(model: str, params: dict, half: bool) -> Callable[[float], float]:
    """The model's limiting error probability pe_inf(s), in closed form."""
    if model == "gauss-location":
        sigma = params["sigma"]
        return lambda s: q_tail(s / sigma)
    if model == "awgn-smooth":
        coef = math.sqrt(2.0 * params["pdot"])
        return lambda s: q_tail(coef * s)
    if model == "awgn-rect":
        scale = params["power"]
        return lambda s: q_tail(math.sqrt(2.0 * scale * s))
    if model == "exp-family":
        sigma = params["sigma"]
        return lambda s: q_tail(s * sigma)
    if model == "uniform-scale":
        theta = params["theta"]
        if half:
            return lambda s: 0.5 * math.exp(-2.0 * s / theta)
        return lambda s: 1.0 / (1.0 + math.exp(min(2.0 * s / theta, 700.0)))
    if model == "uniform-location":
        return lambda s: 0.5 * math.exp(-2.0 * s)
    raise ValueError(f"no local limit for {model!r}")


def _frozen_local(model: str, params: dict, t: float, half: bool):
    """Rescaled FROZEN value for the local two-point bound, if one exists."""
    if model in ("gauss-location", "exp-family") and t in (1.0, 2.0):
        sigma = params["sigma"]
        base = frozen()["gauss_local_mse" if t == 2.0 else "gauss_local_mae"]
        return base * (sigma ** t if model == "gauss-location" else sigma ** -t)
    if model == "awgn-smooth" and t == 2.0:
        return frozen()["awgn_smooth_mse"] / params["pdot"]
    if model == "awgn-rect" and t == 2.0:
        return frozen()["awgn_rect_mse"] / params["power"] ** 2
    if model == "uniform-scale" and t == 2.0:
        key = "uniform_scale_local_mse_half" if half else "uniform_scale_local_mse"
        return frozen()[key] * params["theta"] ** 2
    if model == "uniform-location" and t in (1.0, 2.0, 3.0):
        return frozen()[f"uniform_location_t{int(t)}"]
    return None


def local_two_point_reference(model: str, params: dict, t: float, half: bool):
    """(value, argmax s) of sup_s 2 s^t pe_inf(s) over s > 0."""
    pe = local_pe(model, params, half)

    def logf(s: float) -> float:
        return math.log(2.0) + t * math.log(s) + _safe_log(pe(s))

    s_star = argmax_log_concave(logf, 1e-4, 1e4)
    frozen = _frozen_local(model, params, t, half)
    if frozen is not None:
        return frozen, s_star
    if model == "uniform-location" or (model == "uniform-scale" and half):
        theta = params.get("theta", 1.0)
        return theta ** t * (t / (2.0 * math.e)) ** t, s_star
    return 2.0 * s_star ** t * pe(s_star), s_star


# ---------------------------------------------------------------------------
# finite-sample error probabilities

def pe_exact(model: str, params: dict, q: float, theta0: float,
             theta1: float, n: int) -> float:
    """Bayes error of the MAP test between theta0 (prior q) and theta1."""
    if theta0 > theta1:
        return pe_exact(model, params, 1.0 - q, theta1, theta0, n)
    if q <= 0.0 or q >= 1.0:
        return 0.0
    if theta0 == theta1:
        return min(q, 1.0 - q)
    if model == "gauss-location":
        d = math.sqrt(n) * (theta1 - theta0) / params["sigma"]
        ell = math.log((1.0 - q) / q)
        return q * q_tail(d / 2.0 - ell / d) + (1.0 - q) * q_tail(d / 2.0 + ell / d)
    if model == "uniform-scale":
        return min(q, (1.0 - q) * (theta0 / theta1) ** n)
    if model == "uniform-location":
        return (1.0 - (theta1 - theta0)) ** n * min(q, 1.0 - q)
    if model == "exp-rate":
        if n != 1:
            raise ValueError("exp-rate reference is single-observation")
        x0 = math.log((1.0 - q) * theta1 / (q * theta0)) / (theta1 - theta0)
        if x0 <= 0.0:
            return 1.0 - q
        return q * (1.0 - math.exp(-theta0 * x0)) + (1.0 - q) * math.exp(-theta1 * x0)
    raise ValueError(f"no exact oracle for {model!r}")


def pe_max(model: str, params: dict, theta0: float, theta1: float, n: int):
    """max over q of the Bayes error (concave in q)."""
    if model == "gauss-location":
        return q_tail(math.sqrt(n) * abs(theta1 - theta0) / (2.0 * params["sigma"]))
    if model == "uniform-scale":
        lo, hi = sorted((theta0, theta1))
        alpha = (lo / hi) ** n
        return alpha / (1.0 + alpha)
    if model == "uniform-location":
        return (1.0 - abs(theta1 - theta0)) ** n / 2.0
    q = argmax_log_concave(
        lambda x: _safe_log(pe_exact(model, params, x, theta0, theta1, n)),
        1e-9, 1.0 - 1e-9)
    return pe_exact(model, params, q, theta0, theta1, n)


def pairwise_reference(model: str, params: dict, t: float, thetas, weights,
                       n: int, ring: bool) -> float:
    """Ring or all-pairs combiner value at fixed points and weights."""
    m = len(thetas)
    if ring:
        pairs = [(i, (i + 1) % m) for i in range(m)]
    else:
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    total = 0.0
    for i, j in pairs:
        mass = weights[i] + weights[j]
        if mass <= 0.0:
            continue
        rho = (abs(thetas[j] - thetas[i]) / 2.0) ** t
        total += rho * mass * pe_exact(model, params, weights[i] / mass,
                                       thetas[i], thetas[j], n)
    return total if ring else total / (m - 1)


# ---------------------------------------------------------------------------
# Monte-Carlo interval

def wilson_interval(p_hat: float, trials: int, z: float = WILSON_Z):
    """Wilson (1927) score interval for a binomial proportion."""
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denom
    half = z / denom * math.sqrt(p_hat * (1.0 - p_hat) / trials
                                 + z2 / (4.0 * trials * trials))
    return centre - half, centre + half


def _log_pmf(j: int, trials: int, p: float) -> float:
    return (math.lgamma(trials + 1) - math.lgamma(j + 1)
            - math.lgamma(trials - j + 1) + j * math.log(p)
            + (trials - j) * math.log1p(-p))


def binomial_tails(k: int, trials: int, p: float):
    """(P(X <= k), P(X >= k)) for X ~ Binomial(trials, p), 0 < p < 1,
    each summed from k outwards until the terms no longer count."""
    def tail(js):
        total = 0.0
        for j in js:
            term = math.exp(_log_pmf(j, trials, p))
            total += term
            if j != k and term < 1e-18 * total:
                break
        return total
    return tail(range(k, -1, -1)), tail(range(k, trials + 1))


def check_mc(label: str, seconds: float, p_hat: float, exact: float,
             trials: int, half_width: Optional[float] = None) -> Outcome:
    """The exact error must lie in the benchmark's own Wilson interval and,
    when the package reports a half-width, that interval must not collapse
    while 0 < exact < 1.  Only the collapse, where p_hat = 0 (or 1) is
    likely, is the known Wald defect.

    Where fewer than ``MC_DEGENERATE`` errors (or non-errors) are expected,
    the normal approximation behind the Wilson interval fails (one error in
    10 000 trials lies outside it whenever 1e-6 is exact), so there the
    observed count must instead not be less likely than ``MC_ALPHA`` in
    either binomial tail."""
    degenerate = 0.0 < exact < 1.0 and \
        min(exact, 1.0 - exact) * trials < MC_DEGENERATE
    if degenerate:
        k = round(p_hat * trials)
        low, high = binomial_tails(k, trials, exact)
        if min(low, high) < MC_ALPHA:
            return failed(label, seconds,
                          f"{k} errors in {trials} trials at exact "
                          f"{exact!r}: tail {min(low, high):.3g}")
    else:
        lo, hi = wilson_interval(p_hat, trials)
        if not lo <= exact <= hi:
            return failed(label, seconds,
                          f"exact {exact!r} outside Wilson [{lo!r}, {hi!r}]")
    if half_width is not None and not half_width > 0.0 and 0.0 < exact < 1.0:
        out = failed(label, seconds, "reported half-width is 0")
        if degenerate:
            out.known = MC_WALD
        return out
    return Outcome(label, seconds, True)
