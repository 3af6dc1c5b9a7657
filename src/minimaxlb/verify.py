"""Brute-force verification of the algebra behind the bound engines.

Each check re-derives a closed form by direct numerical search (dense grids
with local zoom, hand-rolled here on purpose so the checks do not share code
with the machinery they vouch for) and reports the worst discrepancy found.
The reproduction pipeline refuses to run if any default check fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CheckReport",
    "check_simplex_infimum",
    "check_two_point_quadratic",
    "check_three_point_quadratic",
    "check_split_chain",
    "check_correlation_expansion",
    "run_default_suite",
    "DEFAULT_SUITE_SEED",
]

DEFAULT_SUITE_SEED = 1729


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    max_abs_error: float
    samples: int
    tolerance: float
    passed: bool

    @staticmethod
    def from_run(check_id: str, max_abs_error: float, samples: int,
                 tolerance: float) -> "CheckReport":
        return CheckReport(check_id=check_id, max_abs_error=float(max_abs_error),
                           samples=int(samples), tolerance=float(tolerance),
                           passed=bool(max_abs_error <= tolerance))


def _zoom_min_1d(f, lo: float, hi: float, grid: int):
    """Minimize a vectorized scalar function on [lo, hi]: scan plus shrinking
    local grids.  Returns (argmin, min, evaluations)."""
    xs = np.linspace(lo, hi, grid)
    vals = np.asarray(f(xs), dtype=float)
    i = int(np.argmin(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    evals = grid
    half = (hi - lo) / (grid - 1)
    steps = np.linspace(-1.0, 1.0, 13)
    while half > 1e-13 * max(1.0, abs(lo), abs(hi)):
        cand = np.clip(best_x + half * steps, lo, hi)
        vals = np.asarray(f(cand), dtype=float)
        evals += len(cand)
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_v, best_x = float(vals[j]), float(cand[j])
        half *= 0.35
    return best_x, best_v, evals


@functools.lru_cache(maxsize=4)
def _simplex_rows(d: int) -> np.ndarray:
    """Read-only (q, r, w) rows of the step-1/d barycentric simplex grid,
    built on first use and shared by every later call."""
    ii, jj = np.meshgrid(np.arange(d + 1), np.arange(d + 1))
    keep = ii + jj <= d
    q = ii[keep] / d
    r = jj[keep] / d
    rows = np.column_stack([q, r, 1.0 - q - r])
    rows.flags.writeable = False
    return rows


def check_simplex_infimum(a: Sequence[float]) -> CheckReport:
    """The infimum over the open probability simplex of max_i a_i / r_i is
    the plain sum of the a_i, attained at r_i = a_i / sum(a).

    Verified by grid minimization (step 1/400, with zoom) against sum(a),
    plus an exact evaluation at the analytic minimizer.
    """
    a = tuple(float(x) for x in a)
    if len(a) not in (2, 3):
        raise ValueError("supported simplex dimensions are 2 and 3")
    if any(x <= 0 for x in a):
        raise ValueError("all components must be positive")
    total = sum(a)

    r_star = np.array(a) / total
    analytic = float(np.max(np.array(a) / r_star))
    err_analytic = abs(analytic - total) / total

    if len(a) == 2:
        def f(r):
            r = np.asarray(r, dtype=float)
            return np.maximum(a[0] / r, a[1] / (1.0 - r))

        _, best, evals = _zoom_min_1d(f, 1e-9, 1.0 - 1e-9, 401)
    else:
        def f(rows):
            # 1 - q - r can round to a tiny negative, flipping the ratio's
            # sign; such rows sit on the boundary and must score +inf
            with np.errstate(divide="ignore"):
                vals = np.max(np.stack([a[0] / rows[:, 0], a[1] / rows[:, 1],
                                        a[2] / rows[:, 2]]), axis=0)
            return np.where((rows <= 0.0).any(axis=1), np.inf, vals)

        rows = _simplex_rows(400)
        vals = f(rows)
        i = int(np.argmin(vals))
        best_pt = rows[i, :2].copy()
        best = float(vals[i])
        evals = len(rows)
        half = 1.0 / 400
        steps = np.linspace(-1.0, 1.0, 13)
        while half > 1e-13:
            gx = np.clip(best_pt[0] + half * steps, 0.0, 1.0)
            gy = np.clip(best_pt[1] + half * steps, 0.0, 1.0)
            xx, yy = np.meshgrid(gx, gy)
            cand = np.column_stack([xx.ravel(), yy.ravel()])
            cand = cand[cand.sum(axis=1) <= 1.0]
            rows = np.column_stack([cand, 1.0 - cand.sum(axis=1)])
            vals = f(rows)
            evals += len(rows)
            j = int(np.argmin(vals))
            if vals[j] < best:
                best = float(vals[j])
                best_pt = cand[j].copy()
            half *= 0.35

    err = max(abs(best - total) / total, err_analytic)
    return CheckReport.from_run("simplex-infimum", err, evals, 1e-3)


def check_two_point_quadratic(q: float, p0: float, p1: float,
                              theta0: float, theta1: float) -> CheckReport:
    """Pointwise two-term quadratic risk: the minimum over estimates v of
    q*p0*(v-theta0)^2 + (1-q)*p1*(v-theta1)^2 is
    (theta1-theta0)^2 * (q p0)((1-q)p1) / (q p0 + (1-q)p1), and the minimizer
    always lies between the two test points."""
    if not (0.0 <= q <= 1.0 and p0 >= 0 and p1 >= 0 and theta0 < theta1):
        raise ValueError("need q in [0,1], nonnegative densities, theta0 < theta1")
    A = q * p0
    B = (1.0 - q) * p1
    denom = A + B
    closed = (theta1 - theta0) ** 2 * A * B / denom if denom > 0 else 0.0

    def g(v):
        v = np.asarray(v, dtype=float)
        return A * (v - theta0) ** 2 + B * (v - theta1) ** 2

    v_star, brute, evals = _zoom_min_1d(g, theta0, theta1, 2001)
    scale = max(abs(closed), 1e-30)
    err = abs(brute - closed) / scale
    if not (theta0 - 1e-12 <= v_star <= theta1 + 1e-12):
        err = math.inf
    if denom > 0:
        v_analytic = (A * theta0 + B * theta1) / denom
        err = max(err, abs(v_star - v_analytic) / (theta1 - theta0)
                  if closed > 1e-20 else 0.0)
    return CheckReport.from_run("two-point-quadratic", err, evals, 1e-6)


def check_three_point_quadratic(a: float, b: float, c: float,
                                theta0: float, delta: float) -> CheckReport:
    """Three-term quadratic risk on equally spaced points theta0 - delta,
    theta0, theta0 + delta with weights (a, b, c): the minimum over v is
    (ab + bc + 4ac) * delta^2 / (a + b + c), at
    v* = theta0 + (c - a) * delta / (a + b + c)."""
    if a < 0 or b < 0 or c < 0 or a + b + c <= 0:
        raise ValueError("weights must be nonnegative and not all zero")
    if not delta > 0:
        raise ValueError("delta must be positive")
    total = a + b + c
    closed = (a * b + b * c + 4.0 * a * c) * delta ** 2 / total
    v_closed = theta0 + (c - a) * delta / total

    def g(v):
        v = np.asarray(v, dtype=float)
        return (a * (v - theta0 + delta) ** 2 + b * (v - theta0) ** 2
                + c * (v - theta0 - delta) ** 2)

    v_star, brute, evals = _zoom_min_1d(g, theta0 - delta, theta0 + delta, 2001)
    scale = max(abs(closed), 1e-30)
    err = abs(brute - closed) / scale
    err = max(err, abs(v_star - v_closed) / delta)
    return CheckReport.from_run("three-point-quadratic", err, evals, 1e-6)


def _chain_violation(a: float, b: float, c: float) -> float:
    """Largest violation among the relaxation steps taking the exact
    three-point coefficient down to the split half-min form:

        (ab + bc + 4ac)/(a+b+c)
            >= a(b+2c)/(a+b+2c) + c(b+2a)/(2a+b+c)
            >= [min(a, b+2c) + min(c, b+2a)] / 2
            >= [min(a, b) + min(b, c)] / 2.
    """
    total = a + b + c
    if total <= 0:
        return 0.0
    lhs = (a * b + b * c + 4.0 * a * c) / total
    d1 = a + b + 2.0 * c
    d2 = 2.0 * a + b + c
    s1 = (a * (b + 2.0 * c) / d1 if d1 > 0 else 0.0) + \
         (c * (b + 2.0 * a) / d2 if d2 > 0 else 0.0)
    s2 = 0.5 * (min(a, b + 2.0 * c) + min(c, b + 2.0 * a))
    s3 = 0.5 * (min(a, b) + min(b, c))
    return max(s1 - lhs, s2 - s1, s3 - s2, 0.0)


def check_split_chain(a: float, b: float, c: float) -> CheckReport:
    """Verify the relaxation chain from the exact three-point quadratic
    coefficient to the half-sum of pairwise minima, step by step."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("weights must be nonnegative")
    return CheckReport.from_run("split-chain", _chain_violation(a, b, c), 1,
                                1e-12)


def _sinusoid_correlation(theta: float, delta: float) -> float:
    """Normalized correlation of a unit-energy phase-shifted sinusoid over a
    full period: trapezoid rule on 4096 intervals, spectrally accurate here."""
    tau = np.linspace(0.0, 1.0, 4097)
    s0 = math.sqrt(2.0) * np.sin(2.0 * math.pi * tau + theta)
    s1 = math.sqrt(2.0) * np.sin(2.0 * math.pi * tau + theta + delta)
    energy = np.trapezoid(s0 * s0, tau)
    return float(np.trapezoid(s0 * s1, tau) / energy)


def check_correlation_expansion() -> CheckReport:
    """Small-offset expansion of the signal correlation.

    For a constant-energy family (phase-shifted sinusoid), the correlation
    between the signal at theta = 0.3 and at theta + delta has no linear term
    and curvature set by the derivative energy: (1 - corr(delta))/delta^2 ->
    1/2 here.  Checked numerically: exact self-correlation, vanishing
    first-order term, and the curvature limit along a shrinking delta grid.
    """
    theta = 0.3
    deltas = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)  # smallest first
    err_self = abs(_sinusoid_correlation(theta, 0.0) - 1.0)

    h = 1e-4
    deriv = abs(_sinusoid_correlation(theta, h)
                - _sinusoid_correlation(theta, -h)) / (2.0 * h)

    ratios = [(1.0 - _sinusoid_correlation(theta, d)) / d ** 2 for d in deltas]
    err_limit = abs(ratios[0] - 0.5)

    err = max(err_self, deriv if deriv > 1e-8 else 0.0, err_limit)
    return CheckReport.from_run("correlation-expansion", err,
                                len(deltas) + 3, 1e-6)


def run_default_suite(seed: int = DEFAULT_SUITE_SEED) -> list:
    """The fixed verification battery the reproduction pipeline runs first."""
    rng = np.random.default_rng(seed)
    reports = []

    exact = [check_simplex_infimum((1.0, 1.0)),
             check_simplex_infimum((1.0, 2.0, 3.0))]
    reports.append(CheckReport.from_run(
        "simplex-infimum-exact", max(r.max_abs_error for r in exact), 2, 1e-3))

    worst = 0.0
    for _ in range(100):
        a = 10.0 * (1.0 - rng.random(3))  # components in (0, 10]
        worst = max(worst, check_simplex_infimum(tuple(a)).max_abs_error)
    reports.append(CheckReport.from_run("simplex-infimum-random", worst, 100,
                                        1e-3))

    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(0.0, 1.0)
        p0, p1 = rng.uniform(0.0, 2.0, 2)
        t0 = rng.normal()
        t1 = t0 + rng.uniform(0.1, 3.0)
        worst = max(worst, check_two_point_quadratic(q, p0, p1, t0, t1)
                    .max_abs_error)
    reports.append(CheckReport.from_run("two-point-quadratic-random", worst,
                                        1000, 1e-6))

    worst = 0.0
    for _ in range(1000):
        a, b, c = 10.0 * (1.0 - rng.random(3))
        t0 = rng.normal()
        delta = rng.uniform(0.1, 2.0)
        worst = max(worst, check_three_point_quadratic(a, b, c, t0, delta)
                    .max_abs_error)
    reports.append(CheckReport.from_run("three-point-quadratic-random", worst,
                                        1000, 1e-6))

    worst = max(_chain_violation(1.0, 1.0, 1.0), _chain_violation(1.0, 1.0, 0.0))
    triples = 10.0 * (1.0 - rng.random((10_000, 3)))
    for a, b, c in triples:
        worst = max(worst, _chain_violation(a, b, c))
    reports.append(CheckReport.from_run("split-chain-random", worst,
                                        10_002, 1e-12))

    reports.append(check_correlation_expansion())
    return reports
