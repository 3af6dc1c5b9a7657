"""Brute-force verification of the algebra behind the bound engines.

Each check re-derives a closed form by direct numerical search (dense grids
with local zoom) and reports the worst discrepancy found.  The searches are
hand-rolled here on purpose: this module imports nothing from the engine, so
the checks share no code with the machinery they vouch for.  The
reproduction pipeline refuses to run if any default check fails.

The searches are row-wise: ``_zoom_rows`` zooms many independent problems
of one or two coordinates at once, each row with its own box and stop rule,
so each random check of the default suite is one batched search instead of
one Python call per draw.  Its draws are scanned in bounded pieces, and then
all of them zoom together in one ``_zoom_rows`` call.  The 1-D checks scan
``_CHUNK`` rows at a time, each chunk one C-order block on which the
quadratic objectives work in place, so the few blocks alive stay in cache.
A 3-D draw covers its whole step-1/400 grid but scores only the rectangle
of points that a monotonicity bound cannot rule out (``_simplex_argmin``,
which finds every draw's rectangle in one pass and scores them a padded
block of draws at a time); its evaluation count is the grid points covered,
scored or excluded, plus the zoom's.  The public checks are one-row calls
of the same code.  A row does the same floating-point operations whatever
batch it sits in, so a draw's error does not depend on how the draws are
batched.  For the same reason the in-place objectives
do the written formula's operations in its order, and the objectives
divide where the closed forms divide (a_i / r_i, not a_i times a cached
1 / r_i): a product with a rounded reciprocal can differ from the quotient
in the last bit, and such a change would move the brute-force minimum a
check compares against.
"""

from __future__ import annotations

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
# rows scanned together: a (16, 2001) block is about 0.25 MB, so the few
# blocks an in-place objective needs stay in cache and peak memory stays
# flat however many draws a check has; the zoom that follows takes every row
# at once, as its stencils are only 13 points a row
_CHUNK = 16
# values in one such block; the 3-D simplex scan pads no block past it
_BLOCK = _CHUNK * 2001
_ZOOM_STEPS = np.linspace(-1.0, 1.0, 13)


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


def _zoom_min_rows(f, lo, hi, grid: int):
    """Minimize f(x, rows) on each row's interval [lo[k], hi[k]], lo < hi
    float arrays: row k scans np.linspace(lo[k], hi[k], grid), then zooms by
    ``_zoom_rows`` from its best point, the first half-width one scan step.
    The scans go ``_CHUNK`` rows at a time, so one (``_CHUNK``, grid) array
    is alive at a time; then every row zooms in one batch.  A chunk's grid is
    built in C order by linspace's own arithmetic, row by row: k * step +
    lo with the last point set to hi, or k / (grid - 1) * (hi - lo) + lo
    for a row whose step underflows to 0.  So each row holds the values of
    its own linspace call bit for bit.  (A linspace call on the whole chunk
    would switch every row to the second form when one row's step
    underflows, making a row's grid depend on its chunk.)  Returns the
    arrays (argmin, min, evaluations), one entry per row."""
    best_x = np.empty((lo.size, 1))
    best_v = np.empty(lo.size)
    half = (hi - lo) / (grid - 1)
    ks = np.arange(grid, dtype=float)
    for start in range(0, lo.size, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, lo.size))
        xs = ks * half[rows, None]
        tiny = rows[half[rows] == 0.0]
        if tiny.size:   # linspace's form for a step that underflows to 0
            xs[tiny - start] = ks / (grid - 1) * (hi[tiny] - lo[tiny])[:, None]
        xs += lo[rows, None]
        xs[:, -1] = hi[rows]
        vals = f(xs, rows)
        i = np.argmin(vals, axis=1)
        at = np.arange(rows.size)
        best_x[rows, 0] = xs[at, i]
        best_v[rows] = vals[at, i]
    best_x, best_v, evals = _zoom_rows(
        f, best_x, best_v, lo[:, None], hi[:, None], half,
        np.full(lo.size, grid))
    return best_x[:, 0], best_v, evals


def _zoom_rows(f, best_x, best_v, lo, hi, half, evals, inside=None):
    """The zoom rounds of the row searches, updating the arrays in place.

    Row k has an incumbent best_x[k] of d = 1 or 2 coordinates (best_x, lo,
    hi are (n, d) arrays) and its value best_v[k].  A round lays 13 points
    per axis of half-width half[k] around it, clipped to the box [lo[k],
    hi[k]] (for d = 2 every pair, in the order of np.meshgrid(gx, gy).ravel(),
    x fastest).  The incumbent moves only on a strict improvement; half
    shrinks by 0.35 a round while it exceeds 1e-13 * max(1, |lo[k]|,
    |hi[k]|), and stopped rows drop out.  f(*coords, rows) maps d arrays (k,
    m), whose row i holds points of problem rows[i], to values (k, m) from
    that row's own parameters only, so a batch finds bit for bit what one-row
    calls find.  Points where inside(*coords) is False score +inf and are not
    counted in evals."""
    stop = 1e-13 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)).max(1))
    live = np.arange(half.size)[half > stop]
    n = _ZOOM_STEPS.size
    while live.size:
        g = np.clip(best_x[live, :, None] + half[live, None, None] * _ZOOM_STEPS,
                    lo[live, :, None], hi[live, :, None])
        cand = ([g[:, 0]] if g.shape[1] == 1 else
                [np.tile(g[:, 0], n), np.repeat(g[:, 1], n, axis=1)])
        vals = f(*cand, live)
        ok = np.ones(vals.shape, bool) if inside is None else inside(*cand)
        vals[~ok] = np.inf
        evals[live] += ok.sum(axis=1)
        at, j = np.arange(live.size), np.argmin(vals, axis=1)
        better = vals[at, j] < best_v[live]
        best_v[live[better]] = vals[at, j][better]
        best_x[live[better]] = np.stack([c[at, j] for c in cand], 1)[better]
        half[live] *= 0.35
        live = live[half[live] > stop[live]]
    return best_x, best_v, evals


def _as_rows(*values) -> tuple:
    return tuple(np.array([v], dtype=float) for v in values)


def _require_finite(*values) -> None:
    """A NaN or infinite input has no brute-force minimum to compare with:
    refuse it rather than report a NaN error."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError("inputs must be finite")


def _simplex_argmin(d: int, a0, a1, a2) -> tuple:
    """The first point (q, r) = (i/d, j/d) of the step-1/d simplex grid, in
    grid order, minimizing max(a0 / q, a1 / r, a2 / w), and that minimum.
    The grid runs over q fastest, then r, with i + j <= d and w = 1 - q - r;
    its boundary points (a zero q or r, or a w that rounds to 0 or below)
    score +inf.  Masses may be arrays, one draw an entry; then so are q, r
    and the minimum.

    Only a rectangle of the grid is scored.  Let V be the value at the
    interior point nearest the proportional split.  Correctly rounded
    division and subtraction are monotone, so a0 / q falls as i grows, a1 / r
    as j grows, and a2 / w (w > 0) rises with both.  Hence every point with i
    below the first i where a0 / q <= V, or j below the first j where
    a1 / r <= V, scores above V; so does every point past the last i where
    a2 / w <= V along that first j, or past the last j where a2 / w <= V
    along that first i.  The first argmin in grid order is inside the
    rectangle, which is scored in grid order.

    Every draw's rectangle is found in one pass.  The rectangles are then
    scored a block of draws at a time, each padded to the block's largest
    with +inf points after its own, so a draw's first argmin and its values
    do not depend on the block; a block holds at most ``_BLOCK`` values."""
    scalar = np.ndim(a0) == 0
    a0, a1, a2 = (np.atleast_1d(np.asarray(x, dtype=float))
                  for x in (a0, a1, a2))
    levels = np.arange(1, d + 1) / d
    total = a0 + a1 + a2
    i0 = np.clip(np.rint(d * a0 / total), 1, d - 2).astype(int)
    j0 = np.minimum(np.maximum(np.rint(d * a1 / total), 1),
                    d - 1 - i0).astype(int)
    q0, r0 = levels[i0 - 1], levels[j0 - 1]
    bound = np.maximum(np.maximum(a0 / q0, a1 / r0),
                       a2 / (1.0 - q0 - r0))[:, None]
    lo_i = np.argmax(a0[:, None] / levels <= bound, axis=1)
    lo_j = np.argmax(a1[:, None] / levels <= bound, axis=1)
    with np.errstate(divide="ignore"):
        w_i = 1.0 - levels - levels[lo_j, None]
        w_j = 1.0 - levels[lo_i, None] - levels
        # the last index where the mask holds, from the first in reverse
        hi_i = d - 1 - np.argmax(((w_i > 0.0) & (a2[:, None] / w_i <= bound))
                                 [:, ::-1], axis=1)
        hi_j = d - 1 - np.argmax(((w_j > 0.0) & (a2[:, None] / w_j <= bound))
                                 [:, ::-1], axis=1)
    n_i, n_j = (hi_i - lo_i + 1).tolist(), (hi_j - lo_j + 1).tolist()
    best = np.empty((3, a0.size))
    start = 0
    while start < a0.size:
        stop, wi, wj = start + 1, n_i[start], n_j[start]
        while (stop < a0.size and (stop + 1 - start) * max(wi, n_i[stop])
               * max(wj, n_j[stop]) <= _BLOCK):
            wi, wj = max(wi, n_i[stop]), max(wj, n_j[stop])
            stop += 1
        k = slice(start, stop)
        ii = lo_i[k, None] + np.arange(wi)
        jj = lo_j[k, None] + np.arange(wj)
        q = levels[np.minimum(ii, d - 1)]
        r = levels[np.minimum(jj, d - 1)]
        w = 1.0 - q[:, None, :] - r[:, :, None]
        with np.errstate(divide="ignore"):
            vals = np.maximum(np.maximum(a0[k, None, None] / q[:, None, :],
                                         a1[k, None, None] / r[:, :, None]),
                              a2[k, None, None] / w)
        vals[(w <= 0.0) | (ii > hi_i[k, None])[:, None, :]
             | (jj > hi_j[k, None])[:, :, None]] = np.inf   # boundary, padding
        vals = vals.reshape(stop - start, -1)
        at, flat = np.arange(stop - start), np.argmin(vals, axis=1)
        best[:, k] = q[at, flat % wi], r[at, flat // wi], vals[at, flat]
        start = stop
    return tuple(best[:, 0]) if scalar else tuple(best)


def _simplex_errors(*a):
    """Errors of check_simplex_infimum on d = 2 or 3 arrays of masses (a_1
    of each draw, a_2 of each draw, ...) and the evaluations each draw took.
    For d = 3 each draw covers the step-1/400 grid alone (_simplex_argmin),
    counted as all its 80 601 points; then all draws zoom together."""
    total = sum(a)
    analytic = np.max([x / (x / total) for x in a], axis=0)

    if len(a) == 2:
        def f(r, rows):
            return np.maximum(a[0][rows, None] / r,
                              a[1][rows, None] / (1.0 - r))

        lo = np.full(len(total), 1e-9)
        _, best, evals = _zoom_min_rows(f, lo, 1.0 - lo, 401)
    else:
        def f(q, r, rows):
            w = 1.0 - (q + r)
            # 1 - q - r can round to a tiny negative, flipping the ratio's
            # sign; such points sit on the boundary and must score +inf
            with np.errstate(divide="ignore"):
                vals = np.maximum(np.maximum(a[0][rows, None] / q,
                                             a[1][rows, None] / r),
                                  a[2][rows, None] / w)
            vals[(q <= 0.0) | (r <= 0.0) | (w <= 0.0)] = np.inf
            return vals

        d = 400
        q, r, scan = _simplex_argmin(d, *a)
        best_x = np.column_stack([q, r])
        _, best, evals = _zoom_rows(
            f, best_x, scan, np.zeros_like(best_x),
            np.ones_like(best_x), np.full(len(total), 1.0 / d),
            np.full(len(total), (d + 1) * (d + 2) // 2),
            inside=lambda q, r: q + r <= 1.0)
    err = np.maximum(np.abs(best - total) / total,
                     np.abs(analytic - total) / total)
    return err, evals


def check_simplex_infimum(a: Sequence[float]) -> CheckReport:
    """The infimum over the open probability simplex of max_i a_i / r_i is
    the plain sum of the a_i, attained at r_i = a_i / sum(a).

    Verified by grid minimization (step 1/400, with zoom) against sum(a),
    plus an exact evaluation at the analytic minimizer.
    """
    a = tuple(float(x) for x in a)
    if len(a) not in (2, 3):
        raise ValueError("supported simplex dimensions are 2 and 3")
    _require_finite(*a)
    if any(x <= 0 for x in a):
        raise ValueError("all components must be positive")
    err, evals = _simplex_errors(*_as_rows(*a))
    return CheckReport.from_run("simplex-infimum", err[0], evals[0], 1e-3)


def _two_point_errors(q, p0, p1, theta0, theta1):
    """Errors of check_two_point_quadratic on arrays of draws, one per draw,
    and the evaluations each took."""
    A = q * p0
    B = (1.0 - q) * p1
    denom = A + B
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = np.where(denom > 0,
                          (theta1 - theta0) ** 2 * A * B / denom, 0.0)
        v_analytic = (A * theta0 + B * theta1) / denom

    def g(v, rows):
        # A (v - theta0)^2 + B (v - theta1)^2, in place, in that order
        out = np.subtract(v, theta0[rows, None])
        np.square(out, out=out)
        out *= A[rows, None]
        tmp = np.subtract(v, theta1[rows, None])
        np.square(tmp, out=tmp)
        tmp *= B[rows, None]
        out += tmp
        return out

    v_star, brute, evals = _zoom_min_rows(g, theta0, theta1, 2001)
    err = np.abs(brute - closed) / np.maximum(np.abs(closed), 1e-30)
    inside = (theta0 - 1e-12 <= v_star) & (v_star <= theta1 + 1e-12)
    err = np.where(inside, err, math.inf)
    drift = np.where(closed > 1e-20,
                     np.abs(v_star - v_analytic) / (theta1 - theta0), 0.0)
    return np.where(denom > 0, np.maximum(err, drift), err), evals


def check_two_point_quadratic(q: float, p0: float, p1: float,
                              theta0: float, theta1: float) -> CheckReport:
    """Pointwise two-term quadratic risk: the minimum over estimates v of
    q*p0*(v-theta0)^2 + (1-q)*p1*(v-theta1)^2 is
    (theta1-theta0)^2 * (q p0)((1-q)p1) / (q p0 + (1-q)p1), and the minimizer
    always lies between the two test points."""
    _require_finite(q, p0, p1, theta0, theta1)
    if not (0.0 <= q <= 1.0 and p0 >= 0 and p1 >= 0 and theta0 < theta1):
        raise ValueError("need q in [0,1], nonnegative densities, theta0 < theta1")
    err, evals = _two_point_errors(*_as_rows(q, p0, p1, theta0, theta1))
    return CheckReport.from_run("two-point-quadratic", err[0], evals[0], 1e-6)


def _three_point_errors(a, b, c, theta0, delta):
    """Errors of check_three_point_quadratic on arrays of draws, one per
    draw, and the evaluations each took."""
    total = a + b + c
    closed = (a * b + b * c + 4.0 * a * c) * delta ** 2 / total
    v_closed = theta0 + (c - a) * delta / total

    def g(v, rows):
        # a (x + d)^2 + b x^2 + c (x - d)^2 with x = v - theta0, in place,
        # in that order
        x, d = np.subtract(v, theta0[rows, None]), delta[rows, None]
        out = np.add(x, d)
        np.square(out, out=out)
        out *= a[rows, None]
        tmp = np.square(x)
        tmp *= b[rows, None]
        out += tmp
        np.subtract(x, d, out=tmp)
        np.square(tmp, out=tmp)
        tmp *= c[rows, None]
        out += tmp
        return out

    v_star, brute, evals = _zoom_min_rows(g, theta0 - delta, theta0 + delta,
                                          2001)
    err = np.abs(brute - closed) / np.maximum(np.abs(closed), 1e-30)
    return np.maximum(err, np.abs(v_star - v_closed) / delta), evals


def check_three_point_quadratic(a: float, b: float, c: float,
                                theta0: float, delta: float) -> CheckReport:
    """Three-term quadratic risk on equally spaced points theta0 - delta,
    theta0, theta0 + delta with weights (a, b, c): the minimum over v is
    (ab + bc + 4ac) * delta^2 / (a + b + c), at
    v* = theta0 + (c - a) * delta / (a + b + c)."""
    _require_finite(a, b, c, theta0, delta)
    if a < 0 or b < 0 or c < 0 or a + b + c <= 0:
        raise ValueError("weights must be nonnegative and not all zero")
    if not delta > 0:
        raise ValueError("delta must be positive")
    err, evals = _three_point_errors(*_as_rows(a, b, c, theta0, delta))
    return CheckReport.from_run("three-point-quadratic", err[0], evals[0],
                                1e-6)


def _worst_error(errors, draws: np.ndarray) -> float:
    """The largest of errors(*columns) over the rows of ``draws``: one call,
    whose scans go ``_CHUNK`` rows at a time and whose zoom takes every row
    at once."""
    err, _ = errors(*draws.T)
    return float(np.max(err))


def _chain_violation(a, b, c):
    """Largest violation among the relaxation steps taking the exact
    three-point coefficient down to the split half-min form:

        (ab + bc + 4ac)/(a+b+c)
            >= a(b+2c)/(a+b+2c) + c(b+2a)/(2a+b+c)
            >= [min(a, b+2c) + min(c, b+2a)] / 2
            >= [min(a, b) + min(b, c)] / 2.

    Elementwise on arrays of weights; 0 where all three weights are 0 and
    NaN where one is not finite, so that such a triple fails its check.
    """
    a, b, c = np.asarray(a, float), np.asarray(b, float), np.asarray(c, float)
    total = a + b + c
    d1 = a + b + 2.0 * c
    d2 = 2.0 * a + b + c
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = (a * b + b * c + 4.0 * a * c) / total
        s1 = (np.where(d1 > 0, a * (b + 2.0 * c) / d1, 0.0)
              + np.where(d2 > 0, c * (b + 2.0 * a) / d2, 0.0))
        s2 = 0.5 * (np.minimum(a, b + 2.0 * c) + np.minimum(c, b + 2.0 * a))
        s3 = 0.5 * (np.minimum(a, b) + np.minimum(b, c))
        worst = np.maximum(np.maximum(s1 - lhs, s2 - s1),
                           np.maximum(s3 - s2, 0.0))
    return np.where(total == 0.0, 0.0, worst)


def check_split_chain(a: float, b: float, c: float) -> CheckReport:
    """Verify the relaxation chain from the exact three-point quadratic
    coefficient to the half-sum of pairwise minima, step by step."""
    _require_finite(a, b, c)
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
    first-order term, and the curvature at every offset of a delta grid.
    The curvature term is (1 - cos delta)/delta^2 = 1/2 - delta^2/24 + ...,
    an alternating series, so each offset's error is how far the ratio
    strays from 1/2 beyond the remainder bound delta^2/24.
    """
    theta = 0.3
    deltas = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
    err_self = abs(_sinusoid_correlation(theta, 0.0) - 1.0)

    h = 1e-4
    deriv = abs(_sinusoid_correlation(theta, h)
                - _sinusoid_correlation(theta, -h)) / (2.0 * h)

    err_limit = max(
        max(0.0, abs((1.0 - _sinusoid_correlation(theta, d)) / d ** 2 - 0.5)
            - d ** 2 / 24.0)
        for d in deltas)

    err = max(err_self, deriv if deriv > 1e-8 else 0.0, err_limit)
    return CheckReport.from_run("correlation-expansion", err,
                                len(deltas) + 3, 1e-6)


def _default_draws(seed: int) -> tuple:
    """The default suite's random draws, in the order it takes them from
    the seed: the simplex masses (100, 3), the two-point draws (q, p0, p1,
    theta0, theta1) and the three-point draws (a, b, c, theta0, delta),
    (1000, 5) each, and the split-chain triples (10 000, 3).  The scalar
    draws skip Generator.uniform and Generator.normal for the arithmetic
    they do: uniform(lo, hi) is lo + (hi - lo) * random() and normal() is
    standard_normal(), so the numbers are the same, bit for bit, and the
    direct calls skip those methods' argument handling."""
    rng = np.random.default_rng(seed)
    random, normal = rng.random, rng.standard_normal
    masses = 10.0 * (1.0 - rng.random((100, 3)))  # components in (0, 10]
    two = []
    for _ in range(1000):
        q, p0, p1 = random(), 2.0 * random(), 2.0 * random()
        t0 = normal()
        two.append((q, p0, p1, t0, t0 + (0.1 + (3.0 - 0.1) * random())))
    three = []
    for _ in range(1000):
        a, b, c = 10.0 * (1.0 - rng.random(3))
        three.append((a, b, c, normal(), 0.1 + (2.0 - 0.1) * random()))
    triples = 10.0 * (1.0 - rng.random((10_000, 3)))
    return masses, np.array(two), np.array(three), triples


def run_default_suite(seed: int = DEFAULT_SUITE_SEED) -> list:
    """The fixed verification battery the reproduction pipeline runs first:
    2 + 100 simplex checks, 1000 two-point and 1000 three-point quadratic
    draws, 10 002 split-chain triples and the correlation expansion."""
    masses, two, three, triples = _default_draws(seed)
    reports = []

    exact = [check_simplex_infimum((1.0, 1.0)),
             check_simplex_infimum((1.0, 2.0, 3.0))]
    reports.append(CheckReport.from_run(
        "simplex-infimum-exact", max(r.max_abs_error for r in exact), 2, 1e-3))

    err, _ = _simplex_errors(*masses.T)
    reports.append(CheckReport.from_run("simplex-infimum-random",
                                        float(np.max(err)), 100, 1e-3))

    reports.append(CheckReport.from_run(
        "two-point-quadratic-random", _worst_error(_two_point_errors, two),
        1000, 1e-6))
    reports.append(CheckReport.from_run(
        "three-point-quadratic-random",
        _worst_error(_three_point_errors, three), 1000, 1e-6))

    triples = np.vstack([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], triples])
    reports.append(CheckReport.from_run(
        "split-chain-random", float(np.max(_chain_violation(*triples.T))),
        10_002, 1e-12))

    reports.append(check_correlation_expansion())
    return reports
