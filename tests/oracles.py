"""Independent reference implementations and frozen expected values.

Everything here is deliberately written without importing the package under
test: the Gaussian tail comes from a series / continued-fraction pair, the
optimizers are plain grid-and-zoom scans (and the grid-plus-golden-section
search the package used before its zoom), and the quadratures go through
scipy or 30-digit mpmath.  Frozen constants were produced by these tools
(cross-checked against 30-digit mpmath runs) and are asserted against
package output in the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def phi(x: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _erf_series(z: float) -> float:
    # Maclaurin series; below the series/fraction switchover the largest
    # intermediate term is ~70, so cancellation costs at most ~1e-14
    total = 0.0
    term = z
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1.0):
            break
        n += 1
        term *= -z * z / n
    return 2.0 / math.sqrt(math.pi) * total


def _q_tail_cf(x: float, levels: int = 120) -> float:
    # Q(x) = phi(x) / (x + 1/(x + 2/(x + 3/(...)))), evaluated backward
    acc = 0.0
    for k in range(levels, 0, -1):
        acc = k / (x + acc)
    return phi(x) / (x + acc)


def q_tail(x: float) -> float:
    """Upper Gaussian tail, independent of scipy's erfc."""
    if x < 0.0:
        return 1.0 - q_tail(-x)
    if x < 4.0:
        return 0.5 * (1.0 - _erf_series(x / SQRT2))
    return _q_tail_cf(x)


def brute_max_1d(f, lo: float, hi: float, n: int = 4001, rounds: int = 7):
    """Grid scan with repeated 10x zoom around the best point."""
    lo, hi = float(lo), float(hi)
    best_x, best_v = lo, -math.inf
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        vs = np.array([f(float(x)) for x in xs])
        vs = np.where(np.isnan(vs), -np.inf, vs)
        i = int(np.argmax(vs))
        if vs[i] > best_v:
            best_v, best_x = float(vs[i]), float(xs[i])
        span = (hi - lo) / 10.0
        lo, hi = best_x - span, best_x + span
    return best_x, best_v


def golden_max_1d(f, lo: float, hi: float, cells: int = 512):
    """Scalar grid scan plus golden section: the package's maximize_1d before
    it became a front end of its zoom, kept as the reference its values may
    not fall below.  f takes and returns floats; NaN counts as -inf.  Returns
    (argmax, value, evaluations)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi, golden-section step
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
    xs = np.linspace(lo, hi, cells + 1)
    evals = 0

    def call(x: float) -> float:
        nonlocal evals
        evals += 1
        v = float(f(float(x)))
        return -math.inf if math.isnan(v) else v

    best_x = xs[0]
    best_v = call(best_x)
    best_i = 0
    for i in range(1, cells + 1):
        v = call(xs[i])
        if v > best_v:
            best_v, best_x, best_i = v, xs[i], i

    a = xs[max(best_i - 1, 0)]
    b = xs[min(best_i + 1, cells)]
    xtol = max(1e-12, 1e-10 * max(1.0, abs(lo), abs(hi)))
    h = b - a
    if h > xtol:
        c = a + inv_phi2 * h
        d = a + inv_phi * h
        yc = call(c)
        yd = call(d)
        while h > xtol:
            if yc >= yd:
                b, d, yd = d, c, yc
                h = b - a
                c = a + inv_phi2 * h
                yc = call(c)
            else:
                a, c, yc = c, d, yd
                h = b - a
                d = a + inv_phi * h
                yd = call(d)
            if yc > best_v:
                best_v, best_x = yc, c
            if yd > best_v:
                best_v, best_x = yd, d

    return float(best_x), best_v, evals


def sequential_zoom_1d(f, scan, half: float, stop: float, lift=None):
    """One problem's zoom over one coordinate in [0, 1], a round a call: the
    package's maximize_zoom before it scored two rounds per call, kept as
    the reference its single 1-D searches must equal bit for bit.

    f maps a 1-D array of points (the lifted coordinates) to values; NaN
    counts as -inf, and so does a point that ``lift`` (coordinates ->
    (points, feasible mask or None)) marks infeasible.  The scan is one call
    and its first maximum wins.  Then, while half > stop, the stencil
    clip(best + half * linspace(-1, 1, 13), 0, 1) is one call, the
    incumbent moves to its first maximum only on a strict improvement, and
    half shrinks by 0.35.  Returns (argmax point, value, evaluations,
    rounds): value is f at the returned point, passed alone, and rounds
    lists each round's 13 lifted points."""
    steps = np.linspace(-1.0, 1.0, 13)
    rows_of = lift or (lambda c: (c, None))
    evals = 0

    def scored(coords):
        nonlocal evals
        points, inside = rows_of(coords)
        vals = np.asarray(f(points), dtype=float)
        if inside is not None:
            vals = np.where(inside, vals, -math.inf)
        evals += len(coords) if inside is None else int(np.sum(inside))
        return points, np.where(np.isnan(vals), -math.inf, vals)

    scan = np.asarray(scan, dtype=float)
    _, vals = scored(scan)
    i = int(np.argmax(vals))
    best, best_v = scan[i], vals[i]
    rounds = []
    while half > stop:
        coords = np.clip(best + half * steps, 0.0, 1.0)
        points, vals = scored(coords)
        rounds.append(points)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best, best_v = coords[j], vals[j]
        half *= 0.35
    point = rows_of(np.array([best]))[0]
    return (float(point[0]), float(np.asarray(f(point), dtype=float)[0]),
            evals + 1, rounds)


def brute_max_simplex3(f, outer: int = 120, rounds: int = 5):
    """Zoomed scan of f(q, r, w) on the open probability simplex."""
    lo_q, hi_q, lo_r, hi_r = 1e-6, 1.0 - 2e-6, 1e-6, 1.0 - 2e-6
    best = (1 / 3, 1 / 3, -math.inf)
    for _ in range(rounds):
        qs = np.linspace(lo_q, hi_q, outer)
        rs = np.linspace(lo_r, hi_r, outer)
        for q in qs:
            for r in rs:
                w = 1.0 - q - r
                if w <= 1e-9:
                    continue
                v = f(float(q), float(r), float(w))
                if v > best[2]:
                    best = (float(q), float(r), v)
        span_q = (hi_q - lo_q) / 10.0
        span_r = (hi_r - lo_r) / 10.0
        lo_q = max(best[0] - span_q, 1e-9)
        hi_q = min(best[0] + span_q, 1.0 - 1e-9)
        lo_r = max(best[1] - span_r, 1e-9)
        hi_r = min(best[1] + span_r, 1.0 - 1e-9)
    q, r, v = best
    return q, r, 1.0 - q - r, v


def wedge_integral_quad(s: float) -> float:
    # same integrand as the package's rotation geometry, but through
    # scipy.integrate.quad instead of the in-house quadrature
    def f(u):
        return INV_SQRT_2PI * math.exp(-0.5 * (u + s) ** 2) \
            * (1.0 - 2.0 * q_tail(u * math.sqrt(3.0)))
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    return val


def wedge_integral_mpmath(s: float) -> float:
    """The wedge integral of wedge_integral_quad by 30-digit mpmath.quad.

    The density factor e^{-s^2/2} is taken outside the integral, since
    mpmath.quad stops on an absolute error: the integral of
    e^{-u(s + u/2)} erf(u sqrt(3/2)) then stays of order 1/s, and breaking
    [0, inf) at multiples of 1/(1 + s) follows its peak.  Checked against
    50-digit quadrature of Owen's T identity to 5e-31 relative on [0, 12].
    """
    # imported here: bench/checks.py loads this module for FROZEN, and an
    # import at the top would add mpmath to the benchmark's memory
    import mpmath

    with mpmath.workdps(30):
        s_mp = mpmath.mpf(s)
        scale = 1 / (1 + s_mp)
        root = mpmath.sqrt(mpmath.mpf(3) / 2)

        def f(u):
            return mpmath.exp(-u * (s_mp + u / 2)) * mpmath.erf(u * root)
        total = mpmath.quad(f, [0, scale, 4 * scale, 16 * scale, mpmath.inf])
        return float(total * mpmath.npdf(s_mp))


def gauss_pe(q: float, d: float) -> float:
    """Binary MAP error for unit-variance Gaussian pairs at distance d."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    if d == 0.0:
        return min(q, 1.0 - q)
    ell = math.log((1.0 - q) / q)
    return q * q_tail(0.5 * d - ell / d) + (1.0 - q) * q_tail(0.5 * d + ell / d)


# Frozen reference values.  Each entry was produced by the brute tools in
# this file and agrees with a 30-digit mpmath computation of the underlying
# stationarity condition to all printed digits.
FROZEN = {
    # sup_s 2 s^2 Q(s) and relatives, the Gaussian quadratic-loss family
    "gauss_local_mse": 0.331433229558,
    "gauss_local_mse_arg": 1.19060124834,
    "sup_s2_qtail": 0.165716614779,
    "sup_4s2_qtail": 0.662866459115,
    "gauss_local_mae": 0.339942414960,
    "gauss_local_mae_arg": 0.751791524694,
    # scale family: sup_u u^2 / (2 (1 + e^u)) at u = 2 s / theta
    "uniform_scale_local_mse": 0.241415039395,
    "uniform_scale_local_mse_arg_s": 1.10885755288,
    "uniform_scale_local_mse_half": 0.135335283237,  # e^{-2}, s = 1
    # location-on-support family: (t / 2e)^t
    "uniform_location_t1": 0.183939720586,
    "uniform_location_t2": 0.135335283237,
    "uniform_location_t3": 0.168031355742,
    # continuous-time signal families
    "awgn_smooth_mse": 0.165716614779,
    "awgn_rect_mse": 0.188618889024,
    "awgn_rect_mse_arg_s": 1.64142202923,
    # single-observation exponential rate pair (1, 2)
    "exp_rate_max_pe": 0.381966011250,   # (3 - sqrt 5) / 2
    "exp_rate_argmax_q": 0.552786404500,  # 1 - 1 / sqrt 5
    "exp_rate_half_pe": 0.375,
    "exp_rate_two_point": 0.190983005625,
    # moment-constrained prior bound on the scale family
    "moment_uniform_t1": 0.278464542761,
    "moment_uniform_t1_arg": 1.278464542761,
    "moment_uniform_t2": 0.310170006301,
    "moment_uniform_t2_arg_delta": 2.55692908552,
    "moment_uniform_t3": 0.583006605633,
    # three test points
    "simplex_pair_weight_max": 0.686291501015,  # 12 - 8 sqrt 2
    "gauss_three_point_half": 0.454919617199,
    "uniform_three_point_free": 0.390928365913,
    "uniform_three_point_exact": 0.462429157915,
    "uniform_three_point_exact_arg_s": 2.09437761419,
    # transform family
    "transform_m3_gauss_d01": 1.07044765176e-3,
    "transform_m3_gauss_d01_arg_q": 0.51036174682,
    "rotation_nuisance": 0.251374447583,
    "rotation_nuisance_arg_s": 1.08878755995,
    "wedge_at_zero": 1.0 / 3.0,
    # multi-point pairwise sums, gauss thetas (0,1,2), weights (.2,.5,.3)
    "ring_m3_gauss": 0.177084912388,
    # plain Gaussian tails
    "q_half": 0.3085375387259869,
    "q_one": 0.1586552539314571,
    "q_two": 0.02275013194817921,
    "q_1p2": 0.1150696702217083,
    # Monte-Carlo targets
    "mc_gauss_pe": 0.02275013194817921,       # Q(2): n=16, spacing 1
    "mc_uniform_pe": 0.074321814010,          # (1/2) (1/1.1)^20
}
