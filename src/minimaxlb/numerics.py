"""Deterministic scalar numerics: Gaussian tail, derivative-free maximizers,
and adaptive quadrature on finite and semi-infinite intervals.

The maximizers are grid-then-refine rather than derivative-based on purpose:
the objectives they serve routinely contain ``min{...}`` kinks and interior
ridges, so gradient information is unreliable.  All are maximize_zoom, a
vectorized grid scan and shrinking stencils, or its front ends, so their
objectives map arrays of points to arrays of values.  Every routine here is
a pure function of its inputs and safe to call concurrently; grid scans
reduce in a fixed order, so repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erfc

__all__ = [
    "Interval",
    "OptResult",
    "QuadratureError",
    "gaussian_tail",
    "maximize_1d",
    "maximize_simplex",
    "maximize_zoom",
    "integrate_adaptive",
    "integrate_semi_infinite",
]

_SQRT2 = math.sqrt(2.0)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge within its subdivision budget."""

    def __init__(self, message: str, *, interval=None, estimate=None, error=None):
        super().__init__(message)
        self.interval = interval
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi].  hi may be +inf, but only quadrature accepts
    half-infinite intervals; the maximizers require both ends finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not math.isfinite(self.lo):
            raise ValueError("interval lower end must be finite")
        if math.isnan(self.hi) or not self.lo < self.hi:
            raise ValueError(f"empty interval: need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class OptResult:
    """Best point found by a maximizer.

    ``value`` is the objective evaluated at ``argmax``, passed as a batch of
    one point; ``evaluations`` counts the points scored during the search.
    """

    argmax: tuple
    value: float
    evaluations: int


def gaussian_tail(t):
    """Standard normal upper tail Q(t) = P(Z > t) = integral of the unit
    Gaussian density over [t, inf).

    Backed by the complementary error function, Q(t) = erfc(t/sqrt(2))/2,
    accurate to well below 1e-12 absolute over the whole real line.  Accepts
    scalars or numpy arrays and preserves shape.
    """
    arr = np.asarray(t, dtype=float)
    out = 0.5 * erfc(arr / _SQRT2)
    if arr.ndim == 0:
        return float(out)
    return out


def _as_interval(domain) -> Interval:
    if isinstance(domain, Interval):
        return domain
    lo, hi = domain
    return Interval(float(lo), float(hi))


_ZOOM_STEPS = np.linspace(-1.0, 1.0, 13)


def _stencil_offsets(d: int) -> np.ndarray:
    """The 13^d stencil offsets of d coordinates, the first axis varying
    fastest."""
    offsets = _ZOOM_STEPS[np.indices((13,) * d).reshape(d, -1)[::-1].T]
    offsets.flags.writeable = False
    return offsets


_ZOOM_OFFSETS = {d: _stencil_offsets(d) for d in (1, 2, 3)}
# values per scan call of maximize_zoom: a batch of B problems is scanned
# _SCAN_VALUES // B points at a time, so one Gaussian-split block of at most
# 13 x 1025 values is alive at a time whatever B is
_SCAN_VALUES = 13 * 1025


def maximize_zoom(f, scan: np.ndarray, half: float, stop: float,
                  lift=None, *, batch: int = 1) -> OptResult:
    """Maximize a vectorized f over coordinates in [0, 1]^d, d <= 3.

    f maps an (m, k) array of rows to m values; or, for ``batch`` = B
    problems in lockstep, (m, k) scan rows to (B, m) values and later (B,
    m', k) stencil rows to (B, m').  Other shapes raise ValueError; NaN
    counts as -inf.  The scan is scored in pieces of max(1, _SCAN_VALUES //
    B) points, so a single problem's grid of up to 13 325 points is one
    call; across pieces the first maximum in scan order wins, as in one
    call.  After the scan each incumbent, moving only on a strict
    improvement, gets a stencil of 13 points per axis clipped to [0, 1],
    half-width ``half`` shrinking by 0.35 per round while above ``stop``.
    ``lift`` maps coordinates to (rows, feasible mask or None); infeasible
    points score -inf, uncounted.  ``value`` is f re-evaluated at the
    returned row and ``evaluations`` counts the rows scored; for a batch
    both argmax and value hold arrays over the problems.

    f must be elementwise: a row's value depends on that row alone, not on
    the other rows of the call, as every objective in the package's bounds
    is.  A single problem over one coordinate then scores two rounds per
    call: a round's stencil and, around each of its 7 central points
    (offsets in [-1/2, 1/2]), the next round's, 104 rows inside the round's
    span.  When the incumbent ends the round on one of those points, or
    stays put at offset 0, the next round is resolved from the values
    already scored; otherwise it is a call of its own.  The path, argmax
    and value are those of one round per call, bit for bit; only
    ``evaluations`` counts the extra rows.
    """
    rows_of = lift or (lambda coords: (coords, None))
    pick = np.arange(batch)
    offsets = _ZOOM_OFFSETS[scan.shape[1]]
    evals = 0

    def score(values, inside):
        nonlocal evals
        values = np.asarray(values, dtype=float).reshape(batch, -1)
        if inside is not None:
            inside = np.broadcast_to(inside, values.shape)
            values = np.where(inside, values, -np.inf)
        evals += values.size if inside is None else int(inside.sum())
        return np.where(np.isnan(values), -np.inf, values)

    def stencil(cand):
        rows, inside = rows_of(cand)
        return score(f(rows if batched else rows[0]), inside)

    best = np.repeat(scan[:1], batch, axis=0)
    best_v = np.full(batch, -np.inf)
    piece = max(1, _SCAN_VALUES // batch)
    for start in range(0, len(scan), piece):
        coords = scan[start:start + piece]
        rows, inside = rows_of(coords)
        vals = np.asarray(f(rows), dtype=float)
        batched = vals.shape == (batch, len(coords))
        if not (batched or batch == 1 and vals.shape == (len(coords),)):
            raise ValueError("f must return one value per row")
        vals = score(vals, inside)
        i = np.argmax(vals, axis=1)
        top = vals[pick, i]
        better = top > best_v
        best[better] = coords[i[better]]
        best_v[better] = top[better]

    if batch == 1 and scan.shape[1] == 1:
        x, v = _two_rounds_a_call(stencil, best[0, 0], best_v[0], half, stop)
        best, best_v = np.array([[x]]), np.array([v])
    else:
        while half > stop:
            cand = np.clip(best[:, None, :] + half * offsets, 0.0, 1.0)
            vals = stencil(cand)
            j = np.argmax(vals, axis=1)
            better = vals[pick, j] > best_v
            best = np.where(better[:, None], cand[pick, j], best)
            best_v = np.where(better, vals[pick, j], best_v)
            half *= 0.35

    rows = rows_of(best)[0]
    final = np.asarray(f(rows[:, None] if batched else rows),
                       dtype=float).reshape(-1)
    evals += batch
    if batched:
        return OptResult(argmax=tuple(rows.T), value=final, evaluations=evals)
    return OptResult(argmax=tuple(float(x) for x in rows[0]),
                     value=float(final[0]), evaluations=evals)


def _two_rounds_a_call(stencil, x, v, half: float, stop: float):
    """maximize_zoom's rounds for one problem over one coordinate, from the
    incumbent x of value v: each stencil(cand) call scores a round's 13
    points and, while a next round is due, the next round's 13 around each
    of its 7 central points.  Returns the last round's (x, v)."""
    while half > stop:
        cand = np.clip(x + half * _ZOOM_STEPS, 0.0, 1.0)
        nxt = half * 0.35
        if nxt > stop:
            cand = np.concatenate([cand, np.clip(
                cand[3:10, None] + nxt * _ZOOM_STEPS, 0.0, 1.0).ravel()])
        vals = stencil(cand[None, :, None])[0]
        j = int(vals[:13].argmax())
        if vals[j] > v:
            x, v = cand[j], vals[j]
        else:
            j = 6
        half = nxt
        # the incumbent sits at a central point (offset 0 if it did not
        # move): the next round is one of the stencils already scored
        if len(cand) > 13 and 3 <= j <= 9 and cand[j] == x:
            block = vals[13 * (j - 2):13 * (j - 1)]
            k = int(block.argmax())
            if block[k] > v:
                x, v = cand[13 * (j - 2) + k], block[k]
            half *= 0.35
    return x, v


def _to_domain(t, domain: Interval):
    """Map unit coordinates t in [0, 1] affinely onto a finite domain: t = 1
    lands on domain.hi exactly, and no t lands past it."""
    lo, hi = domain.lo, domain.hi
    return np.where(t < 1.0, np.minimum(lo + t * (hi - lo), hi), hi)


def maximize_1d(f, domain, *, cells: int = 512) -> OptResult:
    """Maximize f, which maps an array of abscissas to an array of values of
    its shape, on a finite interval: maximize_zoom from one call on the grid
    of ``cells`` cells (the last point exactly domain.hi), with stencils from
    a half-width of one cell down to 1e-12 of the domain's width.  The value
    never falls below the best grid value; NaN counts as -inf.  f must be
    elementwise (see maximize_zoom), as the search scores two zoom rounds
    per call, and ``evaluations`` counts every abscissa scored, the
    look-ahead rounds' included.
    """
    domain = _as_interval(domain)
    if not domain.finite:
        raise ValueError("maximize_1d requires a finite interval")
    if not (cells >= 1 and float(cells).is_integer()):
        raise ValueError("maximize_1d needs a whole number of grid cells, "
                         f"at least one; got {cells!r}")
    return maximize_zoom(lambda x: f(x[..., 0]),
                         np.linspace(0.0, 1.0, int(cells) + 1)[:, None],
                         1.0 / cells, 1e-12,
                         lambda t: (_to_domain(t, domain), None))


def _lift_simplex2(c: np.ndarray):
    rows = np.concatenate([c, 1.0 - c], axis=-1)
    return np.clip(rows, 0.0, 1.0, out=rows), None


# barycentric scan of the dim-3 simplex at step 1/64 (2145 points), built once
_SIMPLEX3_GRID = np.array([(i, j) for i in range(65) for j in range(65 - i)],
                          dtype=float) / 64
_SIMPLEX3_GRID.flags.writeable = False


def _lift_simplex3(c: np.ndarray):
    q, r = c[..., 0], c[..., 1]
    rows = np.stack([q, r, 1.0 - q - r], axis=-1)
    return np.clip(rows, 0.0, 1.0, out=rows), q + r <= 1.0 + 1e-15


def maximize_simplex(f, dim: int, *, batch: int = 1,
                     stop: float = 1e-11) -> OptResult:
    """Maximize f over the probability simplex with ``dim`` weights.

    f receives an (m, dim) array of weight rows (nonnegative, summing to
    one) and returns m values, or (B, m) values for ``batch`` = B problems
    (see maximize_zoom).

    Barycentric grid scan (1025 points for dim 2, step 1/64 for dim 3)
    followed by maximize_zoom's shrinking local grids around the incumbent,
    from a half-width of 1/16 (dim 2) or 1/64 (dim 3), times 0.35 a round
    while above ``stop``; off-simplex stencil points are not scored.  A
    caller that refines the rows further itself may stop early: the nested
    bounds stop at their joint zoom's first stencil step.  Supports dim 2
    and 3, which is all the multi-point bounds use.
    """
    if dim not in (2, 3):
        raise ValueError("maximize_simplex supports dim 2 or 3 only")
    if dim == 2:
        return maximize_zoom(f, np.linspace(0.0, 1.0, 1025)[:, None],
                             1.0 / 16, stop, _lift_simplex2, batch=batch)
    return maximize_zoom(f, _SIMPLEX3_GRID, 1.0 / 64, stop, _lift_simplex3,
                         batch=batch)


def _adaptive_simpson(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or (b - a) < 1e-14 * (1.0 + abs(a) + abs(b)):
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            "adaptive quadrature exhausted its subdivision depth",
            interval=(a, b), estimate=left + right, error=abs(delta) / 15.0)
    return (_adaptive_simpson(f, a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1)
            + _adaptive_simpson(f, m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1))


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-6) -> float:
    """Adaptive Simpson quadrature of f over the finite interval [lo, hi],
    bisecting at most 48 levels deep."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integrate_adaptive requires finite endpoints")
    if hi <= lo:
        raise ValueError("need lo < hi")
    if not tol > 0:
        raise ValueError("tol must be positive")
    fa, fb = f(lo), f(hi)
    m = 0.5 * (lo + hi)
    fm = f(m)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, lo, fa, m, fm, hi, fb, whole, tol, 48)


def integrate_semi_infinite(f: Callable[[float], float], lo: float,
                            tol: float = 1e-6) -> float:
    """Integrate f over [lo, inf) assuming Gaussian-dominated decay.

    The half-line is walked in at most 64 width-2 segments, each integrated
    adaptively with a geometrically shrinking share of the tolerance budget.
    Walking stops once two consecutive segments contribute less than tol/20
    each, at which point the discarded tail is below tol/10 for any integrand
    whose decay is at least geometric from segment to segment (Gaussian decay
    is far stronger).  Raises QuadratureError if the tail never quiets down.
    """
    if not math.isfinite(lo):
        raise ValueError("lower endpoint must be finite")
    if not tol > 0:
        raise ValueError("tol must be positive")

    width = 2.0
    total = 0.0
    quiet = 0
    for k in range(64):
        a = lo + k * width
        seg_tol = max(tol * 2.0 ** (-(k + 2)), 1e-16)
        seg = integrate_adaptive(f, a, a + width, seg_tol)
        total += seg
        if abs(seg) < tol / 20.0:
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise QuadratureError(
        "integrand tail did not fall below the truncation budget",
        interval=(lo, a + width), estimate=total, error=None)
