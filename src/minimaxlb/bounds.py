"""Lower-bound engines on estimation risk.

Every engine lower-bounds the worst-case (or local asymptotic minimax) risk
by planting a fictitious prior on a handful of test points and reducing the
Bayes risk to binary (or list) error probabilities.  The engines differ in
how many test points they use, how the priors enter, and whether they work at
finite sample size (through a model's exact error oracle) or in the local
limit (through its LocalErrorLimit).

Conventions shared by all engines:

* values are in physical parameter units, so scale factors like sigma^2 or
  theta^2 emerge from the optimization instead of being bolted on;
* every report carries the argmax of its search and an ``objective`` closure;
  re-evaluating the closure at the argmax reproduces the reported value;
* local engines report the rate zeta = v^(t*gamma) alongside the value.

The nested engines (moment, three-point, three-point-exact) solve their inner
search at all outer grid spacings in lockstep, then refine by one joint zoom
over the spacing and the inner coordinates (_nested_max); the half-prior
three-point row is in closed form, so maximize_1d searches its spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.special import owens_t

from .loss import LossSpec, RatePower, eval_rho, omega
from .models import Model, _require_scale, _separation
# integrate_semi_infinite is unused: bench/tracing.py rebinds it (ROADMAP 3)
from .numerics import (Interval, _as_interval, _lift_simplex2, _lift_simplex3,
                       _to_domain, gaussian_tail, integrate_semi_infinite,
                       maximize_1d, maximize_simplex, maximize_zoom)

__all__ = [
    "BoundReport",
    "TransformSet",
    "two_point_bound",
    "concave_two_point_bound",
    "local_two_point_bound",
    "moment_two_point_bound",
    "three_point_bound",
    "three_point_exact_uniform",
    "transform_two_point_bound",
    "transform_list_error_bound",
    "rotation_nuisance_bound",
    "rotation_wedge_integral",
    "pairwise_ring_bound",
    "pairwise_allpairs_bound",
]

_DEFAULT_S_DOMAIN = Interval(0.0, 20.0)
# outer grid of the nested bounds: its 65 spacings are solved in lockstep,
# one row batch of the inner search, and a joint zoom over spacing and inner
# coordinates refines the best
_NESTED_CELLS = 64


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound computation.

    argmax holds the auxiliary parameters of the search (s or delta, priors
    q/r/w, inner priors u/v).  ``objective`` re-evaluates the bound's
    objective at keyword arguments matching argmax exactly; reevaluate()
    must reproduce ``value``.
    """

    bound_id: str
    model_id: str
    value: float
    loss: LossSpec
    rate: Optional[RatePower] = None
    argmax: Mapping[str, float] = field(default_factory=dict)
    notes: tuple = ()
    objective: Optional[Callable] = None

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError("bound value must be nonnegative")

    def reevaluate(self) -> float:
        if self.objective is None:
            raise ValueError("this report carries no objective closure")
        return float(self.objective(**self.argmax))

    def to_dict(self) -> dict:
        return {
            "bound": self.bound_id,
            "model": self.model_id,
            "loss": self.loss.describe(),
            "value": self.value,
            "rate": self.rate.render() if self.rate is not None else None,
            "argmax": {k: float(v) for k, v in self.argmax.items()},
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class TransformSet:
    """A family of m norm-preserving linear maps that sum to the zero map.

    Stored as square matrices of a common dimension.  Validity is checked on
    construction: the sum annihilates a probe grid to 1e-9 relative, and each
    map preserves probe norms to 1e-12 relative.
    """

    transforms: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(t, dtype=float) for t in self.transforms)
        if len(mats) < 2:
            raise ValueError("need at least two transforms")
        d = mats[0].shape[0]
        for t in mats:
            if t.shape != (d, d):
                raise ValueError("transforms must be square matrices of one dimension")
        object.__setattr__(self, "transforms", mats)

        probes = [np.eye(d)[i] for i in range(d)]
        rng_free = np.sin(np.arange(1, d + 1, dtype=float))  # fixed probe
        probes.append(rng_free / np.linalg.norm(rng_free))
        total = sum(mats)
        for v in probes:
            nv = np.linalg.norm(v)
            if np.linalg.norm(total @ v) > 1e-9 * max(nv, 1e-30):
                raise ValueError("transforms do not sum to the zero map")
            for t in mats:
                if abs(np.linalg.norm(t @ v) - nv) > 1e-12 * max(nv, 1e-30):
                    raise ValueError("transform is not norm-preserving")

    @property
    def m(self) -> int:
        return len(self.transforms)

    @property
    def dim(self) -> int:
        return self.transforms[0].shape[0]

    def apply(self, i: int, v) -> np.ndarray:
        return self.transforms[i] @ np.atleast_1d(np.asarray(v, dtype=float))

    def partial_sum(self, k: int, v) -> np.ndarray:
        """Sum of the first k transforms applied to v."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(v)
        for i in range(k):
            out += self.transforms[i] @ v
        return out

    @staticmethod
    def rotations(m: int) -> "TransformSet":
        """Plane rotations by 2*pi*i/m, i = 0..m-1 (they sum to zero for m >= 2)."""
        if m < 2:
            raise ValueError("need m >= 2")
        mats = []
        for i in range(m):
            a = 2.0 * math.pi * i / m
            mats.append(np.array([[math.cos(a), -math.sin(a)],
                                  [math.sin(a), math.cos(a)]]))
        return TransformSet(tuple(mats))

    @staticmethod
    def sign_pair() -> "TransformSet":
        """The scalar pair {identity, negation}."""
        return TransformSet((np.array([[1.0]]), np.array([[-1.0]])))


# ---------------------------------------------------------------------------
# shared helpers

def _require_oracle(model: Model):
    if model.oracle is None:
        raise ValueError(f"model {model.id!r} exposes no exact error oracle")
    return model.oracle


def _require_limit(model: Model):
    if model.limit is None:
        raise ValueError(f"model {model.id!r} exposes no local error limit")
    return model.limit


def _require_pe_pair(model: Model):
    limit = _require_limit(model)
    if limit.pe_pair is None:
        raise ValueError(f"model {model.id!r} has no fixed-prior local limit")
    return limit.pe_pair


def _require_inside(model: Model, bound: str, **thetas) -> None:
    """Refuse a finite-sample test point that is missing or outside the
    model's (open) parameter space."""
    space = model.parameter_space
    for key, theta in thetas.items():
        if theta is None or not space.lo < theta < space.hi:
            raise ValueError(f"finite-sample {bound} bound needs {key} inside "
                             f"the parameter space ({space.lo:g}, "
                             f"{space.hi:g})")


def _as_domain(domain) -> Interval:
    return _DEFAULT_S_DOMAIN if domain is None else _as_interval(domain)


def _pair_risk(pe, a, b):
    """Unnormalized Bayes error G(a, b) = (a+b) * pe(a/(a+b)) of a pair of
    hypotheses with prior masses a and b: the pair's error probability
    weighted by the mass it carries.  pe(c) is the pair error with prior c on
    the first hypothesis; G is 0 where a + b = 0."""
    mass = a + b
    safe = mass > 0.0
    c = np.where(safe, a / np.where(safe, mass, 1.0), 0.5)
    return np.where(safe, mass * np.asarray(pe(c), dtype=float), 0.0)


def _vec_max_01(fvec, batch: int = 1):
    """Maximize a vectorized scalar function on [0, 1] by a 1025-point scan
    plus zoom; returns (argmax, value).  A batch front end as well: an fvec
    that maps the shared (m,) scan to (``batch``, m) values solves that many
    problems in lockstep (see maximize_zoom), and argmax and value are
    (batch,) arrays."""
    opt = maximize_zoom(lambda x: fvec(x[..., 0]),
                        np.linspace(0.0, 1.0, 1025)[:, None], 1.0 / 1024, 1e-12,
                        batch=batch)
    return opt.argmax[0], opt.value


def _max_box2(fvec, batch: int = 1):
    """Maximize a vectorized function over [0,1]^2 by a 65 x 65 scan plus
    zoom; fvec maps (m,2) -> (m,).  Returns ((x, y), value).  A batch front
    end as well, like _vec_max_01: then x, y and value are (batch,) arrays."""
    xx, yy = np.meshgrid(np.linspace(0.0, 1.0, 65), np.linspace(0.0, 1.0, 65))
    opt = maximize_zoom(fvec, np.column_stack([xx.ravel(), yy.ravel()]),
                        1.0 / 64, 1e-12, batch=batch)
    return opt.argmax, opt.value


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi, golden-section step
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def _rowwise_max_01(f, k):
    """Row-parallel maximization on [0,1].

    f maps an array of abscissas of shape k (one per row) to values of that
    shape.  Scan a shared 17-point grid, then run 60 golden-section steps on
    per-row brackets, all rows in lockstep.  Assumes row objectives are
    unimodal (true for the pair splits searched here: G((1-u)a, u*b) is
    concave in u); on such rows maximize_zoom's 13-point stencils would do
    2.4 times the elementwise work.
    """
    us = np.linspace(0.0, 1.0, 17)
    best_v = np.asarray(f(np.full(k, us[0])), dtype=float)
    best_i = np.zeros(k, dtype=int)
    for idx in range(1, len(us)):
        v = np.asarray(f(np.full(k, us[idx])), dtype=float)
        better = v > best_v
        best_v = np.where(better, v, best_v)
        best_i = np.where(better, idx, best_i)
    a = us[np.maximum(best_i - 1, 0)].astype(float)
    b = us[np.minimum(best_i + 1, len(us) - 1)].astype(float)
    for _ in range(60):
        h = b - a
        c = a + INV_PHI2 * h
        d = a + INV_PHI * h
        yc = np.asarray(f(c), dtype=float)
        yd = np.asarray(f(d), dtype=float)
        left = yc >= yd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    x = 0.5 * (a + b)
    y = np.asarray(f(x), dtype=float)
    keep_grid = best_v > y
    x = np.where(keep_grid, us[best_i], x)
    y = np.where(keep_grid, best_v, y)
    return x, y


def _searched_split(pe):
    """split(lo, hi, a, b) for a pair source without an exact one: the
    maximum over u of G((1-u)a, u*b), searched row by row."""
    def split(lo, hi, a, b):
        shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), np.shape(a),
                                    np.shape(b))
        return _rowwise_max_01(
            lambda u: _pair_risk(lambda c: pe(lo, hi, c),
                                 (1.0 - u) * a, u * b), shape)
    return split


def _pair_source(model: Model, theta: float, n: Optional[int],
                 theta0: Optional[float], bound: str):
    """Pair errors of the nested bounds, for test points at offsets lo < hi.

    Returns pe(lo, hi, c), the pair error with prior c on lo, and
    split(lo, hi, a, b), the pair's exact split as in
    LocalErrorLimit.pair_split, or None where the source has none.  The
    offsets may be arrays, broadcast against c (or a and b).  Without ``n``
    the source is the model's local limit at theta, with offsets in
    contraction units; with ``n`` it is the exact oracle for the test points
    theta0 + lo and theta0 + hi, one call for all the offsets.
    """
    if n is None:
        pe_pair = _require_pe_pair(model)
        limit_split = model.limit.pair_split

        def pe(lo, hi, c):
            return pe_pair(theta, hi - lo, c)

        def split(lo, hi, a, b):
            return limit_split(theta, hi - lo, a, b)

        return pe, None if limit_split is None else split
    oracle = _require_oracle(model)
    _require_inside(model, bound, theta0=theta0)

    # the offsets are broadcast against c (or a and b) first, so the test
    # points never carry a coordinate axis of their own
    def pe(lo, hi, c):
        lo, hi, c = np.broadcast_arrays(lo, hi, c)
        return oracle.pe(c, theta0 + lo, theta0 + hi, n)

    def split(lo, hi, a, b):
        lo, hi, a, b = np.broadcast_arrays(lo, hi, a, b)
        return oracle.pair_split(a, b, theta0 + lo, theta0 + hi, n)

    return pe, None if oracle.pair_split is None else split


def _edge_notes(x: float, domain: Interval) -> tuple:
    """A note when an outer spacing search returned the upper end of its
    domain: the objective may still rise past it, so the supremum can lie
    beyond the range searched."""
    if x < domain.hi:
        return ()
    return (f"argmax at the upper edge {domain.hi:g} of the search range "
            f"[{domain.lo:g}, {domain.hi:g}]; the supremum may lie beyond it",)


def _nested_max(joint, domain: Interval, solve=None, simplex=None):
    """Outer search of a nested bound: joint(x, *row) is the objective at
    spacings x and inner rows (as columns), broadcast together.  solve(xs)
    solves the inner problem at all 65 grid spacings at once, one row batch
    of a front end whose scan goes in pieces of at most maximize_zoom's
    value budget and whose zoom rounds take every spacing together, and
    returns (argmax rows as columns, values); ``simplex`` = dim makes
    maximize_simplex the front end instead.  The best grid spacing seeds one
    joint zoom over (spacing, inner coordinates), a simplex row's last
    weight derived.  Returns (x*, row).
    """
    if simplex:
        def solve(xs):
            opt = maximize_simplex(lambda rows: joint(
                xs[:, None], *np.moveaxis(rows, -1, 0)), simplex,
                batch=len(xs))
            return opt.argmax, opt.value
    lift = {2: _lift_simplex2, 3: _lift_simplex3}.get(simplex)

    def joint_lift(p):
        inner, inside = ((p[..., 1:], None) if lift is None
                         else lift(p[..., 1:]))
        return (np.concatenate([_to_domain(p[..., :1], domain), inner],
                               axis=-1), inside)

    grid = np.linspace(0.0, 1.0, _NESTED_CELLS + 1)
    row, values = solve(_to_domain(grid, domain))
    best = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))
    coords = [c[best] for c in row[:len(row) - (lift is not None)]]
    opt = maximize_zoom(lambda rows: joint(*rows.T),
                        np.array([[grid[best], *coords]]),
                        1.0 / _NESTED_CELLS, 1e-12, joint_lift)
    return opt.argmax[0], opt.argmax[1:]


# ---------------------------------------------------------------------------
# two-point bounds at finite sample size

def _best_prior(oracle, theta0, theta1, n: int, alpha: float, objective):
    """(q, objective(q)) for the prior q that maximizes objective(q),
    pe(q, theta0, theta1, n) / (alpha*q + (1-alpha)*(1-q)) up to a factor,
    0 < alpha <= 1.  With masses a = 1 - alpha, b = alpha and
    q = (1-u)a / ((1-u)a + u*b) it is G((1-u)a, u*b) / (alpha*(1-alpha)), so
    the pair split of (a, b) solves it, searched where the oracle has none.
    u is exact to rounding only, and a min-form pair error falls steeply on
    one side of its kink at the split, so the first best prior of u and
    u -+ 2^-51 is kept."""
    a, b = 1.0 - alpha, alpha
    if oracle.pair_split is None:
        # searched over the masses' axes: the test points may be vectors
        u = _searched_split(lambda lo, hi, c: oracle.pe(c, theta0, theta1, n))(
            0.0, 0.0, a, b)[0]
    else:
        u = oracle.pair_split(a, b, theta0, theta1, n)[0]
    u, step = float(u), 2.0 ** -51
    priors = [(1.0 - v) * a / ((1.0 - v) * a + v * b)
              for v in (u, max(u - step, 0.0), min(u + step, 1.0))]
    return max(((q, objective(q)) for q in priors), key=lambda qv: qv[1])


def _two_point(model: Model, loss: LossSpec, theta0, theta1, n: int,
               bound_id: str, rho: float) -> BoundReport:
    """value = rho * max_q P_e(q, theta0, theta1), q from the pair split."""
    oracle = _require_oracle(model)

    def objective(q: float) -> float:
        return rho * float(oracle.pe(q, theta0, theta1, n))

    q_star, value = _best_prior(oracle, theta0, theta1, n, 0.5, objective)
    return BoundReport(bound_id=bound_id, model_id=model.id,
                       value=value, loss=loss,
                       argmax={"q": q_star}, objective=objective)


def two_point_bound(model: Model, loss: LossSpec, theta0, theta1,
                    n: int = 1) -> BoundReport:
    """Two test points, convex symmetric loss.

    value = 2 * rho((theta1 - theta0)/2) * max_q P_e(q, theta0, theta1);
    the estimator cannot be closer than half the spacing to both points at
    once, which costs rho(spacing/2) whenever the MAP test errs.
    """
    if not (loss.convex and loss.symmetric):
        raise ValueError("two_point_bound needs a convex symmetric loss; "
                         "use concave_two_point_bound instead")
    return _two_point(model, loss, theta0, theta1, n, "two-point",
                      2.0 * eval_rho(loss, _separation(theta0, theta1) / 2.0))


def concave_two_point_bound(model: Model, loss: LossSpec, theta0, theta1,
                            n: int = 1) -> BoundReport:
    """Two test points for concave (or edge-minimal) losses.

    When rho is concave, or more generally minimized over the chord at its
    endpoints, the half-spacing argument is unavailable, but the full-spacing
    one survives: value = max_q rho(theta1 - theta0) * P_e(q, theta0, theta1).
    """
    return _two_point(model, loss, theta0, theta1, n, "concave-two-point",
                      eval_rho(loss, _separation(theta0, theta1)))


# ---------------------------------------------------------------------------
# local two-point bound

def local_two_point_bound(model: Model, loss: LossSpec, theta: float = 1.0,
                          s_domain=None, *, half_prior: bool = False
                          ) -> BoundReport:
    """Local asymptotic two-point bound: value = sup_s 2*omega(s)*pe_inf(theta, s).

    The test points sit at theta and theta + 2*s*xi, so each is s*xi from
    their midpoint and a wrong MAP decision costs at least rho(s*xi); the
    normalization by rho(xi) leaves omega(s).  With ``half_prior`` the prior
    is frozen at 1/2 instead of optimized, which exposes the gain from the
    prior search on asymmetric models.
    """
    limit = _require_limit(model)
    domain = _as_domain(s_domain)
    pe_fn = limit.pe_inf_halfprior if half_prior else limit.pe_inf
    if pe_fn is None:
        raise ValueError(f"model {model.id!r} has no frozen-prior local limit")

    def objective(s):
        return 2.0 * omega(loss, s) * pe_fn(theta, s)

    s_star = maximize_1d(objective, domain).argmax[0]
    rate = limit.rate.with_power_loss(loss.t) if loss.kind == "power" else None
    notes = ("prior frozen at 1/2",) if half_prior else ()
    notes += _edge_notes(s_star, domain)
    return BoundReport(bound_id="local-two-point", model_id=model.id,
                       value=float(objective(s_star)), loss=loss, rate=rate,
                       argmax={"s": s_star}, notes=notes, objective=objective)


# ---------------------------------------------------------------------------
# moment (power-loss) two-point bound

def moment_two_point_bound(model: Model, t: float, theta: float = 1.0,
                           s_domain=None, *, r_fixed: Optional[float] = None,
                           n: Optional[int] = None, theta0: Optional[float] = None
                           ) -> BoundReport:
    """Two-point bound for the t-th moment of the error, t >= 1.

    Splits the loss between the two hypotheses with a breakpoint at fraction
    r of the spacing instead of the midpoint, and tilts the prior to
    compensate:

        value = sup_{delta, q, r} delta^t * [(1-r)^(t-1) q + r^(t-1) (1-q)]
                                * P_e(c, theta0, theta0 + delta),
        c = (1-r)^(t-1) q / [(1-r)^(t-1) q + r^(t-1) (1-q)].

    At r = 1/2, t = 2 the objective collapses to the plain two-point MSE
    objective.  Without ``n`` the bound is local: delta is the separation in
    contraction units and P_e is the model's fixed-prior limit.  For each r
    the best q is the pair split of the source (searched where it has none).
    The outer grid is ranked by a search of r with q from an exact split,
    else of q with r fixed, else of the (q, r) box; the joint zoom runs over
    delta and r with q from the split, since a searched q would stall on the
    kink of a min-form pair error.
    """
    if t < 1.0:
        raise ValueError("moment bound needs t >= 1")
    loss = LossSpec.power(t)
    domain = _as_domain(s_domain)
    pe, exact_split = _pair_source(model, theta, n, theta0, "moment")
    split = exact_split or _searched_split(pe)

    def rows_value(delta, q, r):
        return delta ** t * _pair_risk(lambda c: pe(0.0, delta, c),
                                       (1.0 - r) ** (t - 1.0) * q,
                                       r ** (t - 1.0) * (1.0 - q))

    def split_at(delta, r):
        # for a fixed r the best q is the pair split of the masses
        # a = (1-r)^(t-1), b = r^(t-1), with q = 1 - u
        return split(0.0, delta, (1.0 - r) ** (t - 1.0), r ** (t - 1.0))

    def joint(delta, r=r_fixed):
        return delta ** t * split_at(delta, r)[1]

    def solve(xs):
        if r_fixed is not None:
            return (), _vec_max_01(
                lambda q: rows_value(xs[:, None], q, r_fixed), len(xs))[1]
        if exact_split is None:
            (_, r), val = _max_box2(lambda qr: rows_value(
                xs[:, None], qr[..., 0], qr[..., 1]), len(xs))
            return (r,), val
        r, val = _vec_max_01(lambda r: joint(xs[:, None], r), len(xs))
        return (r,), val

    d_star, row = _nested_max(joint, domain, solve)
    r_star = float(r_fixed) if r_fixed is not None else row[0]
    q_star = 1.0 - float(split_at(d_star, r_star)[0])

    def objective(delta: float, q: float, r: float) -> float:
        return float(rows_value(delta, q, r))

    rate = model.limit.rate.with_power_loss(t) if n is None else None
    notes = () if r_fixed is None else (f"loss split r frozen at {r_fixed:g}",)
    notes += _edge_notes(d_star, domain)
    return BoundReport(bound_id="moment", model_id=model.id,
                       value=objective(d_star, q_star, r_star), loss=loss,
                       rate=rate,
                       argmax={"delta": d_star, "q": q_star, "r": r_star},
                       notes=notes, objective=objective)


# ---------------------------------------------------------------------------
# three-point MSE bounds

def _half_row(a, b, w_zero: bool):
    """The simplex row (q, r, w) that maximizes the concave factor
    a*qr/(q+r) + b*rw/(r+w), a, b >= 0, with w = 0 if ``w_zero``,
    elementwise over arrays a, b.  For 1/4 < b/a < 4 it is proportional to
    (1/alpha - 1, 1, x^2/alpha - 1), x = (b/a)^(1/4) and
    alpha = 1 + x^2 - sqrt(2)*x (b/a stays finite where a*b underflows); past
    1/4 (or 4) it is (1/2, 1/2, 0) (or (0, 1/2, 1/2))."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    left = (a >= 4.0 * b) | w_zero
    right = ~left & (b >= 4.0 * a)
    mid = ~(left | right)
    x2 = np.sqrt(np.where(mid, b, 1.0) / np.where(mid, a, 1.0))
    alpha = 1.0 + x2 - np.sqrt(2.0 * x2)
    q, w = 1.0 / alpha - 1.0, x2 / alpha - 1.0
    total = q + 1.0 + w
    return (np.where(mid, q / total, np.where(left, 0.5, 0.0)),
            np.where(mid, 1.0 / total, 0.5),
            np.where(mid, w / total, np.where(left, 0.0, 0.5)))


def _three_point_engine(pe, split, domain: Interval, inner_prior: str,
                        w_zero: bool):
    """Shared search for the three-point relaxed bound.

    Test points at offsets -delta, 0, +delta carry simplex weights (q, r, w),
    and each flank pair is a binary problem.  pe(lo, hi, c) is the error of
    the pair at offsets lo < hi with prior c on lo, and split(lo, hi, a, b)
    its best split of the masses a (on lo) and b, as
    LocalErrorLimit.pair_split.  Free mode scores each row by the two
    splits.  Half mode pins them to u = q/(q+r), v = w/(w+r), which makes the
    objective delta^2 * (A qr/(q+r) + B rw/(r+w)), A and B twice the flank
    errors at prior 1/2, whose best row _half_row solves: it searches delta
    alone.
    """

    def objective(delta, q, r, w, u, v):
        return float(delta ** 2 * (
            _pair_risk(lambda c: pe(-delta, 0.0, c), (1.0 - u) * q, u * r)
            + _pair_risk(lambda c: pe(0.0, delta, c), v * r, (1.0 - v) * w)))

    def pinned(delta):
        # both flank errors at prior 1/2, doubled, and their best row
        pe_l, pe_r = 2.0 * pe(-delta, 0.0, 0.5), 2.0 * pe(0.0, delta, 0.5)
        q, r, w = _half_row(pe_l, pe_r, w_zero)
        value = delta ** 2 * r * (pe_l * (q / (q + r)) + pe_r * (w / (r + w)))
        return value, (q, r, w)

    def free(delta, q, r, w=0.0):
        return delta ** 2 * (split(-delta, 0.0, q, r)[1]
                             + split(0.0, delta, r, w)[1])

    if inner_prior == "half":
        d_star = maximize_1d(lambda delta: pinned(delta)[0], domain,
                             cells=_NESTED_CELLS).argmax[0]
        q, r, w = (float(x) for x in pinned(d_star)[1])
        u, v = q / (q + r), w / (r + w)
    else:
        d_star, row = _nested_max(free, domain, simplex=2 if w_zero else 3)
        q, r, w = (*row, 0.0) if w_zero else row
        # the right pair is G(v*r, (1-v)*w): v is one minus the split of (r, w)
        u = float(split(-d_star, 0.0, q, r)[0])
        v = 1.0 - float(split(0.0, d_star, r, w)[0])
    argmax = {"delta": d_star, "q": q, "r": r, "w": w, "u": u, "v": v}
    return argmax, objective


def three_point_bound(model: Model, theta: float = 1.0, s_domain=None, *,
                      inner_prior: str = "free", w_zero: bool = False,
                      n: Optional[int] = None, theta0: Optional[float] = None
                      ) -> BoundReport:
    """Three-point MSE bound.

    Adds a middle test point: with weights (q, r, w) on theta0 - delta,
    theta0, theta0 + delta, the squared-error cost of confusing either flank
    pair is delta^2, and each pair contributes a reweighted binary error term.
    inner_prior "free" maximizes the pair splits (u, v); "half" pins them to
    the choice that makes both pair priors equal, which decouples the simplex
    factor from the error curve (and is how the quoted Gaussian value arises).
    Setting ``w_zero`` drops the third point, recovering the t=2 moment bound.
    Without ``n`` the bound is local: delta is in contraction units around
    theta.  A source without an exact pair split has its splits searched.
    """
    if inner_prior not in ("free", "half"):
        raise ValueError("inner_prior must be 'free' or 'half'")
    pe, split = _pair_source(model, theta, n, theta0, "three-point")
    if s_domain is None and n is not None:
        # the default range keeps theta0 - delta inside the parameter space
        room = theta0 - model.parameter_space.lo
        s_domain = 0.0, min(_DEFAULT_S_DOMAIN.hi, math.nextafter(room, 0.0))
    domain = _as_domain(s_domain)
    argmax, objective = _three_point_engine(
        pe, split or _searched_split(pe), domain, inner_prior, w_zero)
    loss = LossSpec.mse()
    rate = model.limit.rate.with_power_loss(2.0) if n is None else None
    notes = (f"pair priors {inner_prior}",)
    if w_zero:
        notes += ("third-point weight pinned to 0",)
    notes += _edge_notes(argmax["delta"], domain)
    return BoundReport(bound_id="three-point", model_id=model.id,
                       value=objective(**argmax), loss=loss, rate=rate,
                       argmax=argmax, notes=notes, objective=objective)


def three_point_exact_uniform(theta0: float = 1.0, s_domain=None) -> BoundReport:
    """Exact three-point MSE bound for the uniform scale model.

    Instead of relaxing the three-hypothesis Bayes risk into two binary
    problems, the posterior-weighted quadratic risk is integrated exactly in
    the local limit, giving (with dimensionless spacing s)

        value = theta0^2 * sup_{s, (q,r,w)} s^2 * [
                    (q r e^s + 4 q w + r w e^-s) / (q e^{2s} + r e^s + w)
                    + r w (1 - e^-s) / (r e^s + w) ].

    The simplex weights sit on test scales theta0*(1 - s/n), theta0,
    theta0*(1 + s/n); the spacing theta0*s/n carries the theta0^2 factor.
    """
    if not theta0 > 0:
        raise ValueError("theta0 must be positive")
    domain = _as_domain(s_domain)

    def rows_value(s, q, r, w):
        es = np.exp(s)
        den1 = q * es * es + r * es + w
        t1 = np.where(den1 > 0.0,
                      (q * r * es + 4.0 * q * w + r * w / es)
                      / np.where(den1 > 0.0, den1, 1.0), 0.0)
        den2 = r * es + w
        t2 = np.where(den2 > 0.0,
                      r * w * (1.0 - 1.0 / es) / np.where(den2 > 0.0, den2, 1.0),
                      0.0)
        return s * s * (t1 + t2)

    s_star, (q, r, w) = _nested_max(rows_value, domain, simplex=3)

    def objective(s, q, r, w):
        return theta0 ** 2 * float(rows_value(s, q, r, w))

    rate = RatePower(1.0, 2.0, "n")
    argmax = {"s": s_star, "q": q, "r": r, "w": w}
    return BoundReport(bound_id="three-point-exact", model_id="uniform-scale",
                       value=objective(**argmax), loss=LossSpec.mse(),
                       rate=rate, argmax=argmax,
                       notes=("exact three-hypothesis risk, not the pairwise "
                              "relaxation; s is the spacing in contraction "
                              "units, so theta0^2 multiplies the coefficient",)
                       + _edge_notes(s_star, domain),
                       objective=objective)


# ---------------------------------------------------------------------------
# transform-based bounds

def transform_list_error_bound(loss: LossSpec, transforms: TransformSet,
                               thetas: Sequence, list_error: float, *,
                               model_id: str = "custom") -> BoundReport:
    """Bound from m test points tied together by a TransformSet.

    The caller supplies the list-error probability (the chance the true
    hypothesis falls outside the m-1 most likely); the geometry contributes
    m * rho(|(1/m) sum_i T_i theta_i|).  This is the general m-way hook; the
    specialized engines below feed it.
    """
    if not 0.0 <= list_error <= 1.0:
        raise ValueError("list_error must be a probability")
    if len(thetas) != transforms.m:
        raise ValueError("need one test point per transform")
    centroid = np.zeros(transforms.dim)
    for i, th in enumerate(thetas):
        centroid += transforms.apply(i, th)
    centroid /= transforms.m
    rho_val = eval_rho(loss, float(np.linalg.norm(centroid)))
    value = transforms.m * rho_val * list_error

    def objective() -> float:
        return transforms.m * rho_val * list_error

    return BoundReport(bound_id="transform-list", model_id=model_id,
                       value=value, loss=loss, argmax={}, objective=objective)


def transform_two_point_bound(model: Model, loss: LossSpec,
                              transforms: TransformSet, vartheta0, vartheta1,
                              k: int, q: Optional[float] = None, n: int = 1
                              ) -> BoundReport:
    """Transform bound collapsed to two distinct test values.

    The first k transforms carry one parameter value, the rest the other;
    with alpha_frac = k/m the bound reads

        rho(|(1/m) sum_{i<k} T_i (vartheta0 - vartheta1)|)
            * P_e(q, vartheta0, vartheta1) / (1 - alpha - q + 2*alpha*q).

    With m even, alpha = 1/2 and T_0 the identity this is exactly the plain
    two-point bound.  q = None maximizes over the prior, which the pair
    split solves.
    """
    oracle = _require_oracle(model)
    m = transforms.m
    if not (isinstance(k, int) and 1 <= k <= m):
        raise ValueError("k must be an integer in [1, m]")
    alpha_frac = k / m
    diff = np.atleast_1d(np.asarray(vartheta0, dtype=float)) - \
        np.atleast_1d(np.asarray(vartheta1, dtype=float))
    rho_val = eval_rho(loss, float(np.linalg.norm(
        transforms.partial_sum(k, diff))) / m)

    def objective(q: float) -> float:
        denom = 1.0 - alpha_frac - q + 2.0 * alpha_frac * q
        pe = float(oracle.pe(q, vartheta0, vartheta1, n))
        if denom <= 0.0:
            return 0.0
        return rho_val * pe / denom

    if q is None:
        q, value = _best_prior(oracle, vartheta0, vartheta1, n, alpha_frac,
                               objective)
    elif not 0.0 <= q <= 1.0:
        raise ValueError("prior must lie in [0, 1]")
    else:
        value = objective(float(q))
    notes = (f"m={m}, k={k}, alpha_frac={alpha_frac:g}",)
    return BoundReport(bound_id="transform", model_id=model.id,
                       value=value, loss=loss,
                       argmax={"q": float(q)}, notes=notes,
                       objective=objective)


_SQRT3 = math.sqrt(3.0)


def rotation_wedge_integral(s):
    """List-error limit for three rotated Gaussian test points:
    (1/sqrt(2*pi)) * integral_0^inf e^{-(u+s)^2/2} (1 - 2*Q(u*sqrt(3))) du.

    The factor in parentheses is the probability that a unit Gaussian pair
    falls inside the 120-degree wedge nearest the displaced test point, so
    the integral is P(X > s, |Y| < sqrt(3)*(X - s)) for iid unit Gaussians.
    Owen's (1956) T-function gives it in closed form:
    I(s) = Q(h) - 2*T(h, 1/sqrt(3)) with h = sqrt(3)*s/2.  At s = 0 this is
    exactly 1/3 (the wedge covers a third of the plane).  Against 30-digit
    mpmath quadrature of the integral the absolute error is at most 3e-17
    on [0, 6] (6e-16 relative up to s = 2) and 4e-28 at s = 8.  Elementwise
    over an array s, bit for bit as scalar calls; s < 0 or NaN raises.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise ValueError("s must be nonnegative")
    h = 0.5 * _SQRT3 * s
    out = gaussian_tail(h) - 2.0 * owens_t(h, 1.0 / _SQRT3)
    return float(out) if out.ndim == 0 else out


def rotation_nuisance_bound(sigma: float = 1.0, s_domain=None) -> BoundReport:
    """MSE bound for a 2-D Gaussian location whose second coordinate is a
    nuisance: three test points rotated by 120 degrees, uniform priors.

    At scaled spacing s the points R_i^T (-s, 0) give the list-error hook
    (transform_list_error_bound) the geometry factor 3*s^2, the list error is
    the wedge integral I(s), and 3*sigma^2*s^2*I(s) is maximized over s; the
    bound decays at rate n.
    """
    _require_scale("sigma", sigma)
    domain = _as_domain(s_domain) if s_domain is not None else Interval(0.0, 6.0)
    loss = LossSpec.mse()

    def objective(s):
        return 3.0 * sigma ** 2 * s ** 2 * rotation_wedge_integral(s)

    s_star = maximize_1d(objective, domain).argmax[0]
    return BoundReport(bound_id="nuisance-rotation",
                       model_id="nuisance-rotation",
                       value=float(objective(s_star)), loss=loss,
                       rate=RatePower(0.5, 1.0, "n"),
                       argmax={"s": s_star},
                       notes=("three plane rotations, uniform priors; "
                              "geometry not optimized",)
                       + _edge_notes(s_star, domain),
                       objective=objective)


# ---------------------------------------------------------------------------
# pairwise multi-point combiners

def _validate_points_weights(thetas, weights):
    if len(thetas) != len(weights):
        raise ValueError("need one weight per test point")
    if len(thetas) < 2:
        raise ValueError("need at least two test points")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to one")
    return w


def _pairwise_sum(model: Model, loss: LossSpec, thetas, weights, n: int,
                  pairs) -> Callable:
    """A closure returning the sum over the index pairs (i, j) of
    rho(|theta_j - theta_i|/2) * G(w_i, w_j), every pair error from one
    oracle call; a pair without prior mass contributes 0 and is not
    evaluated."""
    oracle = _require_oracle(model)
    w = _validate_points_weights(thetas, weights)
    pairs = [(i, j) for i, j in pairs if w[i] + w[j] > 0.0]
    rhos = [eval_rho(loss, _separation(thetas[i], thetas[j]) / 2.0)
            for i, j in pairs]
    i, j = np.array(pairs).T
    points = np.asarray(thetas, dtype=float)

    def total() -> float:
        risks = _pair_risk(lambda c: oracle.pe(c, points[i], points[j], n),
                           w[i], w[j])
        return sum(rho * float(risk) for rho, risk in zip(rhos, risks))

    return total


def pairwise_ring_bound(model: Model, loss: LossSpec, thetas: Sequence,
                        weights: Sequence, n: int = 1) -> BoundReport:
    """Ring combiner: each consecutive pair (cyclically) contributes a
    two-point term

        rho((theta_{i+1} - theta_i)/2) * (q_i + q_{i+1})
            * P_e(q_i/(q_i + q_{i+1}), theta_i, theta_{i+1}).

    With m = 2 the ring traverses the single pair twice, which is exactly the
    factor 2 of the plain two-point bound at a fixed prior.
    """
    m = len(thetas)
    objective = _pairwise_sum(model, loss, thetas, weights, n,
                              [(i, (i + 1) % m) for i in range(m)])
    return BoundReport(bound_id="ring", model_id=model.id, value=objective(),
                       loss=loss, argmax={}, objective=objective)


def pairwise_allpairs_bound(model: Model, loss: LossSpec, thetas: Sequence,
                            weights: Sequence, n: int = 1) -> BoundReport:
    """All-pairs combiner:

        (1/(m-1)) * sum_{i != j} rho((theta_j - theta_i)/2) * (q_i + q_j)
                                 * P_e(q_i/(q_i + q_j), theta_i, theta_j).

    Each unordered pair appears twice in the ordered sum with equal terms;
    dividing by m-1 keeps the total prior mass accounting consistent.
    """
    m = len(thetas)
    total = _pairwise_sum(model, loss, thetas, weights, n,
                          [(i, j) for i in range(m) for j in range(m) if i != j])

    def objective() -> float:
        return total() / (m - 1)

    return BoundReport(bound_id="all-pairs", model_id=model.id,
                       value=objective(), loss=loss, argmax={},
                       objective=objective)
