"""Optimizer, quadrature, and tail-function contracts."""

import math

import numpy as np
import pytest

import oracles
from minimaxlb import numerics
from minimaxlb.numerics import (_SIMPLEX3_GRID, Interval, OptResult,
                                QuadratureError, _lift_simplex3,
                                gaussian_tail, integrate_adaptive,
                                integrate_semi_infinite, maximize_1d,
                                maximize_simplex, maximize_zoom)


class TestInterval:
    def test_width_and_finite(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.finite
        assert not Interval(0.0, math.inf).finite

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2.0, 2.0)
        with pytest.raises(ValueError):
            Interval(5.0, 1.0)
        with pytest.raises(ValueError):
            Interval(-math.inf, 0.0)


class TestMaximize1d:
    def test_quadratic(self):
        res = maximize_1d(lambda x: 5.0 - (x - 3.0) ** 2, Interval(0.0, 10.0))
        assert abs(res.argmax[0] - 3.0) < 1e-6
        assert abs(res.value - 5.0) < 1e-10

    def test_gauss_tail_objective(self):
        # the canonical quadratic-loss objective over the tail
        res = maximize_1d(lambda s: 2.0 * s * s * gaussian_tail(s),
                          Interval(0.0, 20.0))
        assert abs(res.value - oracles.FROZEN["gauss_local_mse"]) < 1e-9
        assert abs(res.argmax[0] - oracles.FROZEN["gauss_local_mse_arg"]) < 1e-5

    def test_logistic_objective(self):
        res = maximize_1d(lambda u: u * u / (2.0 * (1.0 + np.exp(u))),
                          Interval(0.0, 40.0))
        assert abs(res.value - oracles.FROZEN["uniform_scale_local_mse"]) < 1e-9

    def test_boundary_maximum(self):
        res = maximize_1d(lambda x: x, Interval(0.0, 1.0))
        assert abs(res.value - 1.0) < 1e-9

    def test_nan_regions_are_skipped(self):
        def f(x):
            return np.where(x < 0.5, np.nan, -(x - 0.75) ** 2)
        res = maximize_1d(f, Interval(0.0, 1.0))
        assert abs(res.argmax[0] - 0.75) < 1e-6

    def test_requires_finite_interval(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: -x, Interval(0.0, math.inf))

    def test_value_matches_final_evaluation(self):
        f = lambda x: np.sin(x) + 0.1 * x
        res = maximize_1d(f, Interval(0.0, 6.0))
        assert res.value == f(res.argmax[0])
        assert isinstance(res, OptResult)
        assert res.evaluations > 512

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_caller_sets_the_grid(self, cells):
        calls = []

        def f(x):
            calls.append(x)
            return -(x - 2.3) ** 2

        res = maximize_1d(f, Interval(0.0, 6.0), cells=cells)
        # the first call is the whole grid, ending exactly at the upper end
        grid = 6.0 * np.linspace(0.0, 1.0, cells + 1)
        assert np.array_equal(calls[0], grid) and calls[0][-1] == 6.0
        # the later calls are zoom stencils, all within one cell (to
        # rounding) of the best grid point, and every abscissa scored counts
        # as an evaluation
        best = grid[int(np.argmin(np.abs(grid - 2.3)))]
        later = np.concatenate(calls[1:])
        assert np.all(np.abs(later - best) <= 6.0 / cells * (1.0 + 1e-12))
        assert res.evaluations == sum(len(x) for x in calls)
        assert abs(res.argmax[0] - 2.3) < 1e-6

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="cell"):
            maximize_1d(lambda x: -x, Interval(0.0, 1.0), cells=0)

    @pytest.mark.parametrize("cells", [2.5, 64.000001, math.nan, math.inf])
    def test_rejects_a_fractional_grid(self, cells):
        # it would otherwise be truncated to a coarser grid than asked for
        with pytest.raises(ValueError, match="cell"):
            maximize_1d(lambda x: -x, Interval(0.0, 1.0), cells=cells)

    def test_integral_float_cells_are_whole(self):
        f = lambda x: np.sin(3.0 * x)
        assert maximize_1d(f, (0.0, 2.0), cells=7.0) == \
            maximize_1d(f, (0.0, 2.0), cells=7)

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (0.3, 7.1), (-2.0, 20.0),
                                        (1e-3, 0.7 + 1e-9)])
    @pytest.mark.parametrize("cells", [1, 64, 512])
    def test_increasing_objective_returns_the_upper_end(self, domain, cells):
        # the engines' edge notes compare the argmax with domain.hi exactly
        res = maximize_1d(lambda x: np.exp(x), Interval(*domain), cells=cells)
        assert res.argmax[0] == domain[1]
        assert res.value == np.exp(domain[1])


# the objectives above, checked against the golden-section search that
# maximize_1d replaced, which calls them one float at a time
_GOLDEN_CASES = {
    "quadratic": (lambda x: 5.0 - (x - 3.0) ** 2, (0.0, 10.0)),
    "gauss-tail": (lambda s: 2.0 * s * s * gaussian_tail(s), (0.0, 20.0)),
    "logistic": (lambda u: u * u / (2.0 * (1.0 + np.exp(u))), (0.0, 40.0)),
    "boundary": (lambda x: x, (0.0, 1.0)),
    "nan-region": (lambda x: np.where(x < 0.5, np.nan, -(x - 0.75) ** 2),
                   (0.0, 1.0)),
    "sine": (lambda x: np.sin(x) + 0.1 * x, (0.0, 6.0)),
    "off-grid": (lambda x: -(x - 2.3) ** 2, (0.0, 6.0)),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
@pytest.mark.parametrize("cells", [7, 64, 512])
def test_maximize_1d_not_below_golden_section(case, cells):
    f, (lo, hi) = _GOLDEN_CASES[case]
    res = maximize_1d(f, Interval(lo, hi), cells=cells)
    _, golden, _ = oracles.golden_max_1d(lambda x: float(f(np.float64(x))),
                                         lo, hi, cells)
    assert res.value >= golden - 1e-15 * abs(golden), (res.value, golden)


# a single 1-D search scores two zoom rounds per call; it must walk the path
# of the one-round-a-call reference exactly.  The objectives use only
# correctly rounded arithmetic, so a point's value cannot depend on the
# array it is scored in.

def _lookahead_objective(kind, a, b, c, r):
    """An elementwise objective of family ``kind`` with a peak or edge near
    a, slope or scale b, a feature at c and a region half-width r."""
    if kind == "nan-region":
        return lambda x: np.where(np.abs(x - c) < r, np.nan, -(x - a) ** 2)
    if kind == "plateau":
        return lambda x: np.minimum(-(x - a) ** 2, -r * r)
    if kind == "steps":   # ties everywhere
        return lambda x: np.floor(-b * (x - a) ** 2 * 8.0) / 8.0
    if kind == "kink":
        return lambda x: -np.abs(x - a) * b + np.where(x > c, r, 0.0)
    if kind == "edge-up":
        return lambda x: b * x
    if kind == "edge-down":
        return lambda x: -b * x
    if kind == "plus-inf":
        return lambda x: np.where(x > c, np.inf, -(x - a) ** 2)
    if kind == "minus-inf":
        return lambda x: np.where(np.abs(x - a) < r, -np.inf, -(x - c) ** 2)
    assert kind == "two-peaks"
    return lambda x: -((x - a) * (x - c)) ** 2 + r * x


_LOOKAHEAD_KINDS = ["nan-region", "plateau", "steps", "kink", "edge-up",
                    "edge-down", "plus-inf", "minus-inf", "two-peaks"]


def _as_bits(*values):
    return np.array(values, dtype=float).view(np.int64)


def _check_against_rounds(calls, rounds):
    """The stencil calls of one search against the reference's rounds: each
    call scores round k's stencil first, bit for bit, and nothing outside
    its span; when the next call does not start with round k + 1, that
    round was one of the call's seven look-ahead stencils.  Returns the
    number of rounds resolved from a look-ahead."""
    k = ahead = 0
    for i, call in enumerate(calls):
        assert np.array_equal(call[:13], rounds[k])
        assert np.all((rounds[k].min() <= call) & (call <= rounds[k].max()))
        k += 1
        following = calls[i + 1][:13] if i + 1 < len(calls) else None
        if k < len(rounds) and not np.array_equal(following, rounds[k]):
            assert len(call) == 104
            assert any(np.array_equal(block, rounds[k])
                       for block in call[13:].reshape(7, 13))
            k += 1
            ahead += 1
    assert k == len(rounds)
    return ahead


@pytest.mark.parametrize("cells", [1, 7, 64, 512])
def test_maximize_1d_walks_the_sequential_zoom(cells):
    rng = np.random.default_rng(9100 + cells)
    ahead = 0
    for kind in _LOOKAHEAD_KINDS:
        for _ in range(6):
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + 10.0 ** rng.uniform(-3.0, 2.0)
            width = hi - lo
            a, c = lo + width * rng.uniform(-0.1, 1.1, 2)
            b, r = rng.uniform(0.5, 20.0), width * rng.uniform(0.0, 0.3)
            f = _lookahead_objective(kind, a, b, c, r)
            calls = []

            def counted(x):
                calls.append(np.array(x))
                return f(x)

            res = maximize_1d(counted, Interval(lo, hi), cells=cells)
            x, value, _, rounds = oracles.sequential_zoom_1d(
                f, np.linspace(0.0, 1.0, cells + 1), 1.0 / cells, 1e-12,
                lambda t: (np.where(t < 1.0, np.minimum(lo + t * width, hi),
                                    hi), None))
            assert np.array_equal(_as_bits(*res.argmax, res.value),
                                  _as_bits(x, value)), (kind, lo, hi)
            assert res.evaluations == sum(len(x) for x in calls)
            ahead += _check_against_rounds(calls[1:-1], rounds)
    assert ahead > 0


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
def test_single_1d_zoom_walks_the_sequential_zoom(masked):
    # maximize_zoom itself on one problem over one coordinate: random scans,
    # half-widths and stops, with and without a lift that masks points
    rng = np.random.default_rng(9200 + masked)
    ahead = 0
    for kind in _LOOKAHEAD_KINDS:
        for _ in range(6):
            scan = np.sort(rng.uniform(0.0, 1.0, rng.integers(1, 40)))
            half, stop = rng.uniform(1e-3, 0.3), 10.0 ** -rng.uniform(3, 12)
            cut = rng.uniform(0.5, 1.0) if masked else 2.0
            a, c = rng.uniform(-0.1, 1.1, 2)
            f = _lookahead_objective(kind, a, rng.uniform(0.5, 20.0), c,
                                     rng.uniform(0.0, 0.3))
            calls = []

            def counted(rows):
                calls.append(rows[:, 0].copy())
                return f(rows[:, 0])

            def lift(coords):
                return coords, (coords[..., 0] <= cut if masked else None)

            res = maximize_zoom(counted, scan[:, None], half, stop, lift)
            x, value, evals, rounds = oracles.sequential_zoom_1d(
                f, scan, half, stop, lambda t: (t, t <= cut if masked else None))
            assert np.array_equal(_as_bits(*res.argmax, res.value),
                                  _as_bits(x, value)), (kind, scan, half)
            scored = sum(int(np.sum(x <= cut)) for x in calls[:-1]) + 1
            assert res.evaluations == scored >= evals
            ahead += _check_against_rounds(calls[1:-1], rounds)
    assert ahead > 0


class TestMaximizeSimplex:
    def test_dim2_product(self):
        res = maximize_simplex(lambda q: q[:, 0] * q[:, 1], dim=2)
        assert abs(res.value - 0.25) < 1e-10
        assert abs(res.argmax[0] - 0.5) < 1e-5

    def test_dim3_pair_weights(self):
        def f(rows):
            q, r, w = rows.T
            with np.errstate(invalid="ignore"):
                left = np.where(q + r > 0, 2 * q * r / (q + r), 0.0)
                right = np.where(r + w > 0, 2 * r * w / (r + w), 0.0)
            return left + right
        res = maximize_simplex(f, dim=3)
        assert abs(res.value - oracles.FROZEN["simplex_pair_weight_max"]) < 1e-8

    def test_dim3_linear_hits_vertex(self):
        res = maximize_simplex(lambda p: p[:, 2], dim=3)
        assert res.value > 1.0 - 1e-6

    def test_vectorized_batch(self):
        def batch(rows):
            return rows[:, 0] * rows[:, 1]
        res = maximize_simplex(batch, dim=2)
        assert abs(res.value - 0.25) < 1e-10

    def test_rejects_an_objective_of_one_row(self):
        # an objective written for a single weight vector returns the wrong
        # number of values for a batch of rows, and the search refuses it
        with pytest.raises(ValueError, match="one value per row"):
            maximize_simplex(lambda p: p[0] * p[1], dim=2)
        with pytest.raises(ValueError, match="one value per row"):
            maximize_simplex(lambda p: float(p[0] @ p[1]), dim=3)

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ValueError):
            maximize_simplex(lambda p: 0.0, dim=4)

    def test_value_is_reevaluation(self):
        def f(rows):
            return rows[:, 0] * rows[:, 1] * rows[:, 2]
        res = maximize_simplex(f, dim=3)
        assert res.value == f(np.array([res.argmax]))[0]


def _batch_scan(f, budget, monkeypatch, lift=None, scan=None, batch=4):
    """maximize_zoom on B = ``batch`` problems with the scan's value budget
    set to ``budget``; returns the result and the value count of each scan
    call (scan calls get (m, k) rows, stencil calls (B, m', k) ones)."""
    monkeypatch.setattr(numerics, "_SCAN_VALUES", budget)
    sizes = []

    def counted(rows):
        vals = f(rows)
        if rows.ndim == 2:
            sizes.append(np.size(vals))
        return vals

    scan = np.linspace(0.0, 1.0, 41)[:, None] if scan is None else scan
    res = maximize_zoom(counted, scan, 1.0 / 40, 1e-12, lift, batch=batch)
    return res, sizes


def _same_result(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a.argmax, b.argmax))
    assert np.array_equal(a.value, b.value)
    assert a.evaluations == b.evaluations


class TestPiecedScan:
    """A batch of B problems scans _SCAN_VALUES // B points a call; it must
    find what one call over the whole scan finds."""

    PEAKS = np.array([0.13, 0.5, 0.77, 0.99])

    def peaks(self, x):
        return -(x[..., 0] - self.PEAKS[:, None]) ** 2

    @pytest.mark.parametrize("budget", [4, 12, 40, 4 * 41 - 1])
    def test_pieces_match_one_scan(self, budget, monkeypatch):
        whole, sizes = _batch_scan(self.peaks, 10 ** 9, monkeypatch)
        assert sizes == [4 * 41]
        pieced, sizes = _batch_scan(self.peaks, budget, monkeypatch)
        assert len(sizes) > 1 and max(sizes) <= budget
        _same_result(pieced, whole)
        assert np.allclose(pieced.argmax[0], self.PEAKS, atol=1e-9)

    def test_a_tie_across_a_piece_boundary_keeps_the_first_point(
            self, monkeypatch):
        # 10 points a piece: the plateau at scan points 8-12 straddles the
        # boundary at 10, and the second row's equal maxima at points 12 and
        # 25 lie in different pieces; the first in scan order wins
        def f(x):
            i = np.rint(x[..., 0] * 40)
            plateau = np.where((i >= 8) & (i <= 12), 1.0, 0.0)
            apart = np.where((i == 12) | (i == 25), 1.0, 0.0)
            return np.stack([plateau, apart]) if x.ndim == 2 else \
                np.stack([plateau[0], apart[1]])

        for budget in (20, 10 ** 9):
            res, _ = _batch_scan(f, budget, monkeypatch, batch=2)
            assert res.argmax[0].tolist() == \
                np.linspace(0.0, 1.0, 41)[[8, 12]].tolist()
            assert res.value.tolist() == [1.0, 1.0]

    def test_nan_scores_minus_infinity(self, monkeypatch):
        # the first pieces are all NaN, and so is the best of the peaks
        def f(x):
            vals = self.peaks(x)
            return np.where((x[..., 0] < 0.3) | (np.abs(vals) < 1e-3),
                            np.nan, vals)

        whole, _ = _batch_scan(f, 10 ** 9, monkeypatch)
        pieced, sizes = _batch_scan(f, 8, monkeypatch)
        assert len(sizes) == 21
        _same_result(pieced, whole)
        assert np.all(np.isfinite(pieced.value))

    @pytest.mark.parametrize("budget", [3 * 100, 3 * 2144])
    def test_a_lift_masks_points_in_every_piece(self, budget, monkeypatch):
        # the simplex lift leaves out stencil points past q + r = 1; the
        # scan and evaluations are those of one call
        centers = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3],
                            [1 / 3, 1 / 3, 1 / 3]])

        def f(rows):
            return -np.sum((rows - centers[:, None]) ** 2, axis=-1)

        whole, sizes = _batch_scan(f, 10 ** 9, monkeypatch, _lift_simplex3,
                                   _SIMPLEX3_GRID, batch=3)
        assert sizes == [3 * 2145]
        pieced, sizes = _batch_scan(f, budget, monkeypatch, _lift_simplex3,
                                    _SIMPLEX3_GRID, batch=3)
        assert max(sizes) <= budget and sum(sizes) == 3 * 2145
        _same_result(pieced, whole)
        assert np.allclose(np.column_stack(pieced.argmax)[:, :2],
                           centers[:, :2], atol=1e-9)

    def test_the_default_budget_scans_65_rows_in_five_pieces(self):
        # the nested bounds' inner search: 65 spacings of a 1025-point scan
        sizes = []

        def f(x):
            if x.ndim == 2:
                sizes.append(65 * len(x))
            return -(x[..., 0] - np.linspace(0.0, 1.0, 65)[:, None]) ** 2

        res = maximize_zoom(f, np.linspace(0.0, 1.0, 1025)[:, None],
                            1.0 / 1024, 1e-12, batch=65)
        assert sizes == [65 * 205] * 5
        assert max(sizes) <= numerics._SCAN_VALUES == 13 * 1025
        assert np.allclose(res.argmax[0], np.linspace(0.0, 1.0, 65),
                           atol=1e-12)

    def test_a_single_simplex_problem_is_one_scan_call(self):
        calls = []

        def f(rows):
            calls.append(rows.shape)
            return rows[:, 0] * rows[:, 1] * rows[:, 2]

        maximize_simplex(f, dim=3)
        assert calls[0] == (2145, 3)
        assert all(len(shape) == 2 and shape[0] == 13 ** 2
                   for shape in calls[1:-1])

    @pytest.mark.parametrize("shape", [(5, 41), (41,), (4, 40), (4, 41, 1)])
    def test_rejects_other_shapes_for_a_batch(self, shape):
        with pytest.raises(ValueError, match="one value per row"):
            maximize_zoom(lambda x: np.zeros(shape), np.linspace(
                0.0, 1.0, 41)[:, None], 1.0 / 40, 1e-12, batch=4)


class TestQuadrature:
    def test_polynomial(self):
        val = integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-12)
        assert abs(val - 1.0 / 3.0) < 1e-12

    def test_sine(self):
        val = integrate_adaptive(math.sin, 0.0, math.pi, tol=1e-12)
        assert abs(val - 2.0) < 1e-11

    def test_semi_infinite_exponential(self):
        val = integrate_semi_infinite(lambda u: math.exp(-u), 0.0, tol=1e-12)
        assert abs(val - 1.0) < 1e-11

    def test_semi_infinite_gaussian(self):
        val = integrate_semi_infinite(
            lambda u: oracles.INV_SQRT_2PI * math.exp(-0.5 * u * u), 0.0,
            tol=1e-12)
        assert abs(val - 0.5) < 1e-11

    def test_slow_decay_raises(self):
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda u: u / (1.0 + u * u), 0.0)
        assert err.value.interval is not None


class TestGaussianTail:
    def test_against_independent_oracle(self):
        xs = np.linspace(-8.0, 8.0, 321)
        ours = gaussian_tail(xs)
        for x, v in zip(xs, ours):
            assert abs(v - oracles.q_tail(float(x))) < 1e-12

    def test_known_points(self):
        assert gaussian_tail(0.0) == 0.5
        assert abs(gaussian_tail(1.0) - oracles.FROZEN["q_one"]) < 1e-14
        assert abs(gaussian_tail(2.0) - oracles.FROZEN["q_two"]) < 1e-14

    def test_scalar_and_array_shapes(self):
        assert isinstance(gaussian_tail(1.0), float)
        out = gaussian_tail(np.array([0.0, 1.0]))
        assert out.shape == (2,)

    def test_monotone_decreasing(self):
        xs = np.linspace(-5.0, 5.0, 101)
        vals = gaussian_tail(xs)
        assert np.all(np.diff(vals) < 0)


def test_oracle_tail_self_check():
    # the series and continued-fraction branches must agree at the seam
    series = 0.5 * (1.0 - oracles._erf_series(4.0 / oracles.SQRT2))
    fraction = oracles._q_tail_cf(4.0)
    assert abs(series - fraction) < 1e-12
