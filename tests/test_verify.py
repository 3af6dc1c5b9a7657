"""The brute-force verification suite itself."""

import ast
import math
import os

import numpy as np
import pytest

from minimaxlb import verify

VERIFY_SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                             "minimaxlb", "verify.py")


def _zoom_min_1d(f, lo, hi, grid):
    """Reference one-problem scan and zoom: the row search must match it
    bit for bit.  Returns (argmin, min, evaluations)."""
    xs = np.linspace(lo, hi, grid)
    vals = f(xs)
    i = int(np.argmin(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    evals = grid
    half = (hi - lo) / (grid - 1)
    steps = np.linspace(-1.0, 1.0, 13)
    while half > 1e-13 * max(1.0, abs(lo), abs(hi)):
        cand = np.clip(best_x + half * steps, lo, hi)
        vals = f(cand)
        evals += len(cand)
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_v, best_x = float(vals[j]), float(cand[j])
        half *= 0.35
    return best_x, best_v, evals


def _zoom_unit_square(f, pt, best, half, inside):
    """Reference zoom of one 2-D problem in the unit square: a clipped
    13 x 13 stencil in np.meshgrid order (x fastest) around the incumbent,
    keeping only the points where inside(points) holds.  Returns (point,
    min, evaluations) after the scan's start."""
    steps = np.linspace(-1.0, 1.0, 13)
    evals = 0
    while half > 1e-13:
        gx = np.clip(pt[0] + half * steps, 0.0, 1.0)
        gy = np.clip(pt[1] + half * steps, 0.0, 1.0)
        xx, yy = np.meshgrid(gx, gy)
        cand = np.column_stack([xx.ravel(), yy.ravel()])
        cand = cand[inside(cand)]
        vals = f(cand)
        evals += len(cand)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, pt = float(vals[j]), cand[j].copy()
        half *= 0.35
    return pt, best, evals


def _simplex_grid_values(a, rows):
    """max(a_1 / q, a_2 / r, a_3 / w) on (q, r, w) rows; boundary rows, and
    rows whose 1 - q - r rounds negative, score inf."""
    with np.errstate(divide="ignore"):
        vals = np.maximum(np.maximum(a[0] / rows[:, 0], a[1] / rows[:, 1]),
                          a[2] / rows[:, 2])
    vals[(rows <= 0.0).any(axis=1)] = np.inf
    return vals


def _simplex_grid_400():
    """The (q, r, 1 - q - r) rows of the step-1/400 grid, q fastest."""
    ii, jj = np.meshgrid(np.arange(401), np.arange(401))
    keep = ii + jj <= 400
    q, r = ii[keep] / 400, jj[keep] / 400
    return np.column_stack([q, r, 1.0 - q - r])


def _simplex_min_3d(a):
    """Reference 3-D simplex check of one draw: scan the step-1/400 grid,
    then zoom on the points (q, r) with q + r <= 1.  Returns (error,
    evaluations)."""
    total = sum(a)
    r_star = np.array(a) / total
    err_analytic = abs(float(np.max(np.array(a) / r_star)) - total) / total

    def f(rows):
        return _simplex_grid_values(a, rows)

    rows = _simplex_grid_400()
    vals = f(rows)
    i = int(np.argmin(vals))
    _, best, evals = _zoom_unit_square(
        lambda c: f(np.column_stack([c, 1.0 - c.sum(axis=1)])),
        rows[i, :2].copy(), float(vals[i]), 1.0 / 400,
        lambda c: c.sum(axis=1) <= 1.0)
    return max(abs(best - total) / total, err_analytic), len(rows) + evals


def _chain_violation_scalar(a, b, c):
    """Reference split-chain violation of one triple, in scalar arithmetic."""
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


def _suite_draws(seed):
    """The suite's random draws, in the order it takes them from the seed."""
    rng = np.random.default_rng(seed)
    simplex = [tuple(10.0 * (1.0 - rng.random(3))) for _ in range(100)]
    two = []
    for _ in range(1000):
        q = rng.uniform(0.0, 1.0)
        p0, p1 = rng.uniform(0.0, 2.0, 2)
        t0 = rng.normal()
        t1 = t0 + rng.uniform(0.1, 3.0)
        two.append((q, p0, p1, t0, t1))
    three = []
    for _ in range(1000):
        a, b, c = 10.0 * (1.0 - rng.random(3))
        t0 = rng.normal()
        delta = rng.uniform(0.1, 2.0)
        three.append((a, b, c, t0, delta))
    triples = 10.0 * (1.0 - rng.random((10_000, 3)))
    return simplex, two, three, triples


class TestSimplexInfimum:
    def test_equal_pair(self):
        rep = verify.check_simplex_infimum((1.0, 1.0))
        assert rep.passed
        assert rep.max_abs_error < 1e-6

    def test_increasing_triple(self):
        # worst-case weighted ratio bottoms out at the proportional split
        rep = verify.check_simplex_infimum((1.0, 2.0, 3.0))
        assert rep.passed
        assert (rep.max_abs_error, rep.samples) == (0.0, 84488)
        assert (rep.max_abs_error, rep.samples) \
            == _simplex_min_3d((1.0, 2.0, 3.0))

    @pytest.mark.parametrize("seed", [1729, 5, 11, 2024, 77])
    def test_suite_draws_match_the_one_draw_search(self, seed):
        simplex = np.array(_suite_draws(seed)[0])
        err, evals = verify._simplex_errors(*simplex.T)
        ref = [_simplex_min_3d(tuple(a)) for a in simplex.tolist()]
        assert list(zip(err.tolist(), evals.tolist())) == ref

    @pytest.mark.parametrize("seed", [3, 19])
    def test_interior_scan_picks_the_full_grid_argmin(self, seed):
        # equal or commensurate masses put the minimum on or near symmetric
        # grid points: (1, 1, 1) ties two of them, and the first in grid
        # order must win, as in the full-grid scan
        rng = np.random.default_rng(seed)
        masses = np.vstack([[1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [1.0, 2.0, 2.0],
                            [1.0, 2.0, 3.0], [3.0, 1.0, 1.0],
                            rng.integers(1, 5, (20, 3)).astype(float),
                            10.0 * (1.0 - rng.random((20, 3)))])
        rows = _simplex_grid_400()
        ties = 0
        for a in masses.tolist():
            vals = _simplex_grid_values(a, rows)
            ties += int(np.sum(vals == vals.min()) > 1)
            i = int(np.argmin(vals))
            assert verify._simplex_argmin(400, *a) \
                == (rows[i, 0], rows[i, 1], vals[i])
        assert ties >= 1

    @pytest.mark.parametrize("a", [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                                   (10.0, 10.0, 1e-3), (1e-3, 10.0, 10.0),
                                   (1e-6, 1.0, 1.0)])
    def test_bound_pruned_scan_matches_the_full_grid(self, a):
        # masses that put the proportional split on or next to the grid's
        # edges, where the pruning rectangle is thinnest
        rows = _simplex_grid_400()
        vals = _simplex_grid_values(a, rows)
        i = int(np.argmin(vals))
        assert verify._simplex_argmin(400, *a) \
            == (rows[i, 0], rows[i, 1], vals[i])
        rep = verify.check_simplex_infimum(a)
        assert (rep.max_abs_error, rep.samples) == _simplex_min_3d(a)

    @pytest.mark.parametrize("seed", [1729, 5, 11, 2024, 77])
    def test_array_scan_equals_the_row_calls_and_the_full_grid(self, seed):
        # one batched call pads the draws' rectangles to a common block; each
        # draw must still get its own first argmin, bit for bit
        rng = np.random.default_rng(seed)
        masses = np.vstack([np.array(_suite_draws(seed)[0]),
                            10.0 ** rng.uniform(-3.0, 3.0, (30, 3)),
                            [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                             (10.0, 10.0, 1e-3), (1e-3, 10.0, 10.0),
                             (1e-6, 1.0, 1.0)]])
        got = np.column_stack(verify._simplex_argmin(400, *masses.T))
        rows = np.array([verify._simplex_argmin(400, *a)
                         for a in masses.tolist()])
        grid = _simplex_grid_400()
        full = []
        for a in masses.tolist():
            vals = _simplex_grid_values(a, grid)
            i = int(np.argmin(vals))
            full.append((grid[i, 0], grid[i, 1], vals[i]))
        assert np.array_equal(got.view(np.int64), rows.view(np.int64))
        assert np.array_equal(got.view(np.int64), np.array(full).view(np.int64))

    @pytest.mark.parametrize("a", [(float("nan"), 1.0), (1.0, float("inf")),
                                   (1.0, 2.0, float("nan"))])
    def test_rejects_non_finite_masses(self, a):
        with pytest.raises(ValueError):
            verify.check_simplex_infimum(a)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            verify.check_simplex_infimum((1.0, 1.0, 1.0, 1.0))

    def test_rejects_nonpositive_masses(self):
        with pytest.raises(ValueError):
            verify.check_simplex_infimum((0.0, 1.0))


class TestTwoPointQuadratic:
    def test_balanced(self):
        rep = verify.check_two_point_quadratic(0.5, 1.0, 1.0, 0.0, 1.0)
        assert rep.passed
        assert rep.max_abs_error < 1e-8

    def test_one_sided_mass(self):
        rep = verify.check_two_point_quadratic(0.5, 1.0, 0.0, 0.0, 1.0)
        assert rep.passed

    def test_skewed(self):
        rep = verify.check_two_point_quadratic(0.2, 1.7, 0.4, -1.0, 2.5)
        assert rep.passed

    @pytest.mark.parametrize("args", [
        (0.5, math.inf, 1.0, 0.0, 1.0), (0.5, 1.0, math.nan, 0.0, 1.0),
        (math.nan, 1.0, 1.0, 0.0, 1.0), (0.5, 1.0, 1.0, -math.inf, 1.0),
        (0.5, 1.0, 1.0, 0.0, math.inf)])
    def test_rejects_non_finite_inputs(self, args):
        with pytest.raises(ValueError):
            verify.check_two_point_quadratic(*args)


class TestThreePointQuadratic:
    def test_symmetric_masses_center_the_minimizer(self):
        rep = verify.check_three_point_quadratic(1.0, 2.0, 1.0, 0.5, 0.7)
        assert rep.passed

    def test_no_center_mass(self):
        rep = verify.check_three_point_quadratic(1.0, 0.0, 1.0, 0.0, 1.0)
        assert rep.passed

    def test_random_shape(self):
        rep = verify.check_three_point_quadratic(0.3, 1.1, 0.6, 2.0, 0.4)
        assert rep.passed

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 1.0, math.nan, 1.0), (1.0, 1.0, 1.0, 0.0, math.inf),
        (math.nan, 1.0, 1.0, 0.0, 1.0), (1.0, math.inf, 1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0, math.inf, 1.0)])
    def test_rejects_non_finite_inputs(self, args):
        with pytest.raises(ValueError):
            verify.check_three_point_quadratic(*args)


class TestSplitChain:
    def test_equal_masses(self):
        rep = verify.check_split_chain(1.0, 1.0, 1.0)
        assert rep.passed
        assert rep.max_abs_error <= 1e-12

    def test_missing_outer_mass(self):
        rep = verify.check_split_chain(1.0, 1.0, 0.0)
        assert rep.passed

    def test_violation_function_nonnegative(self):
        assert verify._chain_violation(0.2, 0.7, 0.1) >= 0.0

    def test_arrays_match_scalar_arithmetic(self):
        rng = np.random.default_rng(3)
        triples = np.vstack([10.0 * (1.0 - rng.random((2000, 3))),
                             rng.integers(0, 3, (200, 3)).astype(float),
                             [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]])
        batch = verify._chain_violation(*triples.T)
        for row, got in zip(triples.tolist(), batch):
            assert got == _chain_violation_scalar(*row)
        assert verify._chain_violation(0.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0),
                                      (1.0, math.inf, 1.0),
                                      (0.0, 0.0, math.inf)])
    def test_rejects_non_finite_weights(self, args):
        with pytest.raises(ValueError):
            verify.check_split_chain(*args)

    def test_non_finite_triple_fails_the_batch(self):
        # only an all-zero triple scores 0; a NaN or infinite one scores NaN
        triples = np.array([[1.0, 1.0, 1.0], [math.nan, 1.0, 1.0],
                            [1.0, math.inf, 1.0], [0.0, 0.0, math.inf],
                            [0.0, 0.0, 0.0]])
        with np.errstate(all="raise"):
            got = verify._chain_violation(*triples.T)
        assert got[0] == _chain_violation_scalar(1.0, 1.0, 1.0)
        assert np.isnan(got[1:4]).all() and got[4] == 0.0
        rep = verify.CheckReport.from_run(
            "split-chain-random", float(np.max(got)), len(triples), 1e-12)
        assert not rep.passed


class TestCorrelationExpansion:
    def test_self_correlation_is_one(self):
        # trapezoid rule is spectrally accurate on a full period
        corr = verify._sinusoid_correlation(0.3, 0.0)
        assert abs(corr - 1.0) < 1e-12

    def test_matches_cosine_of_phase_offset(self):
        for delta in (0.05, 0.25, 1.0):
            corr = verify._sinusoid_correlation(0.1, delta)
            assert abs(corr - math.cos(delta)) < 1e-9

    def test_check_passes(self):
        rep = verify.check_correlation_expansion()
        assert rep.passed
        assert rep.samples == 11 and rep.tolerance == 1e-6
        # the excess over the Taylor remainder is rounding-level everywhere
        assert rep.max_abs_error <= 7.5e-11

    def test_every_offset_counts(self, monkeypatch):
        # (1 - corr)/delta^2 drops by 4e-3 at delta = 0.5 alone, taking it
        # 3.9e-3 past the remainder bound 0.5^2/24; the smallest offset holds
        exact = verify._sinusoid_correlation

        def perturbed(theta, delta):
            return exact(theta, delta) + (1e-3 if delta == 0.5 else 0.0)

        monkeypatch.setattr(verify, "_sinusoid_correlation", perturbed)
        rep = verify.check_correlation_expansion()
        assert not rep.passed
        assert rep.max_abs_error > 1e-3


class TestDefaultSuite:
    def test_all_checks_pass(self):
        reports = verify.run_default_suite()
        assert reports
        for rep in reports:
            assert rep.passed, rep.check_id

    def test_expected_check_ids(self):
        ids = [rep.check_id for rep in verify.run_default_suite()]
        assert "simplex-infimum-exact" in ids
        assert "two-point-quadratic-random" in ids
        assert "split-chain-random" in ids

    def test_deterministic_for_fixed_seed(self):
        a = verify.run_default_suite(seed=5)
        b = verify.run_default_suite(seed=5)
        assert [r.max_abs_error for r in a] == [r.max_abs_error for r in b]


class TestRowSearch:
    def test_rows_match_the_one_problem_search(self):
        rng = np.random.default_rng(8)
        m = 45  # more than one chunk, and not a multiple of it
        lo = rng.normal(size=m) * 10.0 ** rng.integers(-2, 3, m)
        hi = lo + rng.uniform(0.01, 5.0, m)
        a, b = rng.uniform(0.0, 3.0, m), rng.normal(size=m)
        centre = lo + (hi - lo) * rng.uniform(-0.2, 1.2, m)

        def f(x, rows):
            return a[rows, None] * (x - centre[rows, None]) ** 2 \
                + b[rows, None] * np.sin(3.0 * x)

        x_rows, v_rows, n_rows = verify._zoom_min_rows(f, lo, hi, 2001)
        for k in range(m):
            x, v, n = _zoom_min_1d(lambda x: f(x[None, :], [k])[0],
                                   float(lo[k]), float(hi[k]), 2001)
            assert (x_rows[k], v_rows[k], n_rows[k]) == (x, v, n)

    def test_two_coordinate_rows_match_the_one_problem_zoom(self):
        # a staircase in x + y ties along anti-diagonals of the stencil, so
        # which tied point wins, and with it the path, depends on its order
        rng = np.random.default_rng(12)
        m = 40
        level = rng.integers(0, 15, m).astype(float)
        start = rng.uniform(0.0, 0.5, (m, 2))

        def f(x, y, rows):
            return np.abs(np.floor(8.0 * x) + np.floor(8.0 * y)
                          - level[rows, None])

        def inside(x, y):
            return x + y <= 1.0

        best = f(start[:, :1], start[:, 1:], np.arange(m))[:, 0]
        x_rows, v_rows, n_rows = verify._zoom_rows(
            f, start.copy(), best.copy(), np.zeros((m, 2)), np.ones((m, 2)),
            np.full(m, 1.0 / 16), np.zeros(m, dtype=int), inside)
        assert n_rows.min() < n_rows.max()  # some stencils leave the region
        for k in range(m):
            pt, v, n = _zoom_unit_square(
                lambda c: f(c[None, :, 0], c[None, :, 1], [k])[0],
                start[k].copy(), float(best[k]), 1.0 / 16,
                lambda c: inside(c[:, 0], c[:, 1]))
            assert (x_rows[k].tolist(), v_rows[k], n_rows[k]) \
                == (pt.tolist(), v, n)

    def test_one_row_checks_count_the_scalar_evaluations(self):
        q, p0, p1, t0, t1 = 0.2, 1.7, 0.4, -1.0, 2.5
        rep = verify.check_two_point_quadratic(q, p0, p1, t0, t1)
        A, B = q * p0, (1.0 - q) * p1
        ref = _zoom_min_1d(lambda v: A * (v - t0) ** 2 + B * (v - t1) ** 2,
                           t0, t1, 2001)
        assert rep.samples == ref[2]

        a, b, c, t0, delta = 0.3, 1.1, 0.6, 2.0, 0.4
        rep = verify.check_three_point_quadratic(a, b, c, t0, delta)
        ref = _zoom_min_1d(lambda v: a * (v - t0 + delta) ** 2
                           + b * (v - t0) ** 2 + c * (v - t0 - delta) ** 2,
                           t0 - delta, t0 + delta, 2001)
        assert rep.samples == ref[2]

        rep = verify.check_simplex_infimum((1.0, 2.0))
        ref = _zoom_min_1d(lambda r: np.maximum(1.0 / r, 2.0 / (1.0 - r)),
                           1e-9, 1.0 - 1e-9, 401)
        assert rep.samples == ref[2]
        assert rep.max_abs_error == abs(ref[1] - 3.0) / 3.0

    def test_scans_in_chunks_then_zooms_every_row_at_once(self):
        rng = np.random.default_rng(21)
        m = 1000
        lo = rng.normal(size=m)
        hi = lo + rng.uniform(0.1, 3.0, m)
        a, b = rng.uniform(0.0, 2.0, m), rng.normal(size=m)
        calls = []

        def f(x, rows):
            calls.append(x.shape)
            return a[rows, None] * (x - b[rows, None]) ** 2

        x_rows, v_rows, n_rows = verify._zoom_min_rows(f, lo, hi, 2001)
        scans = [c for c in calls if c[1] == 2001]
        zooms = [c for c in calls if c[1] == 13]
        assert len(scans) + len(zooms) == len(calls)
        assert max(c[0] for c in scans) <= verify._CHUNK
        assert sum(c[0] for c in scans) == m
        assert len(scans) == math.ceil(m / verify._CHUNK)
        # one call a zoom round, the first one taking every row
        rounds = (n_rows - 2001) // 13
        assert len(zooms) == rounds.max() and zooms[0][0] == m
        for k in range(m):
            ref = _zoom_min_1d(lambda x: a[k] * (x - b[k]) ** 2,
                               float(lo[k]), float(hi[k]), 2001)
            assert (x_rows[k], v_rows[k], n_rows[k]) == ref

    def test_chunk_grids_equal_linspace(self):
        # the scan builds each chunk's grid in C order by linspace's own
        # arithmetic; a subnormal width makes a step underflow to 0, where
        # linspace switches formula
        rng = np.random.default_rng(31)
        m = 5 * verify._CHUNK + 3
        lo = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 6.0, m)
        hi = lo + 10.0 ** rng.uniform(-9.0, 2.0, m)
        lo[verify._CHUNK + 2], hi[verify._CHUNK + 2] = 0.0, 1e-321
        assert (lo < hi).all()
        grids = []

        def f(x, rows):
            if x.shape[1] == 2001:
                grids.append((x.copy(), rows))
            return np.abs(x - 0.5 * (lo[rows, None] + hi[rows, None]))

        verify._zoom_min_rows(f, lo, hi, 2001)
        assert sum(len(rows) for _, rows in grids) == m
        for xs, rows in grids:
            if verify._CHUNK + 2 not in rows:
                ref = np.linspace(lo[rows], hi[rows], 2001, axis=1)
                assert np.array_equal(xs.view(np.int64), ref.view(np.int64))
            for x, k in zip(xs, rows):
                ref = np.linspace(lo[k], hi[k], 2001)
                assert np.array_equal(x.view(np.int64), ref.view(np.int64))

    def test_underflowing_step_leaves_the_other_rows_alone(self):
        # a chunk-wide linspace switched every row of a chunk to its
        # underflow formula, so these rows' errors moved off their one-row
        # checks by an ulp
        rng = np.random.default_rng(4)
        m = verify._CHUNK
        q, p0, p1 = rng.random(m), 2.0 * rng.random(m), 2.0 * rng.random(m)
        t0 = rng.normal(size=m)
        t1 = t0 + rng.uniform(0.1, 3.0, m)
        t0[3], t1[3] = 0.0, 1e-321
        batch, _ = verify._two_point_errors(q, p0, p1, t0, t1)
        singles = [verify.check_two_point_quadratic(*d).max_abs_error
                   for d in zip(q, p0, p1, t0, t1)]
        assert batch.tolist() == singles

    @pytest.mark.parametrize("seed", [1729, 5, 11, 2024, 77])
    def test_suite_draws_are_the_seeded_stream(self, seed):
        # the suite draws through random() and standard_normal() what
        # uniform() and normal() would draw
        got = verify._default_draws(seed)
        ref = _suite_draws(seed)
        for drawn, expected in zip(got, ref):
            assert np.array_equal(np.asarray(drawn).view(np.int64),
                                  np.array(expected).view(np.int64))

    def test_short_last_chunk(self):
        _, two, three, _ = _suite_draws(1729)
        for errors, draws, check in (
                (verify._two_point_errors, two[:40],
                 verify.check_two_point_quadratic),
                (verify._three_point_errors, three[:40],
                 verify.check_three_point_quadratic)):
            assert len(draws) % verify._CHUNK != 0
            singles = [check(*d).max_abs_error for d in draws]
            assert verify._worst_error(errors, np.array(draws)) == max(singles)
            batch, _ = errors(*np.array(draws).T)
            assert batch.tolist() == singles


class TestSuiteMatchesScalarChecks:
    @pytest.mark.parametrize("seed", [1729, 5, 11])
    def test_batched_reports_equal_the_per_draw_loop(self, seed):
        simplex, two, three, triples = _suite_draws(seed)
        exact = max(verify.check_simplex_infimum((1.0, 1.0)).max_abs_error,
                    verify.check_simplex_infimum((1.0, 2.0, 3.0)).max_abs_error)
        chain = [verify.check_split_chain(*t).max_abs_error
                 for t in [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0)] + triples.tolist()]
        expected = [
            ("simplex-infimum-exact", exact, 2, 1e-3),
            ("simplex-infimum-random",
             max(verify.check_simplex_infimum(a).max_abs_error
                 for a in simplex), 100, 1e-3),
            ("two-point-quadratic-random",
             max(verify.check_two_point_quadratic(*d).max_abs_error
                 for d in two), 1000, 1e-6),
            ("three-point-quadratic-random",
             max(verify.check_three_point_quadratic(*d).max_abs_error
                 for d in three), 1000, 1e-6),
            ("split-chain-random", max(chain), 10_002, 1e-12),
        ]
        reports = verify.run_default_suite(seed)
        assert reports[:5] == [verify.CheckReport.from_run(*e)
                               for e in expected]
        assert reports[5] == verify.check_correlation_expansion()

    def test_pinned_default_seed_errors(self):
        by_id = {r.check_id: r for r in verify.run_default_suite(1729)}
        assert repr(by_id["two-point-quadratic-random"].max_abs_error) \
            == "7.4983329613428e-09"
        assert repr(by_id["three-point-quadratic-random"].max_abs_error) \
            == "1.2324508355333658e-08"
        assert repr(by_id["simplex-infimum-random"].max_abs_error) \
            == "7.094787319590379e-14"


class TestIndependence:
    def test_verify_imports_nothing_from_the_engine(self):
        with open(VERIFY_SOURCE, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        engine = {"bounds", "numerics", "models", "catalog"}
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                if node.level or node.module in ("minimaxlb", None):
                    imported.update(alias.name for alias in node.names)
        hits = {name for name in imported
                if engine & set(name.split("."))}
        assert not hits, f"verify.py imports engine modules: {sorted(hits)}"
