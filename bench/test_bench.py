"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOAD_TABLE))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    make = workloads.WORKLOAD_TABLE[name].make
    assert make(7, 0) == make(7, 0)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_sweep_has_fixed_counts_across_all_models():
    a, b = workloads.sweep_calls(1, 0), workloads.sweep_calls(2, 0)
    assert sorted(c.label for c in a) == sorted(c.label for c in b)
    assert len(a) >= 100
    models = {c.model for c in a}
    assert len(models) == 8


# -- references ---------------------------------------------------------------

@pytest.mark.parametrize("model,params,t,half,key,scale", [
    ("gauss-location", {"sigma": 1.0}, 2.0, False, "gauss_local_mse", 1.0),
    ("gauss-location", {"sigma": 1.0}, 1.0, False, "gauss_local_mae", 1.0),
    ("uniform-scale", {"theta": 1.0}, 2.0, False, "uniform_scale_local_mse", 1.0),
    ("awgn-rect", {"power": 2.0}, 2.0, False, "awgn_rect_mse", 0.25),
    ("uniform-location", {}, 3.0, True, "uniform_location_t3", 1.0),
])
def test_own_search_reproduces_frozen(model, params, t, half, key, scale):
    pe = checks.local_pe(model, params, half)
    s = checks.argmax_log_concave(
        lambda x: t * math.log(x) + checks._safe_log(pe(x)), 1e-4, 1e4)
    assert 2.0 * s ** t * pe(s) == pytest.approx(checks.frozen()[key] * scale,
                                                 rel=5e-12)


def test_closed_forms():
    value, s_star = checks.local_two_point_reference("uniform-location", {},
                                                     50.0, False)
    assert value == pytest.approx((50.0 / (2.0 * math.e)) ** 50.0, rel=1e-14)
    assert s_star > checks.DEFAULT_SMAX
    assert checks.pe_max("exp-rate", {}, 1.0, 2.0, 1) == pytest.approx(
        (3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)


def test_wilson_interval_covers_zero_successes():
    lo, hi = checks.wilson_interval(0.0, 10_000)
    assert lo == pytest.approx(0.0, abs=1e-15) and hi > 0.0


def test_binomial_tails_at_few_expected_errors():
    low, high = checks.binomial_tails(1, 12426, 6.83e-7)
    assert high == pytest.approx(-math.expm1(12426 * math.log1p(-6.83e-7)),
                                 rel=1e-9)
    n, p = 12426, 6.83e-7
    assert low == pytest.approx((1 - p) ** n + n * p * (1 - p) ** (n - 1),
                                rel=1e-12)
    low, high = checks.binomial_tails(3, 100, 0.03)
    assert low + high == pytest.approx(1.0 + math.comb(100, 3) * 0.03 ** 3
                                       * 0.97 ** 97, rel=1e-12)
    # one error where 0.0085 are expected is rare, not impossible; five is
    assert checks.check_mc("mc", 0.0, 1 / 12426, 6.83e-7, 12426, 1.6e-4).passed
    assert not checks.check_mc("mc", 0.0, 5 / 12426, 6.83e-7, 12426,
                               1.6e-4).passed


def test_only_a_collapsed_half_width_is_the_known_wald_defect():
    exact = 1e-4                      # 1 expected error in 10 000 trials
    collapsed = checks.check_mc("mc", 0.0, 0.0, exact, 10_000, 0.0)
    assert not collapsed.passed and collapsed.known == checks.MC_WALD
    outside = checks.check_mc("mc", 0.0, 0.05, exact, 10_000, 0.01)
    assert not outside.passed and outside.known is None


# -- failure accounting ---------------------------------------------------------

def _sweep_call():
    return workloads._call("local-two-point/gauss-location", "gauss-location",
                           "local-two-point", "mse", sigma=1.5)


def _cli_result(value):
    return (0, json.dumps({"value": value, "argmax": {}, "notes": []}), "")


def test_planted_values_count_as_failures():
    call = _sweep_call()
    ref = checks.frozen()["gauss_local_mse"] * 1.5 ** 2
    results = [
        _cli_result(ref),                      # passes
        _cli_result(ref * (1.0 - 1e-6)),       # outside tolerance
        _cli_result(ref * (1.0 + 1e-6)),       # overshoot
        RuntimeError("planted"),               # raised
        (3, "", "minimaxlb: numerical failure"),  # non-zero exit
    ]
    outcomes = [workloads.check_sweep_call(call, 0.001, r) for r in results]
    assert [o.passed for o in outcomes] == [True, False, False, False, False]
    summary = worker.summarize(outcomes)
    assert summary["attempted"] == 5
    assert summary["failed"] == 4
    assert summary["correct"] is False
    assert summary["pass_frac"] == pytest.approx(0.2)
    assert summary["accuracy_digits_min"] > 10.0


def test_nested_planted_values():
    calls = workloads.nested_calls(3, 0)
    report = types.SimpleNamespace
    sigma = calls[3].p["sigma"]
    exact = checks.frozen()["gauss_local_mse"] * sigma ** 2
    done = workloads.Pass(1.0, [(1.0, report(value=0.0)),
                                (1.0, ValueError("planted")),
                                (1.0, report(value=1e9)),
                                (1.0, report(value=exact)),
                                (1.0, report(value=0.0))])
    outcomes = workloads._check_nested(calls, done)
    assert [o.passed for o in outcomes] == [False] * 3 + [True, False]
    summary = worker.summarize(outcomes)
    assert summary["failed"] == 4      # an exp-family shortfall is no defect
    assert summary["correct"] is False
    assert summary["pass_frac"] == pytest.approx(1.0 / 5.0)


def test_fisher_tag_covers_only_a_small_exp_family_miss():
    call = workloads.nested_calls(3, 0)[4]
    assert call.model == "exp-family" and call.bound == "three-point"
    ref = checks.frozen()["gauss_three_point_half"] / call.p["sigma"] ** 2
    report = types.SimpleNamespace
    values = (ref * (1.0 + 2e-9), ref * (1.0 - 1.1e-8), ref * (1.0 + 1e-6),
              ref * (1.0 - 1e-6))
    outcomes = [workloads.check_nested_call(call, 1.0, report(value=v))
                for v in values]
    assert [o.known for o in outcomes] == [checks.FISHER] * 2 + [None] * 2
    assert worker.summarize(outcomes)["failed"] == 2

    sweep = workloads._call("local-two-point/exp-family", "exp-family",
                            "local-two-point", "mse", sigma=1.5)
    ref = workloads._sweep_reference(sweep)[0]
    outcomes = [workloads.check_sweep_call(sweep, 0.001, r) for r in
                (_cli_result(ref * (1.0 + 2e-9)), _cli_result(ref * 1.001),
                 (3, "", "minimaxlb: numerical failure"))]
    assert [o.known for o in outcomes] == [checks.FISHER, None, None]


def test_known_defect_lowers_pass_frac_only():
    call = workloads._call("local-two-point/uniform-location",
                           "uniform-location", "local-two-point", "power:50.0")
    out = workloads.check_sweep_call(call, 0.001, _cli_result(4.78322166e47))
    assert not out.passed and out.known == checks.EDGE
    summary = worker.summarize([out])
    assert summary["failed"] == 0 and summary["pass_frac"] == 0.0


def _reproduce_payload(entries):
    return json.dumps({"checks": [{"check": "c", "passed": True}],
                       "entries": entries})


def test_reproduce_entry_not_passed_is_a_failure():
    payload = _reproduce_payload([
        {"label": "uniform-scale moment mse", "model": "uniform-scale",
         "computed": 0.31, "passed": False, "message": "outside tolerance"},
        {"label": "awgn-rect local-two-point mse", "model": "awgn-rect",
         "computed": checks.frozen()["awgn_rect_mse"] * 1.01, "passed": True,
         "message": ""}])
    outcomes = workloads.check_reproduce(1.0, (1, payload, ""),
                                         [0.5], [0.1, 0.1])
    assert [o.passed for o in outcomes] == [True, False, False]


def test_reproduce_exp_family_failure_makes_the_run_incorrect():
    ref = checks.frozen()["gauss_local_mse"]
    label = "exp-family local-two-point mse"
    for computed, passed in ((0.2, False), (ref * (1.0 + 2e-9), True)):
        payload = _reproduce_payload([{"label": label, "model": "exp-family",
                                       "computed": computed, "passed": passed,
                                       "message": ""}])
        outcomes = workloads.check_reproduce(1.0, (0, payload, ""), [0.5], [0.1])
        assert outcomes[1].known is None
        summary = worker.summarize(outcomes)
        assert summary["failed"] == 1 and summary["correct"] is False


# -- tracing ---------------------------------------------------------------------

def _traced_slice():
    calls = [c for c in workloads.sweep_calls(5, 0)
             if c.bound != "nuisance-rotation"][:16]
    moment = workloads.nested_calls(5, 0)[2]
    tracer = tracing.Tracer()
    with tracer:
        done = workloads.run_sweep(calls)
        workloads.run_nested([moment])
    metrics = tracer.metrics(done.wall, {"leaf": 1e-6, "span": 1e-6})
    return {k: v for k, v in metrics.items()
            if tracing.PER_LAYER[k] not in ("s", "ratio")}


def test_two_traced_runs_agree_on_every_count():
    first, second = _traced_slice(), _traced_slice()
    assert first == second
    assert first["catalog.compute_bound.calls"] == 17
    assert first["bounds._vec_max_01.calls"] >= 1
    assert first["numerics.maximize_1d.evals"] > 0


def test_tracer_restores_the_package():
    from minimaxlb import bounds, models
    before = (bounds.maximize_1d, models.gaussian_tail, models.get_model)
    with tracing.Tracer():
        assert bounds.maximize_1d is not before[0]
    assert (bounds.maximize_1d, models.gaussian_tail, models.get_model) == before


def test_self_times_partition_the_span():
    tracer = tracing.Tracer()
    with tracer:
        workloads.run_sweep(workloads.sweep_calls(5, 0)[:4])
    own = tracer.self_times()
    total = sum(own.values()) + sum(t - n for t, n in
                                    (rec[2:] for rec in tracer.leaves.values()))
    roots = sum(end - start for _, parent, _, start, end in tracer.spans
                if parent == 0)
    assert total == pytest.approx(roots, rel=1e-9)


# -- host speed ----------------------------------------------------------------

def test_speed_factor_is_the_mean_inverse_sample():
    sampler = hostspeed.Sampler()
    n = hostspeed.NOMINAL_S
    sampler.times, sampler.samples = [1.0, 2.0, 3.0], [n, 2 * n, 4 * n]
    assert sampler.factor(0.5, 3.5) == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert sampler.factor(1.5, 2.5) == pytest.approx(0.5)
    # an interval without a sample takes the one nearest to its middle
    assert sampler.factor(2.7, 2.8) == pytest.approx(0.25)
    assert sampler.factor(2.1, 2.2) == pytest.approx(0.5)
    assert sampler.factor(9.0, 9.5) == pytest.approx(0.25)
    with pytest.raises(RuntimeError):
        hostspeed.Sampler().factor(0.0, 1.0)


def test_sampler_leaves_its_own_time_out_of_the_clock():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        start, t0 = hostspeed.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 5 * hostspeed.INTERVAL_S:
            pass
        work, wall = hostspeed.clock() - start, time.perf_counter() - t0
    assert len(sampler.samples) >= 3
    assert sampler.factor(start, start + work) > 0
    assert wall - work == pytest.approx(sum(sampler.samples), rel=0.01)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the command -------------------------------------------------------------------

def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
