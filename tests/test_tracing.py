"""Smoke test of the benchmark's tracer against the package it traces.

The tracer in ``bench/tracing.py`` rebinds package attributes by name, so a
change that renames or deletes one of them breaks the benchmark.  Entering
and leaving a tracer here makes such a change fail the test suite as well,
and so does a change that leaves an inner-search layer the benchmark
reports idle on the path it names.
"""

import dataclasses
import os

from minimaxlb import bounds, catalog, cli, models, numerics, verify

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_tracer_binds_and_restores_its_names(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    import tracing

    modules = (bounds, catalog, cli, models, numerics, verify)
    before = [dict(vars(m)) for m in modules]
    with tracing.Tracer():
        assert [dict(vars(m)) for m in modules] != before
    assert [dict(vars(m)) for m in modules] == before


def test_every_traced_inner_layer_runs(monkeypatch):
    # the benchmark reports each of these layers; a change that leaves one
    # idle on the path it names would read 0 there without failing
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    import tracing

    gauss = models.get_model("gauss-location")
    uniform = models.get_model("uniform-location")
    bare = dataclasses.replace(uniform, limit=dataclasses.replace(
        uniform.limit, pair_split=None))
    runs = [
        (["bounds._vec_max_01.calls"],
         lambda: bounds.moment_two_point_bound(gauss, 2.0, r_fixed=0.5)),
        (["numerics.maximize_simplex.calls"],
         lambda: bounds.three_point_bound(uniform)),
        (["bounds._max_box2.calls", "bounds._rowwise_max_01.calls"],
         lambda: bounds.moment_two_point_bound(bare, 2.0)),
        (["bounds._rowwise_max_01.calls"],
         lambda: bounds.three_point_bound(bare, w_zero=True)),
    ]
    for names, run in runs:
        tracer = tracing.Tracer()
        with tracer:
            run()
        counts = tracer.metrics(1.0, {"leaf": 0.0, "span": 0.0})
        assert all(counts[name] >= 1 for name in names), names
