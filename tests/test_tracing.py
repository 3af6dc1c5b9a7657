"""Smoke test of the benchmark's tracer against the package it traces.

The tracer in ``bench/tracing.py`` rebinds package attributes by name, so a
change that renames or deletes one of them breaks the benchmark.  Entering
and leaving a tracer here makes such a change fail the test suite as well.
"""

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
