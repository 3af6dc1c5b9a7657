"""Outside-in tracing of the package's layers.

The tracer rebinds module attributes of the package, in the benchmark
process only, to wrappers that record what each layer did.  No source file
is touched.  Two kinds of wrapper exist:

* a *span* records (id, parent id, name, start, end) for calls down to the
  inner-search level: cli, catalog, bound engines, outer and inner searches,
  quadrature, Monte-Carlo sampling, the verify suite;
* a *leaf* is a hot primitive called up to millions of times (pair error,
  Gaussian tail, oracle error, pe_inf, quadrature integrand).  Leaves are
  folded into (calls, elements, seconds) per parent span, which keeps memory
  bounded.  A leaf called inside another leaf is subtracted from it.

Self times are derived from the spans when the run ends: a span's self time
is its duration minus its child spans and the leaf time folded under it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import defaultdict

from minimaxlb import bounds, catalog, cli, models, numerics, verify

_perf = time.perf_counter

# bound engines catalog.compute_bound dispatches to
_ENGINES = ("two_point_bound", "concave_two_point_bound",
            "local_two_point_bound", "moment_two_point_bound",
            "three_point_bound", "three_point_exact_uniform",
            "transform_two_point_bound", "rotation_nuisance_bound",
            "pairwise_ring_bound", "pairwise_allpairs_bound")

# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "numerics.maximize_1d.calls": "count",
    "numerics.maximize_1d.evals": "count",
    "numerics.maximize_1d.evals_per_call": "evals/call",
    "numerics.maximize_1d.self_s": "s",
    "numerics.maximize_simplex.calls": "count",
    "numerics.maximize_simplex.rows": "count",
    "numerics.maximize_simplex.self_s": "s",
    "bounds._rowwise_max_01.calls": "count",
    "bounds._rowwise_max_01.self_s": "s",
    "bounds._max_box2.calls": "count",
    "bounds._max_box2.self_s": "s",
    "bounds._vec_max_01.calls": "count",
    "bounds._vec_max_01.self_s": "s",
    "bounds.inner.rows_per_outer_eval": "rows/eval",
    "bounds.engine.calls": "count",
    "bounds.engine.self_s": "s",
    "models.pe_pair.calls": "count",
    "models.pe_pair.elements": "count",
    "models.pe_pair.self_s": "s",
    "numerics.gaussian_tail.calls": "count",
    "numerics.gaussian_tail.elements": "count",
    "numerics.gaussian_tail.self_s": "s",
    "models.pe_inf.calls": "count",
    "models.pe_inf.self_s": "s",
    "models.oracle_pe.calls": "count",
    "models.oracle_pe.elements": "count",
    "models.oracle_pe.self_s": "s",
    "numerics.quad.calls": "count",
    "numerics.quad.segments": "count",
    "numerics.quad.integrand_evals": "count",
    "numerics.quad.self_s": "s",
    "models.monte_carlo_pe.calls": "count",
    "models.monte_carlo_pe.draws": "count",
    "models.monte_carlo_pe.self_s": "s",
    "models.get_model.calls": "count",
    "models.get_model.self_s": "s",
    "catalog.compute_bound.calls": "count",
    "catalog.compute_bound.errors": "count",
    "catalog.self_s": "s",
    "cli.self_s": "s",
    "verify.calls": "count",
    "verify.samples": "count",
    "verify.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _size(x) -> int:
    return getattr(x, "size", 1)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans, folded leaves and counters for one traced pass."""

    def __init__(self):
        self.spans = []      # [id, parent, name, start, end]
        self.leaves = defaultdict(lambda: [0, 0, 0.0, 0.0])
        # (parent span, leaf name) -> [calls, elements, seconds, nested s]
        self.counts = defaultdict(int)
        self.outer_evals = {}   # maximize_1d span id -> evaluations
        self.inner_rows = defaultdict(int)   # parent span id -> inner rows
        # frames: [span id, seconds of leaves directly inside]
        self._stack = [[0, 0.0]]
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + 1
            record = [sid, stack[-1][0], name, 0.0, 0.0]
            spans.append(record)
            stack.append([sid, 0.0])
            record[3] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = _perf()
                stack.pop()
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, elements=None):
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1]
            frame = [outer[0], 0.0]
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _perf() - start
                stack.pop()
                outer[1] += took
                rec = leaves[(outer[0], name)]
                rec[0] += 1
                if elements is not None:
                    rec[1] += elements(args, kwargs)
                rec[2] += took
                rec[3] += frame[1]

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Rebind the package's module attributes to traced wrappers."""
        r, s, leaf = self._rebind, self.span, self.leaf
        r(cli, "main", s("cli.main", cli.main))
        r(catalog, "compute_bound",
          s("catalog.compute_bound", self._counting_errors(catalog.compute_bound)))
        r(catalog, "run_entries", s("catalog.run_entries", catalog.run_entries))
        r(models, "get_model", s("models.get_model",
                                 self._traced_model(models.get_model)))
        r(models, "monte_carlo_pe",
          s("models.monte_carlo_pe", models.monte_carlo_pe, self._after_mc))
        r(verify, "run_default_suite",
          s("verify", verify.run_default_suite, self._after_verify))
        for name in _ENGINES:
            r(bounds, name, s("bounds.engine", getattr(bounds, name)))
        r(bounds, "maximize_1d",
          s("numerics.maximize_1d", bounds.maximize_1d, self._after_outer))
        r(bounds, "maximize_simplex",
          s("numerics.maximize_simplex", bounds.maximize_simplex,
            self._after_simplex))
        r(bounds, "_rowwise_max_01",
          s("bounds._rowwise_max_01", bounds._rowwise_max_01))
        for name in ("_max_box2", "_vec_max_01"):
            r(bounds, name, s(f"bounds.{name}",
                              self._counting_rows(getattr(bounds, name))))
        r(bounds, "integrate_semi_infinite",
          s("numerics.quad", self._traced_integrand(bounds.integrate_semi_infinite)))
        r(numerics, "integrate_adaptive",
          s("numerics.quad.segment", numerics.integrate_adaptive))
        tail_elems = lambda a, k: _size(_arg(a, k, 0, "t"))   # noqa: E731
        r(models, "gaussian_tail",
          leaf("numerics.gaussian_tail", models.gaussian_tail, tail_elems))
        r(bounds, "gaussian_tail",
          leaf("numerics.gaussian_tail", bounds.gaussian_tail, tail_elems))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- helpers that wrap arguments or results -------------------------------

    def _counting_errors(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts["catalog.compute_bound.errors"] += 1
                raise
        return wrapper

    def _counting_rows(self, fn):
        """_max_box2 / _vec_max_01 take a vectorized objective first."""
        stack, rows = self._stack, self.inner_rows

        @functools.wraps(fn)
        def wrapper(fvec, *args, **kwargs):
            parent = self.spans[stack[-1][0] - 1][1]

            def counted(x):
                rows[parent] += len(x)
                return fvec(x)

            return fn(counted, *args, **kwargs)
        return wrapper

    def _traced_integrand(self, fn):
        leaf = self.leaf

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            return fn(leaf("numerics.quad.integrand", f), *args, **kwargs)
        return wrapper

    def _traced_model(self, get_model):
        """Wrap the limit/oracle closures of every model catalog builds."""
        leaf = self.leaf
        q_elems = lambda i, n: lambda a, k: _size(_arg(a, k, i, n))  # noqa: E731

        @functools.wraps(get_model)
        def wrapper(*args, **kwargs):
            model = get_model(*args, **kwargs)
            changes = {}
            if model.limit is not None:
                lim = model.limit
                pe_inf = leaf("models.pe_inf", lim.pe_inf)
                fields = {"pe_inf": pe_inf}
                if lim.pe_inf_halfprior is lim.pe_inf:
                    fields["pe_inf_halfprior"] = pe_inf
                elif lim.pe_inf_halfprior is not None:
                    fields["pe_inf_halfprior"] = leaf("models.pe_inf",
                                                      lim.pe_inf_halfprior)
                if lim.pe_pair is not None:
                    fields["pe_pair"] = leaf("models.pe_pair", lim.pe_pair,
                                             q_elems(2, "q"))
                changes["limit"] = dataclasses.replace(lim, **fields)
            if model.oracle is not None:
                changes["oracle"] = dataclasses.replace(
                    model.oracle, pe=leaf("models.oracle_pe", model.oracle.pe,
                                          q_elems(0, "q")))
            return dataclasses.replace(model, **changes)
        return wrapper

    def _after_outer(self, sid, args, kwargs, result):
        self.outer_evals[sid] = result.evaluations

    def _after_simplex(self, sid, args, kwargs, result):
        self.counts["numerics.maximize_simplex.rows"] += result.evaluations
        self.inner_rows[self.spans[sid - 1][1]] += result.evaluations

    def _after_mc(self, sid, args, kwargs, result):
        n = _arg(args, kwargs, 4, "n")
        trials = _arg(args, kwargs, 5, "trials")
        self.counts["models.monte_carlo_pe.draws"] += int(n) * int(trials)

    def _after_verify(self, sid, args, kwargs, result):
        self.counts["verify.calls"] += len(result)
        self.counts["verify.samples"] += sum(r.samples for r in result)

    # -- derivation ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span id: duration minus child spans minus the
        leaf time folded directly under it."""
        own = {sid: end - start for sid, _, _, start, end in self.spans}
        for sid, parent, _, start, end in self.spans:
            if parent:
                own[parent] -= end - start
        for (parent, _), (_, _, total, nested) in self.leaves.items():
            if parent:
                own[parent] -= total - nested
        return own

    def metrics(self, traced_wall: float, per_call_cost: dict) -> dict:
        """Per-layer metrics of the traced pass."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _, name, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += own[sid]
        leaf = defaultdict(lambda: [0, 0, 0.0])
        for (_, name), (n, elems, total, nested) in self.leaves.items():
            rec = leaf[name]
            rec[0] += n
            rec[1] += elems
            rec[2] += total - nested

        outer = sum(self.outer_evals.values())
        nested_outer = sum(e for sid, e in self.outer_evals.items()
                           if self.inner_rows.get(sid))
        inner_rows = sum(self.inner_rows.values())
        m = dict(self.counts)
        m.update({
            "numerics.maximize_1d.calls": calls["numerics.maximize_1d"],
            "numerics.maximize_1d.evals": outer,
            "numerics.maximize_1d.evals_per_call":
                outer / calls["numerics.maximize_1d"]
                if calls["numerics.maximize_1d"] else 0.0,
            "numerics.maximize_1d.self_s": self_s["numerics.maximize_1d"],
            "numerics.maximize_simplex.calls": calls["numerics.maximize_simplex"],
            "numerics.maximize_simplex.self_s": self_s["numerics.maximize_simplex"],
            "bounds.inner.rows_per_outer_eval":
                inner_rows / nested_outer if nested_outer else 0.0,
            "bounds.engine.calls": calls["bounds.engine"],
            "bounds.engine.self_s": self_s["bounds.engine"],
            "numerics.quad.calls": calls["numerics.quad"],
            "numerics.quad.segments": calls["numerics.quad.segment"],
            "numerics.quad.integrand_evals": leaf["numerics.quad.integrand"][0],
            "numerics.quad.self_s": self_s["numerics.quad"]
                + self_s["numerics.quad.segment"]
                + leaf["numerics.quad.integrand"][2],
            "models.monte_carlo_pe.calls": calls["models.monte_carlo_pe"],
            "models.monte_carlo_pe.self_s": self_s["models.monte_carlo_pe"],
            "models.get_model.calls": calls["models.get_model"],
            "models.get_model.self_s": self_s["models.get_model"],
            "catalog.compute_bound.calls": calls["catalog.compute_bound"],
            "catalog.self_s": self_s["catalog.compute_bound"]
                + self_s["catalog.run_entries"],
            "cli.self_s": self_s["cli.main"],
            "verify.self_s": self_s["verify"],
        })
        for name in ("bounds._rowwise_max_01", "bounds._max_box2",
                     "bounds._vec_max_01"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        for name in ("models.pe_pair", "numerics.gaussian_tail",
                     "models.oracle_pe", "models.pe_inf"):
            n, elems, secs = leaf[name]
            m[f"{name}.calls"] = n
            m[f"{name}.elements"] = elems
            m[f"{name}.self_s"] = secs
        # instrumentation cost: wrapper invocations times their measured
        # per-call cost, as a share of the pass without it
        n_leaf = sum(rec[0] for rec in self.leaves.values())
        cost = (n_leaf * per_call_cost["leaf"]
                + len(self.spans) * per_call_cost["span"])
        m["trace.overhead_frac"] = cost / max(traced_wall - cost, 1e-9)
        return {name: m.get(name, 0) for name in PER_LAYER}

    def dump(self, path: str, extra: dict) -> None:
        """Write spans (with self times) and folded leaves as JSON."""
        own = self.self_times()
        payload = dict(extra)
        payload["spans"] = [[sid, parent, name, start, end, own[sid]]
                            for sid, parent, name, start, end in self.spans]
        payload["leaves"] = [[parent, name, n, elems, total, total - nested]
                             for (parent, name), (n, elems, total, nested)
                             in self.leaves.items()]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def per_call_cost(repeats: int = 20_000) -> dict:
    """Measured cost in seconds of one leaf and one span wrapper call: the
    median over five batches of wrapped minus direct calls of a no-op."""
    def noop(*args, **kwargs):
        return None

    probe = Tracer()
    wrapped = {"leaf": probe.leaf("probe", noop, lambda a, k: _size(a[0])),
               "span": probe.span("probe", noop)}
    out = {}
    for kind, fn in wrapped.items():
        samples = []
        for _ in range(5):
            probe.spans.clear()
            t0 = _perf()
            for _ in range(repeats):
                noop(1.0)
            direct = _perf() - t0
            t0 = _perf()
            for _ in range(repeats):
                fn(1.0)
            samples.append(max(_perf() - t0 - direct, 0.0) / repeats)
        out[kind] = sorted(samples)[2]
    return out
