"""The benchmark's workloads: seeded inputs, how to run them, how to check them.

Each workload turns ``(seed, pass_index)`` into a list of calls and knows how
to run one pass over them and check every result.  The package only ever
sees the generated inputs.

* ``reproduce``    -- ``minimaxlb reproduce``: the verify suite plus the
                      packaged manifest, the user-facing end-to-end command.
* ``nested-gauss`` -- the nested (outer spacing x inner prior) searches with a
                      Gaussian pair error, where the erfc primitive is a
                      large share of the time.
* ``sweep``        -- about 250 single-level ``compute`` calls across
                      all models, where CLI, catalog, outer scan and
                      primitives take most of the time, one quadrature call
                      the rest, and no inner search runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

import checks
import hostspeed
from checks import Outcome, frozen

LIMIT_MODELS = ("gauss-location", "awgn-smooth", "awgn-rect", "exp-family",
                "uniform-scale", "uniform-location")
ORACLE_MODELS = ("exp-rate", "uniform-scale", "uniform-location",
                 "gauss-location")

# CLI flags of `minimaxlb compute`; any other parameter goes via --param
_FLAGS = ("sigma", "theta", "theta0", "theta1", "q", "n", "trials")


@dataclass(frozen=True)
class Call:
    """One bound computation, as a user would request it."""

    label: str
    model: str
    bound: str
    loss: str = "mse"
    params: tuple = ()   # sorted (key, value) pairs
    seed: Optional[int] = None

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def t(self) -> float:
        if self.loss == "mse":
            return 2.0
        if self.loss == "mae":
            return 1.0
        return float(self.loss.split(":", 1)[1])

    def argv(self) -> list:
        argv = ["compute", "--model", self.model, "--bound", self.bound,
                "--loss", self.loss, "--format", "json"]
        for key, value in self.params:
            text = repr(value) if isinstance(value, float) else str(value)
            if key in _FLAGS:
                # one word: argparse takes "-8.6e-05" after a space for a flag
                argv.append(f"--{key}={text}")
            else:
                argv += ["--param", f"{key}={text}"]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def _call(label, model, bound, loss="mse", seed=None, **params) -> Call:
    return Call(label, model, bound, loss, tuple(sorted(params.items())), seed)


# ---------------------------------------------------------------------------
# input generation

def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _loss(rng, tmax: float) -> str:
    """mse, mae or a power loss with t log-uniform on [1, tmax]."""
    kind = int(rng.integers(3))
    if kind == 0:
        return "mse"
    if kind == 1:
        return "mae"
    return f"power:{math.exp(_u(rng, 0.0, math.log(tmax)))!r}"


def _limit_params(rng, model: str) -> dict:
    if model in ("gauss-location", "exp-family"):
        return {"sigma": _u(rng, 0.5, 2.0)}
    if model == "awgn-smooth":
        return {"pdot": _u(rng, 0.5, 2.0)}
    if model == "awgn-rect":
        return {"power": _u(rng, 0.5, 2.0)}
    if model == "uniform-scale":
        return {"theta": _u(rng, 0.5, 2.0)}
    return {}


def _pair_params(rng, model: str, nmax: int) -> dict:
    """Two test points theta0 < theta1 (and n, sigma) for an oracle model."""
    if model == "exp-rate":
        t0 = _u(rng, 0.5, 2.0)
        return {"theta0": t0, "theta1": t0 * _u(rng, 1.1, 3.0), "n": 1}
    n = int(rng.integers(1, nmax + 1))
    if model == "uniform-scale":
        t0 = _u(rng, 0.5, 2.0)
        return {"theta0": t0, "theta1": t0 * (1.0 + _u(rng, 0.01, 0.5)), "n": n}
    if model == "uniform-location":
        t0 = _u(rng, -1.0, 1.0)
        return {"theta0": t0, "theta1": t0 + _u(rng, 0.01, 0.9), "n": n}
    sigma = _u(rng, 0.5, 2.0)
    t0 = _u(rng, -1.0, 1.0)
    return {"sigma": sigma, "theta0": t0, "theta1": t0 + _u(rng, 0.05, 3.0),
            "n": n}


def _points(rng, model: str) -> dict:
    """3 to 5 sorted test points with Dirichlet weights."""
    m = int(rng.integers(3, 6))
    if model == "exp-rate":
        thetas, extra = np.sort(rng.uniform(0.5, 3.0, m)), {"n": 1}
    elif model == "uniform-scale":
        thetas = np.sort(rng.uniform(0.5, 2.0, m))
        extra = {"n": int(rng.integers(1, 21))}
    elif model == "uniform-location":
        thetas = _u(rng, -1.0, 1.0) + np.sort(rng.uniform(0.0, 0.9, m))
        extra = {"n": int(rng.integers(1, 21))}
    else:
        thetas = np.sort(rng.uniform(-2.0, 2.0, m))
        extra = {"n": int(rng.integers(1, 21)), "sigma": _u(rng, 0.5, 2.0)}
    weights = rng.dirichlet(np.ones(m))
    return {"thetas": ",".join(repr(float(x)) for x in thetas),
            "weights": ",".join(repr(float(x)) for x in weights), **extra}


# cap on trials * n for the mc-pe calls; the sampler allocates it at once
MC_DRAWS = 400_000


def _mc_params(rng, model: str) -> dict:
    trials = int(rng.integers(10_000, 30_001))
    q = _u(rng, 0.2, 0.8)
    if model == "exp-rate":
        t0 = _u(rng, 0.5, 2.0)
        return {"theta0": t0, "theta1": t0 * _u(rng, 1.1, 3.0), "n": 1,
                "q": q, "trials": trials}
    n = min(int(rng.integers(1, 33)), MC_DRAWS // trials)
    if model == "gauss-location":
        sigma = _u(rng, 0.5, 2.0)
        d = _u(rng, 0.5, 12.0)   # separation in noise units
        return {"sigma": sigma, "theta0": 0.0,
                "theta1": d * sigma / math.sqrt(n), "n": n, "q": q,
                "trials": trials}
    if model == "uniform-scale":
        t0 = _u(rng, 0.5, 2.0)
        return {"theta0": t0, "theta1": t0 * (1.0 + _u(rng, 0.01, 0.3)),
                "n": n, "q": q, "trials": trials}
    return {"theta0": 0.0, "theta1": _u(rng, 0.01, 0.5), "n": n, "q": q,
            "trials": trials}


def sweep_calls(seed: int, pass_index: int) -> list:
    """One pass of the sweep: fixed counts per kind of call, continuous
    parameters drawn from the seed, order shuffled.  The one
    nuisance-rotation call (about 0.4-0.6 s, all quadrature) is kept to a
    minority of the pass by about 250 single-level calls of 1-16 ms."""
    rng = np.random.default_rng([seed, pass_index])
    calls = []
    for model in LIMIT_MODELS:
        for i in range(18):
            half = i >= 12
            params = _limit_params(rng, model)
            if half:
                params["prior"] = "half"
            calls.append(_call(f"local-two-point/{model}", model,
                               "local-two-point", _loss(rng, 64.0), **params))
    for model in ORACLE_MODELS:
        for _ in range(8):
            calls.append(_call(f"two-point/{model}", model, "two-point",
                               _loss(rng, 8.0), **_pair_params(rng, model, 40)))
        for _ in range(4):
            t = _u(rng, 0.25, 1.0)
            calls.append(_call(f"concave-two-point/{model}", model,
                               "concave-two-point", f"power:{t!r}",
                               **_pair_params(rng, model, 40)))
        for i in range(6):
            params = _pair_params(rng, model, 40)
            if i % 3:
                params["q"] = _u(rng, 0.1, 0.9)
            calls.append(_call(f"transform/{model}", model, "transform",
                               _loss(rng, 8.0), **params))
        for bound in ("ring", "all-pairs"):
            for _ in range(6):
                calls.append(_call(f"{bound}/{model}", model, bound,
                                   _loss(rng, 4.0), **_points(rng, model)))
        for _ in range(6):
            calls.append(_call(f"mc-pe/{model}", model, "mc-pe",
                               seed=int(rng.integers(2 ** 31)),
                               **_mc_params(rng, model)))
    calls.append(_call("nuisance-rotation", "nuisance-rotation",
                       "nuisance-rotation", sigma=_u(rng, 0.5, 2.0)))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


def nested_calls(seed: int, pass_index: int) -> list:
    """The nested (outer spacing x inner prior) searches on Gaussian-type
    pair errors: moment bounds with the loss split r searched (inner
    _max_box2) and pinned at 1/2 (inner _vec_max_01), and three-point bounds
    with pinned pair priors (inner simplex search).  Every Gaussian-type
    model appears once."""
    rng = np.random.default_rng([seed, pass_index])

    def power():
        return f"power:{_u(rng, 1.0, 4.0)!r}"

    return [
        _call("moment r-free/awgn-smooth", "awgn-smooth", "moment", power(),
              pdot=_u(rng, 0.5, 2.0)),
        _call("moment r-free/exp-family", "exp-family", "moment", power(),
              sigma=_u(rng, 0.5, 2.0)),
        _call("moment r-half/awgn-rect", "awgn-rect", "moment",
              power=_u(rng, 0.5, 2.0), r=0.5),
        _call("moment r-half/gauss-location", "gauss-location", "moment",
              sigma=_u(rng, 0.5, 2.0), r=0.5),
        _call("three-point half/exp-family", "exp-family", "three-point",
              sigma=_u(rng, 0.5, 2.0), inner="half"),
    ]


def reproduce_argv(seed: int, pass_index: int) -> list:
    rng = np.random.default_rng([seed, pass_index])
    return ["reproduce", "--format", "json", "--jobs", "1",
            "--seed", str(int(rng.integers(2 ** 31)))]


# ---------------------------------------------------------------------------
# running

def run_cli(argv: list):
    """Run the CLI in-process with stdout and stderr captured."""
    from minimaxlb import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    """Raw results of one pass: per-call (seconds, result or exception), and
    the (start, end) times of the pass and of each user-facing call on the
    hostspeed clock."""

    wall: float
    results: list
    span: tuple = (0.0, 0.0)
    calls: list = ()


def run_sweep(calls: list) -> Pass:
    results, spans = [], []
    start = hostspeed.clock()
    for call in calls:
        t0 = hostspeed.clock()
        try:
            res = run_cli(call.argv())
        except (Exception, SystemExit) as exc:
            res = exc
        t1 = hostspeed.clock()
        results.append((t1 - t0, res))
        spans.append((t0, t1))
    end = hostspeed.clock()
    return Pass(end - start, results, (start, end), spans)


def run_nested(calls: list) -> Pass:
    from minimaxlb import catalog
    results, spans = [], []
    start = hostspeed.clock()
    for call in calls:
        t0 = hostspeed.clock()
        try:
            res = catalog.compute_bound(call.model, call.bound,
                                        catalog.parse_loss(call.loss), call.p)
        except Exception as exc:
            res = exc
        t1 = hostspeed.clock()
        results.append((t1 - t0, res))
        spans.append((t0, t1))
    end = hostspeed.clock()
    return Pass(end - start, results, (start, end), spans)


@contextlib.contextmanager
def _timing(module, name: str, sink: list):
    """Rebind module.name to a wrapper that appends each call's duration."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = hostspeed.clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(hostspeed.clock() - t0)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_reproduce(argv: list) -> Pass:
    """One `reproduce` run; per-entry and verify-suite times are taken by
    timing wrappers on catalog.compute_bound and verify.run_default_suite
    (entries run in manifest order with --jobs 1)."""
    from minimaxlb import catalog, verify
    entry_s, verify_s = [], []
    start = hostspeed.clock()
    with _timing(catalog, "compute_bound", entry_s), \
            _timing(verify, "run_default_suite", verify_s):
        try:
            res = run_cli(argv)
        except (Exception, SystemExit) as exc:
            res = exc
    end = hostspeed.clock()
    # the user's call is the one `reproduce` command; its entries' times are
    # reported per label instead (entry_rows)
    return Pass(end - start, [(end - start, res, verify_s, entry_s)],
                (start, end), [(start, end)])


# ---------------------------------------------------------------------------
# checking

_HALF_WIDTH = re.compile(r"half-width ([0-9.eE+-]+)")


def check_nested_call(call: Call, seconds: float, res) -> Outcome:
    if isinstance(res, BaseException):
        return checks.failed(call.label, seconds,
                             f"{type(res).__name__}: {res}")
    p = call.p
    band = checks.fisher_band(call.model, call.t)
    if call.bound == "three-point":
        # a Gaussian pair error with noise scale 1/sqrt(Fisher information)
        scale = (1.0 / p["sigma"] ** 2 if call.model == "exp-family"
                 else 1.0 / (2.0 * p["pdot"]))
        return checks.compare(call.label, seconds, res.value,
                              frozen()["gauss_three_point_half"] * scale,
                              fisher=band)
    # the r = 1/2 slice of the moment objective is the local two-point
    # objective: equal when r is pinned there, a floor when r is searched
    ref = checks.local_two_point_reference(call.model, p, call.t, False)[0]
    return checks.compare(call.label, seconds, res.value, ref,
                          lower_only="r" not in p, fisher=band)


def _sweep_reference(call: Call):
    """(reference, shortfall tolerance, keyword arguments of checks.compare)
    for a sweep call other than mc-pe."""
    p, t = call.p, call.t
    if call.bound == "local-two-point":
        ref, s_star = checks.local_two_point_reference(
            call.model, p, t, p.get("prior") == "half")
        edge = checks.EDGE if s_star > checks.DEFAULT_SMAX else None
        return ref, checks.SEARCH_TOL, {
            "short_known": edge,
            "fisher": checks.fisher_band(call.model, t)}
    if call.bound == "nuisance-rotation":
        return (frozen()["rotation_nuisance"] * p["sigma"] ** 2,
                checks.SEARCH_TOL, {})
    if call.bound in ("ring", "all-pairs"):
        thetas = [float(x) for x in p["thetas"].split(",")]
        weights = [float(x) for x in p["weights"].split(",")]
        return (checks.pairwise_reference(call.model, p, t, thetas, weights,
                                          p["n"], call.bound == "ring"),
                checks.EVAL_TOL, {})
    spacing = p["theta1"] - p["theta0"]
    if call.bound == "transform" and "q" in p:
        pe = checks.pe_exact(call.model, p, p["q"], p["theta0"], p["theta1"],
                             p["n"])
        return 2.0 * (spacing / 2.0) ** t * pe, checks.EVAL_TOL, {}
    pe = checks.pe_max(call.model, p, p["theta0"], p["theta1"], p["n"])
    if call.bound == "concave-two-point":
        return spacing ** t * pe, checks.SEARCH_TOL, {}
    return 2.0 * (spacing / 2.0) ** t * pe, checks.SEARCH_TOL, {}


def check_sweep_call(call: Call, seconds: float, res) -> Outcome:
    if isinstance(res, BaseException):
        return checks.failed(call.label, seconds,
                             f"{type(res).__name__}: {res}")
    code, out, err = res
    if code != 0:
        return checks.failed(call.label, seconds,
                             f"exit code {code}: {err.strip()}")
    try:
        report = json.loads(out)
        value = float(report["value"])
    except (ValueError, KeyError, TypeError) as exc:
        return checks.failed(call.label, seconds, f"unreadable output: {exc}")
    p = call.p
    if call.bound == "mc-pe":
        exact = checks.pe_exact(call.model, p, p["q"], p["theta0"],
                                p["theta1"], p["n"])
        match = _HALF_WIDTH.search(" ".join(report.get("notes", [])))
        half_width = float(match.group(1)) if match else 0.0
        return checks.check_mc(call.label, seconds, value, exact, p["trials"],
                               half_width)
    ref, tol, tags = _sweep_reference(call)
    return checks.compare(call.label, seconds, value, ref, tol=tol, **tags)


# manifest label -> FROZEN key; the Monte-Carlo entries are checked by their
# Wilson interval instead of digits
REPRODUCE_REFERENCES = {
    "exp-rate two-point mse": "exp_rate_two_point",
    "gauss-location local-two-point mse": "gauss_local_mse",
    "uniform-scale local-two-point mse": "uniform_scale_local_mse",
    "uniform-scale local-two-point mse half-prior": "uniform_scale_local_mse_half",
    "uniform-location local-two-point mae": "uniform_location_t1",
    "uniform-location local-two-point mse": "uniform_location_t2",
    "uniform-location local-two-point power:3": "uniform_location_t3",
    "awgn-smooth local-two-point mse": "awgn_smooth_mse",
    "awgn-rect local-two-point mse": "awgn_rect_mse",
    "exp-family local-two-point mse": "gauss_local_mse",
    "nuisance-rotation mse": "rotation_nuisance",
    "uniform-scale moment mse": "moment_uniform_t2",
    "uniform-scale moment mae": "moment_uniform_t1",
    "uniform-scale moment power:3": "moment_uniform_t3",
    "uniform-scale three-point mse": "uniform_three_point_free",
    "gauss-location three-point mse half-pair-priors": "gauss_three_point_half",
    "uniform-scale three-point-exact mse": "uniform_three_point_exact",
    "monte-carlo pe gauss-location": "mc_gauss_pe",
    "monte-carlo pe uniform-scale": "mc_uniform_pe",
}
REPRODUCE_MC_TRIALS = 100_000


def check_reproduce(wall: float, res, verify_s: list, entry_s: list) -> list:
    """One outcome per verify check and per manifest entry."""
    if isinstance(res, BaseException):
        return [checks.failed("reproduce", wall, f"{type(res).__name__}: {res}")]
    code, out, err = res
    try:
        payload = json.loads(out)
        rows, entries = payload["checks"], payload["entries"]
    except (ValueError, KeyError, TypeError) as exc:
        return [checks.failed("reproduce", wall,
                              f"exit code {code}, unreadable output: {exc}")]
    suite_s = verify_s[0] if verify_s else 0.0
    outcomes = [checks.Outcome(f"verify/{row['check']}", suite_s / len(rows),
                               bool(row["passed"]),
                               message="" if row["passed"] else "check failed")
                for row in rows]
    if len(entry_s) != len(entries):
        entry_s = [math.nan] * len(entries)
    # no known-defect tags here: every manifest entry passes at baseline
    for row, seconds in zip(entries, entry_s):
        label = row["label"]
        key = REPRODUCE_REFERENCES.get(label)
        if not row["passed"] or row["computed"] is None:
            outcomes.append(checks.failed(label, seconds,
                                          row["message"] or "not passed"))
        elif key is None:
            outcomes.append(checks.Outcome(label, seconds, True))
        elif key.startswith("mc_"):
            outcomes.append(checks.check_mc(label, seconds, row["computed"],
                                            frozen()[key], REPRODUCE_MC_TRIALS))
        else:
            outcomes.append(checks.compare(label, seconds, row["computed"],
                                           frozen()[key], tol=math.inf))
    return outcomes


# ---------------------------------------------------------------------------
# the workload table used by the worker

@dataclass(frozen=True)
class Workload:
    make: object     # (seed, pass_index) -> inputs
    run: object      # inputs -> Pass
    check: object    # (inputs, Pass) -> list of Outcome


def _check_calls(calls, done: Pass):
    return [check_sweep_call(c, s, r) for c, (s, r) in zip(calls, done.results)]


def _check_nested(calls, done: Pass):
    return [check_nested_call(c, s, r) for c, (s, r) in zip(calls, done.results)]


WORKLOAD_TABLE = {
    "reproduce": Workload(reproduce_argv, run_reproduce,
                          lambda argv, done: check_reproduce(*done.results[0])),
    "nested-gauss": Workload(nested_calls, run_nested, _check_nested),
    "sweep": Workload(sweep_calls, run_sweep, _check_calls),
}


def entry_rows(done: Pass) -> dict:
    """Per-entry seconds of a reproduce pass, keyed by manifest label."""
    _, res, verify_s, entry_s = done.results[0]
    rows = {"verify-suite": verify_s[0] if verify_s else None}
    if isinstance(res, BaseException):
        return rows
    try:
        entries = json.loads(res[1])["entries"]
    except (ValueError, KeyError, TypeError):
        return rows
    for row, seconds in zip(entries, entry_s):
        rows[row["label"]] = seconds
    return rows
