"""Catalog of runnable bound computations and the reproduction manifest.

The manifest is plain text: blocks of ``key = value`` lines separated by
blank lines, ``#`` lines are comments.  Recognized keys: label, model, bound,
loss, expected, tol, params (space-separated k=v pairs).  Users can append
entries without touching code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import bounds, models
from .loss import LossSpec
from .numerics import Interval

__all__ = [
    "ReproEntry",
    "BOUND_IDS",
    "DEFAULT_MANIFEST",
    "DEFAULT_MC_SEED",
    "parse_loss",
    "parse_manifest",
    "compute_bound",
    "run_entries",
]

DEFAULT_MC_SEED = 271828

# every bound id, with the parameter keys its branch of compute_bound reads
# (nuisance-rotation's sigma is its own noise scale, whatever the model)
_BOUND_PARAMS = {
    "two-point": ("theta0", "theta1", "n"),
    "concave-two-point": ("theta0", "theta1", "n"),
    "local-two-point": ("theta", "smax", "prior"),
    "moment": ("theta", "smax", "r", "n", "theta0"),
    "three-point": ("theta", "smax", "inner", "w_zero", "n", "theta0"),
    "three-point-exact": ("theta", "smax"),
    "transform": ("theta0", "theta1", "n", "transforms", "k", "q"),
    "nuisance-rotation": ("sigma", "smax"),
    "ring": ("thetas", "weights", "n"),
    "all-pairs": ("thetas", "weights", "n"),
    "mc-pe": ("theta0", "theta1", "n", "q", "trials"),
}
BOUND_IDS = tuple(_BOUND_PARAMS)


@dataclass
class ReproEntry:
    """One manifest row; computed/passed are filled in by run_entries."""

    label: str
    model_id: str
    bound_id: str
    loss: str
    expected: float
    tolerance: float
    params: dict = field(default_factory=dict)
    computed: Optional[float] = None
    passed: Optional[bool] = None
    message: str = ""

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"entry {self.label!r}: tolerance must be positive")


def parse_loss(desc: str, t: Optional[float] = None) -> LossSpec:
    """Parse a loss descriptor: mse, mae, power:<t>, or power with --t."""
    desc = desc.strip()
    if desc == "mse":
        return LossSpec.mse()
    if desc == "mae":
        return LossSpec.power(1.0)
    if desc.startswith("power:"):
        return LossSpec.power(float(desc.split(":", 1)[1]))
    if desc == "power":
        if t is None:
            raise ValueError("loss 'power' needs an exponent (--t)")
        return LossSpec.power(float(t))
    raise ValueError(f"unknown loss descriptor: {desc!r} "
                     "(use mse, mae, or power:<t>)")


def _coerce(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_manifest(text: str) -> list:
    """Parse manifest text into ReproEntry objects (manifest order)."""
    entries = []
    block: dict = {}

    def flush():
        if not block:
            return
        try:
            entry = ReproEntry(
                label=str(block["label"]),
                model_id=str(block["model"]),
                bound_id=str(block["bound"]),
                loss=str(block.get("loss", "mse")),
                expected=float(block["expected"]),
                tolerance=float(block["tol"]),
                params=block.get("params", {}),
            )
        except KeyError as missing:
            raise ValueError(
                f"manifest block {block.get('label', '?')!r} lacks key {missing}"
            ) from None
        entries.append(entry)
        block.clear()

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"manifest line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "params":
            pairs = {}
            for item in value.split():
                if "=" not in item:
                    raise ValueError(f"bad params item {item!r}")
                k, v = item.split("=", 1)
                pairs[k] = _coerce(v)
            block["params"] = pairs
        else:
            block[key] = value
    flush()
    return entries


# yes/no words; the manifest and --param hand 1 and 0 over as 1.0 and 0.0
_FLAGS = {"1": True, "1.0": True, "true": True, "yes": True,
          "0": False, "0.0": False, "false": False, "no": False}


def _flag(params: dict, key: str) -> bool:
    text = str(params.get(key, False)).strip().lower()
    if text not in _FLAGS:
        raise ValueError(f"{key} must be 1/0, true/false or yes/no, "
                         f"got {text!r}")
    return _FLAGS[text]


def _int_param(params: dict, key: str, default: int) -> int:
    """The integer parameter ``key``: a value with a fractional part is
    refused, not truncated."""
    value = float(params.get(key, default))
    if not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {params[key]!r}")
    return int(value)


def _s_domain(params: dict):
    smax = params.get("smax")
    if smax is None:
        return None
    smax = float(smax)
    if not 0.0 < smax < math.inf:
        raise ValueError("smax must be a finite positive number")
    return Interval(0.0, smax)


def compute_bound(model_id: str, bound_id: str, loss: LossSpec, params: dict,
                  seed: Optional[int] = None) -> bounds.BoundReport:
    """Build the model and evaluate one bound; the single dispatch point
    shared by the CLI commands and the reproduction pipeline."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id: {bound_id!r} "
                         f"(known: {', '.join(BOUND_IDS)})")
    model_keys = models.MODEL_PARAMS.get(model_id, ())
    model = models.get_model(model_id, **{k: float(params[k])
                                          for k in model_keys if k in params})
    # a key this bound and model do not read is refused rather than ignored
    known = sorted(set(_BOUND_PARAMS[bound_id]).union(model_keys))
    for key in params:
        if key not in known:
            raise ValueError(f"unknown parameter: {key!r} for {bound_id} on "
                             f"{model_id} (known: {', '.join(known)})")

    theta = float(params.get("theta", 1.0))
    if not math.isfinite(theta):
        raise ValueError(f"theta must be a finite number, "
                         f"got {params['theta']!r}")
    n = _int_param(params, "n", 1)
    # the nested bounds are local unless a sample size is given; then they
    # run on the exact oracle around theta0, which they require
    finite = {} if "n" not in params else {
        "n": n, "theta0": None if "theta0" not in params
        else float(params["theta0"])}

    def required(key: str):
        # a parameter this bound cannot run without
        if key not in params:
            raise ValueError(f"{bound_id} needs parameter {key!r}")
        return params[key]

    if bound_id == "two-point":
        return bounds.two_point_bound(model, loss, float(required("theta0")),
                                      float(required("theta1")), n)

    if bound_id == "concave-two-point":
        return bounds.concave_two_point_bound(model, loss,
                                              float(required("theta0")),
                                              float(required("theta1")), n)

    if bound_id == "local-two-point":
        prior = params.get("prior", "opt")
        if prior not in ("opt", "half"):
            raise ValueError(f"prior must be opt or half, got {prior!r}")
        return bounds.local_two_point_bound(model, loss, theta,
                                            _s_domain(params),
                                            half_prior=prior == "half")

    if bound_id == "moment":
        if loss.kind != "power":
            raise ValueError("the moment bound is defined for power losses")
        r_fixed = params.get("r")
        return bounds.moment_two_point_bound(
            model, loss.t, theta, _s_domain(params),
            r_fixed=None if r_fixed is None else float(r_fixed), **finite)

    if bound_id == "three-point":
        if loss.describe() != "mse":
            raise ValueError("the three-point bound is a squared-error bound")
        return bounds.three_point_bound(
            model, theta, _s_domain(params),
            inner_prior=str(params.get("inner", "free")),
            w_zero=_flag(params, "w_zero"), **finite)

    if bound_id == "three-point-exact":
        if model_id != "uniform-scale":
            raise ValueError("three-point-exact applies to the uniform-scale "
                             "model only")
        if loss.describe() != "mse":
            raise ValueError("three-point-exact is a squared-error bound")
        return bounds.three_point_exact_uniform(theta, _s_domain(params))

    if bound_id == "transform":
        kind = str(params.get("transforms", "sign-pair"))
        if kind == "sign-pair":
            tset = bounds.TransformSet.sign_pair()
        elif kind.startswith("rotations:"):
            tset = bounds.TransformSet.rotations(int(kind.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown transform set: {kind!r}")
        k = _int_param(params, "k", max(tset.m // 2, 1))
        q = params.get("q")
        return bounds.transform_two_point_bound(
            model, loss, tset, float(required("theta0")),
            float(required("theta1")), k,
            q=None if q is None else float(q), n=n)

    if bound_id == "nuisance-rotation":
        return bounds.rotation_nuisance_bound(float(params.get("sigma", 1.0)),
                                              _s_domain(params))

    if bound_id in ("ring", "all-pairs"):
        thetas = [float(x) for x in str(required("thetas")).split(",")]
        weights = [float(x) for x in str(required("weights")).split(",")]
        fn = bounds.pairwise_ring_bound if bound_id == "ring" \
            else bounds.pairwise_allpairs_bound
        return fn(model, loss, thetas, weights, n)

    # mc-pe: Monte-Carlo estimate of a model's binary MAP error, wrapped in a
    # report so the rendering paths stay uniform
    if model.sampler is None:
        raise ValueError(f"model {model_id!r} has no sampler for mc-pe")
    theta0, theta1 = float(required("theta0")), float(required("theta1"))
    bounds._require_inside(model, "mc-pe", theta0=theta0, theta1=theta1)
    est = models.monte_carlo_pe(
        model.sampler, float(params.get("q", 0.5)), theta0, theta1, n,
        _int_param(params, "trials", 100_000),
        DEFAULT_MC_SEED if seed is None else int(seed))
    return bounds.BoundReport(
        bound_id="mc-pe", model_id=model_id, value=est.estimate, loss=loss,
        argmax={},
        notes=(f"95% half-width {est.half_width:.2e} at {est.trials} trials, "
               f"seed {est.seed}",))


def _run_one(entry: ReproEntry, seed: Optional[int]) -> ReproEntry:
    try:
        loss = parse_loss(entry.loss)
        report = compute_bound(entry.model_id, entry.bound_id, loss,
                               entry.params, seed=seed)
        entry.computed = report.value
        entry.passed = abs(report.value - entry.expected) <= entry.tolerance
        if not entry.passed:
            entry.message = "outside tolerance"
    except Exception as exc:  # an entry failure must not kill the run
        entry.computed = None
        entry.passed = False
        entry.message = f"{type(exc).__name__}: {exc}"
    return entry


def run_entries(entries, seed: Optional[int] = None) -> list:
    """Run manifest entries one after another, in manifest order."""
    return [_run_one(e, seed) for e in entries]


DEFAULT_MANIFEST = """\
# minimaxlb reproduction manifest
# blocks of `key = value` lines separated by blank lines; `#` is a comment
# params holds space-separated k=v pairs passed to the bound computation

label = exp-rate two-point mse
model = exp-rate
bound = two-point
loss = mse
params = theta0=1 theta1=2 n=1
expected = 0.190983
tol = 1e-3

label = gauss-location local-two-point mse
model = gauss-location
bound = local-two-point
loss = mse
params = sigma=1
expected = 0.3314
tol = 1e-3

label = uniform-scale local-two-point mse
model = uniform-scale
bound = local-two-point
loss = mse
params = theta=1
expected = 0.2414
tol = 1e-3

label = uniform-scale local-two-point mse half-prior
model = uniform-scale
bound = local-two-point
loss = mse
params = theta=1 prior=half
expected = 0.1353
tol = 1e-3

label = uniform-location local-two-point mae
model = uniform-location
bound = local-two-point
loss = mae
expected = 0.18394
tol = 1e-3

label = uniform-location local-two-point mse
model = uniform-location
bound = local-two-point
loss = mse
expected = 0.13534
tol = 1e-3

label = uniform-location local-two-point power:3
model = uniform-location
bound = local-two-point
loss = power:3
expected = 0.168031
tol = 1e-3

label = awgn-smooth local-two-point mse
model = awgn-smooth
bound = local-two-point
loss = mse
params = pdot=1 n0=1
expected = 0.1657
tol = 1e-3

label = awgn-rect local-two-point mse
model = awgn-rect
bound = local-two-point
loss = mse
params = power=1 n0=1 pulse_width=1
expected = 0.1886
tol = 1e-3

label = exp-family local-two-point mse
model = exp-family
bound = local-two-point
loss = mse
params = sigma=1
expected = 0.3314
tol = 1e-3

label = nuisance-rotation mse
model = nuisance-rotation
bound = nuisance-rotation
loss = mse
params = sigma=1
expected = 0.2514
tol = 1e-3

label = uniform-scale moment mse
model = uniform-scale
bound = moment
loss = mse
params = theta=1
expected = 0.3102
tol = 1e-3

label = uniform-scale moment mae
model = uniform-scale
bound = moment
loss = mae
params = theta=1
expected = 0.27846
tol = 5e-4

label = uniform-scale moment power:3
model = uniform-scale
bound = moment
loss = power:3
params = theta=1
expected = 0.58301
tol = 3e-3

label = uniform-scale three-point mse
model = uniform-scale
bound = three-point
loss = mse
params = theta=1
expected = 0.3909
tol = 1e-3

label = gauss-location three-point mse half-pair-priors
model = gauss-location
bound = three-point
loss = mse
params = sigma=1 inner=half
expected = 0.4549
tol = 1e-3

label = uniform-scale three-point-exact mse
model = uniform-scale
bound = three-point-exact
loss = mse
params = theta=1
expected = 0.4624
tol = 1e-3

label = monte-carlo pe gauss-location
model = gauss-location
bound = mc-pe
loss = mse
params = q=0.5 theta0=0 theta1=1 n=16 trials=100000
expected = 0.02275
tol = 3e-3

label = monte-carlo pe uniform-scale
model = uniform-scale
bound = mc-pe
loss = mse
params = q=0.5 theta0=1 theta1=1.1 n=20 trials=100000
expected = 0.074322
tol = 5e-3
"""
