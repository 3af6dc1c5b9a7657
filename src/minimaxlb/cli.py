"""Command-line front end.

Two subcommands: ``compute`` evaluates a single bound for a model, and
``reproduce`` replays the packaged manifest of computations (after running
the internal verification suite) and checks each value against its recorded
target.

Exit codes: 0 success, 1 a reproduction entry or verification check failed,
2 usage error (unknown id, malformed input, nothing to run), 3 numerical
failure inside a computation.

``main`` builds its argument parser on first use and reuses it for every
later call in the process; ``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import catalog, models, verify
from .bounds import BoundReport

__all__ = ["main", "build_parser"]


def _round_floats(obj):
    # limit machine output to 10 significant digits; rounding once keeps
    # dump -> load -> dump byte-identical
    if isinstance(obj, float):
        return float("%.10g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2)


def _g(x: float) -> str:
    return "%.10g" % x


_FLOAT_FLAGS = ("sigma", "theta", "theta0", "theta1", "smax", "q")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the ``compute`` and ``reproduce`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="minimaxlb",
        description="Local asymptotically minimax lower bounds on "
                    "parameter-estimation risk.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one bound for one model")
    comp.add_argument("--model", required=True,
                      help=f"model id ({', '.join(models.MODEL_IDS)})")
    comp.add_argument("--bound", required=True,
                      help=f"bound id ({', '.join(catalog.BOUND_IDS)})")
    comp.add_argument("--loss", default="mse",
                      help="mse, mae, power:<t>, or power with --t")
    comp.add_argument("--t", type=float, default=None,
                      help="power-loss exponent when --loss power")
    comp.add_argument("--format", choices=("table", "csv", "json"),
                      default="table")
    comp.add_argument("--seed", type=int, default=None,
                      help="seed for Monte-Carlo computations")
    for flag in _FLOAT_FLAGS:
        comp.add_argument(f"--{flag}", type=float, default=None)
    comp.add_argument("--n", type=int, default=None,
                      help="sample size for finite-sample oracles")
    comp.add_argument("--trials", type=int, default=None,
                      help="Monte-Carlo trial count")
    # no shared default list: the parser outlives a call
    comp.add_argument("--param", action="append", default=None,
                      metavar="K=V", help="extra parameter (repeatable)")

    rep = sub.add_parser("reproduce",
                         help="re-run the recorded computations and compare")
    rep.add_argument("--manifest", default=None,
                     help="manifest file (default: the packaged manifest)")
    rep.add_argument("--only", default=None,
                     help="run only entries whose label contains this text")
    rep.add_argument("--jobs", type=int, default=1,
                     help="accepted and ignored: entries run one at a time, "
                          "in manifest order")
    rep.add_argument("--seed", type=int, default=None,
                     help="seed override for Monte-Carlo entries")
    rep.add_argument("--format", choices=("table", "csv", "json"),
                     default="table")
    return parser


# one parser per process: building one costs several times parsing with it
_shared_parser = functools.cache(build_parser)


def _collect_params(args) -> dict:
    params: dict = {}
    for item in args.param or ():
        if "=" not in item:
            raise ValueError(f"--param expects K=V, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = catalog._coerce(value.strip())
    for flag in _FLOAT_FLAGS + ("n", "trials"):
        value = getattr(args, flag)
        if value is not None:
            params[flag] = value
    return params


def _render_report(report: BoundReport, fmt: str, out) -> None:
    if fmt == "json":
        print(_dump_json(report.to_dict()), file=out)
        return
    if fmt == "csv":
        print("key,value", file=out)
        print(f"bound,{report.bound_id}", file=out)
        print(f"model,{report.model_id}", file=out)
        print(f"loss,{report.loss.describe()}", file=out)
        print(f"value,{_g(report.value)}", file=out)
        rate = report.rate.render() if report.rate is not None else ""
        print(f"rate,{rate}", file=out)
        for key, val in report.argmax.items():
            print(f"argmax.{key},{_g(float(val))}", file=out)
        for i, note in enumerate(report.notes):
            print(f"note.{i},{note}", file=out)
        return
    # table
    print(f"bound   {report.bound_id}", file=out)
    print(f"model   {report.model_id}", file=out)
    print(f"loss    {report.loss.describe()}", file=out)
    print(f"value   {report.value:.4f}", file=out)
    if report.rate is not None:
        print(f"rate    {report.rate.render()}", file=out)
    if report.argmax:
        inner = ", ".join(f"{k}={float(v):.4f}"
                          for k, v in report.argmax.items())
        print(f"argmax  {inner}", file=out)
    for note in report.notes:
        print(f"note    {note}", file=out)


def _cmd_compute(args) -> int:
    try:
        loss = catalog.parse_loss(args.loss, args.t)
        params = _collect_params(args)
        report = catalog.compute_bound(args.model, args.bound, loss, params,
                                       seed=args.seed)
    except ArithmeticError as exc:
        print(f"minimaxlb: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"minimaxlb: {exc}", file=sys.stderr)
        return 2
    _render_report(report, args.format, sys.stdout)
    return 0


def _check_row(report: verify.CheckReport) -> dict:
    return {
        "check": report.check_id,
        "max_abs_error": report.max_abs_error,
        "tolerance": report.tolerance,
        "samples": report.samples,
        "passed": report.passed,
    }


def _entry_row(entry: catalog.ReproEntry) -> dict:
    return {
        "label": entry.label,
        "model": entry.model_id,
        "bound": entry.bound_id,
        "loss": entry.loss,
        "expected": entry.expected,
        "computed": entry.computed,
        "passed": entry.passed,
        "message": entry.message,
    }


def _cmd_reproduce(args) -> int:
    checks = verify.run_default_suite()
    check_out = sys.stdout if args.format == "table" else sys.stderr
    for rep in checks:
        status = "PASS" if rep.passed else "FAIL"
        print(f"verify {rep.check_id:<28} max_err={rep.max_abs_error:.2e} "
              f"tol={rep.tolerance:.0e} samples={rep.samples:<6d} {status}",
              file=check_out)
    if not all(rep.passed for rep in checks):
        print("minimaxlb: verification failed; not running the manifest",
              file=sys.stderr)
        return 1

    try:
        if args.manifest is None:
            text = catalog.DEFAULT_MANIFEST
        else:
            with open(args.manifest, "r", encoding="utf-8") as handle:
                text = handle.read()
        entries = catalog.parse_manifest(text)
    except (OSError, ValueError) as exc:
        print(f"minimaxlb: {exc}", file=sys.stderr)
        return 2
    if args.only is not None:
        entries = [e for e in entries if args.only in e.label]
    if not entries:
        print("minimaxlb: no manifest entries to run", file=sys.stderr)
        return 2

    entries = catalog.run_entries(entries, seed=args.seed)
    failures = [e for e in entries if not e.passed]

    if args.format == "json":
        payload = {"checks": [_check_row(c) for c in checks],
                   "entries": [_entry_row(e) for e in entries]}
        print(_dump_json(payload))
    elif args.format == "csv":
        print("label,model,bound,loss,expected,computed,diff,passed,message")
        for e in entries:
            computed = "" if e.computed is None else _g(e.computed)
            diff = "" if e.computed is None \
                else _g(abs(e.computed - e.expected))
            print(f"{e.label},{e.model_id},{e.bound_id},{e.loss},"
                  f"{_g(e.expected)},{computed},{diff},{e.passed},"
                  f"{e.message}")
    else:
        width = max(len(e.label) for e in entries)
        print()
        header = (f"{'entry'.ljust(width)}  {'expected':>10}  "
                  f"{'computed':>10}  {'|diff|':>10}  status")
        print(header)
        print("-" * len(header))
        for e in entries:
            computed = "      none" if e.computed is None \
                else f"{e.computed:10.4f}"
            diff = "         -" if e.computed is None \
                else f"{abs(e.computed - e.expected):10.4f}"
            status = "ok" if e.passed else f"FAIL {e.message}".rstrip()
            print(f"{e.label.ljust(width)}  {e.expected:10.4f}  "
                  f"{computed}  {diff}  {status}")
        print()
        print(f"{len(entries) - len(failures)}/{len(entries)} entries "
              "within tolerance")

    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    args = _shared_parser().parse_args(argv)
    if args.command == "compute":
        return _cmd_compute(args)
    return _cmd_reproduce(args)


if __name__ == "__main__":
    sys.exit(main())
