"""One workload run in a fresh process; started by run.py.

Prints ``READY`` once ``import minimaxlb`` has finished and the first pass's
inputs are built (run.py times the process up to that line); a probe exits
there.  Otherwise the worker runs passes for about ``--seconds`` of measured
time (at least one pass; exactly one when tracing), checks every output, and
prints one JSON line with the outcome counts, metrics and run information.

Untraced passes run under a host-speed sampler, and the time of each pass
and of each call is scaled to the nominal host speed by the factor of its
own interval.  ``wall_s`` is the median scaled pass time; ``call_p50_ms``
and ``call_p90_ms`` are percentiles over the scaled calls of one pass, with
the median over the passes.  The raw times and the factors are in the run information.

    python3 bench/worker.py --root . --workload sweep --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": _cpu_model()}


def summarize(outcomes: list) -> dict:
    """attempted / failed / correct and the outcome-derived metrics."""
    attempted = len(outcomes)
    passed = sum(o.passed for o in outcomes)
    unexpected = [o for o in outcomes if not o.passed and o.known is None]
    known = {}
    for o in outcomes:
        if not o.passed and o.known is not None:
            known[o.known] = known.get(o.known, 0) + 1
    digits = [o.digits for o in outcomes if o.passed and o.digits is not None]
    return {
        "attempted": attempted,
        "failed": len(unexpected),
        "correct": not unexpected,
        "pass_frac": passed / attempted if attempted else 0.0,
        "accuracy_digits_min": min(digits) if digits else 0.0,
        "known_defects": known,
        "failures": [f"{o.label}: {o.message}" for o in unexpected][:20],
    }


def _unscaled(start: float, end: float) -> float:
    return 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true",
                        help="exit right after set-up")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import minimaxlb
    if not os.path.abspath(minimaxlb.__file__).startswith(src + os.sep):
        print(f"minimaxlb imported from {minimaxlb.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOAD_TABLE[args.workload]
    inputs = workload.make(args.seed, 0)
    print("READY", flush=True)
    if args.probe:
        return 0

    import hostspeed
    tracer = sampler = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        sampler = hostspeed.Sampler()
    raw_walls, walls, factors, deciles = [], [], [], []
    calls, outcomes, rows = 0, [], []
    measured, index = 0.0, 0
    while True:
        if index:
            inputs = workload.make(args.seed, index)
        if tracer is not None:
            with tracer:
                done = workload.run(inputs)
        else:
            with sampler:
                done = workload.run(inputs)
        scale = sampler.factor if sampler is not None else _unscaled
        factor = scale(*done.span)
        raw_walls.append(done.wall)
        walls.append(done.wall * factor)
        factors.append(factor)
        measured += done.wall
        latencies = [(end - start) * scale(start, end)
                     for start, end in done.calls]
        calls += len(latencies)
        # percentiles need two values; a pass of one call (reproduce) gives
        # its own time
        deciles.append(statistics.quantiles(
            latencies if len(latencies) >= 2 else [walls[-1]] * 2,
            n=10, method="inclusive"))
        outcomes += workload.check(inputs, done)
        if args.workload == "reproduce":
            rows.append(workloads.entry_rows(done))
        index += 1
        # stop where the next pass would end past --seconds by more than
        # half a pass, so a run measures --seconds give or take half a pass
        if tracer is not None or measured + measured / index / 2 >= args.seconds:
            break

    summary = summarize(outcomes)
    info = {"workload": args.workload, "seed": args.seed,
            "pass_walls_s": walls, "pass_raw_walls_s": raw_walls,
            "pass_speed_factors": factors,
            "calls": calls, "env": environment(),
            "known_defects": summary.pop("known_defects"),
            "failures": summary.pop("failures")}
    if rows:
        times = {}
        for row in rows:
            for label, seconds in row.items():
                if seconds is not None:
                    times.setdefault(label, []).append(seconds)
        info["entry_median_s"] = {label: statistics.median(v)
                                  for label, v in times.items()}
    result = {"attempted": summary.pop("attempted"),
              "failed": summary.pop("failed"),
              "correct": summary.pop("correct"), "info": info}
    if tracer is None:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "call_p50_ms": 1e3 * statistics.median(d[4] for d in deciles),
            "call_p90_ms": 1e3 * statistics.median(d[8] for d in deciles),
            "pass_frac": summary["pass_frac"],
            "accuracy_digits_min": summary["accuracy_digits_min"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        cost = tracing.per_call_cost()
        result["metrics"] = tracer.metrics(walls[0], cost)
        result["units"] = tracing.PER_LAYER
        info["traced_wall_s"] = walls[0]
        out = os.path.join(args.root, ".bench_out",
                           f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(out, {"info": info, "metrics": result["metrics"]})
        info["trace_file"] = os.path.relpath(out, args.root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
