"""minimaxlb benchmark: one workload run, measured from outside the package.

    python3 bench/run.py --workload {reproduce,nested-gauss,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  Each run starts the workload in
a fresh Python process with BLAS threads pinned to 1 (bench/worker.py), so
import and set-up costs are paid as a user pays them.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of one traced pass instead (the trace itself is written to
``.bench_out/``).  The line before it holds run information: versions, CPU,
pass and call counts, known-defect hits and, on ``reproduce``, the median
time of each manifest entry.

The host is shared and its speed drifts by up to 1.8 times over seconds to
minutes, so the timings of the passes are scaled to a nominal host speed by
a fixed kernel timed in the same process (bench/hostspeed.py); the raw
times are in the run information.

``setup_s`` is the time from starting a process until ``import minimaxlb``
has finished and the workload's inputs are built: the median over
``SETUP_PROBES`` extra processes, half started before the measuring process
and half after it, and the measuring process itself.  It is not scaled: the
kernel's speed right after an import does not follow the import's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reproduce", "nested-gauss", "sweep")
SETUP_PROBES = 8
DEADLINE_S = 170.0      # a run must end within 180 s, probes included
UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_ms": "ms",
         "call_p90_ms": "ms", "pass_frac": "ratio",
         "accuracy_digits_min": "digits", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _start(root: str, args, probe: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    return proc, started


def _wait_ready(proc, started: float) -> float:
    """Seconds from process start to its READY line."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return time.perf_counter() - started


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def _probe(root: str, args, deadline: float) -> float:
    proc, started = _start(root, args, probe=True)
    try:
        return _wait_ready(proc, started)
    finally:
        _finish(proc, deadline - time.perf_counter())


def measure(root: str, args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    probes = SETUP_PROBES if not args.trace else 0
    setups = [_probe(root, args, deadline) for _ in range(probes // 2)]
    proc, started = _start(root, args, probe=False)
    try:
        setups.append(_wait_ready(proc, started))
    finally:
        out = _finish(proc, deadline - time.perf_counter())
    setups += [_probe(root, args, deadline) for _ in range(probes - probes // 2)]
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "minimaxlb", "__init__.py")):
        print("bench: no src/minimaxlb under the current directory; run from "
              "the root of a minimaxlb checkout", file=sys.stderr)
        return 2
    try:
        result = measure(root, args)
    except (RuntimeError, ValueError, OSError, IndexError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    units = result.pop("units", UNITS)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps(result["info"], sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
