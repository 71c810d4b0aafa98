#!/usr/bin/env python3
"""FaCE benchmark: build the driver, run one workload, print its metrics.

    python3 perfbench/run.py --workload tpcc --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds `face_perfbench` (perfbench/CMakeLists.txt) into `.bench_build/`;
later calls rebuild incrementally. The driver process is then run as
repeated, identical repetitions of the workload (same seed) until
`--seconds` of repetitions have run, and at least MIN_REPS of them:

  --trace 0  untraced repetitions; prints every end-to-end metric. Virtual
             metrics must repeat exactly; host metrics are the median over
             repetitions.
  --trace 1  alternating untraced and traced repetitions; prints every
             per-layer metric, folded from the traced ones (fold.py), and
             the tracing overhead (traced vs untraced sim_txn_per_s).

A summary table goes to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. `correct` is false
when any correctness gate of any repetition failed, when a virtual metric
differed between repetitions, or when tracing perturbed the simulation.
Exit status 1 without a result line means the benchmark could not be built
or run at all. See perfbench/README.md for workloads and metrics.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import fold

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "face_perfbench")
WORKLOADS = ("tpcc", "scan-heavy", "kv-resident")

MIN_REPS = 3          # untraced repetitions per --trace 0 run
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per --trace 1 run
REP_TIMEOUT_S = 150   # one repetition; the run must end within 180 s
RUN_BUDGET_S = 150    # start no repetition that would end past this


def build():
    """Configure once, then build the driver incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "face_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_rep(workload, seed, trace_path=None, scale="full"):
    """One driver repetition; returns its JSON (plus the exit code)."""
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--scale={scale}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"perfbench: driver printed no result "
                         f"(exit {proc.returncode}): {' '.join(cmd)}")
    rep["exit_code"] = proc.returncode
    return rep


def virtual_signature(rep):
    """Everything the simulation determines: must repeat exactly."""
    return json.dumps({k: rep.get(k) for k in
                       ("run", "latency", "restart", "obs", "db_pages",
                        "flash_pages")}, sort_keys=True)


class Outcome:
    """Attempted/failed tally and the reasons for any failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_rep(self, rep):
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        if rep["exit_code"] != 0 or not rep["completed"]:
            self.problems.append(
                f"repetition exit {rep['exit_code']}: {rep['failures']}")

    def gate(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def repetitions(workload, seed, seconds, traced):
    """Yield repetitions (rep, trace_path) until the time budget is spent.
    A traced run alternates untraced and traced repetitions and stops only
    after a traced one."""
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    min_reps = 2 * MIN_TRACED_PAIRS if traced else MIN_REPS
    t_start = time.monotonic()
    longest = 0.0
    for n in itertools.count():
        if n >= min_reps and (not traced or n % 2 == 0):
            elapsed = time.monotonic() - t_start
            if elapsed >= seconds or elapsed + longest > RUN_BUDGET_S:
                return
        trace_path = None
        if traced and n % 2 == 1:
            trace_path = os.path.join(trace_dir,
                                      f"{workload}-seed{seed}-{n}.json")
        t0 = time.monotonic()
        rep = run_rep(workload, seed, trace_path)
        longest = max(longest, time.monotonic() - t0)
        yield rep, trace_path


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def measure_end_to_end(workload, seed, seconds, outcome):
    reps = []
    for rep, _ in repetitions(workload, seed, seconds, traced=False):
        outcome.add_rep(rep)
        reps.append(rep)
    sig = virtual_signature(reps[0])
    for i, rep in enumerate(reps[1:], 1):
        outcome.gate(f"repetition {i} simulated differently from repetition 0",
                     virtual_signature(rep) == sig)
    per_rep = [fold.end_to_end(rep) for rep in reps if "run" in rep]
    if not per_rep:
        raise SystemExit("perfbench: no repetition reached the measured phase")
    metrics = {}
    for name, _, _ in fold.END_TO_END:
        metrics[name] = (per_rep[0][name] if name in fold.VIRTUAL_END_TO_END
                         else median_of(per_rep, name))
    # Virtual restart time, for the summary only: scan-heavy does not crash.
    restart = reps[0].get("restart")
    restart_s = restart["total_ns"] / 1e9 if restart else None
    return metrics, len(reps), restart_s


def measure_per_layer(workload, seed, seconds, outcome):
    plain, traced, folded = [], [], []
    last_trace = None
    for rep, trace_path in repetitions(workload, seed, seconds, traced=True):
        outcome.add_rep(rep)
        if trace_path is None:
            plain.append(rep)
            continue
        outcome.gate("traced repetition dropped spans",
                     rep.get("dropped_spans", 1) == 0)
        traced.append(rep)
        folded.append(fold.per_layer(rep, fold.load_trace(trace_path)))
        if last_trace:
            os.remove(last_trace)  # keep only the newest trace on disk
        last_trace = trace_path
    sig = virtual_signature(plain[0])
    for i, rep in enumerate(plain[1:] + traced, 1):
        outcome.gate(f"repetition {i} (tracing on or off) simulated "
                     f"differently from repetition 0",
                     virtual_signature(rep) == sig)
    metrics = {name: median_of(folded, name) if name in fold.HOST_PER_LAYER
               else folded[0][name] for name in folded[0]}
    speed = lambda reps: statistics.median(
        fold.end_to_end(r)["sim_txn_per_s"] for r in reps)
    metrics["trace.overhead_pct"] = 100.0 * (speed(plain) / speed(traced) - 1)
    fold.check_names(metrics, fold.PER_LAYER)
    print(f"perfbench: newest trace kept at {last_trace}", file=sys.stderr)
    return metrics, len(plain) + len(traced)


def summary(workload, seed, spec, metrics, reps, outcome, restart_s):
    print(f"workload {workload}  seed {seed}  repetitions {reps}")
    for name, unit, better in spec:
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit:<11} "
              f"({better} is better)")
    if spec is fold.END_TO_END:
        value = "n/a (no crash)" if restart_s is None else f"{restart_s:.6g}"
        print(f"  {'restart_s':<36} {value:>16} {'s':<11} (lower is better)")
    pct = 100.0 * outcome.failed / max(1, outcome.attempted)
    print(f"  {'failed_pct':<36} {pct:>16.6g} {'%':<11} (lower is better; "
          f"{outcome.failed} of {outcome.attempted} operations and gates)")
    for p in outcome.problems:
        print(f"  FAILED: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    outcome = Outcome()
    try:
        if args.trace:
            spec = fold.PER_LAYER
            metrics, reps = measure_per_layer(args.workload, args.seed,
                                              args.seconds, outcome)
            restart_s = None  # per-layer recovery.restart_s carries it
        else:
            spec = fold.END_TO_END
            metrics, reps, restart_s = measure_end_to_end(
                args.workload, args.seed, args.seconds, outcome)
    except (fold.FoldError, KeyError, TypeError, ZeroDivisionError) as e:
        raise SystemExit(f"perfbench: cannot fold metrics: {e!r}")

    summary(args.workload, args.seed, spec, metrics, reps, outcome,
            restart_s)
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in spec},
    }))


if __name__ == "__main__":
    main()
