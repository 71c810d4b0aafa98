#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

For every workload: two runs of one seed must simulate identically (every
virtual metric, counter and restart figure) and pass every correctness
gate; a second seed must also pass, and simulate differently; a traced run
must simulate identically to the untraced one, drop no spans, and fold into
every named per-layer metric. Also checks that BENCHMARK.json, when present
at the checkout root, names exactly the metrics fold.py computes. Builds the
driver first, like run.py. Exit status 0 when everything holds.
"""

import json
import os
import sys

import fold
import run

SEED_A, SEED_B = 3, 4


def check_benchmark_json(problems):
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    for key, metrics in (("end_to_end", fold.END_TO_END),
                         ("per_layer", fold.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(metrics):
            problems.append(f"BENCHMARK.json {key} differs from fold.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")


def check_workload(workload, problems):
    def clean(rep, what):
        if rep["exit_code"] != 0 or rep["failed"] or not rep["completed"]:
            problems.append(f"{workload} {what}: {rep['failures']}")

    a1 = run.run_rep(workload, SEED_A, scale="tiny")
    a2 = run.run_rep(workload, SEED_A, scale="tiny")
    b = run.run_rep(workload, SEED_B, scale="tiny")
    trace_path = os.path.join(run.BUILD, f"selftest-{workload}.json")
    t = run.run_rep(workload, SEED_A, trace_path=trace_path, scale="tiny")
    for rep, what in ((a1, "seed A"), (a2, "seed A again"), (b, "seed B"),
                      (t, "seed A traced")):
        clean(rep, what)
    sig = run.virtual_signature(a1)
    if run.virtual_signature(a2) != sig:
        problems.append(f"{workload}: same seed simulated differently")
    if run.virtual_signature(t) != sig:
        problems.append(f"{workload}: tracing changed the simulation")
    if run.virtual_signature(b) == sig:
        problems.append(f"{workload}: a second seed simulated identically")
    try:
        fold.end_to_end(a1)
        layer = fold.per_layer(t, fold.load_trace(trace_path))
        layer["trace.overhead_pct"] = 0.0  # needs untraced repetitions
        fold.check_names(layer, fold.PER_LAYER)
    except (fold.FoldError, KeyError) as e:
        problems.append(f"{workload}: fold failed: {e!r}")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    print(f"{workload}: checked", flush=True)


def main():
    run.build()
    problems = []
    check_benchmark_json(problems)
    for workload in run.WORKLOADS:
        check_workload(workload, problems)
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
