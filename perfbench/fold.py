"""Turn driver repetitions into the benchmark's named metrics.

A repetition is the JSON object one `face_perfbench` process prints (see
driver.cc). A traced repetition also leaves a Chrome trace on the host
timeline: one complete ("X") event per span, nested exactly as the scoped
spans were, with `otherData.dropped_spans`.

`end_to_end(rep)` returns {name: value} for exactly the names in
END_TO_END; `per_layer(rep, trace)` for the names in PER_LAYER except
`trace.overhead_pct`, which needs untraced repetitions too; the caller adds
it and calls `check_names`. A name they cannot compute raises FoldError (or
KeyError on malformed driver output) instead of going missing.
`self_times(trace)` is the self-time rule: a span's host duration minus the
part of it its child spans cover.
"""

import json

# (name, unit, better) -- the order is the order the summary prints.
END_TO_END = [
    ("tpmc", "txn/min", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("flash_writes_per_ktxn", "pages/ktxn", "lower"),
    ("sim_txn_per_s", "txn/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# End-to-end metrics of the simulation (virtual time and counts): identical
# in every repetition of one seed.
VIRTUAL_END_TO_END = ("tpmc", "latency_p50_ms", "latency_p99_ms",
                      "flash_writes_per_ktxn")

DEVICES = ("db", "flash", "log")
RECOVERY_PHASES = ("attach", "meta_restore", "analysis", "redo", "undo",
                   "checkpoint")
HOST_PHASES = ("golden_build", "start", "warmup", "run", "recover", "verify")

# Self-time buckets: the driver's own spans by name, the program's spans by
# component. Spans of any other component land in "other".
SELF_BUCKETS = tuple("bench." + p for p in HOST_PHASES) + (
    "testbed", "recovery", "checkpoint", "wal", "core.face", "sim", "other")
# Buckets every traced repetition must fill; crash workloads also need the
# recovery ones.
REQUIRED_BUCKETS = ("bench.golden_build", "bench.start", "bench.warmup",
                    "bench.run", "bench.verify", "testbed", "checkpoint",
                    "wal", "core.face", "sim")
CRASH_BUCKETS = ("bench.recover", "recovery")

PER_LAYER = (
    [(f"sim.{d}.{op}_pages_per_txn", "pages/txn", "lower")
     for d in DEVICES for op in ("read", "write")]
    + [(f"sim.{d}.busy_frac", "fraction", "lower") for d in DEVICES]
    + [("sim.flash.seq_write_pct", "%", "higher"),
       ("sim.flash.retries", "count", "lower"),
       ("buffer.hit_pct", "%", "higher"),
       ("buffer.misses_per_txn", "pages/txn", "lower"),
       ("buffer.page_fetches_per_txn", "pages/txn", "lower"),
       ("buffer.dirty_evictions_per_txn", "pages/txn", "lower"),
       ("buffer.pulls_per_txn", "pages/txn", "lower"),
       ("core.hit_pct", "%", "higher"),
       ("core.enqueues_per_txn", "pages/txn", "lower"),
       ("core.second_chances_per_txn", "pages/txn", "lower"),
       ("core.delta_share", "fraction", "higher"),
       ("core.delta_record_bytes_per_txn", "bytes/txn", "lower"),
       ("core.meta_flash_writes_per_txn", "pages/txn", "lower"),
       ("core.write_reduction", "fraction", "higher"),
       ("storage.verified_pages_per_txn", "pages/txn", "lower"),
       ("wal.appends_per_txn", "records/txn", "lower"),
       ("wal.bytes_per_txn", "bytes/txn", "lower"),
       ("wal.forces_per_txn", "forces/txn", "lower"),
       ("txn.user_abort_pct", "%", "lower")]
    + [(f"recovery.{p}_s", "s", "lower") for p in RECOVERY_PHASES]
    + [("recovery.restart_s", "s", "lower"),
       ("recovery.redo_applied", "count", "lower"),
       ("recovery.pages_fetched", "count", "lower"),
       ("recovery.flash_fetch_pct", "%", "higher"),
       ("recovery.host_ms", "ms", "lower"),
       ("testbed.checkpoints", "count", "lower")]
    + [(f"testbed.{p}_host_s", "s", "lower") for p in HOST_PHASES]
    + [(f"self.{b}_s", "s", "lower") for b in SELF_BUCKETS]
    + [("trace.dropped_spans", "count", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)

# Per-layer metrics measured on the host clock (medians across repetitions);
# every other per-layer metric is virtual and repeats exactly.
HOST_PER_LAYER = tuple(
    [f"testbed.{p}_host_s" for p in HOST_PHASES]
    + [f"self.{b}_s" for b in SELF_BUCKETS]
    + ["recovery.host_ms"])


class FoldError(Exception):
    """A named metric could not be computed from what the driver left."""


def _get(obj, *path):
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            raise FoldError("driver output lacks " + ".".join(path))
        obj = obj[key]
    return obj


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(rep):
    run = _get(rep, "run")
    txns = _get(run, "txns")
    # Host figures are CPU seconds of the single-threaded driver process:
    # wall time minus the time other processes held the CPU.
    cpu = _get(rep, "cpu_s")
    out = {
        "tpmc": _get(run, "primary_txns") * 60e9 / _get(run, "duration_ns"),
        "latency_p50_ms": _get(rep, "latency", "p50_ns") / 1e6,
        "latency_p99_ms": _get(rep, "latency", "p99_ns") / 1e6,
        "flash_writes_per_ktxn":
            _get(run, "flash", "pages_written") * 1000.0 / txns,
        "sim_txn_per_s": txns / _get(cpu, "run"),
        "setup_s": (_get(cpu, "golden_build") + _get(cpu, "start")
                    + _get(cpu, "warmup")),
        "peak_rss_mb": _get(rep, "peak_rss_mb"),
    }
    check_names(out, END_TO_END)
    return out


def self_times(trace):
    """(host self seconds per bucket of SELF_BUCKETS, set of buckets that
    had at least one span)."""
    dropped = _get(trace, "otherData", "dropped_spans")
    if dropped:
        raise FoldError(f"trace dropped {dropped} spans: no self times")
    spans = [e for e in _get(trace, "traceEvents") if e.get("ph") == "X"]
    # Parents sort before their children: earlier start, then longer span.
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    self_us = dict.fromkeys(SELF_BUCKETS, 0.0)
    seen = set()
    stack = []  # (end_us, bucket) of the open ancestors
    for e in spans:
        start, dur = e["ts"], e["dur"]
        while stack and stack[-1][0] <= start:
            stack.pop()
        bucket = e["cat"] + "." + e["name"] if e["cat"] == "bench" else e["cat"]
        if bucket not in self_us:
            bucket = "other"
        seen.add(bucket)
        self_us[bucket] += dur
        if stack:
            self_us[stack[-1][1]] -= dur
        stack.append((start + dur, bucket))
    return {b: max(0.0, us) / 1e6 for b, us in self_us.items()}, seen


def per_layer(rep, trace):
    """Per-layer metrics of one traced repetition, but the overhead."""
    run = _get(rep, "run")
    txns = _get(run, "txns")
    dev = {d: _get(run, d) for d in DEVICES}
    cache = _get(run, "cache")
    pool = _get(run, "pool")
    counters = _get(rep, "obs").get("counters", {})
    crashed = _get(rep, "stranded") > 0
    restart = _get(rep, "restart") if crashed else {}

    out = {}
    for d in DEVICES:
        out[f"sim.{d}.read_pages_per_txn"] = dev[d]["pages_read"] / txns
        out[f"sim.{d}.write_pages_per_txn"] = dev[d]["pages_written"] / txns
        out[f"sim.{d}.busy_frac"] = dev[d]["busy_frac"]
    out["sim.flash.seq_write_pct"] = 100 * _ratio(
        dev["flash"]["seq_write_reqs"], dev["flash"]["write_reqs"])
    out["sim.flash.retries"] = dev["flash"]["retries"]

    out["buffer.hit_pct"] = 100 * _ratio(pool["hits"], pool["fetches"])
    out["buffer.misses_per_txn"] = pool["misses"] / txns
    out["buffer.page_fetches_per_txn"] = pool["fetches"] / txns
    out["buffer.dirty_evictions_per_txn"] = pool["dirty_evictions"] / txns
    out["buffer.pulls_per_txn"] = pool["pulls"] / txns

    out["core.hit_pct"] = 100 * _ratio(cache["hits"], cache["lookups"])
    out["core.enqueues_per_txn"] = cache["enqueues"] / txns
    out["core.second_chances_per_txn"] = cache["second_chances"] / txns
    # Share of flash page refreshes written as delta records, not full pages.
    out["core.delta_share"] = _ratio(
        cache["delta_records"], cache["delta_records"] + cache["enqueues"])
    out["core.delta_record_bytes_per_txn"] = cache["delta_record_bytes"] / txns
    out["core.meta_flash_writes_per_txn"] = cache["meta_flash_writes"] / txns
    out["core.write_reduction"] = cache["write_reduction"]

    # Every disk page read and flash frame read is checksummed.
    out["storage.verified_pages_per_txn"] = (
        dev["db"]["pages_read"] + dev["flash"]["pages_read"]) / txns

    out["wal.appends_per_txn"] = counters.get("wal.appends", 0) / txns
    out["wal.bytes_per_txn"] = counters.get("wal.append_bytes", 0) / txns
    out["wal.forces_per_txn"] = counters.get("wal.forces", 0) / txns
    out["txn.user_abort_pct"] = 100 * run["user_aborts"] / txns

    # Workloads that do not crash report zero recovery work.
    for p in RECOVERY_PHASES:
        out[f"recovery.{p}_s"] = restart.get(f"{p}_ns", 0) / 1e9
    out["recovery.restart_s"] = restart.get("total_ns", 0) / 1e9
    out["recovery.redo_applied"] = restart.get("redo_applied", 0)
    out["recovery.pages_fetched"] = restart.get("pages_fetched", 0)
    out["recovery.flash_fetch_pct"] = 100 * _ratio(
        restart.get("pages_from_flash", 0), restart.get("pages_fetched", 0))

    out["testbed.checkpoints"] = run["checkpoints"]
    cpu = _get(rep, "cpu_s")
    for p in HOST_PHASES:
        out[f"testbed.{p}_host_s"] = cpu.get(p, 0.0)

    selfs, seen = self_times(trace)
    required = REQUIRED_BUCKETS + (CRASH_BUCKETS if crashed else ())
    missing = [b for b in required if b not in seen]
    if missing:
        raise FoldError("trace has no spans for " + ", ".join(missing))
    for b, s in selfs.items():
        out[f"self.{b}_s"] = s
    out["recovery.host_ms"] = sum(
        e["dur"] for e in trace["traceEvents"]
        if e.get("cat") == "recovery" and e["name"] in RECOVERY_PHASES) / 1e3

    out["trace.dropped_spans"] = trace["otherData"]["dropped_spans"]
    return out


def check_names(values, spec):
    names = [n for n, _, _ in spec]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise FoldError(
            f"metric set mismatch: missing {missing}, extra {extra}")


def load_trace(path):
    with open(path) as f:
        return json.load(f)
