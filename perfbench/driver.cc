// One repetition of one benchmark workload, end to end, through the public
// testbed API only: build the golden image, start the testbed, warm up, run
// the measured phase, strand in-flight transactions, crash, recover, verify,
// and resume. Every call is timed in host CPU seconds and wrapped in a
// "bench" trace span; the measured phase's counters, the merged
// per-transaction latency histogram, the restart report and an obs registry
// snapshot are printed as one JSON object on stdout. perfbench/run.py turns
// repetitions of this into the benchmark's metrics (see perfbench/README.md).
//
//   face_perfbench --workload=tpcc --seed=7 [--scale=tiny] [--trace=out.json]
//
// tpcc and kv-resident crash and recover after the measured phase;
// scan-heavy does not, because FaCE restart fails on its 468-frame cache,
// which is smaller than one 1024-entry metadata segment (README.md, "Known
// defect").
//
// Exit status is 0 when every step and every correctness gate passed, 1 when
// a gate failed (the JSON still lists what was measured), 2 on bad usage.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "fault/diff_checker.h"
#include "fault/shadow_kv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testbed/testbed.h"
#include "workload/scan_workload.h"
#include "workload/tpcc_workload.h"

#if !FACE_OBS_ENABLED
#error "face_perfbench needs the obs subsystem (configure with FACE_OBS=ON)"
#endif

namespace {

using face::CachePolicy;
using face::GoldenImage;
using face::RestartReport;
using face::RunOptions;
using face::RunResult;
using face::Status;
using face::Testbed;
using face::TestbedOptions;

constexpr uint32_t kStranded = 5;  ///< in-flight transactions at the crash
constexpr uint32_t kBufferFrames = 256;  ///< 1 MB of DRAM buffer

/// Sizes of one workload at one scale.
struct Shape {
  std::shared_ptr<const face::workload::WorkloadFactory> factory;
  std::shared_ptr<face::fault::ShadowState> shadow;  ///< kv-resident only
  uint64_t flash_divisor = 10;  ///< flash pages = db pages / divisor
  uint64_t warmup = 0;
  uint64_t txns = 0;
  uint64_t post_txns = 0;  ///< resumed after recovery
  bool crash = true;       ///< strand, crash and recover after the run
};

bool MakeShape(const std::string& workload, bool tiny, Shape* s) {
  if (workload == "tpcc") {
    // One warehouse is the smallest TPC-C database; tiny shortens the runs.
    s->factory = std::make_shared<face::workload::TpccFactory>(1);
    s->warmup = tiny ? 300 : 4000;
    s->txns = tiny ? 600 : 30000;
    s->post_txns = tiny ? 100 : 500;
    return true;
  }
  if (workload == "scan-heavy") {
    face::workload::ScanHeavyOptions o;
    o.records = tiny ? 4000 : 40000;
    o.value_bytes = 400;
    o.pct_scan = 70;
    o.min_scan_rows = 100;
    o.max_scan_rows = 800;
    s->factory = std::make_shared<face::workload::ScanHeavyFactory>(o);
    s->crash = false;  // the known restart defect; see the file comment
    s->warmup = tiny ? 200 : 2000;
    s->txns = tiny ? 600 : 16000;
    s->post_txns = tiny ? 100 : 500;
    return true;
  }
  if (workload == "kv-resident") {
    face::fault::ShadowKvOptions o;
    // Tiny keeps the cache (= the database) above 1024 frames, one metadata
    // segment, so the crash runs clear of the known restart defect.
    o.records = tiny ? 12000 : 40000;
    o.value_bytes = 400;
    o.pct_read = 50;
    o.pct_update = 50;
    o.pct_insert = 0;
    o.pct_scan = 0;
    s->shadow = std::make_shared<face::fault::ShadowState>();
    s->shadow->Reset(o.records, o.value_bytes);
    s->factory = std::make_shared<face::fault::ShadowKvFactory>(o, s->shadow);
    s->flash_divisor = 1;
    s->warmup = tiny ? 2000 : 60000;
    s->txns = tiny ? 6000 : 300000;
    s->post_txns = tiny ? 500 : 5000;
    return true;
  }
  return false;
}

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with every digit.
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const char* key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Str(const char* key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Obj(const char* key, const Json& v) { return Raw(key, v.str()); }
  Json& Raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// CPU seconds of this process. The driver is single-threaded and the
/// simulation does no I/O, so this is its wall time minus the time other
/// processes held the CPU, which on a shared host is the steadier figure.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// `busy_frac` is busy time over the run's makespan times the stations.
Json DeviceJson(const face::DeviceStats& d, const face::DeviceProfile& p,
                face::SimNanos duration) {
  Json j;
  j.Num("busy_frac", duration == 0 ? 0.0
                                    : static_cast<double>(d.busy_ns) /
                                          (static_cast<double>(duration) *
                                           p.stations));
  j.Int("read_reqs", d.read_reqs)
      .Int("write_reqs", d.write_reqs)
      .Int("seq_read_reqs", d.seq_read_reqs)
      .Int("seq_write_reqs", d.seq_write_reqs)
      .Int("pages_read", d.pages_read)
      .Int("pages_written", d.pages_written)
      .Int("busy_ns", d.busy_ns)
      .Int("retries", d.retries)
      .Int("backoff_ns", d.backoff_ns);
  return j;
}

Json RunJson(const RunResult& r, const TestbedOptions& o) {
  const face::CacheStats& c = r.cache_stats;
  Json cache;
  cache.Int("lookups", c.lookups)
      .Int("hits", c.hits)
      .Int("dirty_evictions", c.dirty_evictions)
      .Int("disk_writes", c.disk_writes)
      .Int("disk_reads", c.disk_reads)
      .Int("flash_writes", c.flash_writes)
      .Int("flash_reads", c.flash_reads)
      .Int("enqueues", c.enqueues)
      .Int("invalidations", c.invalidations)
      .Int("second_chances", c.second_chances)
      .Int("pulled_from_dram", c.pulled_from_dram)
      .Int("meta_flash_writes", c.meta_flash_writes)
      .Int("delta_records", c.delta_records)
      .Int("delta_record_bytes", c.delta_record_bytes)
      .Int("delta_block_writes", c.delta_block_writes)
      .Num("write_reduction", c.WriteReduction());
  const face::BufferPool::Stats& p = r.pool_stats;
  Json pool;
  pool.Int("fetches", p.fetches)
      .Int("hits", p.hits)
      .Int("misses", p.misses)
      .Int("disk_fetches", p.disk_fetches)
      .Int("flash_fetches", p.flash_fetches)
      .Int("evictions", p.evictions)
      .Int("dirty_evictions", p.dirty_evictions)
      .Int("pulls", p.pulls);
  Json j;
  j.Int("txns", r.txns)
      .Int("primary_txns", r.primary_txns)
      .Int("user_aborts", r.user_aborts)
      .Int("duration_ns", r.duration)
      .Int("checkpoints", r.checkpoints)
      .Int("degradations", r.degradations)
      .Obj("db", DeviceJson(r.db_stats, o.db_profile, r.duration))
      .Obj("flash", DeviceJson(r.flash_stats, o.flash_profile, r.duration))
      .Obj("log", DeviceJson(r.log_stats, o.log_profile, r.duration))
      .Obj("cache", cache)
      .Obj("pool", pool);
  return j;
}

Json RestartJson(const RestartReport& r) {
  Json j;
  j.Int("analysis_records", r.analysis_records)
      .Int("redo_records", r.redo_records)
      .Int("redo_applied", r.redo_applied)
      .Int("losers", r.losers)
      .Int("undo_records", r.undo_records)
      .Int("pages_fetched", r.pages_fetched)
      .Int("pages_from_flash", r.pages_from_flash)
      .Int("pages_from_disk", r.pages_from_disk)
      .Int("attach_ns", r.attach_ns)
      .Int("meta_restore_ns", r.meta_restore_ns)
      .Int("analysis_ns", r.analysis_ns)
      .Int("redo_ns", r.redo_ns)
      .Int("undo_ns", r.undo_ns)
      .Int("checkpoint_ns", r.checkpoint_ns)
      .Int("total_ns", r.total_ns)
      .Bool("degraded", r.degraded);
  return j;
}

/// Merge the testbed's per-type "testbed.txn_latency_ns.<type>" histograms.
Json LatencyJson(face::workload::Workload* w) {
  face::Histogram all;
  auto& reg = face::obs::MetricsRegistry::Instance();
  for (uint32_t t = 0; t < w->num_txn_types(); ++t) {
    all.Merge(*reg.GetHistogram(std::string("testbed.txn_latency_ns.") +
                                w->txn_type_name(static_cast<uint8_t>(t))));
  }
  Json j;
  j.Int("count", all.count())
      .Num("p50_ns", all.Percentile(50))
      .Num("p99_ns", all.Percentile(99));
  return j;
}

/// The recorded spans as a Chrome trace on the host timeline: every span
/// is one complete event with host start and duration (microseconds since
/// the first span), and its virtual interval in args. The driver is one
/// thread, so the events nest exactly as the scoped spans did.
Status WriteHostTrace(const std::string& path) {
  const auto& tracer = face::obs::Tracer::Instance();
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  uint64_t origin = UINT64_MAX;
  for (const auto& s : tracer.spans()) {
    origin = std::min(origin, s.host_start_ns);
  }
  fputs("{\"traceEvents\": [", f);
  bool first = true;
  for (const auto& s : tracer.spans()) {
    fprintf(f,
            "%s\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \"%s\", "
            "\"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
            "{\"v_start_ns\": %" PRIu64 ", \"v_end_ns\": %" PRIu64 "}}",
            first ? "" : ",", s.name, s.component,
            static_cast<double>(s.host_start_ns - origin) / 1e3,
            static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e3,
            s.v_start_ns, s.v_end_ns);
    first = false;
  }
  fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %zu}}\n",
          tracer.dropped());
  if (fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

/// Outcome bookkeeping: every operation attempted, and those that failed.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Count `ops` operations whose outcome is `s`; true when OK.
  bool Check(const char* what, const Status& s, uint64_t ops = 1) {
    attempted += ops;
    if (s.ok()) return true;
    failed += ops;
    failures.push_back(std::string(what) + ": " + s.ToString());
    return false;
  }
};

/// Run the differential check against the shadow table with device timing
/// off: the sweep is verification, not part of the experiment.
Status DiffCheck(Testbed& tb, face::fault::ShadowState* shadow) {
  tb.db_dev()->set_timing_enabled(false);
  tb.log_dev()->set_timing_enabled(false);
  tb.flash_dev()->set_timing_enabled(false);
  auto r = face::fault::RunDifferentialCheck(*tb.db(), shadow, tb.cache());
  tb.db_dev()->set_timing_enabled(true);
  tb.log_dev()->set_timing_enabled(true);
  tb.flash_dev()->set_timing_enabled(true);
  if (!r.ok()) return r.status();
  if (!r->ok()) return Status::Corruption(r->ToString());
  return Status::OK();
}

int Usage() {
  fprintf(stderr,
          "usage: face_perfbench --workload=tpcc|scan-heavy|kv-resident "
          "--seed=N [--scale=full|tiny] [--trace=PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_path, scale = "full";
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload = v;
    } else if (const char* v2 = value("--seed=")) {
      char* end = nullptr;
      seed = strtoull(v2, &end, 10);
      have_seed = *v2 != '\0' && *end == '\0';
      if (!have_seed) return Usage();
    } else if (const char* v3 = value("--scale=")) {
      scale = v3;
    } else if (const char* v4 = value("--trace=")) {
      trace_path = v4;
    } else {
      return Usage();
    }
  }
  Shape shape;
  if (!have_seed || (scale != "full" && scale != "tiny") ||
      !MakeShape(workload, scale == "tiny", &shape)) {
    return Usage();
  }

  // Metrics are on in every pass: the latency histograms and WAL counters
  // live in the registry. Tracing is on only in the traced pass.
  face::obs::SetEnabled(true);
  auto& tracer = face::obs::Tracer::Instance();
  tracer.SetEnabled(!trace_path.empty());

  Ledger ledger;
  Json cpu;  // CPU seconds of each driver call
  Json out;
  out.Str("workload", workload).Int("seed", seed).Str("scale", scale);

  // Everything runs inside one scope so the testbed and the golden image
  // are gone (and their spans closed) before the trace is written.
  bool completed = false;
  {
    // --- set-up: golden image, testbed start, warmup ------------------------
    // The golden image is loaded from a seed derived from --seed, so each
    // seed is a different database as well as a different request stream.
    const uint64_t golden_seed = 20120827 + seed * 7919;
    GoldenImage golden;
    {
      face::obs::ScopedSpan span("bench", "golden_build");
      const double t0 = CpuSeconds();
      auto g = GoldenImage::BuildFor(shape.factory, golden_seed);
      cpu.Num("golden_build", CpuSeconds() - t0);
      if (ledger.Check("golden_build", g.status())) golden = std::move(*g);
    }
    TestbedOptions opts;
    opts.seed = seed;
    opts.policy = CachePolicy::kFaceGSC;
    opts.buffer_frames = kBufferFrames;
    opts.flash_pages = golden.db_pages() / shape.flash_divisor;
    std::unique_ptr<Testbed> tb;
    RunResult run;
    RestartReport restart;
    bool ok = ledger.failed == 0;
    if (ok) {
      tb = std::make_unique<Testbed>(opts, &golden);
      face::obs::ScopedSpan span("bench", "start");
      const double t0 = CpuSeconds();
      ok = ledger.Check("start", tb->Start());
      cpu.Num("start", CpuSeconds() - t0);
    }
    if (ok) {
      face::obs::ScopedSpan span("bench", "warmup");
      const double t0 = CpuSeconds();
      ok = ledger.Check("warmup", tb->Warmup(shape.warmup), shape.warmup);
      cpu.Num("warmup", CpuSeconds() - t0);
    }

    // --- measured phase ----------------------------------------------------
    if (ok) {
      face::obs::MetricsRegistry::Instance().Clear();
      RunOptions ro;
      ro.txns = shape.txns;
      ro.checkpoint_interval = 3 * face::kNanosPerSecond;
      face::obs::ScopedSpan span("bench", "run");
      const double t0 = CpuSeconds();
      auto r = tb->Run(ro);
      cpu.Num("run", CpuSeconds() - t0);
      span.End();
      ok = ledger.Check("run", r.status(), shape.txns);
      if (ok) {
        run = std::move(*r);
        out.Obj("run", RunJson(run, opts))
            .Obj("latency", LatencyJson(tb->workload()))
            .Raw("obs", face::obs::MetricsRegistry::Instance().ToJson());
        ok = ledger.Check("invariants after run",
                          tb->cache()->CheckInvariants());
      }
    }

    // --- crash with in-flight work, recover ---------------------------------
    const bool crashed = ok && shape.crash;
    if (crashed) {
      face::obs::ScopedSpan span("bench", "crash");
      const double t0 = CpuSeconds();
      ok = ledger.Check("inject", tb->InjectInflightTransactions(kStranded),
                        kStranded) &&
           ledger.Check("crash", tb->Crash());
      cpu.Num("crash", CpuSeconds() - t0);
    }
    if (ok && crashed) {
      face::obs::ScopedSpan span("bench", "recover");
      const double t0 = CpuSeconds();
      auto r = tb->Recover();
      cpu.Num("recover", CpuSeconds() - t0);
      ok = ledger.Check("recover", r.status());
      if (ok) {
        restart = std::move(*r);
        out.Obj("restart", RestartJson(restart));
      }
    }

    // --- verify, resume, verify again ---------------------------------------
    if (ok) {
      face::obs::ScopedSpan span("bench", "verify");
      const double t0 = CpuSeconds();
      if (crashed) {
        ledger.Check("invariants after recovery",
                     tb->cache()->CheckInvariants());
        ledger.Check("losers >= stranded",
                     restart.losers >= kStranded
                         ? Status::OK()
                         : Status::Internal(std::to_string(restart.losers) +
                                            " losers"));
      }
      if (shape.shadow) ledger.Check("diff before resume",
                                     DiffCheck(*tb, shape.shadow.get()));
      RunOptions post;
      post.txns = shape.post_txns;
      if (ledger.Check("resume", tb->Run(post).status(), shape.post_txns)) {
        ledger.Check("invariants after resume", tb->cache()->CheckInvariants());
        if (shape.shadow) ledger.Check("diff after resume",
                                       DiffCheck(*tb, shape.shadow.get()));
      }
      cpu.Num("verify", CpuSeconds() - t0);
      completed = true;
    }
    out.Int("db_pages", golden.db_pages())
        .Int("flash_pages", opts.flash_pages)
        .Int("buffer_frames", opts.buffer_frames)
        .Int("clients", opts.clients)
        .Int("warmup_txns", shape.warmup)
        .Int("stranded", crashed ? kStranded : 0);
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  out.Obj("cpu_s", cpu)
      .Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  if (!trace_path.empty()) {
    ledger.Check("trace export", WriteHostTrace(trace_path));
    out.Int("spans", tracer.span_count())
        .Int("dropped_spans", tracer.dropped());
  }

  std::string failures = "[";
  for (size_t i = 0; i < ledger.failures.size(); ++i) {
    failures += (i ? ", " : "") + Json::Quote(ledger.failures[i]);
  }
  out.Bool("completed", completed)
      .Int("attempted", ledger.attempted)
      .Int("failed", ledger.failed)
      .Raw("failures", failures + "]");
  printf("%s\n", out.str().c_str());
  return completed && ledger.failed == 0 ? 0 : 1;
}
