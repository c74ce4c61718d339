// mbq_e2e_runner — one workload run of the end-to-end benchmark
// (bench/e2e/README.md). run.py builds it and drives it; by hand:
//
//   mbq_e2e_runner --engine=nodestore --mix=bench/e2e/mixes/tao.mix
//     --cache-mb=8 --hdd --result-cache --adj-cache --clients=4
//     --rate=500 --warmup-requests=5000 --capacity-requests=30000
//     --latency=14 --setups=5
//
// Phases: setup (repeated --setups times, the last one serves), warm-up
// and capacity phase (closed loop, a fixed number of requests), latency
// phase (open loop, Poisson arrivals at --rate). Every phase runs on the
// repository's LoadDriver. The public metrics registry — and, for a
// cluster, each daemon's /metrics.json — is snapshotted around the
// latency phase.
// --trace-out runs the latency phase through a timing decorator that
// keeps every other call as a span, and writes the spans as Chrome trace
// JSON.
//
// Prints one JSON object on stdout; run.py turns it into the metrics.
// Exit status: 0 success, 2 usage or startup error, 3 refused (a build
// with the lock-rank checker compiled in is not a benchmark build).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "bench/e2e/measure.h"
#include "bench/e2e/trace.h"
#include "bench/mix.h"
#include "bitmapstore/graph.h"
#include "core/calls.h"
#include "core/engine.h"
#include "nodestore/graph_db.h"
#include "obs/http_client.h"
#include "obs/metrics.h"
#include "storage/simulated_disk.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"

namespace {

using mbq::Result;
using mbq::Status;
using mbq::bench::driver::DriverOptions;
using mbq::bench::driver::DriverReport;
using mbq::bench::driver::LatencyHistogram;
using mbq::bench::driver::WorkloadMix;
using mbq::bench::e2e::Span;

// How long before each send time a client stops sleeping and spins:
// covers the OS wake-up overshoot seen on virtualized hosts.
constexpr uint64_t kSpinNanos = 200 * 1000;

struct Args {
  std::string engine = "nodestore";  // nodestore | bitmap | remote
  std::string mix;                   // mix file
  uint64_t users = 20000;
  uint64_t seed = 42;
  uint64_t cache_mb = 64;
  bool hdd = false;
  bool result_cache = false;
  bool adj_cache = false;
  std::string wal_dir;
  std::vector<std::string> shards;
  std::vector<uint16_t> daemon_stats_ports;
  uint32_t clients = 4;
  double rate = 1000;
  uint64_t warmup_requests = 1000;
  uint64_t capacity_requests = 0;  // 0 skips the phase
  double latency = 8;
  int setups = 5;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value_of("--engine=")) {
      args->engine = v;
    } else if (const char* v = value_of("--mix=")) {
      args->mix = v;
    } else if (const char* v = value_of("--users=")) {
      args->users = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--cache-mb=")) {
      args->cache_mb = std::strtoull(v, nullptr, 10);
    } else if (arg == "--hdd") {
      args->hdd = true;
    } else if (arg == "--result-cache") {
      args->result_cache = true;
    } else if (arg == "--adj-cache") {
      args->adj_cache = true;
    } else if (const char* v = value_of("--wal-dir=")) {
      args->wal_dir = v;
    } else if (const char* v = value_of("--shard=")) {
      args->shards.emplace_back(v);
    } else if (const char* v = value_of("--daemon-stats=")) {
      args->daemon_stats_ports.push_back(
          static_cast<uint16_t>(std::strtoul(v, nullptr, 10)));
    } else if (const char* v = value_of("--clients=")) {
      args->clients = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--rate=")) {
      args->rate = std::strtod(v, nullptr);
    } else if (const char* v = value_of("--warmup-requests=")) {
      args->warmup_requests = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--capacity-requests=")) {
      args->capacity_requests = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--latency=")) {
      args->latency = std::strtod(v, nullptr);
    } else if (const char* v = value_of("--setups=")) {
      args->setups = std::atoi(v);
    } else if (const char* v = value_of("--trace-out=")) {
      args->trace_out = v;
    } else {
      std::fprintf(stderr, "mbq_e2e_runner: unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (args->engine != "nodestore" && args->engine != "bitmap" &&
      args->engine != "remote") {
    std::fprintf(stderr, "mbq_e2e_runner: unknown engine: %s\n",
                 args->engine.c_str());
    return false;
  }
  if ((args->engine == "remote") != !args->shards.empty()) {
    std::fprintf(stderr,
                 "mbq_e2e_runner: --shard= goes with --engine=remote only\n");
    return false;
  }
  return !args->mix.empty() && args->setups >= 1 && args->clients >= 1 &&
         args->rate > 0 && args->warmup_requests > 0 && args->latency > 0;
}

Result<WorkloadMix> LoadMix(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read mix file " + path);
  std::stringstream text;
  text << in.rdbuf();
  // Named after the file: mixes/tao.mix is "tao".
  std::string name = path.substr(path.find_last_of('/') + 1);
  return mbq::bench::driver::ParseMix(text.str(),
                                      name.substr(0, name.find('.')));
}

/// What one setup builds. Members are destroyed in reverse order, so the
/// engine goes before the stores it reads.
struct Testbed {
  mbq::twitter::Dataset dataset;
  std::unique_ptr<mbq::nodestore::GraphDb> db;
  std::unique_ptr<mbq::bitmapstore::Graph> graph;
  mbq::twitter::BitmapHandles bitmap_handles{};
  std::unique_ptr<mbq::core::MicroblogEngine> engine;
};

/// Loads the dataset into the configured store and opens the engine on
/// it; for --engine=remote, dials the topology instead.
Status OpenTestbed(const Args& args, const WorkloadMix& mix, int setup,
                   Testbed* bed) {
  using namespace mbq;        // NOLINT(build/namespaces)
  using namespace mbq::core;  // NOLINT(build/namespaces)
  EngineOptions options;
  if (args.engine == "remote") {
    options.shard_addresses = args.shards;
    MBQ_ASSIGN_OR_RETURN(bed->engine, OpenEngine(EngineKind::kRemote, options));
    return Status::OK();
  }
  options.result_cache = args.result_cache;
  options.adjacency_cache = args.adj_cache;
  if (bench::driver::MixHasWrites(mix)) {
    options.enable_writes = true;
    options.dataset = &bed->dataset;
    if (!args.wal_dir.empty()) {
      options.wal_dir = args.wal_dir + "/setup-" + std::to_string(setup);
    }
  }
  const storage::DiskProfile disk =
      args.hdd ? storage::DiskProfile() : storage::DiskProfile::Instant();
  if (args.engine == "nodestore") {
    nodestore::GraphDbOptions ndb;
    ndb.cache_bytes = args.cache_mb << 20;
    ndb.disk_profile = disk;
    ndb.wal_enabled = false;
    bed->db = std::make_unique<nodestore::GraphDb>(ndb);
    MBQ_RETURN_IF_ERROR(
        twitter::LoadIntoNodestore(bed->dataset, bed->db.get()).status());
    options.db = bed->db.get();
    MBQ_ASSIGN_OR_RETURN(bed->engine,
                         OpenEngine(EngineKind::kNodestore, options));
    return Status::OK();
  }
  bitmapstore::GraphOptions bg;
  bg.cache_bytes = args.cache_mb << 20;
  bg.disk_profile = disk;
  bed->graph = std::make_unique<bitmapstore::Graph>(bg);
  MBQ_ASSIGN_OR_RETURN(bed->bitmap_handles, twitter::LoadIntoBitmapstore(
                                                bed->dataset, bed->graph.get()));
  options.graph = bed->graph.get();
  options.handles = &bed->bitmap_handles;
  MBQ_ASSIGN_OR_RETURN(bed->engine, OpenEngine(EngineKind::kBitmap, options));
  return Status::OK();
}

uint64_t StoreBytes(const Testbed& bed) {
  if (bed.db != nullptr) return bed.db->DiskSizeBytes();
  if (bed.graph != nullptr) return bed.graph->DiskSizeBytes();
  return 0;
}

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// A JSON number with every digit; null stands for +infinity (a
/// percentile that landed among failed requests).
std::string Num(double v) {
  if (std::isinf(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Num(values[i]);
  }
  return out + "]";
}

double Millis(double nanos) { return nanos / 1e6; }

/// Registry snapshots of this process and of every daemon.
struct Snapshots {
  std::string runner;
  std::vector<std::string> daemons;
};

Result<Snapshots> TakeSnapshots(const Args& args) {
  Snapshots out;
  out.runner = mbq::obs::MetricsRegistry::Default().Snapshot().ToJson();
  for (uint16_t port : args.daemon_stats_ports) {
    std::string body;
    if (!mbq::obs::HttpGet("127.0.0.1", port, "/metrics.json", &body)) {
      return Status::IoError("cannot fetch /metrics.json from port " +
                             std::to_string(port));
    }
    out.daemons.push_back(std::move(body));
  }
  return out;
}

/// A closed-loop phase: counts and wall time only.
std::string ClosedJson(const DriverReport& r) {
  return "{\"requests\": " + std::to_string(r.requests) +
         ", \"errors\": " + std::to_string(r.errors) +
         ", \"wall_s\": " + Num(r.wall_seconds) + "}";
}

/// The open-loop phase: latency percentiles (driver microseconds, failed
/// requests ranked as +infinity), send lag, and the latency total of
/// every template in the registry (0 for templates off the mix).
std::string LatencyJson(const DriverReport& r,
                        const LatencyHistogram& send_lag_nanos) {
  using mbq::bench::e2e::QuantileWithErrors;
  std::string out = "{\"requests\": " + std::to_string(r.requests) +
                    ", \"errors\": " + std::to_string(r.errors) +
                    ", \"late\": " + std::to_string(r.late) +
                    ", \"wall_s\": " + Num(r.wall_seconds);
  out += ", \"p50_ms\": " +
         Num(QuantileWithErrors(r.latency_micros, r.errors, 0.50) / 1e3);
  out += ", \"p99_ms\": " +
         Num(QuantileWithErrors(r.latency_micros, r.errors, 0.99) / 1e3);
  out += ", \"send_lag_p99_ms\": " +
         Num(Millis(send_lag_nanos.Quantile(0.99)));
  out += ", \"template_ms_total\": {";
  bool first = true;
  for (const mbq::bench::driver::TemplateInfo& t :
       mbq::bench::driver::Templates()) {
    double micros = 0;
    for (const mbq::bench::driver::TemplateReport& tr : r.templates) {
      if (tr.name == t.name) {
        micros += static_cast<double>(tr.latency_micros.sum());
      }
    }
    out += (first ? "\"" : ", \"") + std::string(t.name) + "\": " +
           Num(micros / 1e3);
    first = false;
  }
  return out + "}}";
}

/// The timing decorator's totals: engine-call mean and p99 over the
/// traced calls, the commit total, and the mean of the untraced calls.
std::string SpanSummaryJson(const mbq::bench::e2e::TimedEngine::Totals& t) {
  double commit_nanos = 0;
  for (const Span& s : t.spans) {
    if (std::strcmp(s.name, "WritableEngine::Commit") == 0) {
      commit_nanos += static_cast<double>(s.end_nanos - s.start_nanos);
    }
  }
  return "{\"roots\": " + std::to_string(t.spans.size()) +
         ", \"call_ms_total\": " +
         Num(Millis(static_cast<double>(t.traced_nanos.sum()))) +
         ", \"call_ms_mean\": " + Num(Millis(t.traced_nanos.mean())) +
         ", \"call_p99_ms\": " + Num(Millis(t.traced_nanos.Quantile(0.99))) +
         ", \"commit_ms_total\": " + Num(Millis(commit_nanos)) +
         ", \"plain_ms_mean\": " + Num(Millis(t.plain_nanos.mean())) + "}";
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "mbq_e2e_runner: %s: %s\n", what,
               status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using mbq::bench::driver::LoadDriver;
  using mbq::bench::e2e::ClosedLoop;
  using mbq::bench::e2e::SpanNowNanos;

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "mbq_e2e_runner: bad arguments (see runner.cc)\n");
    return 2;
  }
  if (mbq::obs::MetricsRegistry::Default().Snapshot().ValueOf(
          "lockrank.enabled") != 0) {
    std::fprintf(stderr,
                 "mbq_e2e_runner: the lock-rank checker is compiled in; "
                 "benchmark a Release build\n");
    return 3;
  }
  Result<WorkloadMix> mix = LoadMix(args.mix);
  if (!mix.ok()) return Fail("mix", mix.status());
  const bool traced = !args.trace_out.empty();

  // Setup, repeated; the last testbed serves.
  std::vector<Span> setup_spans;
  std::vector<double> generate_s, load_s, total_s;
  std::unique_ptr<Testbed> bed;
  for (int i = 0; i < args.setups; ++i) {
    bed = std::make_unique<Testbed>();  // tears the previous one down
    const uint64_t t0 = SpanNowNanos();
    mbq::twitter::DatasetSpec spec;
    spec.num_users = args.users;
    spec.seed = args.seed;
    bed->dataset = mbq::twitter::GenerateDataset(spec);
    const uint64_t t1 = SpanNowNanos();
    Status opened = OpenTestbed(args, *mix, i, bed.get());
    if (!opened.ok()) return Fail("setup", opened);
    const uint64_t t2 = SpanNowNanos();
    generate_s.push_back((t1 - t0) / 1e9);
    load_s.push_back((t2 - t1) / 1e9);
    total_s.push_back((t2 - t0) / 1e9);
    setup_spans.push_back(Span{"setup", 0, t0, t2, 0, 0});
    setup_spans.push_back(Span{"setup.generate", 0, t0, t1, 0, 1});
    setup_spans.push_back(Span{"setup.load", 0, t1, t2, 0, 1});
  }
  mbq::core::ParamUniverse universe(bed->dataset);
  std::fprintf(stderr, "mbq_e2e_runner: %s/%s ready, store %.1f MiB\n",
               args.engine.c_str(), mix->name.c_str(),
               static_cast<double>(StoreBytes(*bed)) / (1 << 20));

  // Distinct call streams per phase: the latency phase must not replay
  // the warm-up's calls into caches the warm-up just filled.
  auto drive = [&](mbq::core::MicroblogEngine* engine, DriverOptions options,
                   uint64_t phase, mbq::bench::driver::DriverClock* clock) {
    options.seed = args.seed * 4 + phase;
    return LoadDriver(engine, *mix, universe, options, clock).Run();
  };

  // Warm up in closed loop: only full concurrency fills the read caches
  // and grows every client thread's allocator arena, transients that
  // otherwise land in the capacity phase.
  Result<DriverReport> warmup =
      drive(bed->engine.get(), ClosedLoop(args.clients, args.warmup_requests),
            1, nullptr);
  if (!warmup.ok()) return Fail("warm-up", warmup.status());
  Result<DriverReport> capacity = DriverReport();
  if (args.capacity_requests > 0) {
    capacity = drive(bed->engine.get(),
                     ClosedLoop(args.clients, args.capacity_requests), 3,
                     nullptr);
    if (!capacity.ok()) return Fail("capacity phase", capacity.status());
  }

  std::unique_ptr<mbq::bench::e2e::TimedEngine> timed;
  if (traced) {
    timed = std::make_unique<mbq::bench::e2e::TimedEngine>(bed->engine.get());
  }
  DriverOptions open;
  open.rate_qps = args.rate;
  open.clients = args.clients;
  open.duration_seconds = args.latency;
  open.arrival = mbq::bench::driver::Arrival::kPoisson;
  mbq::bench::driver::SteadyDriverClock steady;
  mbq::bench::e2e::LagClock clock(&steady, kSpinNanos);
  Result<Snapshots> before = TakeSnapshots(args);
  if (!before.ok()) return Fail("snapshot", before.status());
  Result<DriverReport> latency =
      drive(traced ? timed.get() : bed->engine.get(), open, 2, &clock);
  if (!latency.ok()) return Fail("latency phase", latency.status());
  Result<Snapshots> after = TakeSnapshots(args);
  if (!after.ok()) return Fail("snapshot", after.status());

  std::string json = "{\"setup\": {\"generate_s\": " + NumList(generate_s) +
                     ", \"load_s\": " + NumList(load_s) +
                     ", \"total_s\": " + NumList(total_s) + "}";
  json += ", \"warmup\": " + ClosedJson(*warmup);
  json += ", \"capacity\": " + ClosedJson(*capacity);
  json += ", \"latency\": " + LatencyJson(*latency, clock.SendLagNanos());
  if (traced) {
    mbq::bench::e2e::TimedEngine::Totals totals = timed->Collect();
    json += ", \"spans\": " + SpanSummaryJson(totals);
    std::vector<Span> all = std::move(setup_spans);
    all.insert(all.end(), totals.spans.begin(), totals.spans.end());
    uint64_t origin = UINT64_MAX;
    for (const Span& s : all) origin = std::min(origin, s.start_nanos);
    std::ofstream out(args.trace_out);
    out << mbq::bench::e2e::ChromeTraceJson(all, origin);
    if (!out) {
      std::fprintf(stderr, "mbq_e2e_runner: cannot write %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }
  json += ", \"peak_rss_mb\": " + Num(PeakRssMb());
  json += ", \"metrics\": {\"before\": " + before->runner +
          ", \"after\": " + after->runner + "}";
  json += ", \"daemon_metrics\": [";
  for (size_t i = 0; i < before->daemons.size(); ++i) {
    json += (i == 0 ? "{\"before\": " : ", {\"before\": ") +
            before->daemons[i] + ", \"after\": " + after->daemons[i] + "}";
  }
  json += "]}";
  std::puts(json.c_str());
  return 0;
}
