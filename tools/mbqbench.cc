// mbqbench — the open-loop load driver (docs/BENCHMARKS.md).
//
// Reads a workload mix (a built-in suite or a mix file), generates the
// twitter dataset deterministically, and issues requests at a target
// rate from N client threads against any engine core::OpenEngine can
// build — the in-process nodestore or bitmap engines, or (with
// --shard=) EngineKind::kRemote dialing mbqd daemons. Latency is
// coordinated-omission-safe: every sample is measured from the
// request's *intended* send time, so a stalled engine shows up in the
// tail instead of silently shedding load.
//
//   ./mbqbench --suite=tao --rate=2000 --duration=5 --metrics-out=out.json
//   ./mbqbench --suite=ldbc --rates=500,1000,2000 --clients=8
//   ./mbqbench --mix=my.mix --engine=bitmap --arrival=uniform
//   ./mbqbench --suite=tao --shard=127.0.0.1:7000 --verify=200
//
// Mixes with write templates (the built-in `churn` suite, or any mix
// naming post_tweet/follow/unfollow/add_mention) open the local engine
// with writes enabled; --wal-dir makes those commits durable. Remote
// topologies reject write mixes — kWriteBatch is reserved protocol.
//
// Flags (both --flag=V and --flag V forms):
//   --suite=ldbc|tao|churn  built-in workload (default tao)
//   --mix=FILE              workload mix file (overrides --suite)
//   --rate=QPS              target aggregate rate (default 1000)
//   --rates=R1,R2,...       sweep: one run per rate, curve table at end
//   --duration=SECONDS      intended-time horizon per run (default 5)
//   --requests=M            cap on issued requests (0 = horizon only)
//   --clients=N             open-loop client threads (default 4)
//   --arrival=poisson|uniform  arrival process (default poisson)
//   --engine=nodestore|bitmap  local engine kind (default nodestore)
//   --shard=H:P             drive a remote topology instead (repeatable;
//                           --users/--seed must match the daemons')
//   --users=N --seed=S      dataset shape (default 20000 / 42)
//   --verify[=M]            differential check before driving: M calls
//                           (default 200) from the mix, compared against
//                           a local single-process nodestore reference
//   --print-mix             print the resolved mix and exit
//   --list-templates        print the template registry and exit
// plus the shared bench surface: --threads N, --result-cache on|off,
// --adj-cache on|off, --metrics-out FILE, --serve[=PORT].
//
// Exit status: 0 success, 1 verify divergence, 2 usage or startup error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/driver.h"
#include "bench/hist.h"
#include "bench/mix.h"
#include "bitmapstore/graph.h"
#include "core/calls.h"
#include "core/engine.h"
#include "nodestore/graph_db.h"
#include "obs/trace_context.h"
#include "storage/simulated_disk.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"

namespace {

using mbq::Result;
using mbq::Status;
using mbq::bench::driver::Arrival;
using mbq::bench::driver::DriverMetricsPublisher;
using mbq::bench::driver::DriverOptions;
using mbq::bench::driver::DriverReport;
using mbq::bench::driver::LoadDriver;
using mbq::bench::driver::TemplateReport;
using mbq::bench::driver::WorkloadMix;

struct Args {
  std::string suite = "tao";
  std::string mix_file;
  std::vector<double> rates;
  double duration = 5;
  uint64_t requests = 0;
  uint32_t clients = 4;
  Arrival arrival = Arrival::kPoisson;
  std::string engine = "nodestore";
  std::vector<std::string> shard_addresses;
  uint64_t users = 20000;
  uint64_t seed = 42;
  int verify = 0;
  bool print_mix = false;
  bool list_templates = false;
  std::string wal_dir;  ///< WAL for write mixes; empty = no durability
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: mbqbench [--suite=ldbc|tao|churn | --mix=FILE] [options]\n"
      "  --rate=QPS | --rates=R1,R2,...   target rate(s), default 1000\n"
      "  --duration=S --requests=M        run length (default 5s)\n"
      "  --clients=N                      client threads (default 4)\n"
      "  --arrival=poisson|uniform        arrival process\n"
      "  --engine=nodestore|bitmap        local engine (default nodestore)\n"
      "  --shard=H:P [--shard=...]        drive mbqd daemons instead\n"
      "  --users=N --seed=S               dataset shape (20000 / 42)\n"
      "  --wal-dir=DIR                    WAL for write mixes (default:\n"
      "                                   commit without durability)\n"
      "  --verify[=M]                     differential check vs a local\n"
      "                                   nodestore reference\n"
      "  --print-mix | --list-templates   inspect the workload and exit\n"
      "  --threads N --result-cache on|off --adj-cache on|off\n"
      "  --metrics-out FILE --serve[=PORT]\n");
}

bool ParseRates(const char* text, std::vector<double>* rates) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    double r = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || !(r > 0)) return false;
    rates->push_back(r);
  }
  return !rates->empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    auto value_of = [&](const char* name) -> const char* {
      size_t n = std::strlen(name);
      if (std::strncmp(argv[i], name, n) != 0) return nullptr;
      if (argv[i][n] == '=') return argv[i] + n + 1;
      if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    // The shared bench/metrics surface is parsed by ParseBenchOptionsOrDie
    // and MetricsExportGuard; skip those flags (and their detached values)
    // here so they are not reported as unknown.
    auto skip_shared = [&](const char* name) {
      size_t n = std::strlen(name);
      if (std::strncmp(argv[i], name, n) != 0) return false;
      if (argv[i][n] == '=') return true;
      if (argv[i][n] == '\0') {
        if (i + 1 < argc) ++i;  // detached value form
        return true;
      }
      return false;
    };
    std::string arg = argv[i];
    if (const char* v = value_of("--suite")) {
      args->suite = v;
    } else if (const char* v = value_of("--mix")) {
      args->mix_file = v;
    } else if (const char* v = value_of("--rates")) {
      if (!ParseRates(v, &args->rates)) {
        std::fprintf(stderr, "mbqbench: bad --rates value: %s\n", v);
        return false;
      }
    } else if (const char* v = value_of("--rate")) {
      char* end = nullptr;
      double r = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(r > 0)) {
        std::fprintf(stderr, "mbqbench: bad --rate value: %s\n", v);
        return false;
      }
      args->rates.push_back(r);
    } else if (const char* v = value_of("--duration")) {
      char* end = nullptr;
      args->duration = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(args->duration > 0)) {
        std::fprintf(stderr, "mbqbench: bad --duration value: %s\n", v);
        return false;
      }
    } else if (const char* v = value_of("--requests")) {
      args->requests = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--clients")) {
      unsigned long c = std::strtoul(v, nullptr, 10);
      if (c < 1 || c > 1024) {
        std::fprintf(stderr, "mbqbench: bad --clients value: %s\n", v);
        return false;
      }
      args->clients = static_cast<uint32_t>(c);
    } else if (const char* v = value_of("--arrival")) {
      Result<Arrival> arrival = mbq::bench::driver::ParseArrival(v);
      if (!arrival.ok()) {
        std::fprintf(stderr, "mbqbench: %s\n",
                     arrival.status().message().c_str());
        return false;
      }
      args->arrival = *arrival;
    } else if (const char* v = value_of("--engine")) {
      args->engine = v;
      if (args->engine != "nodestore" && args->engine != "bitmap") {
        std::fprintf(stderr, "mbqbench: unknown engine: %s\n", v);
        return false;
      }
    } else if (const char* v = value_of("--shard")) {
      args->shard_addresses.emplace_back(v);
    } else if (const char* v = value_of("--users")) {
      args->users = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--seed")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--wal-dir")) {
      args->wal_dir = v;
    } else if (arg == "--verify") {
      args->verify = 200;
    } else if (std::strncmp(argv[i], "--verify=", 9) == 0) {
      args->verify = std::atoi(argv[i] + 9);
      if (args->verify < 1) {
        std::fprintf(stderr, "mbqbench: bad --verify value: %s\n",
                     argv[i] + 9);
        return false;
      }
    } else if (arg == "--print-mix") {
      args->print_mix = true;
    } else if (arg == "--list-templates") {
      args->list_templates = true;
    } else if (arg == "--serve" || std::strncmp(argv[i], "--serve=", 8) == 0) {
      // MetricsExportGuard's flag; no detached value form.
    } else if (skip_shared("--threads") || skip_shared("--result-cache") ||
               skip_shared("--adj-cache") || skip_shared("--metrics-out")) {
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "mbqbench: unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->rates.empty()) args->rates.push_back(1000);
  return true;
}

/// Local stores use the instant disk profile: mbqbench measures serving
/// throughput, not simulated device latency (bench_fig4_* does that).
struct LocalStores {
  std::unique_ptr<mbq::nodestore::GraphDb> db;
  std::unique_ptr<mbq::bitmapstore::Graph> graph;
  mbq::twitter::BitmapHandles bitmap_handles{};
};

Result<std::unique_ptr<mbq::core::MicroblogEngine>> OpenLocalEngine(
    const std::string& kind, const mbq::twitter::Dataset& dataset,
    const mbq::bench::BenchOptions& bench, LocalStores* stores,
    bool enable_writes = false, const std::string& wal_dir = std::string()) {
  using namespace mbq;        // NOLINT(build/namespaces)
  using namespace mbq::core;  // NOLINT(build/namespaces)
  EngineOptions options;
  options.threads = bench.threads;
  options.result_cache = bench.result_cache;
  options.result_cache_capacity = bench.result_cache_capacity;
  options.adjacency_cache = bench.adj_cache;
  options.adjacency_cache_capacity = bench.adj_cache_capacity;
  if (enable_writes) {
    options.enable_writes = true;
    options.dataset = &dataset;
    options.wal_dir = wal_dir;
  }
  if (kind == "nodestore") {
    nodestore::GraphDbOptions ndb;
    ndb.disk_profile = storage::DiskProfile::Instant();
    stores->db = std::make_unique<nodestore::GraphDb>(ndb);
    MBQ_ASSIGN_OR_RETURN(auto handles,
                         twitter::LoadIntoNodestore(dataset, stores->db.get()));
    (void)handles;
    options.db = stores->db.get();
    return OpenEngine(EngineKind::kNodestore, options);
  }
  bitmapstore::GraphOptions bg;
  bg.disk_profile = storage::DiskProfile::Instant();
  stores->graph = std::make_unique<bitmapstore::Graph>(bg);
  MBQ_ASSIGN_OR_RETURN(
      stores->bitmap_handles,
      twitter::LoadIntoBitmapstore(dataset, stores->graph.get()));
  options.graph = stores->graph.get();
  options.handles = &stores->bitmap_handles;
  return OpenEngine(EngineKind::kBitmap, options);
}

Result<std::unique_ptr<mbq::core::MicroblogEngine>> DialRemote(
    const std::vector<std::string>& shard_addresses) {
  using namespace mbq;        // NOLINT(build/namespaces)
  using namespace mbq::core;  // NOLINT(build/namespaces)
  EngineOptions options;
  options.shard_addresses = shard_addresses;
  // Daemons may still be loading their slice; retry the dial for ~30s.
  Result<std::unique_ptr<MicroblogEngine>> engine =
      Status::Internal("unreached");
  for (int attempt = 0; attempt < 120; ++attempt) {
    engine = OpenEngine(EngineKind::kRemote, options);
    if (engine.ok() || !engine.status().IsIoError()) break;
    struct timespec ts = {0, 250 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  return engine;
}

/// Differential check: the first `calls` requests of the mix's client-0
/// stream, run through core::Verify on the target engine and on a local
/// single-process nodestore reference. Prints one verdict per call kind
/// and returns the number of divergent calls.
///
/// Mixes with write templates still verify — the reference is opened
/// writable and both engines apply the identical interleaved stream, so
/// every read observes the same committed prefix (the churn agreement
/// property; ids assigned by PostTweet are allocation-order
/// deterministic under the single verify thread). Read results are
/// non-deterministic *across* verify sizes and runs with different
/// streams, not within one.
uint64_t RunVerify(mbq::core::MicroblogEngine& target, const WorkloadMix& mix,
                   const mbq::core::ParamUniverse& universe,
                   const mbq::twitter::Dataset& dataset, uint64_t seed,
                   int calls) {
  using namespace mbq;        // NOLINT(build/namespaces)
  mbq::bench::BenchOptions plain;
  LocalStores stores;
  // The reference applies the mix's writes too (no WAL: it is throwaway).
  auto reference =
      OpenLocalEngine("nodestore", dataset, plain, &stores,
                      mbq::bench::driver::MixHasWrites(mix));
  if (!reference.ok()) {
    std::fprintf(stderr, "mbqbench: reference engine failed: %s\n",
                 reference.status().ToString().c_str());
    return calls;  // all calls unverifiable
  }
  mbq::bench::driver::CallStream stream(mix, universe, seed, /*client=*/0);
  std::vector<core::CallSpec> specs;
  specs.reserve(calls);
  for (int i = 0; i < calls; ++i) specs.push_back(stream.Next().second);
  core::VerifyReport report = core::Verify(**reference, target, specs);
  for (const auto& [kind, tally] : report.kinds) {
    std::printf("verify %-5s %4llu/%llu %s%s", core::CallKindName(kind),
                static_cast<unsigned long long>(tally.agreed),
                static_cast<unsigned long long>(tally.total),
                tally.agreed == tally.total ? "ok" : "DIVERGED",
                core::IsWriteCall(kind) ? " (write)" : "");
    if (tally.errors != 0) {
      std::printf(" (%llu failed alike on both)",
                  static_cast<unsigned long long>(tally.errors));
    }
    std::printf("\n");
  }
  if (!report.ok()) {
    std::fprintf(stderr, "mbqbench: DIVERGED %s\n",
                 core::DivergenceToString(*report.first_divergence).c_str());
  }
  core::VerifyTally total = report.Total();
  return total.total - total.agreed;
}

std::string FormatMicros(double micros) {
  return mbq::bench::FormatMillis(micros / 1000.0);
}

void PrintReport(const Args& args, const DriverReport& report) {
  std::printf("rate %.0f qps (%s, %u clients): achieved %.1f qps over "
              "%.2fs, %llu requests, %llu errors, %llu late\n",
              report.rate_qps,
              mbq::bench::driver::ArrivalName(args.arrival), args.clients,
              report.achieved_qps, report.wall_seconds,
              static_cast<unsigned long long>(report.requests),
              static_cast<unsigned long long>(report.errors),
              static_cast<unsigned long long>(report.late));
  std::vector<int> widths = {22, 10, 7, 7, 10, 10, 10};
  mbq::bench::PrintRow(
      {"template", "requests", "errors", "late", "p50", "p95", "p99"},
      widths);
  mbq::bench::PrintRule(widths);
  for (const TemplateReport& tr : report.templates) {
    mbq::bench::PrintRow(
        {tr.name, mbq::bench::FormatCount(tr.requests),
         mbq::bench::FormatCount(tr.errors), mbq::bench::FormatCount(tr.late),
         FormatMicros(tr.latency_micros.Quantile(0.50)),
         FormatMicros(tr.latency_micros.Quantile(0.95)),
         FormatMicros(tr.latency_micros.Quantile(0.99))},
        widths);
  }
  mbq::bench::PrintRule(widths);
  mbq::bench::PrintRow(
      {"TOTAL", mbq::bench::FormatCount(report.requests),
       mbq::bench::FormatCount(report.errors),
       mbq::bench::FormatCount(report.late),
       FormatMicros(report.latency_micros.Quantile(0.50)),
       FormatMicros(report.latency_micros.Quantile(0.95)),
       FormatMicros(report.latency_micros.Quantile(0.99))},
      widths);
}

void PrintCurve(const std::vector<DriverReport>& reports) {
  std::printf("\nqps vs latency:\n");
  std::vector<int> widths = {10, 12, 10, 10, 10};
  mbq::bench::PrintRow({"target", "achieved", "p50", "p95", "p99"}, widths);
  mbq::bench::PrintRule(widths);
  for (const DriverReport& r : reports) {
    char target[32], achieved[32];
    std::snprintf(target, sizeof(target), "%.0f", r.rate_qps);
    std::snprintf(achieved, sizeof(achieved), "%.1f", r.achieved_qps);
    mbq::bench::PrintRow({target, achieved,
                          FormatMicros(r.latency_micros.Quantile(0.50)),
                          FormatMicros(r.latency_micros.Quantile(0.95)),
                          FormatMicros(r.latency_micros.Quantile(0.99))},
                         widths);
  }
}

}  // namespace

int main(int argc, char** argv) {
  mbq::obs::SetProcessRole("bench");
  mbq::bench::MetricsExportGuard metrics(argc, argv);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  mbq::bench::BenchOptions bench =
      mbq::bench::ParseBenchOptionsOrDie(argc, argv);

  if (args.list_templates) {
    for (const auto& info : mbq::bench::driver::Templates()) {
      std::printf("%-22s %s\n", info.name, info.what);
    }
    return 0;
  }

  Result<WorkloadMix> mix = mbq::Status::Internal("unreached");
  if (!args.mix_file.empty()) {
    std::ifstream in(args.mix_file);
    if (!in) {
      std::fprintf(stderr, "mbqbench: cannot read mix file: %s\n",
                   args.mix_file.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    mix = mbq::bench::driver::ParseMix(buffer.str(), args.mix_file);
  } else {
    mix = mbq::bench::driver::BuiltinSuite(args.suite);
  }
  if (!mix.ok()) {
    std::fprintf(stderr, "mbqbench: %s\n", mix.status().message().c_str());
    return 2;
  }
  if (args.print_mix) {
    std::fputs(mbq::bench::driver::FormatMix(*mix).c_str(), stdout);
    return 0;
  }

  mbq::twitter::DatasetSpec spec;
  spec.num_users = args.users;
  spec.seed = args.seed;
  std::fprintf(stderr, "mbqbench: generating dataset (users=%llu seed=%llu)\n",
               static_cast<unsigned long long>(args.users),
               static_cast<unsigned long long>(args.seed));
  mbq::twitter::Dataset dataset = mbq::twitter::GenerateDataset(spec);
  mbq::core::ParamUniverse universe(dataset);

  bool writes = mbq::bench::driver::MixHasWrites(*mix);
  LocalStores stores;
  Result<std::unique_ptr<mbq::core::MicroblogEngine>> engine =
      mbq::Status::Internal("unreached");
  if (!args.shard_addresses.empty()) {
    if (writes) {
      // kWriteBatch is reserved wire protocol (docs/CLUSTER.md); fail
      // at startup instead of per-request NotImplemented noise.
      std::fprintf(stderr,
                   "mbqbench: mix '%s' has write templates, but cluster "
                   "writes are not implemented — drive a local engine\n",
                   mix->name.c_str());
      return 2;
    }
    engine = DialRemote(args.shard_addresses);
    if (!engine.ok()) {
      std::fprintf(stderr, "mbqbench: cannot reach shards: %s\n",
                   engine.status().ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "mbqbench: driving remote topology (%zu address%s)\n",
                 args.shard_addresses.size(),
                 args.shard_addresses.size() == 1 ? "" : "es");
  } else {
    engine = OpenLocalEngine(args.engine, dataset, bench, &stores, writes,
                             args.wal_dir);
    if (!engine.ok()) {
      std::fprintf(stderr, "mbqbench: engine failed: %s\n",
                   engine.status().ToString().c_str());
      return 2;
    }
    if (writes) {
      std::fprintf(stderr, "mbqbench: live writes enabled (%s)\n",
                   args.wal_dir.empty() ? "no WAL"
                                        : ("wal_dir=" + args.wal_dir).c_str());
    }
  }

  uint64_t verify_failures = 0;
  if (args.verify > 0) {
    verify_failures = RunVerify(**engine, *mix, universe, dataset, args.seed,
                                args.verify);
    if (verify_failures != 0) {
      std::fprintf(stderr, "mbqbench: verify FAILED: %llu divergent calls\n",
                   static_cast<unsigned long long>(verify_failures));
    } else {
      std::fprintf(stderr,
                   "mbqbench: verify OK: target agrees with the local "
                   "nodestore reference on %d calls\n",
                   args.verify);
    }
  }

  DriverMetricsPublisher publisher;
  std::vector<DriverReport> reports;
  for (double rate : args.rates) {
    DriverOptions options;
    options.rate_qps = rate;
    options.clients = args.clients;
    options.duration_seconds = args.duration;
    options.max_requests = args.requests;
    options.arrival = args.arrival;
    options.seed = args.seed;
    Result<DriverReport> report = LoadDriver(engine->get(), *mix, universe,
                                             options)
                                      .Run();
    if (!report.ok()) {
      std::fprintf(stderr, "mbqbench: %s\n",
                   report.status().message().c_str());
      return 2;
    }
    publisher.Publish(*report);
    if (!reports.empty()) std::printf("\n");
    PrintReport(args, *report);
    reports.push_back(std::move(*report));
  }
  if (reports.size() > 1) PrintCurve(reports);
  return verify_failures == 0 ? 0 : 1;
}
