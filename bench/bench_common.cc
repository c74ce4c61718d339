#include "bench/bench_common.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "exec/thread_pool.h"
#include "obs/httpd.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace mbq::bench {

uint64_t BenchUsers(uint64_t fallback) {
  const char* env = std::getenv("MBQ_BENCH_USERS");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v >= 100) return v;
  }
  return fallback;
}

uint32_t BenchRuns() {
  const char* env = std::getenv("MBQ_BENCH_RUNS");
  if (env != nullptr) {
    uint32_t v = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
    if (v >= 1) return v;
  }
  return 10;  // the paper's protocol
}

twitter::DatasetSpec BenchSpec(uint64_t num_users) {
  twitter::DatasetSpec spec;  // defaults mirror the paper's ratios
  spec.num_users = num_users;
  spec.seed = 2015;  // GRADES'15
  return spec;
}

Testbed BuildTestbed(uint64_t num_users) {
  Testbed bed;
  bed.dataset = twitter::GenerateDataset(BenchSpec(num_users));

  nodestore::GraphDbOptions ndb_options;
  ndb_options.cache_bytes = 256ull << 20;
  bed.db = std::make_unique<nodestore::GraphDb>(ndb_options);
  auto nh = twitter::LoadIntoNodestore(bed.dataset, bed.db.get());
  MBQ_CHECK(nh.ok());
  bed.ndb_handles = *nh;

  bitmapstore::GraphOptions bg_options;
  bg_options.cache_bytes = 256ull << 20;
  bed.graph = std::make_unique<bitmapstore::Graph>(bg_options);
  auto bh = twitter::LoadIntoBitmapstore(bed.dataset, bed.graph.get());
  MBQ_CHECK(bh.ok());
  bed.bm_handles = *bh;

  core::EngineOptions ns_options;
  ns_options.db = bed.db.get();
  auto ns = core::OpenEngine(core::EngineKind::kNodestore, ns_options);
  MBQ_CHECK(ns.ok());
  bed.nodestore_engine = std::move(*ns);

  core::EngineOptions bm_options;
  bm_options.graph = bed.graph.get();
  bm_options.handles = &bed.bm_handles;
  auto bm = core::OpenEngine(core::EngineKind::kBitmap, bm_options);
  MBQ_CHECK(bm.ok());
  bed.bitmap_engine = std::move(*bm);
  return bed;
}

uint32_t BenchThreads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      value = argv[i] + 10;
    }
    if (value != nullptr) {
      uint32_t v = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
      if (v >= 1 && v <= 256) return v;
      std::fprintf(stderr, "ignoring bad --threads value: %s\n", value);
    }
  }
  const char* env = std::getenv("CYPHER_THREADS");
  if (env != nullptr) {
    uint32_t v = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
    if (v >= 1 && v <= 256) return v;
  }
  return 1;
}

void ApplyThreads(Testbed& bed, uint32_t threads) {
  if (threads < 1) threads = 1;
  bed.nodestore_engine->SetThreads(threads);
  bed.bitmap_engine->SetThreads(threads);
}

namespace {

bool IsOnOff(const char* value) {
  return std::strcmp(value, "on") == 0 || std::strcmp(value, "1") == 0 ||
         std::strcmp(value, "true") == 0 || std::strcmp(value, "off") == 0 ||
         std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0;
}

/// on/off/1/0/true/false; anything else keeps `fallback` and warns.
bool ParseOnOff(const char* flag, const char* value, bool fallback) {
  if (std::strcmp(value, "on") == 0 || std::strcmp(value, "1") == 0 ||
      std::strcmp(value, "true") == 0) {
    return true;
  }
  if (std::strcmp(value, "off") == 0 || std::strcmp(value, "0") == 0 ||
      std::strcmp(value, "false") == 0) {
    return false;
  }
  std::fprintf(stderr, "ignoring bad %s value: %s\n", flag, value);
  return fallback;
}

/// Extracts the value of `--flag V` / `--flag=V` from argv, else null.
const char* FlagValue(int argc, char** argv, const char* flag) {
  size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

}  // namespace

namespace {

void MarkBad(BenchOptions* options, const char* flag, const char* value,
             const char* expected) {
  if (options->ok) {
    options->ok = false;
    options->error = std::string("bad ") + flag + " value '" + value +
                     "' (expected " + expected + ")";
  }
}

}  // namespace

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  options.threads = BenchThreads(argc, argv);
  // BenchThreads already fell back past a bad value; re-check it here so
  // strict callers can reject instead.
  if (const char* v = FlagValue(argc, argv, "--threads")) {
    char* end = nullptr;
    unsigned long t = std::strtoul(v, &end, 10);
    if (end == v || *end != '\0' || t < 1 || t > 256) {
      MarkBad(&options, "--threads", v, "an integer in [1, 256]");
      // BenchThreads may have accepted a numeric prefix ("4x" -> 4);
      // malformed values must leave the field at its default.
      options.threads = 1;
    }
  }
  if (const char* v = FlagValue(argc, argv, "--result-cache")) {
    if (!IsOnOff(v)) {
      MarkBad(&options, "--result-cache", v, "on|off");
    }
    options.result_cache = ParseOnOff("--result-cache", v, false);
  }
  if (const char* v = FlagValue(argc, argv, "--adj-cache")) {
    if (!IsOnOff(v)) {
      MarkBad(&options, "--adj-cache", v, "on|off");
    }
    options.adj_cache = ParseOnOff("--adj-cache", v, false);
  }
  return options;
}

BenchOptions ParseBenchOptionsOrDie(int argc, char** argv) {
  BenchOptions options = ParseBenchOptions(argc, argv);
  ServeFlag serve = ParseServeFlag(argc, argv);
  if (!serve.ok && options.ok) {
    options.ok = false;
    options.error = serve.error;
  }
  if (!options.ok) {
    std::fprintf(stderr,
                 "%s: %s\nusage: [--threads N] [--result-cache on|off] "
                 "[--adj-cache on|off] [--serve[=PORT]] "
                 "[--metrics-out FILE]\n",
                 argc > 0 ? argv[0] : "bench", options.error.c_str());
    std::exit(2);
  }
  return options;
}

ServeFlag ParseServeFlag(int argc, char** argv) {
  ServeFlag flag;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      flag.serve = true;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      const char* value = argv[i] + 8;
      char* end = nullptr;
      unsigned long v = std::strtoul(value, &end, 10);
      if (end == value || *end != '\0' || v > 65535) {
        flag.ok = false;
        flag.error = std::string("bad --serve value '") + value +
                     "' (expected a port in [0, 65535])";
      } else {
        flag.serve = true;
        flag.port = static_cast<uint16_t>(v);
      }
    }
  }
  return flag;
}

void ApplyBenchOptions(Testbed& bed, const BenchOptions& options) {
  ApplyThreads(bed, options.threads);
  cypher::SessionOptions session;
  session.threads = 0;  // keep what ApplyThreads just set
  session.result_cache = options.result_cache;
  session.result_cache_capacity = options.result_cache_capacity;
  session.adjacency_cache = options.adj_cache;
  session.adjacency_cache_capacity = options.adj_cache_capacity;
  bed.nodestore()->Configure(session);
  bed.bitmap()->EnableAdjacencyCache(
      options.adj_cache ? options.adj_cache_capacity : 0, /*min_degree=*/8);
}

MetricsExportGuard::MetricsExportGuard(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      path_ = argv[i + 1];
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      path_ = argv[i] + 14;
    }
  }
  ServeFlag serve_flag = ParseServeFlag(argc, argv);
  if (!serve_flag.ok) {
    std::fprintf(stderr, "%s\n", serve_flag.error.c_str());
    std::exit(2);
  }
  bool serve = serve_flag.serve;
  uint16_t serve_port = serve_flag.port;
  if (serve) {
    obs::ServeOptions options;
    options.port = serve_port;
    auto server = obs::StatsServer::Start(options);
    if (!server.ok()) {
      std::fprintf(stderr, "stats server failed to start: %s\n",
                   server.status().message().c_str());
    } else {
      server_ = std::move(server).value();
      linger_ = true;
      std::fprintf(stderr, "stats server listening on http://%s:%u/\n",
                   server_->bind_address().c_str(),
                   static_cast<unsigned>(server_->port()));
    }
  } else {
    server_ = obs::MaybeServeFromEnv();
  }
}

uint16_t MetricsExportGuard::serve_port() const {
  return server_ != nullptr ? server_->port() : 0;
}

MetricsExportGuard::~MetricsExportGuard() {
  if (!path_.empty()) {
    // Workers may still be folding their per-thread counters into the
    // registry; snapshotting before they finish loses the tail of the
    // last parallel query. Join in-flight pool work first.
    exec::ThreadPool::Default().Drain();
    std::ofstream out(path_);
    if (out) {
      out << obs::MetricsRegistry::Default().Snapshot().ToJson();
      std::fprintf(stderr, "metrics written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "could not open metrics output file: %s\n",
                   path_.c_str());
    }
  }
  if (linger_ && server_ != nullptr) {
    // --serve keeps the finished bench scrapeable: the results above are
    // printed, the server stays up, and the process waits to be killed.
    std::fprintf(stderr,
                 "workload done; stats server still on http://%s:%u/ "
                 "(kill the process to exit)\n",
                 server_->bind_address().c_str(),
                 static_cast<unsigned>(server_->port()));
    for (;;) pause();
  }
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  std::string line = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    int width = i < widths.size() ? widths[i] : 12;
    char buf[256];
    std::snprintf(buf, sizeof(buf), " %-*s |", width, cells[i].c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

void PrintRule(const std::vector<int>& widths) {
  std::string line = "|";
  for (int width : widths) {
    line += std::string(static_cast<size_t>(width) + 2, '-') + "|";
  }
  std::printf("%s\n", line.c_str());
}

std::string FormatMillis(double millis) {
  char buf[64];
  if (millis < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", millis);
  } else if (millis < 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", millis);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", millis / 1000.0);
  }
  return buf;
}

std::string FormatCount(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int c = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (c != 0 && c % 3 == 0) out += ',';
    out += *it;
    ++c;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  }
  return buf;
}

}  // namespace mbq::bench
