// Reproduces Figure 2 of the paper: import times for nodes and edges
// using the record-store (Neo4j-style) engine's batch importer, plus the
// narrative around it — the import tool writes continuously and
// concurrently to disk, runs "additional steps" (dense-node computation)
// after the data, and builds indexes strictly after import.
//
// Output: one progress sample per chunk (objects imported, elapsed time,
// per-chunk delta), separated into the node phase (Figure 2a) and the
// edge phase (Figure 2b), then the post-processing phases and totals.

#include <cstdio>
#include <filesystem>

#include "bench/bench_common.h"
#include "nodestore/batch_importer.h"
#include "twitter/csv_export.h"
#include "util/logging.h"

namespace mbq::bench {
namespace {

void Run() {
  uint64_t users = BenchUsers();
  twitter::DatasetSpec spec = BenchSpec(users);
  spec.retweet_fraction = 0;  // paper parity
  twitter::Dataset dataset = twitter::GenerateDataset(spec);

  auto dir = std::filesystem::temp_directory_path() /
             ("mbq_fig2_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  MBQ_CHECK(twitter::ExportCsv(dataset, dir.string()).ok());

  nodestore::GraphDbOptions options;
  // The paper's testbed had more RAM (8 GB) than the final Neo4j store
  // (2.8 GB); the import tool "effectively manages memory without
  // explicit configuration". Keep the same cache-exceeds-store regime
  // at our scale: pages stream out on flush, not under thrash.
  options.cache_bytes = (64ull << 20) + (static_cast<uint64_t>(users) << 12);
  // HDD-like latency model (the paper's non-SSD testbed).
  nodestore::GraphDb db(options);

  nodestore::BatchImporter importer(&db);
  uint64_t interval = std::max<uint64_t>(1000, dataset.NumNodes() / 25);

  struct Sample {
    std::string phase;
    uint64_t total;
    double elapsed;
    double delta = 0;
  };
  std::vector<Sample> samples;
  importer.SetProgressCallback(
      [&](const common::ImportProgress& p) {
        Sample s{p.phase, p.total_objects, p.elapsed_millis, 0};
        s.delta = samples.empty() ? s.elapsed
                                  : s.elapsed - samples.back().elapsed;
        samples.push_back(std::move(s));
      },
      interval);

  std::printf("Figure 2: importing %s nodes + %s edges (nodestore)\n\n",
              FormatCount(dataset.NumNodes()).c_str(),
              FormatCount(dataset.NumEdges()).c_str());
  Status st = importer.Run(twitter::BuildImportSpec(/*with_retweets=*/false),
                           dir.string());
  MBQ_CHECK(st.ok());
  std::filesystem::remove_all(dir);

  std::vector<int> widths{16, 14, 14, 12};
  auto print_phase = [&](const char* title, const char* prefix) {
    std::printf("%s\n", title);
    PrintRow({"phase", "objects", "elapsed", "delta"}, widths);
    PrintRule(widths);
    for (const Sample& s : samples) {
      if (s.phase.rfind(prefix, 0) != 0) continue;
      PrintRow({s.phase, FormatCount(s.total), FormatMillis(s.elapsed),
                FormatMillis(s.delta)},
               widths);
    }
    std::printf("\n");
  };
  print_phase("(a) node import", "nodes:");
  print_phase("(b) edge import", "rels:");
  print_phase("post-import steps (dense nodes, indexes)", "dense");
  print_phase("", "index:");

  double total = samples.empty() ? 0 : samples.back().elapsed;
  std::printf("Totals:\n");
  std::printf("  dense nodes marked : %s\n",
              FormatCount(importer.dense_nodes()).c_str());
  std::printf("  total import time  : %s (paper: 45 min at 1300x scale)\n",
              FormatMillis(total).c_str());
  std::printf("  store size on disk : %s (paper: 2.8 GB)\n",
              FormatBytes(db.DiskSizeBytes()).c_str());
  std::printf("  disk page writes   : %s\n",
              FormatCount(db.disk_stats().page_writes).c_str());
  std::printf("  disk seeks         : %s\n",
              FormatCount(db.disk_stats().seeks).c_str());
}

}  // namespace
}  // namespace mbq::bench

int main(int argc, char** argv) {
  mbq::bench::MetricsExportGuard metrics(argc, argv);
  mbq::bench::Run();
  return 0;
}
