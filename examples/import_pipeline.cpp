// End-to-end batch import pipeline, the workflow of the paper's §3.2:
// generate a crawl, export it to CSV (the "same source files" both
// systems consume), bulk-load each engine with its native mechanism —
// the record store's import tool and the bitmap store's load script —
// and compare totals, store sizes and cache behaviour.

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "bitmapstore/script_loader.h"
#include "nodestore/batch_importer.h"
#include "twitter/csv_export.h"
#include "twitter/loaders.h"

int main() {
  mbq::twitter::DatasetSpec spec;
  spec.num_users = 3000;
  spec.seed = 5;
  auto dataset = mbq::twitter::GenerateDataset(spec);

  auto dir = std::filesystem::temp_directory_path() /
             ("mbq_example_import_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  if (!mbq::twitter::ExportCsv(dataset, dir.string()).ok()) {
    std::printf("CSV export failed\n");
    return 1;
  }
  std::printf("exported %llu nodes / %llu edges as CSV to %s\n\n",
              static_cast<unsigned long long>(dataset.NumNodes()),
              static_cast<unsigned long long>(dataset.NumEdges()),
              dir.c_str());

  // Record store: import tool (no transactions, concurrent page writes,
  // indexes built afterwards).
  mbq::nodestore::GraphDb db;
  mbq::nodestore::BatchImporter importer(&db);
  importer.SetProgressCallback(
      [](const mbq::common::ImportProgress& p) {
        std::printf("  [nodestore] %-16s %8llu objects  %10.1f ms\n",
                    p.phase.c_str(),
                    static_cast<unsigned long long>(p.total_objects),
                    p.elapsed_millis);
      },
      20000);
  auto spec_files = mbq::twitter::BuildImportSpec(/*with_retweets=*/true);
  if (!importer.Run(spec_files, dir.string()).ok()) {
    std::printf("nodestore import failed\n");
    return 1;
  }
  std::printf("nodestore: %llu nodes, %llu rels, %.1f MiB on disk\n\n",
              static_cast<unsigned long long>(db.NumNodes()),
              static_cast<unsigned long long>(db.NumRels()),
              static_cast<double>(db.DiskSizeBytes()) / (1 << 20));

  // Bitmap store: load script.
  mbq::bitmapstore::Graph graph;
  mbq::bitmapstore::ScriptLoader loader(&graph);
  loader.SetProgressCallback(
      [](const mbq::common::ImportProgress& p) {
        std::printf("  [bitmap]    %-16s %8llu objects  %10.1f ms\n",
                    p.phase.c_str(),
                    static_cast<unsigned long long>(p.total_objects),
                    p.elapsed_millis);
      },
      20000);
  std::string script = mbq::twitter::BuildLoadScript(/*with_retweets=*/true);
  if (!loader.Execute(script, dir.string()).ok()) {
    std::printf("bitmap import failed\n");
    return 1;
  }
  std::printf("bitmapstore: %llu nodes, %llu edges, %.1f MiB on disk, "
              "%llu cache flush stalls\n",
              static_cast<unsigned long long>(graph.NumNodes()),
              static_cast<unsigned long long>(graph.NumEdges()),
              static_cast<double>(graph.DiskSizeBytes()) / (1 << 20),
              static_cast<unsigned long long>(
                  graph.cache_stats().flush_stalls));

  std::filesystem::remove_all(dir);
  return 0;
}
