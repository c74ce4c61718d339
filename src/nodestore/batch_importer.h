#ifndef MBQ_NODESTORE_BATCH_IMPORTER_H_
#define MBQ_NODESTORE_BATCH_IMPORTER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/import_progress.h"
#include "common/value.h"
#include "nodestore/graph_db.h"

namespace mbq::nodestore {

using common::ImportProgress;
using common::ProgressFn;

/// What to import: CSV node files then CSV relationship files, in order —
/// the shape of Neo4j's `neo4j-import` invocation the paper used.
struct ImportSpec {
  struct NodeFile {
    std::string path;
    std::string label;
    /// CSV columns to ingest as properties (by header name). The first
    /// listed column is the node's key used to resolve relationship
    /// endpoints.
    std::vector<std::string> properties;
  };
  struct RelFile {
    std::string path;
    std::string type;
    /// Labels whose key column resolves the endpoints (first CSV column =
    /// source key, second = target key).
    std::string src_label;
    std::string dst_label;
  };
  std::vector<NodeFile> nodes;
  std::vector<RelFile> rels;
  /// Indexes to build after the data is loaded (the import tool "cannot
  /// create indexes while importing takes place").
  struct IndexSpec {
    std::string label;
    std::string property;
    bool unique = true;
  };
  std::vector<IndexSpec> indexes;
};

/// Bulk loader mirroring the Neo4j import tool's phases: stream node
/// files (writing continuously through the page cache), stream
/// relationship files, run the "additional steps" (dense-node
/// computation), then build indexes. Progress callbacks expose the
/// per-chunk timing series plotted in the paper's Figure 2.
///
/// The target database should be configured with `write_through = true`
/// for a faithful import-tool setup.
class BatchImporter {
 public:
  explicit BatchImporter(GraphDb* db);

  /// Calls `fn` every `interval` imported entities and at phase ends.
  void SetProgressCallback(ProgressFn fn, uint64_t interval);

  /// Installs a verification step that runs after a successful import
  /// (post-flush); a non-OK return fails Run(). Wire it to
  /// core::CheckNodestore for an imported-data fsck — the importer
  /// cannot depend on the checker directly, so the caller supplies it.
  void SetPostImportCheck(std::function<Status()> check) {
    post_import_check_ = std::move(check);
  }

  /// Runs the import. Relative CSV paths resolve under `base_dir`.
  Status Run(const ImportSpec& spec, const std::string& base_dir);

  uint64_t nodes_imported() const { return nodes_imported_; }
  uint64_t rels_imported() const { return rels_imported_; }
  uint64_t dense_nodes() const { return dense_nodes_; }

 private:
  Status ImportNodeFile(const ImportSpec::NodeFile& file,
                        const std::string& base_dir);
  Status ImportRelFile(const ImportSpec::RelFile& file,
                       const std::string& base_dir);
  void Report(const std::string& phase, uint64_t phase_objects, bool force);

  GraphDb* db_;
  ProgressFn progress_;
  std::function<Status()> post_import_check_;
  uint64_t progress_interval_ = 100000;
  uint64_t nodes_imported_ = 0;
  uint64_t rels_imported_ = 0;
  uint64_t dense_nodes_ = 0;
  uint64_t total_objects_ = 0;
  uint64_t last_report_ = 0;
  double wall_start_millis_ = 0;
  uint64_t io_start_nanos_ = 0;
  /// Per-label key -> node id mapper (the import tool's id mapper).
  std::unordered_map<std::string,
                     std::unordered_map<std::string, NodeId>>
      id_mapper_;
};

}  // namespace mbq::nodestore

#endif  // MBQ_NODESTORE_BATCH_IMPORTER_H_
