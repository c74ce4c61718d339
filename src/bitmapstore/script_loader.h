#ifndef MBQ_BITMAPSTORE_SCRIPT_LOADER_H_
#define MBQ_BITMAPSTORE_SCRIPT_LOADER_H_

#include <functional>
#include <string>
#include <vector>

#include "bitmapstore/graph.h"
#include "common/import_progress.h"

namespace mbq::bitmapstore {

using common::ImportProgress;
using common::ProgressFn;

/// Executes a Sparksee-style load script: schema definition plus bulk CSV
/// ingestion, the mechanism the paper used ("Sparksee scripts ... define
/// the schema of the database [and] specify the IDs to be indexed and
/// source files for loading data", §3.2.2).
///
/// Grammar (one statement per line; '#' starts a comment):
///
///   CREATE NODE <type>
///   CREATE EDGE <type>
///   ATTRIBUTE <type>.<name> <INT|STRING|DOUBLE|BOOL> <BASIC|INDEXED|UNIQUE>
///   LOAD NODES "<csv>" INTO <type> COLUMNS <col>[, <col>...]
///   LOAD EDGES "<csv>" INTO <type> FROM <ntype>.<attr> TO <ntype>.<attr>
///
/// LOAD NODES maps CSV columns (by header name) onto same-named
/// attributes. LOAD EDGES resolves the first two CSV columns through the
/// given unique attributes to find the endpoints.
class ScriptLoader {
 public:
  explicit ScriptLoader(Graph* graph);

  /// Calls `fn` every `interval` loaded objects (and at phase ends).
  void SetProgressCallback(ProgressFn fn, uint64_t interval);

  /// Installs a verification step that runs after a successful load
  /// (post-flush); a non-OK return fails Execute(). Wire it to
  /// core::CheckBitmapstore for a loaded-data fsck — the loader cannot
  /// depend on the checker directly, so the caller supplies it.
  void SetPostImportCheck(std::function<Status()> check) {
    post_import_check_ = std::move(check);
  }

  /// Runs the script. Relative CSV paths resolve under `base_dir`.
  Status Execute(const std::string& script_text, const std::string& base_dir);

  uint64_t nodes_loaded() const { return nodes_loaded_; }
  uint64_t edges_loaded() const { return edges_loaded_; }

 private:
  Status ExecuteStatement(const std::vector<std::string>& tokens,
                          const std::string& base_dir);
  Status LoadNodes(const std::vector<std::string>& tokens,
                   const std::string& base_dir);
  Status LoadEdges(const std::vector<std::string>& tokens,
                   const std::string& base_dir);
  Result<std::pair<TypeId, AttrId>> ResolveTypedAttribute(
      const std::string& dotted) const;
  void ReportProgress(const std::string& phase, uint64_t phase_objects,
                      bool force);
  Result<Value> ParseTypedValue(const std::string& text,
                                ValueType dtype) const;

  Graph* graph_;
  ProgressFn progress_;
  std::function<Status()> post_import_check_;
  uint64_t progress_interval_ = 100000;
  uint64_t nodes_loaded_ = 0;
  uint64_t edges_loaded_ = 0;
  uint64_t total_objects_ = 0;
  uint64_t last_report_ = 0;
  double wall_start_millis_ = 0;
  uint64_t io_start_nanos_ = 0;
};

}  // namespace mbq::bitmapstore

#endif  // MBQ_BITMAPSTORE_SCRIPT_LOADER_H_
