#ifndef MBQ_CORE_CHECK_H_
#define MBQ_CORE_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bitmapstore/graph.h"
#include "core/engine.h"
#include "nodestore/graph_db.h"
#include "twitter/dataset.h"
#include "util/result.h"

namespace mbq::core {

/// One invariant violation found by the storage checker.
struct CheckIssue {
  /// Which invariant broke: "node-record", "rel-record", "rel-chain",
  /// "label-scan", "prop-index", "type-count", "adjacency", "attr-index",
  /// or a write-path invariant: "wal-record", "wal-tail", "delta-tid",
  /// "delta-counters", "delta-visibility".
  std::string component;
  std::string message;
};

struct CheckOptions {
  /// Issues materialized in the report; further findings only increment
  /// `suppressed` (the walk itself always completes).
  size_t max_issues = 64;
};

/// The fsck result: findings plus coverage counters. `ok()` is the
/// checkdb exit criterion — zero on a clean store, non-zero otherwise.
struct CheckReport {
  std::vector<CheckIssue> issues;
  uint64_t suppressed = 0;  // found beyond max_issues
  uint64_t nodes_checked = 0;
  uint64_t rels_checked = 0;
  uint64_t labels_checked = 0;
  uint64_t indexes_checked = 0;
  uint64_t objects_checked = 0;
  uint64_t attrs_checked = 0;
  uint64_t delta_ops_checked = 0;  // write-path: committed ops replayed
  uint64_t wal_records_checked = 0;  // write-path: decoded WAL records

  bool ok() const { return issues.empty() && suppressed == 0; }
  /// Human-readable summary: one line per issue plus a coverage footer.
  std::string ToText() const;
};

/// Walks the record-store engine: relationship-chain doubly-linked
/// consistency (every in-use relationship reachable exactly once from
/// each endpoint's chain; prev/next pointers mutually consistent in the
/// unpartitioned layout), record-pointer bounds, and label-scan/property-
/// index completeness against a full node scan. Reports `check.*`
/// metrics; the returned status is only non-OK for I/O failures —
/// corruption lands in the report.
Result<CheckReport> CheckNodestore(nodestore::GraphDb* db,
                                   const CheckOptions& options = {});

/// Walks the bitmap engine: per-type bitmap cardinality vs. the cached
/// object count, object-table type agreement, mutual src/dst adjacency
/// agreement (every edge present in its tail's outgoing and head's
/// incoming bitmaps, and nothing else), and indexed-attribute value-set
/// counts vs. their bitmaps.
Result<CheckReport> CheckBitmapstore(bitmapstore::Graph* graph,
                                     const CheckOptions& options = {});

/// Validates the live write path of a writable engine (docs/WRITES.md)
/// against its WAL, the one record of committed writes. The log at
/// `wal()->path()` is decoded independently — never truncated; a torn or
/// garbage tail is *reported*, where replay-on-open would silently repair
/// it — and its ops must satisfy:
///
///  - fresh tweet ids stay above the bulk-loaded id space and are never
///    reassigned;
///  - the writer's commit counters (batches, ops, tombstones, last WAL
///    sequence) equal what the log holds;
///  - delta-over-base visibility: every follows pair the log touched
///    reads back through the engine exactly as replaying the log over
///    the base crawl predicts (followed pairs visible, tombstoned pairs
///    gone).
///
/// Fails with InvalidArgument when `engine` has no write surface or
/// runs without a WAL.
Result<CheckReport> CheckWritePath(MicroblogEngine& engine,
                                   const twitter::Dataset& base,
                                   const CheckOptions& options = {});

}  // namespace mbq::core

#endif  // MBQ_CORE_CHECK_H_
