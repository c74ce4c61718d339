#ifndef MBQ_CYPHER_RUNTIME_H_
#define MBQ_CYPHER_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "cypher/ast.h"
#include "nodestore/graph_db.h"

namespace mbq::exec {
class ThreadPool;
}  // namespace mbq::exec

namespace mbq::cache {
class AdjacencyCache;
}  // namespace mbq::cache

namespace mbq::store {
class WriteBatch;
}  // namespace mbq::store

namespace mbq::cypher {

using common::Value;
using nodestore::GraphDb;
using nodestore::NodeId;
using nodestore::RelId;

/// A runtime value flowing through query execution: a plain Value, a node
/// reference, a relationship reference, or a path.
struct RtValue {
  enum class Kind : uint8_t { kNull, kValue, kNode, kRel, kPath };

  Kind kind = Kind::kNull;
  Value value;
  NodeId node = nodestore::kInvalidNode;
  RelId rel = nodestore::kInvalidRel;
  std::vector<NodeId> path;

  static RtValue Null() { return RtValue(); }
  static RtValue FromValue(Value v) {
    RtValue r;
    r.kind = v.is_null() ? Kind::kNull : Kind::kValue;
    r.value = std::move(v);
    return r;
  }
  static RtValue FromNode(NodeId id) {
    RtValue r;
    r.kind = Kind::kNode;
    r.node = id;
    return r;
  }
  static RtValue FromRel(RelId id) {
    RtValue r;
    r.kind = Kind::kRel;
    r.rel = id;
    return r;
  }
  static RtValue FromPath(std::vector<NodeId> nodes) {
    RtValue r;
    r.kind = Kind::kPath;
    r.path = std::move(nodes);
    return r;
  }

  bool is_null() const { return kind == Kind::kNull; }

  bool Equals(const RtValue& other) const;
  /// Total order for ORDER BY / DISTINCT: null < value < node < rel < path.
  int Compare(const RtValue& other) const;
  size_t Hash() const;
  std::string ToString() const;
};

/// One result row; slots are assigned by the planner.
using Row = std::vector<RtValue>;

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const RtValue& v : row) h = h * 1315423911u + v.Hash();
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
};

/// Query parameters by name.
using Params = std::unordered_map<std::string, Value>;

/// Shared state for one query execution.
struct ExecContext {
  GraphDb* db = nullptr;
  const Params* params = nullptr;
  /// Set by Apply while driving its right side: scans start from this row
  /// instead of an empty one, so already-bound slots carry across.
  const Row* outer_row = nullptr;
  /// Morsel-parallel execution: with `threads > 1` and a pool, eligible
  /// aggregation pipelines fan their input out across worker threads.
  /// Worker pipelines run with a thread-local copy where pool is null and
  /// threads is 1 (no nested parallelism).
  exec::ThreadPool* pool = nullptr;
  uint32_t threads = 1;
  /// Db hits charged by worker threads (the session adds them to the
  /// caller thread's own tally for QueryResult::db_hits). May be null.
  std::atomic<uint64_t>* side_hits = nullptr;
  /// Hot adjacency cache consulted by Expand; null disables it. Shared by
  /// all worker pipelines of a query (internally sharded and locked), and
  /// propagated to workers by the context copy in parallel.cc.
  cache::AdjacencyCache* adj_cache = nullptr;
  /// Where a write query's root operator (write_ops.h) appends the ops it
  /// lowers; the session commits them once the tree has run. Null for
  /// reads.
  store::WriteBatch* writes = nullptr;
};

/// Variable -> slot assignment produced by the planner.
using SlotMap = std::unordered_map<std::string, uint32_t>;

/// Evaluates a non-aggregate expression against a row. Pattern predicates
/// probe the store (and therefore cost db hits, as in Cypher).
Result<RtValue> EvalExpr(const Expr& expr, const Row& row,
                         const SlotMap& slots, ExecContext* ctx);

/// Evaluates an expression expected to be a boolean predicate.
Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           const SlotMap& slots, ExecContext* ctx);

}  // namespace mbq::cypher

#endif  // MBQ_CYPHER_RUNTIME_H_
