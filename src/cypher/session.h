#ifndef MBQ_CYPHER_SESSION_H_
#define MBQ_CYPHER_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/adjacency_cache.h"
#include "cache/result_cache.h"
#include "cypher/diag.h"
#include "cypher/planner.h"
#include "cypher/runtime.h"
#include "store/delta/snapshot.h"
#include "store/delta/write_batch.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace mbq::exec {
class ThreadPool;
}  // namespace mbq::exec

namespace mbq::cypher {

/// A finished query's output plus its profile.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  /// Record accesses charged to this execution (PROFILE's db hits).
  uint64_t db_hits = 0;
  /// True if the plan came from the plan cache (no re-compilation).
  bool plan_cached = false;
  /// True if the rows came from the result cache (no re-execution).
  bool result_cached = false;
  /// Indented plan tree with per-operator rows and db hits (for EXPLAIN,
  /// the shape only — the query never executed). With the result cache
  /// enabled the first line is `cache=hit` or `cache=miss`.
  std::string profile;
  /// True when the query carried a PROFILE prefix.
  bool profiled = false;
  /// True when the query carried an EXPLAIN prefix: the plan was compiled
  /// but not executed, so `rows` is empty and `db_hits` is 0.
  bool explain_only = false;
  /// True when the query carried a LINT prefix: the query was parsed and
  /// semantically analyzed but never planned or executed; `rows` holds
  /// one (severity, rule, at, message) row per diagnostic and `profile`
  /// the rendered diagnostic lines.
  bool lint_only = false;
};

/// Everything a session can be tuned with, in one struct — threads (what
/// SetThreads configured), the plan cache, and the two read caches. Apply
/// with CypherSession::Configure before issuing concurrent queries.
struct SessionOptions {
  /// Worker count for eligible pipelines; 0 keeps the session's current
  /// setting (the CYPHER_THREADS default), 1 is fully sequential.
  uint32_t threads = 0;
  /// Borrowed pool for parallel execution; null uses the process default.
  exec::ThreadPool* pool = nullptr;
  /// Plan cache (compiled operator trees keyed by query text).
  bool plan_cache = true;
  /// Result cache: canonicalized query text + parameters -> rows, served
  /// without re-execution until a write bumps an epoch in the plan's
  /// footprint.
  bool result_cache = false;
  size_t result_cache_capacity = 256;  // entries
  /// Hot adjacency cache consulted by the Expand operator.
  bool adjacency_cache = false;
  size_t adjacency_cache_capacity = 4096;  // entries
  /// Neighbor lists shorter than this are not cached (hub-only caching).
  uint64_t adjacency_min_degree = 8;
  /// Strict mode: refuse to plan/execute queries carrying semantic
  /// diagnostics at or above this severity (kError rejects mistyped
  /// labels and undefined variables; kOff, the default, only reports).
  /// LINT and EXPLAIN always run regardless of this setting.
  LintLevel lint_level = LintLevel::kOff;
  /// Executions taking at least this many milliseconds are captured by
  /// the slow-query flight recorder (obs::FlightRecorder::Global(),
  /// served at /slow and shell :slow). 0 captures every query; -1 (the
  /// default) keeps the session's current threshold — the
  /// MBQ_SLOW_QUERY_MILLIS environment variable when set, else 50 ms.
  int64_t slow_query_millis = -1;
};

/// The declarative query interface over the record-store engine: parse ->
/// plan -> execute, with a plan cache keyed by query text. Parameterized
/// queries ($param) reuse cached plans across executions — the speedup
/// the paper attributes to "specifying parameters, because it allows
/// Cypher to cache the execution plans".
/// Thread-safety: Run/Prepare may be called from concurrent threads over
/// the same session. The plan cache is mutex-guarded and single-flight
/// (two threads racing on the same uncached query text compile it once);
/// cached plan trees are immutable — every execution clones the operator
/// tree, so concurrent runs of one plan never share runtime state. The
/// result and adjacency caches are internally sharded and locked;
/// Configure itself must not race concurrent queries.
class CypherSession {
 public:
  explicit CypherSession(GraphDb* db);

  CypherSession(const CypherSession&) = delete;
  CypherSession& operator=(const CypherSession&) = delete;

  /// Parses (or fetches from cache), plans and runs `query`. A leading
  /// `PROFILE` keyword marks the result profiled (the operator tree with
  /// per-operator rows and db hits, Neo4j's PROFILE verb); a leading
  /// `EXPLAIN` compiles and returns the plan shape without executing.
  /// With the result cache enabled, a repeated (query, params) pair whose
  /// epoch stamp is still valid returns the memoized rows with zero db
  /// hits and `result_cached` set.
  Result<QueryResult> Run(const std::string& query, const Params& params);
  Result<QueryResult> Run(const std::string& query) {
    return Run(query, Params{});
  }

  /// Compiles without executing; useful for EXPLAIN-style tests. Never
  /// enforces the lint level (the compiled plan carries its diagnostics
  /// for inspection instead).
  Result<const PlannedQuery*> Prepare(const std::string& query);

  /// Parses and semantically analyzes `query` (no LINT prefix) without
  /// planning, executing, touching the result cache, or bumping the
  /// cypher.query.* metrics. Parse failures come back as a single
  /// error-level `parse-error` diagnostic rather than a failed status.
  Result<QueryResult> Lint(const std::string& query);

  /// Strict-mode threshold; SessionOptions::lint_level sets it too.
  void SetLintLevel(LintLevel level) {
    util::ScopedLock lock(mu_);
    lint_level_ = level;
  }
  LintLevel lint_level() const {
    util::ScopedLock lock(mu_);
    return lint_level_;
  }

  /// Applies the whole option surface at once (threads, plan cache,
  /// result cache, adjacency cache). Re-enabling a cache with a new
  /// capacity replaces it empty; disabling destroys it.
  void Configure(const SessionOptions& options);

  /// Enables/disables the plan cache (the cold-cache ablation measures
  /// the recompilation cost the paper mentions).
  void SetPlanCacheEnabled(bool enabled) {
    util::ScopedLock lock(mu_);
    plan_cache_enabled_ = enabled;
  }

  /// Worker count for eligible pipelines; 1 (the default when the
  /// CYPHER_THREADS environment variable is unset) executes everything
  /// sequentially. `pool` is borrowed and must outlive the session; null
  /// uses the process-wide exec::ThreadPool::Default().
  void SetThreads(uint32_t threads, exec::ThreadPool* pool = nullptr);
  uint32_t threads() const {
    return threads_.load(std::memory_order_relaxed);
  }

  /// Slow-query capture threshold (milliseconds, inclusive); 0 captures
  /// everything. The constructor seeds it from MBQ_SLOW_QUERY_MILLIS.
  void SetSlowQueryMillis(uint64_t millis) {
    slow_query_millis_.store(millis, std::memory_order_relaxed);
  }
  uint64_t slow_query_millis() const {
    return slow_query_millis_.load(std::memory_order_relaxed);
  }

  uint64_t plan_cache_hits() const {
    return plan_cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t plan_cache_misses() const {
    return plan_cache_misses_.load(std::memory_order_relaxed);
  }
  void ClearPlanCache() {
    util::ScopedLock lock(mu_);
    plan_cache_.clear();
  }

  bool result_cache_enabled() const { return result_cache_ != nullptr; }
  bool adjacency_cache_enabled() const { return adj_cache_ != nullptr; }
  /// Zeroed stats when the corresponding cache is disabled.
  cache::CacheStats result_cache_stats() const {
    return result_cache_ != nullptr ? result_cache_->stats()
                                    : cache::CacheStats{};
  }
  cache::CacheStats adjacency_cache_stats() const {
    return adj_cache_ != nullptr ? adj_cache_->stats() : cache::CacheStats{};
  }
  /// Empties the result and adjacency caches (entries, not configuration).
  void ClearReadCaches() {
    if (result_cache_ != nullptr) result_cache_->Clear();
    if (adj_cache_ != nullptr) adj_cache_->Clear();
  }

  /// The adjacency cache instance (null when disabled) — shared with
  /// embedders that expand outside the session.
  cache::AdjacencyCache* adjacency_cache() { return adj_cache_.get(); }

  /// Attaches the engine's live write path (docs/WRITES.md); the
  /// engine's EnableWrites does this at open time, before any query.
  /// Read queries then execute under a shared snapshot of `snapshots`
  /// (borrowed), so they never observe a half-applied batch. A write
  /// query (CREATE/DELETE) lowers to one WriteBatch (write_ops.h),
  /// releases its snapshot and hands the batch to `commit`, the engine's
  /// WritableEngine::Commit. Without a writer, write queries fail
  /// NotImplemented.
  using CommitFn = std::function<Status(store::WriteBatch)>;
  void SetWriter(store::SnapshotRegistry* snapshots, CommitFn commit) {
    snapshots_ = snapshots;
    commit_ = std::move(commit);
  }

 private:
  /// What the result cache stores per (query, params) key. Immutable
  /// after insertion; hits share it by reference.
  struct CachedResult {
    std::vector<std::string> columns;
    std::vector<Row> rows;
    std::string profile;  // the miss run's plan tree
    size_t ByteSize() const;
  };

  /// Cache lookup or single-flight compile; sets *cache_hit. With
  /// `enforce_lint`, a query whose diagnostics reach the session's lint
  /// level is refused (InvalidArgument) — before planning on a cache
  /// miss, from the stored diagnostics on a hit.
  Result<std::shared_ptr<const PlannedQuery>> PrepareShared(
      const std::string& query, bool* cache_hit, bool enforce_lint);
  /// Refusal check against lint_level_.
  Status LintGate(const std::vector<Diagnostic>& diagnostics) const
      MBQ_REQUIRES(mu_);
  /// Canonical text + parameters serialized sorted by name (typed, so
  /// Int(1) and String("1") never collide).
  static std::string ResultCacheKey(const std::string& body,
                                    const Params& params);

  GraphDb* db_;
  /// LockRank::kSession: held across parse/analyze/plan in PrepareShared
  /// (single-flight compilation), which may read store catalogues and so
  /// reach every storage-tier lock below; only rpc.client ranks higher.
  mutable util::RankedMutex mu_{util::LockRank::kSession, "cypher.session"};
  bool plan_cache_enabled_ MBQ_GUARDED_BY(mu_) = true;
  bool last_prepare_was_cache_hit_ MBQ_GUARDED_BY(mu_) = false;
  LintLevel lint_level_ MBQ_GUARDED_BY(mu_) = LintLevel::kOff;
  std::atomic<uint32_t> threads_{1};
  std::atomic<uint64_t> slow_query_millis_{50};  // constructor re-seeds
  std::atomic<exec::ThreadPool*> pool_{nullptr};
  std::atomic<uint64_t> plan_cache_hits_{0};
  std::atomic<uint64_t> plan_cache_misses_{0};
  std::unordered_map<std::string, std::shared_ptr<PlannedQuery>> plan_cache_
      MBQ_GUARDED_BY(mu_);
  /// Most recent plan compiled with the cache disabled (kept alive for
  /// the caller of Prepare/Run).
  std::shared_ptr<PlannedQuery> uncached_plan_ MBQ_GUARDED_BY(mu_);

  std::unique_ptr<cache::ResultCache<CachedResult>> result_cache_;
  std::unique_ptr<cache::AdjacencyCache> adj_cache_;
  /// The live write path; both stay unset on a read-only engine.
  store::SnapshotRegistry* snapshots_ = nullptr;
  CommitFn commit_;
};

}  // namespace mbq::cypher

#endif  // MBQ_CYPHER_SESSION_H_
