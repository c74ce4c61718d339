#ifndef MBQ_CORE_BITMAP_ENGINE_H_
#define MBQ_CORE_BITMAP_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "bitmapstore/graph.h"
#include "bitmapstore/shortest_path.h"
#include "cache/adjacency_cache.h"
#include "core/engine.h"
#include "core/write_path.h"
#include "obs/introspect.h"
#include "twitter/loaders.h"

namespace mbq::exec {
class ThreadPool;
}  // namespace mbq::exec

namespace mbq::core {

/// The imperative side of the study: each Table 2 query is a hand-written
/// sequence of navigation operations (select, neighbors, explode) against
/// the bitmap store, with counts kept in a map and sorted client-side —
/// the paper's Sparksee methodology, including its limitations (no
/// multi-predicate filtering, no server-side LIMIT).
class BitmapEngine : public MicroblogEngine {
 public:
  BitmapEngine(bitmapstore::Graph* graph, twitter::BitmapHandles handles)
      : graph_(graph), h_(handles) {}

  std::string name() const override { return "bitmapstore-navigation"; }

  Result<ValueRows> SelectUsersByFollowerCount(int64_t threshold) override;
  Result<ValueRows> FolloweesOf(int64_t uid) override;
  Result<ValueRows> TweetsOfFollowees(int64_t uid) override;
  Result<ValueRows> HashtagsUsedByFollowees(int64_t uid) override;
  Result<ValueRows> TopCoMentionedUsers(int64_t uid, int64_t n) override;
  Result<ValueRows> TopCoOccurringHashtags(const std::string& tag,
                                           int64_t n) override;
  Result<ValueRows> RecommendFolloweesOfFollowees(int64_t uid,
                                                  int64_t n) override;
  Result<ValueRows> RecommendFollowersOfFollowees(int64_t uid,
                                                  int64_t n) override;
  Result<ValueRows> CurrentInfluence(int64_t uid, int64_t n) override;
  Result<ValueRows> PotentialInfluence(int64_t uid, int64_t n) override;
  Result<int64_t> ShortestPathLength(int64_t uid_a, int64_t uid_b,
                                     uint32_t max_hops) override;

  /// Cold-cache reset: drops the store's page cache and empties the hot
  /// adjacency cache layered on it.
  Status DropCaches() override {
    if (adj_cache_ != nullptr) adj_cache_->Clear();
    return graph_->DropCaches();
  }

  /// Fans the per-element Neighbors loops of the heavy queries (Q3-Q5)
  /// out over `threads` workers; 1 (default) keeps everything sequential.
  /// `pool` is borrowed; null uses exec::ThreadPool::Default().
  void SetThreads(uint32_t threads, exec::ThreadPool* pool = nullptr) override;

  /// Turns the hot adjacency cache on (capacity 0 turns it off): every
  /// single-node Neighbors call the Table 2 queries issue is memoized,
  /// validated against the edge type's epoch. Safe across the worker
  /// threads of SetThreads — the cache is internally sharded and locked.
  void EnableAdjacencyCache(size_t capacity, uint64_t min_degree);
  bool adjacency_cache_enabled() const { return adj_cache_ != nullptr; }
  cache::CacheStats adjacency_cache_stats() const {
    return adj_cache_ != nullptr ? adj_cache_->stats() : cache::CacheStats{};
  }

  /// Turns the live write path on: builds the EngineWriter (replaying
  /// the WAL when `wal.dir` points at an existing log). `base` is the
  /// bulk-loaded dataset the writer extends (borrowed; only id-space
  /// sizes are read, at open). Defined in bitmap_writes.cc.
  Status EnableWrites(const store::WalOptions& wal,
                      const twitter::Dataset& base);

  WritableEngine* AsWritable() override { return writer_.get(); }

  bitmapstore::Graph* graph() { return graph_; }
  const twitter::BitmapHandles& handles() const { return h_; }

  /// Navigation calls taking at least this many milliseconds are captured
  /// by the slow-query flight recorder (served at /slow, shell :slow).
  /// 0 captures every call; the default comes from MBQ_SLOW_QUERY_MILLIS
  /// (else 50 ms).
  void SetSlowQueryMillis(uint64_t millis) { slow_query_millis_ = millis; }
  uint64_t slow_query_millis() const { return slow_query_millis_; }

 private:
  /// Shared-lock snapshot covering one navigation call when the live
  /// write path is on (readers never observe a half-applied batch); a
  /// no-op guard for read-only engines.
  store::SnapshotRegistry::ReadSnapshot OpenReadSnapshot() const {
    return writer_ != nullptr ? writer_->snapshots().OpenSnapshot()
                              : store::SnapshotRegistry::ReadSnapshot();
  }

  /// The user with `uid`, or kInvalidOid when there is none: an anchored
  /// read of a missing user or hashtag answers no rows (Q6.1: -1), as the
  /// record store's Cypher does.
  Result<bitmapstore::Oid> UserByUid(int64_t uid) const;
  /// Neighbors() through the adjacency cache when enabled; identical
  /// result set either way (entries replay the store's own output).
  Result<bitmapstore::Objects> NeighborsCached(
      bitmapstore::Oid node, bitmapstore::TypeId etype,
      bitmapstore::EdgesDirection dir) const;
  /// For every element of `sources`, counts the neighbors reached via
  /// (etype, dir) — skipping `exclude` — into one map. Splits the source
  /// set across worker threads when SetThreads enabled parallelism;
  /// reads share the immutable bitmaps and the sharded page cache.
  Result<std::unordered_map<bitmapstore::Oid, int64_t>> CountNeighborsPerSource(
      const bitmapstore::Objects& sources, bitmapstore::TypeId etype,
      bitmapstore::EdgesDirection dir, bitmapstore::Oid exclude);
  /// Shared Q4 core: for each 1-step followee, gather `second_hop`
  /// neighbors, count candidates, drop direct followees and self.
  Result<ValueRows> Recommend(int64_t uid, int64_t n,
                              bitmapstore::EdgesDirection second_hop);
  /// Shared Q5 core: count mentioners of `uid`, keep (or drop) those who
  /// follow `uid`.
  Result<ValueRows> Influence(int64_t uid, int64_t n, bool keep_followers);

  /// The writer's ApplyFn: folds `batch` into the bitmap store in place.
  Status Apply(const store::WriteBatch& batch);
  Status ApplyOp(const store::WriteOp& op);

  bitmapstore::Graph* graph_;
  twitter::BitmapHandles h_;
  uint32_t threads_ = 1;
  uint64_t slow_query_millis_ = obs::DefaultSlowQueryMillis();
  exec::ThreadPool* pool_ = nullptr;
  std::unique_ptr<cache::AdjacencyCache> adj_cache_;
  int64_t next_hid_ = 0;  ///< next fresh hashtag id
  std::unique_ptr<EngineWriter> writer_;
};

}  // namespace mbq::core

#endif  // MBQ_CORE_BITMAP_ENGINE_H_
