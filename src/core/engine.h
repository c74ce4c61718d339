#ifndef MBQ_CORE_ENGINE_H_
#define MBQ_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "util/result.h"

namespace mbq::nodestore {
class GraphDb;
}  // namespace mbq::nodestore
namespace mbq::bitmapstore {
class Graph;
}  // namespace mbq::bitmapstore
namespace mbq::twitter {
struct BitmapHandles;
}  // namespace mbq::twitter
namespace mbq::exec {
class ThreadPool;
}  // namespace mbq::exec
namespace mbq::twitter {
struct Dataset;
}  // namespace mbq::twitter
namespace mbq::store {
class WriteBatch;
class SnapshotRegistry;
class DeltaStore;
class Wal;
}  // namespace mbq::store

namespace mbq::core {

using common::Value;

/// Engine-neutral result rows, so the two implementations can be compared
/// for agreement and timed identically.
using ValueRow = std::vector<Value>;
using ValueRows = std::vector<ValueRow>;

/// The live write surface of an engine, discovered — never dynamic_cast —
/// via MicroblogEngine::AsWritable(). The Table 2 surface stays read-only;
/// engines opened with EngineOptions.enable_writes additionally expose
/// this extension, which funnels every mutation (a typed single op or a
/// packed group) through one WriteBatch commit path: the exclusive
/// snapshot section, base-store apply, WAL staging, the commit counters
/// (see docs/WRITES.md).
class WritableEngine {
 public:
  virtual ~WritableEngine() = default;

  /// Applies `batch` atomically with respect to snapshot readers: a
  /// concurrent read observes all of the batch or none of it. Taken by
  /// value — the commit path assigns fresh tweet ids in place. Empty
  /// batches are a no-op. On return the batch is durable (when a WAL is
  /// configured) and visible to every subsequent read on this engine.
  virtual Status Commit(store::WriteBatch batch) = 0;

  /// Typed single-op writes — the live half of the Table 2 surface.
  /// Each builds a one-op WriteBatch and commits it, so single ops and
  /// group commit share one path. PostTweet assigns the new tweet id
  /// internally (ids continue past the bulk-loaded dataset).
  Status PostTweet(int64_t uid, std::string text = std::string());
  Status Follow(int64_t src_uid, int64_t dst_uid);
  Status Unfollow(int64_t src_uid, int64_t dst_uid);
  Status AddMention(int64_t tid, int64_t uid);

  /// Snapshot coordination: reads open shared snapshots here, commits
  /// run exclusive (store/delta/snapshot.h).
  virtual store::SnapshotRegistry& snapshots() = 0;
  /// Counters over the committed batches (introspection, checkdb); the
  /// WAL is the record of the ops themselves.
  virtual const store::DeltaStore& delta() const = 0;
  /// The engine's write-ahead log; null when opened without wal_dir.
  virtual const store::Wal* wal() const = 0;
  /// The next tweet id PostTweet would assign.
  virtual int64_t next_tid() const = 0;
};

/// The paper's Table 2 workload, one method per exemplar query, exposed
/// uniformly over both engines. Implementations:
///  - NodestoreEngine executes declarative mini-Cypher (what the paper
///    ran on Neo4j);
///  - BitmapEngine drives the imperative navigation API, maintaining
///    counts in a map and sorting client-side (what the paper did with
///    Sparksee, whose API "does not provide the functionality to limit
///    the returned results").
class MicroblogEngine {
 public:
  virtual ~MicroblogEngine() = default;

  virtual std::string name() const = 0;

  /// Q1.1: users with followers_count greater than `threshold`.
  virtual Result<ValueRows> SelectUsersByFollowerCount(int64_t threshold) = 0;
  /// Q2.1: uids of all followees of `uid`.
  virtual Result<ValueRows> FolloweesOf(int64_t uid) = 0;
  /// Q2.2: tids of all tweets posted by followees of `uid`.
  virtual Result<ValueRows> TweetsOfFollowees(int64_t uid) = 0;
  /// Q2.3: distinct hashtags used by followees of `uid`.
  virtual Result<ValueRows> HashtagsUsedByFollowees(int64_t uid) = 0;
  /// Q3.1: top-n users most co-mentioned with `uid` -> (uid, count).
  virtual Result<ValueRows> TopCoMentionedUsers(int64_t uid, int64_t n) = 0;
  /// Q3.2: top-n hashtags co-occurring with `tag` -> (tag, count).
  virtual Result<ValueRows> TopCoOccurringHashtags(const std::string& tag,
                                                   int64_t n) = 0;
  /// Q4.1: top-n followees of `uid`'s followees not already followed.
  virtual Result<ValueRows> RecommendFolloweesOfFollowees(int64_t uid,
                                                          int64_t n) = 0;
  /// Q4.2: top-n followers of `uid`'s followees not already followed.
  virtual Result<ValueRows> RecommendFollowersOfFollowees(int64_t uid,
                                                          int64_t n) = 0;
  /// Q5.1: top-n mentioners of `uid` who already follow `uid` (current
  /// influence).
  virtual Result<ValueRows> CurrentInfluence(int64_t uid, int64_t n) = 0;
  /// Q5.2: top-n mentioners of `uid` who do not follow `uid` (potential
  /// influence).
  virtual Result<ValueRows> PotentialInfluence(int64_t uid, int64_t n) = 0;
  /// Q6.1: follows-path length between two users, or -1 when none exists
  /// within `max_hops` (the paper bounds the search at 3 hops).
  virtual Result<int64_t> ShortestPathLength(int64_t uid_a, int64_t uid_b,
                                             uint32_t max_hops) = 0;

  /// Drops page caches — and any read caches layered on them — for
  /// cold-cache experiments.
  virtual Status DropCaches() = 0;

  /// Worker count for the engine's parallel paths; the base implementation
  /// is a no-op so engines without a parallel mode satisfy the interface.
  /// `pool` is borrowed and must outlive the engine; null uses the
  /// process-wide default pool.
  virtual void SetThreads(uint32_t threads, exec::ThreadPool* pool = nullptr) {
    (void)threads;
    (void)pool;
  }

  /// The engine's live write surface, or null for read-only engines
  /// (the default, and always for EngineKind::kRemote — cluster writes
  /// are reserved wire protocol, see docs/CLUSTER.md). Callers branch on
  /// this instead of dynamic_cast so the read/write split stays an API
  /// decision, not an RTTI one.
  virtual WritableEngine* AsWritable() { return nullptr; }
};

/// Which Table 2 implementation OpenEngine builds.
enum class EngineKind {
  kNodestore,  ///< declarative mini-Cypher over the record store
  kBitmap,     ///< imperative navigation over the bitmap store
  kRemote,     ///< RPC fan-out to mbqd shard daemons (docs/CLUSTER.md)
};

/// The one configuration surface for constructing engines. Callers fill
/// the store pointers for the kind they open (`db` for kNodestore;
/// `graph` + `handles` for kBitmap) and tune the shared knobs; benches
/// and tests go through this instead of the concrete constructors, so new
/// knobs reach every harness without touching call sites.
struct EngineOptions {
  /// Record store (required for EngineKind::kNodestore).
  nodestore::GraphDb* db = nullptr;
  /// Bitmap store and its loaded type/attribute handles (required for
  /// EngineKind::kBitmap). `handles` is copied at open.
  bitmapstore::Graph* graph = nullptr;
  const twitter::BitmapHandles* handles = nullptr;

  /// Worker count for parallel paths; 1 is fully sequential. `pool` is
  /// borrowed (null = process default).
  uint32_t threads = 1;
  exec::ThreadPool* pool = nullptr;

  /// Query result cache (nodestore only: it memoizes Cypher results).
  bool result_cache = false;
  size_t result_cache_capacity = 256;  // entries
  /// Hot adjacency cache (both engines).
  bool adjacency_cache = false;
  size_t adjacency_cache_capacity = 4096;  // entries
  uint64_t adjacency_min_degree = 8;

  /// Shard daemons to dial (required for EngineKind::kRemote). Each
  /// entry is "host:port" or just "port" (implying loopback); one entry
  /// per shard, order does not matter — shards are sorted by the id
  /// they report at hello time.
  std::vector<std::string> shard_addresses;
  /// Per-syscall RPC timeout towards the shards.
  int rpc_timeout_millis = 30000;

  /// Live write path (kNodestore / kBitmap only). When set, the opened
  /// engine exposes WritableEngine via AsWritable() and every read runs
  /// under a shared snapshot. Requires `dataset` — the bulk-loaded base
  /// the writer extends (it seeds fresh tweet/hashtag id allocation).
  bool enable_writes = false;
  const twitter::Dataset* dataset = nullptr;
  /// Directory for the group-commit WAL; empty commits without logging
  /// (tests, throwaway benches). See docs/WRITES.md for the format.
  std::string wal_dir;
  /// How long a commit lingers so concurrent committers share one fsync.
  uint32_t group_commit_window_micros = 0;
};

/// Builds an engine of `kind` configured per `options`. Fails with
/// InvalidArgument when the stores the kind needs are missing.
Result<std::unique_ptr<MicroblogEngine>> OpenEngine(
    EngineKind kind, const EngineOptions& options);

/// Canonicalizes rows for cross-engine comparison: sorts lexicographically.
void SortRows(ValueRows* rows);

/// Top-n helper with deterministic tie-breaking (count desc, then key
/// asc) shared by both engines so results agree exactly.
ValueRows TopNCounts(const std::vector<std::pair<Value, int64_t>>& counts,
                     int64_t n);

}  // namespace mbq::core

#endif  // MBQ_CORE_ENGINE_H_
