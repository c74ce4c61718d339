#ifndef MBQ_CORE_NODESTORE_ENGINE_H_
#define MBQ_CORE_NODESTORE_ENGINE_H_

#include <memory>
#include <string>

#include "core/engine.h"
#include "core/write_path.h"
#include "cypher/session.h"
#include "nodestore/graph_db.h"
#include "twitter/loaders.h"

namespace mbq::core {

/// The declarative side of the study: every Table 2 query is a
/// parameterized mini-Cypher string executed through CypherSession, so
/// plan caching, db-hit profiling and operator behaviour match what the
/// paper observed on Neo4j. The exact query texts are exposed as
/// constants for the phrasing ablations.
class NodestoreEngine : public MicroblogEngine {
 public:
  explicit NodestoreEngine(nodestore::GraphDb* db) : db_(db), session_(db) {}

  std::string name() const override { return "nodestore-cypher"; }

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

  /// Cold-cache reset: drops the store's page caches and empties the
  /// session's result and adjacency caches (the plan cache is left alone —
  /// the ablation toggles it separately via SetPlanCacheEnabled).
  Status DropCaches() override {
    session_.ClearReadCaches();
    return db_->DropCaches();
  }

  /// Morsel-parallel Cypher execution for eligible pipelines (delegates
  /// to CypherSession::SetThreads).
  void SetThreads(uint32_t threads, exec::ThreadPool* pool = nullptr) override {
    session_.SetThreads(threads, pool);
  }

  /// Full session tuning surface (threads + plan/result/adjacency caches).
  void Configure(const cypher::SessionOptions& options) {
    session_.Configure(options);
  }

  /// Turns the live write path on: resolves the schema handles, builds
  /// the EngineWriter (replaying the WAL when `wal.dir` points at an
  /// existing log), and attaches it to the Cypher session, whose reads
  /// then run under its snapshots and whose write queries commit through
  /// it (CypherSession::SetWriter). `base` is the bulk-loaded dataset the
  /// writer extends (borrowed; only id-space sizes are read, at open).
  /// Defined in nodestore_writes.cc.
  Status EnableWrites(const store::WalOptions& wal,
                      const twitter::Dataset& base);

  WritableEngine* AsWritable() override { return writer_.get(); }

  cypher::CypherSession& session() { return session_; }
  nodestore::GraphDb* db() { return db_; }

  /// The three phrasings of the recommendation query discussed in §4:
  /// (a) a depth-2 variable-length expansion, (b) collecting intermediate
  /// results and checking them against depth 2 (the paper's fastest), and
  /// (c) expanding to depth 2 and removing depth-1 friends afterwards.
  static const char* kRecommendVariantA;
  static const char* kRecommendVariantB;
  static const char* kRecommendVariantC;

 private:
  Result<ValueRows> RunToRows(const std::string& query,
                              const cypher::Params& params);

  /// The writer's ApplyFn: folds `batch` into the record store in one
  /// GraphDb transaction, rolled back if any op fails.
  Status Apply(const store::WriteBatch& batch);
  Status ApplyOp(const store::WriteOp& op);

  nodestore::GraphDb* db_;
  cypher::CypherSession session_;
  twitter::NodestoreHandles h_{};  ///< resolved by EnableWrites
  int64_t next_hid_ = 0;           ///< next fresh hashtag id
  std::unique_ptr<EngineWriter> writer_;
};

}  // namespace mbq::core

#endif  // MBQ_CORE_NODESTORE_ENGINE_H_
