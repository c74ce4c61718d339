#ifndef MBQ_CORE_REMOTE_ENGINE_H_
#define MBQ_CORE_REMOTE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/calls.h"
#include "core/engine.h"
#include "core/partition.h"
#include "rpc/client.h"
#include "rpc/messages.h"

namespace mbq::core {

/// A MicroblogEngine whose data lives in remote shard daemons. Presents
/// the exact local interface, so CypherSession wrappers, caches, linting
/// and the introspection plane neither know nor care that calls leave
/// the process; this is also what `mbqd --aggregate` serves behind
/// ShardService.
///
/// Call routing (docs/CLUSTER.md has the full merge table):
///  - follows-only calls (Q2.1, Q4.1, Q4.2, Q6.1) and the replicated
///    user scan (Q1.1) route to a single shard — the social skeleton is
///    replicated, every shard has the whole answer;
///  - activity-anchored calls fan out to every shard and merge: plain
///    concatenation for Q2.2 (tweets are disjoint), distinct-union for
///    Q2.3, and count-sum + TopNCounts re-rank for Q3.x/Q5.x (per-tweet
///    counts over disjoint tweet sets sum exactly).
class RemoteEngine : public MicroblogEngine {
 public:
  struct ShardAddress {
    std::string host;
    uint16_t port = 0;
  };

  /// Dials every shard, validates the topology they report (distinct
  /// shard ids 0..N-1, consistent shard count, partition kind and user
  /// count) and orders clients by shard id. One address pointing at an
  /// aggregator is just the N=1 case.
  static Result<std::unique_ptr<RemoteEngine>> Connect(
      const std::vector<ShardAddress>& shards, int timeout_millis = 30000);

  std::string name() const override;

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

  /// Fans out to every shard; fails on the first shard that fails.
  Status DropCaches() override;

  /// The cluster plane is read-only: writes stay single-node until the
  /// reserved kWriteBatch frame (docs/CLUSTER.md) is implemented, so the
  /// remote kind never exposes a write surface — callers that probe
  /// AsWritable() fail cleanly instead of hanging on an unanswered frame.
  WritableEngine* AsWritable() override { return nullptr; }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const Partitioner& partitioner() const { return partitioner_; }

 private:
  explicit RemoteEngine(std::vector<std::unique_ptr<rpc::RpcClient>> shards,
                        Partitioner partitioner);

  /// Every shard exchange funnels through here: measures the round trip
  /// into the per-shard `rpc.shard.<i>.latency` histogram and hands the
  /// RTT + the shard's reply-envelope timing to the active call tracker
  /// (remote_engine.cc), which is what /slow breakdowns are built from.
  Result<rpc::Frame> CallShard(uint32_t shard, const rpc::Frame& request);

  /// The one shard loop: sends `request` to every shard and returns the
  /// replies in shard order; the first shard that fails fails the whole.
  /// Every fan-out read and DropCaches go through it.
  Result<std::vector<rpc::Frame>> CallEveryShard(const rpc::Frame& request);

  /// One kCall to one shard, rows reply expected.
  Result<ValueRows> CallRows(uint32_t shard, const CallSpec& spec);
  /// Fan out a kCall to every shard; any shard's error fails the call
  /// (a missing anchor is no rows on every engine, not an error).
  Result<std::vector<ValueRows>> FanOutRows(const CallSpec& spec);
  /// Fan out with an unbounded n, then sum (key, count) rows by key and
  /// re-rank with TopNCounts — the exact-merge path for Q3.x/Q5.x.
  Result<ValueRows> FanOutCounts(CallSpec spec, int64_t n);

  std::vector<std::unique_ptr<rpc::RpcClient>> shards_;  // by shard id
  Partitioner partitioner_;
};

/// Parses "host:port" (or just "port", implying 127.0.0.1).
Result<RemoteEngine::ShardAddress> ParseShardAddress(const std::string& spec);

}  // namespace mbq::core

#endif  // MBQ_CORE_REMOTE_ENGINE_H_
