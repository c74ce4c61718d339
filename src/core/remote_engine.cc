#include "core/remote_engine.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace mbq::core {

namespace {

/// Large enough to never clip a result, small enough to stay an int64:
/// the limit shards are asked for when the aggregator needs the full
/// count list to merge exactly.
constexpr int64_t kUnboundedN = int64_t{1} << 30;

/// One shard exchange as seen by the aggregator: its round trip plus the
/// timing summary the shard sent back (reply_nanos == 0 when the reply
/// came back bare — an untraced exchange or an old peer).
struct ShardSample {
  uint32_t shard = 0;
  uint64_t rtt_nanos = 0;
  rpc::ShardTiming timing;
};

/// The samples of the remote call currently executing on this thread;
/// installed by RemoteCallTracker, filled by RemoteEngine::CallShard.
thread_local std::vector<ShardSample>* g_call_samples = nullptr;

/// Lazy per-shard round-trip histograms. The names are dynamic
/// ("rpc.shard." + i + ".latency"); docs/OBSERVABILITY.md documents the
/// family as `rpc.shard.<i>.latency` and check_docs_links.sh knows the
/// prefix.
obs::Histogram* ShardLatency(uint32_t shard) {
  return obs::MetricsRegistry::Default().GetHistogram(
      "rpc.shard." + std::to_string(shard) + ".latency", "us",
      "Aggregator-measured round-trip time of calls to this shard");
}

/// RAII accounting for one public RemoteEngine call: opens a child trace
/// scope (or mints a root when the call *is* the ingress), registers in
/// the active-query table, collects per-shard samples, and on exit
/// records the call span and — when the call crossed the slow threshold —
/// a FlightRecorder capture whose profile is the per-shard breakdown the
/// /slow endpoint shows.
class RemoteCallTracker {
 public:
  explicit RemoteCallTracker(std::string name)
      : name_(std::move(name)),
        trace_scope_(obs::ChildOrRootContext()),
        active_(&obs::QueryRegistry::Global(), name_, "remote", 1),
        previous_(g_call_samples) {
    g_call_samples = &samples_;
  }

  ~RemoteCallTracker() {
    g_call_samples = previous_;
    uint64_t elapsed = active_.ElapsedNanos();
    obs::SpanRecorder::Global().Record(name_, "rpc", active_.start_nanos(),
                                       elapsed);
    double millis = static_cast<double>(elapsed) / 1e6;
    if (!obs::IsSlowQuery(millis, obs::DefaultSlowQueryMillis())) return;
    obs::SlowQuery capture;
    capture.query = name_;
    capture.engine = "remote";
    capture.millis = millis;
    capture.threads = 1;
    capture.profile = Breakdown();
    obs::FlightRecorder::Global().Record(std::move(capture));
  }

  RemoteCallTracker(const RemoteCallTracker&) = delete;
  RemoteCallTracker& operator=(const RemoteCallTracker&) = delete;

 private:
  /// One line per shard exchange: where the shard said the time went,
  /// with the network share as rtt - reply.
  std::string Breakdown() const {
    std::string out;
    char buf[192];
    for (const ShardSample& s : samples_) {
      double rtt = static_cast<double>(s.rtt_nanos) / 1e6;
      if (s.timing.reply_nanos != 0) {
        std::snprintf(
            buf, sizeof(buf),
            "shard %u: rtt=%.3fms queue=%.3fms execute=%.3fms "
            "serialize=%.3fms reply=%.3fms network=%.3fms\n",
            s.shard, rtt, static_cast<double>(s.timing.queue_nanos) / 1e6,
            static_cast<double>(s.timing.execute_nanos) / 1e6,
            static_cast<double>(s.timing.serialize_nanos) / 1e6,
            static_cast<double>(s.timing.reply_nanos) / 1e6,
            static_cast<double>(s.rtt_nanos -
                                std::min(s.rtt_nanos,
                                         s.timing.reply_nanos)) /
                1e6);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "shard %u: rtt=%.3fms (no shard timing)\n", s.shard,
                      rtt);
      }
      out += buf;
    }
    return out;
  }

  std::string name_;
  obs::ScopedTraceContext trace_scope_;
  obs::ActiveQueryScope active_;
  std::vector<ShardSample>* previous_;
  std::vector<ShardSample> samples_;
};

struct AggregatorMetrics {
  obs::Counter* routed_calls;
  obs::Counter* fanout_calls;
  obs::Counter* merged_rows;

  static AggregatorMetrics Get() {
    static AggregatorMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      AggregatorMetrics out;
      out.routed_calls =
          reg.GetCounter("rpc.aggregator.routed_calls", "requests",
                         "Navigation calls answered by a single shard");
      out.fanout_calls =
          reg.GetCounter("rpc.aggregator.fanout_calls", "requests",
                         "Navigation calls fanned out to every shard");
      out.merged_rows =
          reg.GetCounter("rpc.aggregator.merged_rows", "rows",
                         "Per-shard result rows consumed by merge steps");
      return out;
    }();
    return m;
  }
};

}  // namespace

Result<RemoteEngine::ShardAddress> ParseShardAddress(
    const std::string& spec) {
  RemoteEngine::ShardAddress addr;
  addr.host = "127.0.0.1";
  std::string port_part = spec;
  size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    addr.host = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
    if (addr.host.empty()) addr.host = "127.0.0.1";
  }
  Result<int64_t> port = ParseInt64(port_part);
  if (!port.ok() || *port < 1 || *port > 65535) {
    return Status::InvalidArgument("bad shard address \"" + spec +
                                   "\" (want host:port)");
  }
  addr.port = static_cast<uint16_t>(*port);
  return addr;
}

RemoteEngine::RemoteEngine(
    std::vector<std::unique_ptr<rpc::RpcClient>> shards,
    Partitioner partitioner)
    : shards_(std::move(shards)), partitioner_(partitioner) {}

Result<std::unique_ptr<RemoteEngine>> RemoteEngine::Connect(
    const std::vector<ShardAddress>& shards, int timeout_millis) {
  if (shards.empty()) {
    return Status::InvalidArgument("remote engine needs at least one shard");
  }
  std::vector<std::unique_ptr<rpc::RpcClient>> clients(shards.size());
  for (const ShardAddress& addr : shards) {
    rpc::RpcClient::Options options;
    options.host = addr.host;
    options.port = addr.port;
    options.timeout_millis = timeout_millis;
    std::unique_ptr<rpc::RpcClient> client;
    MBQ_ASSIGN_OR_RETURN(client, rpc::RpcClient::Connect(options));
    const rpc::HelloReply& info = client->server_info();
    if (info.num_shards != shards.size()) {
      return Status::FailedPrecondition(
          addr.host + ":" + std::to_string(addr.port) + " expects " +
          std::to_string(info.num_shards) + " shards, but " +
          std::to_string(shards.size()) + " were addressed");
    }
    if (info.shard_id >= shards.size()) {
      return Status::FailedPrecondition(
          "shard id " + std::to_string(info.shard_id) + " out of range");
    }
    if (clients[info.shard_id] != nullptr) {
      return Status::FailedPrecondition(
          "two addresses answer as shard " + std::to_string(info.shard_id));
    }
    clients[info.shard_id] = std::move(client);
  }
  const rpc::HelloReply& first = clients[0]->server_info();
  for (const auto& client : clients) {
    const rpc::HelloReply& info = client->server_info();
    if (info.partition != first.partition ||
        info.num_users != first.num_users) {
      return Status::FailedPrecondition(
          "shards disagree on partitioning (" +
          std::string(PartitionKindName(
              static_cast<PartitionKind>(info.partition))) +
          "/" + std::to_string(info.num_users) + " vs " +
          std::string(PartitionKindName(
              static_cast<PartitionKind>(first.partition))) +
          "/" + std::to_string(first.num_users) + ")");
    }
  }
  if (first.partition > static_cast<uint8_t>(PartitionKind::kRange)) {
    return Status::FailedPrecondition(
        "shards report unknown partition kind " +
        std::to_string(static_cast<int>(first.partition)));
  }
  Partitioner partitioner(static_cast<PartitionKind>(first.partition),
                          static_cast<uint32_t>(clients.size()),
                          first.num_users);
  return std::unique_ptr<RemoteEngine>(
      new RemoteEngine(std::move(clients), partitioner));
}

std::string RemoteEngine::name() const {
  return "remote(" + std::to_string(shards_.size()) + " shard" +
         (shards_.size() == 1 ? "" : "s") + ", " +
         PartitionKindName(partitioner_.kind()) + ")";
}

Result<rpc::Frame> RemoteEngine::CallShard(uint32_t shard,
                                           const rpc::Frame& request) {
  rpc::ShardTiming timing;
  uint64_t start_nanos = WallClock().NowNanos();
  Result<rpc::Frame> reply = shards_[shard]->Call(request, &timing);
  uint64_t rtt_nanos = WallClock().NowNanos() - start_nanos;
  ShardLatency(shard)->Record(rtt_nanos / 1000);
  if (g_call_samples != nullptr) {
    ShardSample sample;
    sample.shard = shard;
    sample.rtt_nanos = rtt_nanos;
    sample.timing = timing;
    g_call_samples->push_back(sample);
  }
  return reply;
}

Result<ValueRows> RemoteEngine::CallRows(uint32_t shard,
                                         const rpc::CallRequest& req) {
  AggregatorMetrics::Get().routed_calls->Inc();
  rpc::Frame reply;
  MBQ_ASSIGN_OR_RETURN(reply, CallShard(shard, rpc::EncodeCall(req)));
  return rpc::DecodeRowsReply(reply);
}

Result<std::vector<ValueRows>> RemoteEngine::FanOutRows(
    const rpc::CallRequest& req) {
  AggregatorMetrics::Get().fanout_calls->Inc();
  std::vector<ValueRows> per_shard;
  per_shard.reserve(shards_.size());
  rpc::Frame request = rpc::EncodeCall(req);
  for (uint32_t shard = 0; shard < shards_.size(); ++shard) {
    rpc::Frame reply;
    MBQ_ASSIGN_OR_RETURN(reply, CallShard(shard, request));
    ValueRows rows;
    MBQ_ASSIGN_OR_RETURN(rows, rpc::DecodeRowsReply(reply));
    per_shard.push_back(std::move(rows));
  }
  return per_shard;
}

Result<ValueRows> RemoteEngine::FanOutCounts(const rpc::CallRequest& req,
                                             int64_t n) {
  rpc::CallRequest unbounded = req;
  unbounded.arg = kUnboundedN;
  std::vector<ValueRows> per_shard;
  MBQ_ASSIGN_OR_RETURN(per_shard, FanOutRows(unbounded));
  // Sum per-key counts across shards. Tweets are disjoint and the counts
  // are per-tweet, so addition is the exact global count; TopNCounts
  // then applies the same deterministic ranking the local engines use.
  std::map<common::Value, int64_t> totals;
  uint64_t merged = 0;
  for (const ValueRows& rows : per_shard) {
    merged += rows.size();
    for (const ValueRow& row : rows) {
      if (row.size() != 2 || row[1].type() != common::ValueType::kInt) {
        return Status::Corruption(
            "count merge expects (key, int64 count) rows");
      }
      totals[row[0]] += row[1].AsInt();
    }
  }
  AggregatorMetrics::Get().merged_rows->Inc(merged);
  std::vector<std::pair<common::Value, int64_t>> counts;
  counts.reserve(totals.size());
  for (auto& [key, count] : totals) counts.emplace_back(key, count);
  return TopNCounts(counts, n);
}

Result<ValueRows> RemoteEngine::SelectUsersByFollowerCount(
    int64_t threshold) {
  RemoteCallTracker tracker("remote.select_users_by_follower_count");
  // Users are replicated; spread repeated scans over the shards.
  rpc::CallRequest req;
  req.call = rpc::NavCall::kSelectUsersByFollowerCount;
  req.uid = threshold;
  uint32_t shard = static_cast<uint32_t>(
      static_cast<uint64_t>(threshold) % shards_.size());
  return CallRows(shard, req);
}

Result<ValueRows> RemoteEngine::FolloweesOf(int64_t uid) {
  RemoteCallTracker tracker("remote.followees_of");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kFolloweesOf;
  req.uid = uid;
  return CallRows(partitioner_.OwnerShard(uid), req);
}

Result<ValueRows> RemoteEngine::TweetsOfFollowees(int64_t uid) {
  RemoteCallTracker tracker("remote.tweets_of_followees");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kTweetsOfFollowees;
  req.uid = uid;
  std::vector<ValueRows> per_shard;
  MBQ_ASSIGN_OR_RETURN(per_shard, FanOutRows(req));
  // Tweets are disjoint across shards and every shard sees the full
  // follows graph, so plain concatenation reproduces the single-process
  // multiset exactly (including per-path duplicates).
  ValueRows merged;
  for (ValueRows& rows : per_shard) {
    merged.insert(merged.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  }
  AggregatorMetrics::Get().merged_rows->Inc(merged.size());
  return merged;
}

Result<ValueRows> RemoteEngine::HashtagsUsedByFollowees(int64_t uid) {
  RemoteCallTracker tracker("remote.hashtags_used_by_followees");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kHashtagsUsedByFollowees;
  req.uid = uid;
  std::vector<ValueRows> per_shard;
  MBQ_ASSIGN_OR_RETURN(per_shard, FanOutRows(req));
  // Each shard reports the distinct hashtags of its tweet slice; the
  // same tag can surface on several shards, so the union re-deduplicates.
  ValueRows merged;
  for (ValueRows& rows : per_shard) {
    merged.insert(merged.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  }
  AggregatorMetrics::Get().merged_rows->Inc(merged.size());
  SortRows(&merged);
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

Result<ValueRows> RemoteEngine::TopCoMentionedUsers(int64_t uid, int64_t n) {
  RemoteCallTracker tracker("remote.top_co_mentioned_users");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kTopCoMentionedUsers;
  req.uid = uid;
  return FanOutCounts(req, n);
}

Result<ValueRows> RemoteEngine::TopCoOccurringHashtags(const std::string& tag,
                                                       int64_t n) {
  RemoteCallTracker tracker("remote.top_co_occurring_hashtags");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kTopCoOccurringHashtags;
  req.tag = tag;
  return FanOutCounts(req, n);
}

Result<ValueRows> RemoteEngine::RecommendFolloweesOfFollowees(int64_t uid,
                                                              int64_t n) {
  RemoteCallTracker tracker("remote.recommend_followees_of_followees");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kRecommendFolloweesOfFollowees;
  req.uid = uid;
  req.arg = n;
  return CallRows(partitioner_.OwnerShard(uid), req);
}

Result<ValueRows> RemoteEngine::RecommendFollowersOfFollowees(int64_t uid,
                                                              int64_t n) {
  RemoteCallTracker tracker("remote.recommend_followers_of_followees");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kRecommendFollowersOfFollowees;
  req.uid = uid;
  req.arg = n;
  return CallRows(partitioner_.OwnerShard(uid), req);
}

Result<ValueRows> RemoteEngine::CurrentInfluence(int64_t uid, int64_t n) {
  RemoteCallTracker tracker("remote.current_influence");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kCurrentInfluence;
  req.uid = uid;
  return FanOutCounts(req, n);
}

Result<ValueRows> RemoteEngine::PotentialInfluence(int64_t uid, int64_t n) {
  RemoteCallTracker tracker("remote.potential_influence");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kPotentialInfluence;
  req.uid = uid;
  return FanOutCounts(req, n);
}

Result<int64_t> RemoteEngine::ShortestPathLength(int64_t uid_a, int64_t uid_b,
                                                 uint32_t max_hops) {
  RemoteCallTracker tracker("remote.shortest_path_length");
  rpc::CallRequest req;
  req.call = rpc::NavCall::kShortestPathLength;
  req.uid = uid_a;
  req.arg = uid_b;
  req.max_hops = max_hops;
  AggregatorMetrics::Get().routed_calls->Inc();
  rpc::Frame reply;
  MBQ_ASSIGN_OR_RETURN(
      reply, CallShard(partitioner_.OwnerShard(uid_a), rpc::EncodeCall(req)));
  return rpc::DecodeIntReply(reply);
}

Status RemoteEngine::DropCaches() {
  for (uint32_t shard = 0; shard < shards_.size(); ++shard) {
    rpc::Frame reply;
    MBQ_ASSIGN_OR_RETURN(
        reply, CallShard(shard, rpc::EmptyFrame(rpc::MsgType::kDropCaches)));
    if (reply.type != static_cast<uint8_t>(rpc::MsgType::kOkReply)) {
      return Status::Corruption(
          std::string("rpc: expected kOkReply, got ") +
          rpc::MsgTypeName(reply.type));
    }
  }
  return Status::OK();
}

Result<rpc::QueryReply> RemoteEngine::Query(const rpc::QueryRequest& req) {
  RemoteCallTracker tracker("remote.query");
  if (req.merge == rpc::QueryMerge::kRoute) {
    if (req.route_shard >= shards_.size()) {
      return Status::InvalidArgument(
          "route shard " + std::to_string(req.route_shard) +
          " out of range (have " + std::to_string(shards_.size()) + ")");
    }
    AggregatorMetrics::Get().routed_calls->Inc();
    rpc::Frame reply;
    MBQ_ASSIGN_OR_RETURN(reply,
                         CallShard(req.route_shard, rpc::EncodeQuery(req)));
    return rpc::DecodeQueryReply(reply);
  }
  AggregatorMetrics::Get().fanout_calls->Inc();
  rpc::Frame request = rpc::EncodeQuery(req);
  rpc::QueryReply merged;
  bool have_columns = false;
  for (uint32_t shard = 0; shard < shards_.size(); ++shard) {
    rpc::Frame reply;
    MBQ_ASSIGN_OR_RETURN(reply, CallShard(shard, request));
    rpc::QueryReply part;
    MBQ_ASSIGN_OR_RETURN(part, rpc::DecodeQueryReply(reply));
    if (!have_columns) {
      merged.columns = std::move(part.columns);
      have_columns = true;
    } else if (part.columns != merged.columns) {
      return Status::Corruption("shards returned different query columns");
    }
    merged.rows.insert(merged.rows.end(),
                       std::make_move_iterator(part.rows.begin()),
                       std::make_move_iterator(part.rows.end()));
  }
  AggregatorMetrics::Get().merged_rows->Inc(merged.rows.size());
  if (req.merge == rpc::QueryMerge::kDistinct) {
    SortRows(&merged.rows);
    merged.rows.erase(std::unique(merged.rows.begin(), merged.rows.end()),
                      merged.rows.end());
  }
  return merged;
}

}  // namespace mbq::core
