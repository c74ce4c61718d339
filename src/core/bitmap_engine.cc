#include "core/bitmap_engine.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/epoch.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace mbq::core {

using bitmapstore::EdgesDirection;
using bitmapstore::Objects;
using bitmapstore::Oid;

namespace {

/// RAII introspection for one navigation call: registers it with the
/// live-query table, records a trace span on exit, and feeds the slow
/// flight recorder when the call crosses the engine's threshold. The
/// navigation API has no plan tree, so the "profile" of a capture is the
/// call description itself.
class QueryTracker {
 public:
  QueryTracker(bitmapstore::Graph* graph, std::string call, uint32_t threads,
               uint64_t slow_millis)
      : graph_(graph),
        call_(std::move(call)),
        threads_(threads),
        slow_millis_(slow_millis),
        trace_scope_(obs::ChildOrRootContext()),
        scope_(&obs::QueryRegistry::Global(), call_, "bitmap", threads) {}

  QueryTracker(const QueryTracker&) = delete;
  QueryTracker& operator=(const QueryTracker&) = delete;

  void SetRows(uint64_t rows) {
    rows_ = rows;
    scope_.SetRows(rows);
  }

  ~QueryTracker() {
    double elapsed_millis = scope_.ElapsedMillis();
    obs::SpanRecorder::Global().Record(call_, "bitmap", scope_.start_nanos(),
                                       scope_.ElapsedNanos());
    if (!obs::IsSlowQuery(elapsed_millis, slow_millis_)) return;
    obs::SlowQuery slow;
    slow.query = call_;
    slow.engine = "bitmap";
    slow.millis = elapsed_millis;
    slow.rows = rows_;
    slow.threads = threads_;
    slow.cache = "off";
    slow.epoch = graph_->epochs().GlobalEpoch();
    obs::FlightRecorder::Global().Record(std::move(slow));
    static obs::Counter* captured = obs::MetricsRegistry::Default().GetCounter(
        "bitmapstore.slow.captured", "queries",
        "navigation calls at/over the slow-query threshold, captured by "
        "the flight recorder");
    captured->Inc();
  }

 private:
  bitmapstore::Graph* graph_;
  std::string call_;
  uint32_t threads_;
  uint64_t slow_millis_;
  uint64_t rows_ = 0;
  /// Each navigation call is an ingress: it runs under a trace context
  /// so its span carries request identity (declared before scope_ so the
  /// context outlives the span recording in ~QueryTracker).
  obs::ScopedTraceContext trace_scope_;
  obs::ActiveQueryScope scope_;
};

std::string DescribeCall(const char* name, int64_t arg) {
  return std::string(name) + "(" + std::to_string(arg) + ")";
}

std::string DescribeCall(const char* name, int64_t a, int64_t b) {
  return std::string(name) + "(" + std::to_string(a) + ", " +
         std::to_string(b) + ")";
}

}  // namespace

void BitmapEngine::SetThreads(uint32_t threads, exec::ThreadPool* pool) {
  threads_ = threads == 0 ? 1 : threads;
  pool_ = pool;
}

void BitmapEngine::EnableAdjacencyCache(size_t capacity,
                                        uint64_t min_degree) {
  if (capacity == 0) {
    adj_cache_.reset();
    return;
  }
  cache::AdjacencyCache::Options options;
  options.capacity = capacity;
  options.min_degree = min_degree;
  adj_cache_ =
      std::make_unique<cache::AdjacencyCache>(options, &graph_->epochs());
}

Result<Objects> BitmapEngine::NeighborsCached(Oid node,
                                              bitmapstore::TypeId etype,
                                              EdgesDirection dir) const {
  if (adj_cache_ == nullptr) return graph_->Neighbors(node, etype, dir);
  uint8_t d = static_cast<uint8_t>(dir);
  if (auto entry = adj_cache_->Get(node, etype, d)) {
    Objects out;
    for (uint64_t other : entry->neighbors) {
      out.Add(static_cast<Oid>(other));
    }
    return out;
  }
  // Stamp before the walk: a write landing mid-walk invalidates the entry
  // at Put() rather than caching a torn read.
  cache::EpochStamp stamp = cache::CaptureStamp(
      graph_->epochs(), {cache::TypeDomain(etype)}, /*use_global=*/false);
  MBQ_ASSIGN_OR_RETURN(Objects nbrs, graph_->Neighbors(node, etype, dir));
  auto entry = std::make_shared<cache::AdjacencyEntry>();
  entry->neighbors.reserve(nbrs.Count());
  nbrs.ForEach([&](uint32_t other) { entry->neighbors.push_back(other); });
  adj_cache_->Put(node, etype, d, std::move(entry), std::move(stamp));
  return nbrs;
}

Result<std::unordered_map<Oid, int64_t>> BitmapEngine::CountNeighborsPerSource(
    const Objects& sources, bitmapstore::TypeId etype, EdgesDirection dir,
    Oid exclude) {
  std::unordered_map<Oid, int64_t> counts;
  if (threads_ <= 1) {
    Status status = Status::OK();
    sources.ForEach([&](uint32_t src) -> bool {
      auto nbrs = NeighborsCached(src, etype, dir);
      if (!nbrs.ok()) {
        status = nbrs.status();
        return false;
      }
      nbrs->ForEach([&](uint32_t other) {
        if (other != exclude) ++counts[other];
      });
      return true;
    });
    MBQ_RETURN_IF_ERROR(status);
    return counts;
  }
  // Parallel across source elements: workers count into private maps and
  // merge under one lock. Neighbors() is read-only over the immutable
  // bitmaps and the sharded page cache, so concurrent calls are safe.
  std::vector<Oid> elems = sources.ToVector();
  exec::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : exec::ThreadPool::Default();
  // kPool: merged into from worker tasks that hold no other lock (the
  // cached neighbor reads complete before the merge section starts).
  util::RankedMutex mu{util::LockRank::kPool, "core.bitmap.merge"};
  Status first_error = Status::OK();
  uint64_t grain = std::max<uint64_t>(
      1, elems.size() / (static_cast<uint64_t>(threads_) * 4));
  pool.ParallelFor(0, elems.size(), grain, [&](uint64_t begin, uint64_t end) {
    std::unordered_map<Oid, int64_t> local;
    Status st = Status::OK();
    for (uint64_t i = begin; i < end && st.ok(); ++i) {
      auto nbrs = NeighborsCached(elems[i], etype, dir);
      if (!nbrs.ok()) {
        st = nbrs.status();
        break;
      }
      nbrs->ForEach([&](uint32_t other) {
        if (other != exclude) ++local[other];
      });
    }
    util::ScopedLock lock(mu);
    if (!st.ok() && first_error.ok()) first_error = st;
    for (const auto& [oid, count] : local) counts[oid] += count;
  });
  MBQ_RETURN_IF_ERROR(first_error);
  return counts;
}

Result<Oid> BitmapEngine::UserByUid(int64_t uid) const {
  return graph_->FindObject(h_.uid, Value::Int(uid));
}

Result<ValueRows> BitmapEngine::SelectUsersByFollowerCount(int64_t threshold) {
  QueryTracker tracker(graph_,
                       DescribeCall("SelectUsersByFollowerCount", threshold),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(Objects users,
                       graph_->Select(h_.followers_count,
                                      bitmapstore::Condition::kGreater,
                                      Value::Int(threshold)));
  ValueRows rows;
  Status status = Status::OK();
  users.ForEach([&](uint32_t oid) -> bool {
    auto uid = graph_->GetAttribute(oid, h_.uid);
    if (!uid.ok()) {
      status = uid.status();
      return false;
    }
    rows.push_back({*uid});
    return true;
  });
  MBQ_RETURN_IF_ERROR(status);
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::FolloweesOf(int64_t uid) {
  QueryTracker tracker(graph_, DescribeCall("FolloweesOf", uid), threads_,
                       slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(Oid user, UserByUid(uid));
  if (user == bitmapstore::kInvalidOid) return ValueRows{};
  MBQ_ASSIGN_OR_RETURN(
      Objects followees,
      NeighborsCached(user, h_.follows, EdgesDirection::kOutgoing));
  ValueRows rows;
  Status status = Status::OK();
  followees.ForEach([&](uint32_t oid) -> bool {
    auto value = graph_->GetAttribute(oid, h_.uid);
    if (!value.ok()) {
      status = value.status();
      return false;
    }
    rows.push_back({*value});
    return true;
  });
  MBQ_RETURN_IF_ERROR(status);
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::TweetsOfFollowees(int64_t uid) {
  QueryTracker tracker(graph_, DescribeCall("TweetsOfFollowees", uid),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(Oid user, UserByUid(uid));
  if (user == bitmapstore::kInvalidOid) return ValueRows{};
  MBQ_ASSIGN_OR_RETURN(
      Objects followees,
      NeighborsCached(user, h_.follows, EdgesDirection::kOutgoing));
  // NOTE: the Cypher side enumerates one row per (followee, tweet) path;
  // tweet posters are unique, so the sets coincide.
  MBQ_ASSIGN_OR_RETURN(
      Objects tweets,
      graph_->Neighbors(followees, h_.posts, EdgesDirection::kOutgoing));
  ValueRows rows;
  Status status = Status::OK();
  tweets.ForEach([&](uint32_t oid) -> bool {
    auto value = graph_->GetAttribute(oid, h_.tid);
    if (!value.ok()) {
      status = value.status();
      return false;
    }
    rows.push_back({*value});
    return true;
  });
  MBQ_RETURN_IF_ERROR(status);
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::HashtagsUsedByFollowees(int64_t uid) {
  QueryTracker tracker(graph_, DescribeCall("HashtagsUsedByFollowees", uid),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(Oid user, UserByUid(uid));
  if (user == bitmapstore::kInvalidOid) return ValueRows{};
  MBQ_ASSIGN_OR_RETURN(
      Objects followees,
      NeighborsCached(user, h_.follows, EdgesDirection::kOutgoing));
  MBQ_ASSIGN_OR_RETURN(
      Objects tweets,
      graph_->Neighbors(followees, h_.posts, EdgesDirection::kOutgoing));
  MBQ_ASSIGN_OR_RETURN(
      Objects hashtags,
      graph_->Neighbors(tweets, h_.tags, EdgesDirection::kOutgoing));
  ValueRows rows;
  Status status = Status::OK();
  hashtags.ForEach([&](uint32_t oid) -> bool {
    auto value = graph_->GetAttribute(oid, h_.tag);
    if (!value.ok()) {
      status = value.status();
      return false;
    }
    rows.push_back({*value});
    return true;
  });
  MBQ_RETURN_IF_ERROR(status);
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::TopCoMentionedUsers(int64_t uid, int64_t n) {
  QueryTracker tracker(graph_, DescribeCall("TopCoMentionedUsers", uid, n),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(Oid user, UserByUid(uid));
  if (user == bitmapstore::kInvalidOid) return ValueRows{};
  // Step 1: tweets mentioning A. Step 2: other users those tweets
  // mention, counted in a map (the paper's two-step co-occurrence plan).
  MBQ_ASSIGN_OR_RETURN(
      Objects tweets,
      NeighborsCached(user, h_.mentions, EdgesDirection::kIngoing));
  MBQ_ASSIGN_OR_RETURN(auto counts,
                       CountNeighborsPerSource(tweets, h_.mentions,
                                               EdgesDirection::kOutgoing,
                                               user));
  std::vector<std::pair<Value, int64_t>> keyed;
  keyed.reserve(counts.size());
  for (const auto& [oid, count] : counts) {
    MBQ_ASSIGN_OR_RETURN(Value key, graph_->GetAttribute(oid, h_.uid));
    keyed.emplace_back(std::move(key), count);
  }
  ValueRows top = TopNCounts(keyed, n);
  tracker.SetRows(top.size());
  return top;
}

Result<ValueRows> BitmapEngine::TopCoOccurringHashtags(const std::string& tag,
                                                       int64_t n) {
  QueryTracker tracker(graph_,
                       "TopCoOccurringHashtags(\"" + tag + "\", " +
                           std::to_string(n) + ")",
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(Oid hashtag,
                       graph_->FindObject(h_.tag, Value::String(tag)));
  if (hashtag == bitmapstore::kInvalidOid) return ValueRows{};
  MBQ_ASSIGN_OR_RETURN(
      Objects tweets,
      NeighborsCached(hashtag, h_.tags, EdgesDirection::kIngoing));
  MBQ_ASSIGN_OR_RETURN(auto counts,
                       CountNeighborsPerSource(tweets, h_.tags,
                                               EdgesDirection::kOutgoing,
                                               hashtag));
  std::vector<std::pair<Value, int64_t>> keyed;
  keyed.reserve(counts.size());
  for (const auto& [oid, count] : counts) {
    MBQ_ASSIGN_OR_RETURN(Value key, graph_->GetAttribute(oid, h_.tag));
    keyed.emplace_back(std::move(key), count);
  }
  ValueRows top = TopNCounts(keyed, n);
  tracker.SetRows(top.size());
  return top;
}

Result<ValueRows> BitmapEngine::Recommend(int64_t uid, int64_t n,
                                          EdgesDirection second_hop) {
  MBQ_ASSIGN_OR_RETURN(Oid user, UserByUid(uid));
  if (user == bitmapstore::kInvalidOid) return ValueRows{};
  MBQ_ASSIGN_OR_RETURN(
      Objects followees,
      NeighborsCached(user, h_.follows, EdgesDirection::kOutgoing));
  // "A separate neighbours call has to be executed for each 1-step
  // followee of A" — the per-followee loop the paper calls expensive.
  MBQ_ASSIGN_OR_RETURN(auto counts,
                       CountNeighborsPerSource(followees, h_.follows,
                                               second_hop,
                                               bitmapstore::kInvalidOid));
  // Remove A itself and anyone A already follows.
  counts.erase(user);
  followees.ForEach([&](uint32_t followee) { counts.erase(followee); });
  std::vector<std::pair<Value, int64_t>> keyed;
  keyed.reserve(counts.size());
  for (const auto& [oid, count] : counts) {
    MBQ_ASSIGN_OR_RETURN(Value key, graph_->GetAttribute(oid, h_.uid));
    keyed.emplace_back(std::move(key), count);
  }
  return TopNCounts(keyed, n);
}

Result<ValueRows> BitmapEngine::RecommendFolloweesOfFollowees(int64_t uid,
                                                              int64_t n) {
  QueryTracker tracker(graph_,
                       DescribeCall("RecommendFolloweesOfFollowees", uid, n),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(ValueRows rows,
                       Recommend(uid, n, EdgesDirection::kOutgoing));
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::RecommendFollowersOfFollowees(int64_t uid,
                                                              int64_t n) {
  QueryTracker tracker(graph_,
                       DescribeCall("RecommendFollowersOfFollowees", uid, n),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(ValueRows rows,
                       Recommend(uid, n, EdgesDirection::kIngoing));
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::Influence(int64_t uid, int64_t n,
                                          bool keep_followers) {
  MBQ_ASSIGN_OR_RETURN(Oid user, UserByUid(uid));
  if (user == bitmapstore::kInvalidOid) return ValueRows{};
  // Users who mentioned A: tweets mentioning A, then their posters,
  // counted per poster.
  MBQ_ASSIGN_OR_RETURN(
      Objects tweets,
      NeighborsCached(user, h_.mentions, EdgesDirection::kIngoing));
  MBQ_ASSIGN_OR_RETURN(auto counts,
                       CountNeighborsPerSource(tweets, h_.posts,
                                               EdgesDirection::kIngoing,
                                               user));
  // "Removing (or retaining) the users who are already following A."
  MBQ_ASSIGN_OR_RETURN(
      Objects followers,
      NeighborsCached(user, h_.follows, EdgesDirection::kIngoing));
  std::vector<std::pair<Value, int64_t>> keyed;
  for (const auto& [oid, count] : counts) {
    if (followers.Contains(oid) != keep_followers) continue;
    MBQ_ASSIGN_OR_RETURN(Value key, graph_->GetAttribute(oid, h_.uid));
    keyed.emplace_back(std::move(key), count);
  }
  return TopNCounts(keyed, n);
}

Result<ValueRows> BitmapEngine::CurrentInfluence(int64_t uid, int64_t n) {
  QueryTracker tracker(graph_, DescribeCall("CurrentInfluence", uid, n),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(ValueRows rows,
                       Influence(uid, n, /*keep_followers=*/true));
  tracker.SetRows(rows.size());
  return rows;
}

Result<ValueRows> BitmapEngine::PotentialInfluence(int64_t uid, int64_t n) {
  QueryTracker tracker(graph_, DescribeCall("PotentialInfluence", uid, n),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  MBQ_ASSIGN_OR_RETURN(ValueRows rows,
                       Influence(uid, n, /*keep_followers=*/false));
  tracker.SetRows(rows.size());
  return rows;
}

Result<int64_t> BitmapEngine::ShortestPathLength(int64_t uid_a, int64_t uid_b,
                                                 uint32_t max_hops) {
  QueryTracker tracker(graph_, DescribeCall("ShortestPathLength", uid_a, uid_b),
                       threads_, slow_query_millis_);
  auto snapshot = OpenReadSnapshot();
  tracker.SetRows(1);
  MBQ_ASSIGN_OR_RETURN(Oid a, UserByUid(uid_a));
  MBQ_ASSIGN_OR_RETURN(Oid b, UserByUid(uid_b));
  if (a == bitmapstore::kInvalidOid || b == bitmapstore::kInvalidOid) {
    return -1;
  }
  bitmapstore::SinglePairShortestPathBFS bfs(graph_, a, b);
  bfs.AddEdgeType(h_.follows, EdgesDirection::kOutgoing);
  bfs.SetMaximumHops(max_hops);
  MBQ_RETURN_IF_ERROR(bfs.Run());
  if (!bfs.Exists()) return -1;
  return static_cast<int64_t>(bfs.GetCost());
}

}  // namespace mbq::core
