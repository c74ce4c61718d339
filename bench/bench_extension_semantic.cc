// Extension E2 (the paper's future work, §5): "a semantic-aware strategy
// to speed up the queries ... how semantically related nodes can be
// stored/partitioned when the queries are known." The record store can
// keep one relationship store file per relationship type; a chain walk
// over `follows` then reads pages holding only follows records instead
// of pages interleaving all five types. The win shows under a cold page
// cache, where wasted bytes per page translate directly into extra disk
// reads.

#include <cstdio>

#include "bench/bench_common.h"
#include <unordered_map>

#include "core/nodestore_engine.h"
#include "util/rng.h"
#include "util/logging.h"

namespace mbq::bench {
namespace {

struct Setup {
  std::unique_ptr<nodestore::GraphDb> db;
  std::unique_ptr<core::NodestoreEngine> engine;
};

/// Loads the dataset with relationships in *arrival order*: all edge
/// types shuffled together, as a live system would ingest them (a user's
/// posts, mentions and follows interleave in time). The stock bulk
/// loader ingests type by type, which accidentally pre-clusters the
/// shared store and hides the layout effect this experiment isolates.
Setup Build(const twitter::Dataset& dataset, bool partitioned) {
  Setup s;
  nodestore::GraphDbOptions options;
  options.cache_bytes = 256ull << 20;
  options.semantic_partitioning = partitioned;
  s.db = std::make_unique<nodestore::GraphDb>(options);
  nodestore::GraphDb* db = s.db.get();
  auto h = *twitter::ResolveNodestoreHandles(db);

  using common::Value;
  std::unordered_map<int64_t, nodestore::NodeId> users, tweets, hashtags;
  for (const auto& u : dataset.users) {
    nodestore::NodeId id = *db->CreateNode(h.user);
    MBQ_CHECK(db->SetNodeProperty(id, h.uid, Value::Int(u.uid)).ok());
    MBQ_CHECK(db->SetNodeProperty(id, h.followers_count,
                                  Value::Int(u.followers_count))
                  .ok());
    users[u.uid] = id;
  }
  for (const auto& t : dataset.tweets) {
    nodestore::NodeId id = *db->CreateNode(h.tweet);
    MBQ_CHECK(db->SetNodeProperty(id, h.tid, Value::Int(t.tid)).ok());
    MBQ_CHECK(db->SetNodeProperty(id, h.text, Value::String(t.text)).ok());
    tweets[t.tid] = id;
  }
  for (const auto& ht : dataset.hashtags) {
    nodestore::NodeId id = *db->CreateNode(h.hashtag);
    MBQ_CHECK(db->SetNodeProperty(id, h.hid, Value::Int(ht.hid)).ok());
    hashtags[ht.hid] = id;
  }

  // Arrival order: tweets arrive in tid order, each carrying its posts /
  // mentions / tags / retweets edges, with the follow stream interleaved
  // between them — the temporal structure a live system ingests.
  struct Edge {
    nodestore::RelTypeId type;
    nodestore::NodeId src;
    nodestore::NodeId dst;
  };
  std::vector<Edge> edges;
  edges.reserve(dataset.NumEdges());
  std::unordered_map<int64_t, std::vector<int64_t>> mentions_of, tags_of,
      retweets_of;
  for (const auto& [tid, uid] : dataset.mentions) {
    mentions_of[tid].push_back(uid);
  }
  for (const auto& [tid, hid] : dataset.tags) tags_of[tid].push_back(hid);
  for (const auto& [re, orig] : dataset.retweets) {
    retweets_of[re].push_back(orig);
  }
  std::vector<std::pair<int64_t, int64_t>> follow_queue = dataset.follows;
  Rng rng(4242);  // identical arrival order for both layouts
  rng.Shuffle(follow_queue);
  size_t follows_per_tweet =
      dataset.tweets.empty()
          ? follow_queue.size()
          : (follow_queue.size() + dataset.tweets.size() - 1) /
                dataset.tweets.size();
  size_t next_follow = 0;
  for (const auto& t : dataset.tweets) {
    for (size_t k = 0; k < follows_per_tweet && next_follow < follow_queue.size();
         ++k, ++next_follow) {
      const auto& [a, b] = follow_queue[next_follow];
      edges.push_back({h.follows, users[a], users[b]});
    }
    edges.push_back({h.posts, users[t.poster_uid], tweets[t.tid]});
    for (int64_t uid : mentions_of[t.tid]) {
      edges.push_back({h.mentions, tweets[t.tid], users[uid]});
    }
    for (int64_t hid : tags_of[t.tid]) {
      edges.push_back({h.tags, tweets[t.tid], hashtags[hid]});
    }
    for (int64_t orig : retweets_of[t.tid]) {
      edges.push_back({h.retweets, tweets[t.tid], tweets[orig]});
    }
  }
  for (; next_follow < follow_queue.size(); ++next_follow) {
    const auto& [a, b] = follow_queue[next_follow];
    edges.push_back({h.follows, users[a], users[b]});
  }
  for (const Edge& e : edges) {
    MBQ_CHECK(db->CreateRelationship(e.type, e.src, e.dst).ok());
  }

  MBQ_CHECK(db->CreateIndex(h.user, h.uid, true).ok());
  MBQ_CHECK(db->CreateIndex(h.tweet, h.tid, true).ok());
  MBQ_CHECK(db->Flush().ok());
  s.engine = std::make_unique<core::NodestoreEngine>(s.db.get());
  return s;
}

void Run() {
  uint64_t users = BenchUsers();
  std::printf("Extension E2 — semantic-aware relationship partitioning "
              "(%s users)\n\n",
              FormatCount(users).c_str());
  twitter::Dataset dataset = twitter::GenerateDataset(BenchSpec(users));
  uint32_t runs = BenchRuns();

  Setup mixed = Build(dataset, /*partitioned=*/false);
  Setup split = Build(dataset, /*partitioned=*/true);

  auto by_followees = core::UsersByFolloweeCount(dataset);
  std::vector<int64_t> sample;
  for (double q : {0.5, 0.8, 0.95, 0.999}) {
    sample.push_back(
        by_followees[static_cast<size_t>(
                         static_cast<double>(by_followees.size() - 1) * q)]
            .second);
  }

  std::vector<int> widths{26, 14, 14, 10};
  PrintRow({"query (cold cache)", "mixed store", "per-type", "speedup"},
           widths);
  PrintRule(widths);

  auto measure_cold = [&](Setup& setup, const core::TimedQuery& q) {
    MBQ_CHECK(setup.engine->DropCaches().ok());
    auto timing = core::MeasureQuery(
        q, /*warmup=*/0, 1, [&] { return setup.db->SimulatedIoNanos(); });
    MBQ_CHECK(timing.ok());
    return timing->avg_millis;
  };

  // Q3.1 walks mention chains — mentions are ~3.5% of all relationships,
  // so in the shared store every cold page read returns ~96% irrelevant
  // records; the per-type store packs mentions densely. This is where
  // semantic partitioning pays.
  auto by_mentions = core::UsersByMentionCount(dataset);
  std::vector<int64_t> mention_sample;
  for (double q : {0.7, 0.9, 0.99, 1.0}) {
    mention_sample.push_back(
        by_mentions[std::min(by_mentions.size() - 1,
                             static_cast<size_t>(
                                 static_cast<double>(by_mentions.size() - 1) *
                                 q))]
            .second);
  }
  double mixed_total = 0;
  double split_total = 0;
  for (int64_t uid : mention_sample) {
    double mixed_ms = measure_cold(mixed, [&]() -> Result<uint64_t> {
      MBQ_ASSIGN_OR_RETURN(auto rows,
                           mixed.engine->TopCoMentionedUsers(uid, 1 << 30));
      return rows.size();
    });
    double split_ms = measure_cold(split, [&]() -> Result<uint64_t> {
      MBQ_ASSIGN_OR_RETURN(auto rows,
                           split.engine->TopCoMentionedUsers(uid, 1 << 30));
      return rows.size();
    });
    mixed_total += mixed_ms;
    split_total += split_ms;
    char label[64];
    std::snprintf(label, sizeof(label), "Q3.1 uid=%lld",
                  static_cast<long long>(uid));
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  split_ms > 0 ? mixed_ms / split_ms : 0.0);
    PrintRow({label, FormatMillis(mixed_ms), FormatMillis(split_ms), speedup},
             widths);
  }
  std::printf("\ncold-cache Q3.1 total: mixed %s vs per-type %s (%.2fx)\n",
              FormatMillis(mixed_total).c_str(),
              FormatMillis(split_total).c_str(),
              split_total > 0 ? mixed_total / split_total : 0.0);

  // Counterpoint: Q2.2 (follows + posts, both high-volume types, and the
  // arrival order gives the shared store *temporal* locality a user's
  // follows and posts share). Partitioning should NOT help here — the
  // "when the queries are known" qualifier in the paper's future work is
  // doing real work.
  double q22_mixed = 0;
  double q22_split = 0;
  for (int64_t uid : sample) {
    q22_mixed += measure_cold(mixed, [&]() -> Result<uint64_t> {
      MBQ_ASSIGN_OR_RETURN(auto rows, mixed.engine->TweetsOfFollowees(uid));
      return rows.size();
    });
    q22_split += measure_cold(split, [&]() -> Result<uint64_t> {
      MBQ_ASSIGN_OR_RETURN(auto rows, split.engine->TweetsOfFollowees(uid));
      return rows.size();
    });
  }
  double q22_ratio = q22_split > 0 ? q22_mixed / q22_split : 0.0;
  std::printf("cold-cache Q2.2 total: mixed %s vs per-type %s (%.2fx) — "
              "%s\n",
              FormatMillis(q22_mixed).c_str(),
              FormatMillis(q22_split).c_str(), q22_ratio,
              q22_ratio >= 1.0
                  ? "typed-chain selectivity outweighs the shared store's "
                    "temporal locality at this scale"
                  : "the shared store's temporal locality (a user's "
                    "follows and posts arrive together) wins at this "
                    "scale");

  // Warm behaviour: typed chain walks skip every other type's records in
  // the partitioned layout, so the record-access count (db hits)
  // collapses — the core benefit of relationship groups.
  auto warm = [&](Setup& setup, double* millis, uint64_t* hits) {
    setup.db->ResetDbHits();
    auto timing = core::MeasureQuery(
        [&]() -> Result<uint64_t> {
          MBQ_ASSIGN_OR_RETURN(auto rows,
                               setup.engine->TweetsOfFollowees(sample[1]));
          return rows.size();
        },
        2, runs, [&] { return setup.db->SimulatedIoNanos(); });
    MBQ_CHECK(timing.ok());
    *millis = timing->avg_millis;
    *hits = setup.db->db_hits() / (runs + 2);
  };
  double mixed_warm, split_warm;
  uint64_t mixed_hits, split_hits;
  warm(mixed, &mixed_warm, &mixed_hits);
  warm(split, &split_warm, &split_hits);
  std::printf("warm Q2.2: mixed %s (%s db hits) vs per-type %s (%s db "
              "hits) — typed chains skip the other types' records\n",
              FormatMillis(mixed_warm).c_str(),
              FormatCount(mixed_hits).c_str(),
              FormatMillis(split_warm).c_str(),
              FormatCount(split_hits).c_str());
  std::printf(
      "\nshape: partitioned chains win whenever the walk is type-"
      "selective (big db-hit and warm-time cuts); cold low-degree nodes "
      "pay one extra group-record read — the reason Neo4j applies "
      "relationship groups to dense nodes only.\n");

  // Results must agree regardless of layout.
  auto a = mixed.engine->RecommendFolloweesOfFollowees(sample[2], 1 << 30);
  auto b = split.engine->RecommendFolloweesOfFollowees(sample[2], 1 << 30);
  MBQ_CHECK(a.ok() && b.ok());
  std::printf("layouts agree on Q4.1: %s\n", *a == *b ? "yes" : "NO");
}

}  // namespace
}  // namespace mbq::bench

int main(int argc, char** argv) {
  mbq::bench::MetricsExportGuard metrics(argc, argv);
  mbq::bench::Run();
  return 0;
}
