#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/adjacency_cache.h"
#include "cache/epoch.h"
#include "cache/lru_cache.h"
#include "cache/result_cache.h"
#include "core/bitmap_engine.h"
#include "core/engine.h"
#include "core/nodestore_engine.h"
#include "twitter/loaders.h"

namespace mbq::cache {
namespace {

// ------------------------------------------------------------- Epochs

TEST(CacheEpochTest, BumpInvalidatesOnlyTouchedDomains) {
  EpochRegistry epochs;
  EpochStamp stamp = CaptureStamp(
      epochs, {LabelDomain(1), RelTypeDomain(2)}, /*use_global=*/false);
  EXPECT_TRUE(stamp.Valid(epochs));

  epochs.Bump(LabelDomain(3));  // disjoint domain (and disjoint slot)
  EXPECT_TRUE(stamp.Valid(epochs));

  epochs.Bump(LabelDomain(1));
  EXPECT_FALSE(stamp.Valid(epochs));
}

TEST(CacheEpochTest, GlobalStampInvalidatedByAnyWrite) {
  EpochRegistry epochs;
  EpochStamp stamp = CaptureStamp(epochs, {}, /*use_global=*/true);
  EXPECT_TRUE(stamp.Valid(epochs));
  epochs.Bump(RelTypeDomain(7));
  EXPECT_FALSE(stamp.Valid(epochs));
}

TEST(CacheEpochTest, BumpAllInvalidatesEverything) {
  EpochRegistry epochs;
  EpochStamp slotted =
      CaptureStamp(epochs, {LabelDomain(4)}, /*use_global=*/false);
  EpochStamp global = CaptureStamp(epochs, {}, /*use_global=*/true);
  epochs.BumpAll();
  EXPECT_FALSE(slotted.Valid(epochs));
  EXPECT_FALSE(global.Valid(epochs));
}

TEST(CacheEpochTest, SlotCollisionInvalidatesSpuriouslyNeverStalely) {
  EpochRegistry epochs;
  // Two domains that share a slot (kSlots apart): a write to one must
  // invalidate stamps of the other — the conservative direction.
  uint32_t domain = 5;
  uint32_t collider = domain + EpochRegistry::kSlots;
  EpochStamp stamp = CaptureStamp(epochs, {domain}, /*use_global=*/false);
  epochs.Bump(collider);
  EXPECT_FALSE(stamp.Valid(epochs));
}

// ---------------------------------------------------------------- LRU

TEST(CacheLruTest, EvictsLeastRecentlyUsedUnderTinyCapacity) {
  EpochRegistry epochs;
  ShardedLruCache<int, int> cache(LruOptions{/*capacity=*/2, /*shards=*/1,
                                             /*metric_prefix=*/""},
                                  &epochs);
  EpochStamp stamp = CaptureStamp(epochs, {}, /*use_global=*/true);
  cache.Put(1, 10, 8, stamp);
  cache.Put(2, 20, 8, stamp);
  int out = 0;
  ASSERT_TRUE(cache.Get(1, &out));  // touch 1 -> 2 becomes the LRU victim
  cache.Put(3, 30, 8, stamp);
  EXPECT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(3, &out));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CacheLruTest, StaleEntriesDropOnGetAndStalePutsAreRefused) {
  EpochRegistry epochs;
  ShardedLruCache<int, int> cache(LruOptions{4, 1, ""}, &epochs);
  EpochStamp stamp =
      CaptureStamp(epochs, {RelTypeDomain(1)}, /*use_global=*/false);
  cache.Put(1, 10, 8, stamp);
  int out = 0;
  ASSERT_TRUE(cache.Get(1, &out));

  epochs.Bump(RelTypeDomain(1));
  EXPECT_FALSE(cache.Get(1, &out));  // lazily dropped
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // A stamp that expired before Put never enters the cache.
  cache.Put(2, 20, 8, stamp);
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheLruTest, ClearDropsEntriesAndBytes) {
  EpochRegistry epochs;
  ShardedLruCache<int, int> cache(LruOptions{8, 2, ""}, &epochs);
  EpochStamp stamp = CaptureStamp(epochs, {}, /*use_global=*/true);
  for (int i = 0; i < 6; ++i) cache.Put(i, i, 16, stamp);
  cache.Clear();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(CacheCanonicalTextTest, CollapsesWhitespaceRuns) {
  EXPECT_EQ(CanonicalQueryText("MATCH (n)\n\t RETURN  n"),
            "MATCH (n) RETURN n");
  EXPECT_EQ(CanonicalQueryText("  MATCH (n) RETURN n  "),
            "MATCH (n) RETURN n");
  EXPECT_EQ(CanonicalQueryText(""), "");
}

// -------------------------------------------- Cypher layer (nodestore)

class ResultCacheCypherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    twitter::DatasetSpec spec;
    spec.num_users = 300;
    spec.follows_per_user = 6;
    spec.active_user_fraction = 0.4;
    spec.tweets_per_active_user = 4;
    spec.mentions_per_tweet = 1.0;
    spec.tags_per_tweet = 0.8;
    spec.seed = 99;
    dataset_ = twitter::GenerateDataset(spec);

    nodestore::GraphDbOptions options;
    options.disk_profile = storage::DiskProfile::Instant();
    db_ = std::make_unique<nodestore::GraphDb>(options);
    auto nh = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();
    h_ = *nh;

    core::EngineOptions engine_options;
    engine_options.db = db_.get();
    engine_options.result_cache = true;
    auto engine = core::OpenEngine(core::EngineKind::kNodestore,
                                   engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_.reset(static_cast<core::NodestoreEngine*>(engine->release()));
  }

  cypher::CypherSession& session() { return engine_->session(); }

  nodestore::NodeId User(int64_t uid) {
    auto node = db_->IndexSeek(h_.user, h_.uid, common::Value::Int(uid));
    EXPECT_TRUE(node.ok());
    return *node;
  }

  twitter::Dataset dataset_;
  std::unique_ptr<nodestore::GraphDb> db_;
  twitter::NodestoreHandles h_;
  std::unique_ptr<core::NodestoreEngine> engine_;
};

TEST_F(ResultCacheCypherTest, SecondRunIsServedFromTheCacheWithZeroDbHits) {
  const std::string q =
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";
  cypher::Params params{{"uid", common::Value::Int(3)}};

  auto first = session().Run(q, params);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cached);
  EXPECT_GT(first->db_hits, 0u);

  auto second = session().Run(q, params);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
  EXPECT_EQ(second->db_hits, 0u);
  EXPECT_EQ(second->rows.size(), first->rows.size());
  EXPECT_EQ(second->columns, first->columns);

  cache::CacheStats stats = session().result_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
}

TEST_F(ResultCacheCypherTest, ProfileShowsCacheMissThenHit) {
  const std::string q =
      "PROFILE MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";
  cypher::Params params{{"uid", common::Value::Int(5)}};

  // Semantic diagnostics (if any) are prepended before the cache line,
  // so assert the line precedes the operator tree rather than being
  // byte zero.
  auto miss = session().Run(q, params);
  ASSERT_TRUE(miss.ok());
  size_t miss_at = miss->profile.find("cache=miss\n");
  ASSERT_NE(miss_at, std::string::npos) << miss->profile;
  EXPECT_LT(miss_at, miss->profile.find("rows=")) << miss->profile;

  auto hit = session().Run(q, params);
  ASSERT_TRUE(hit.ok());
  size_t hit_at = hit->profile.find("cache=hit\n");
  ASSERT_NE(hit_at, std::string::npos) << hit->profile;
  EXPECT_LT(hit_at, hit->profile.find("rows=")) << hit->profile;
}

TEST_F(ResultCacheCypherTest, ReformattedQueryTextSharesTheEntry) {
  cypher::Params params{{"uid", common::Value::Int(4)}};
  auto first = session().Run(
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid", params);
  ASSERT_TRUE(first.ok());
  auto second = session().Run(
      "MATCH  (a:user {uid: $uid})-[:follows]->(f:user)\n  RETURN f.uid",
      params);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
}

TEST_F(ResultCacheCypherTest, DifferentParamsDoNotShareEntries) {
  const std::string q =
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";
  auto a = session().Run(q, {{"uid", common::Value::Int(1)}});
  ASSERT_TRUE(a.ok());
  auto b = session().Run(q, {{"uid", common::Value::Int(2)}});
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->result_cached);
}

TEST_F(ResultCacheCypherTest, WriteThenReadIsNeverStale) {
  const std::string q =
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";
  cypher::Params params{{"uid", common::Value::Int(7)}};

  auto before = session().Run(q, params);
  ASSERT_TRUE(before.ok());
  size_t rows_before = before->rows.size();
  ASSERT_TRUE(session().Run(q, params)->result_cached);  // entry is live

  // User 7 follows a user it could not have followed yet: uid 7's own
  // followee list never contains every user, so pick one it lacks.
  std::set<std::string> followees;
  for (const auto& row : before->rows) followees.insert(row[0].ToString());
  int64_t target = -1;
  for (int64_t uid = 0; uid < 300; ++uid) {
    if (uid != 7 && followees.count(std::to_string(uid)) == 0) {
      target = uid;
      break;
    }
  }
  ASSERT_GE(target, 0);
  auto rel = db_->CreateRelationship(h_.follows, User(7), User(target));
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();

  auto after = session().Run(q, params);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->result_cached) << "stale result served after a write";
  EXPECT_EQ(after->rows.size(), rows_before + 1);
  EXPECT_GE(session().result_cache_stats().invalidations, 1u);
}

TEST_F(ResultCacheCypherTest, UnrelatedWriteKeepsTheEntry) {
  const std::string q =
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";
  cypher::Params params{{"uid", common::Value::Int(9)}};
  ASSERT_TRUE(session().Run(q, params).ok());

  // A posts edge touches neither the user label nor the follows type, so
  // the per-domain footprint keeps the entry alive.
  auto tweet = db_->CreateNode(h_.tweet);
  ASSERT_TRUE(tweet.ok());
  auto rel = db_->CreateRelationship(h_.posts, User(9), *tweet);
  ASSERT_TRUE(rel.ok());

  auto again = session().Run(q, params);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->result_cached)
      << "per-domain footprint should survive unrelated writes";
}

TEST_F(ResultCacheCypherTest, EvictionUnderTinyCapacity) {
  cypher::SessionOptions options;
  options.result_cache = true;
  options.result_cache_capacity = 8;  // one entry per shard
  engine_->Configure(options);
  const std::string q =
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";
  for (int64_t uid = 0; uid < 64; ++uid) {
    ASSERT_TRUE(session().Run(q, {{"uid", common::Value::Int(uid)}}).ok());
  }
  cache::CacheStats stats = session().result_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 8u);
}

TEST_F(ResultCacheCypherTest, AdjacencyCacheCutsDbHitsAndStaysCorrect) {
  cypher::SessionOptions options;
  options.result_cache = false;  // isolate the adjacency layer
  options.adjacency_cache = true;
  options.adjacency_min_degree = 0;  // cache every expansion
  engine_->Configure(options);

  const std::string q = core::NodestoreEngine::kRecommendVariantB;
  cypher::Params params{{"uid", common::Value::Int(11)},
                        {"n", common::Value::Int(1 << 30)}};
  auto cold = session().Run(q, params);
  ASSERT_TRUE(cold.ok());
  auto warm = session().Run(q, params);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->db_hits, cold->db_hits)
      << "cached expansions should not recharge store walks";
  EXPECT_EQ(warm->rows.size(), cold->rows.size());
  EXPECT_GT(session().adjacency_cache_stats().hits, 0u);

  // A follows write invalidates the cached neighbor lists: the next run
  // must see the new edge (compare against an uncached session).
  auto rel = db_->CreateRelationship(h_.follows, User(11), User(250));
  ASSERT_TRUE(rel.ok());
  auto after = session().Run(q, params);
  ASSERT_TRUE(after.ok());
  cypher::CypherSession fresh(db_.get());
  auto expect = fresh.Run(q, params);
  ASSERT_TRUE(expect.ok());
  ASSERT_EQ(after->rows.size(), expect->rows.size());
  for (size_t i = 0; i < after->rows.size(); ++i) {
    for (size_t j = 0; j < after->rows[i].size(); ++j) {
      EXPECT_TRUE(after->rows[i][j].Equals(expect->rows[i][j]))
          << "row " << i << " col " << j;
    }
  }
}

// ------------------------------------------------- Bitmap engine cache

class BitmapAdjacencyCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    twitter::DatasetSpec spec;
    spec.num_users = 250;
    spec.follows_per_user = 8;
    spec.active_user_fraction = 0.4;
    spec.tweets_per_active_user = 4;
    spec.seed = 123;
    dataset_ = twitter::GenerateDataset(spec);

    bitmapstore::GraphOptions options;
    options.disk_profile = storage::DiskProfile::Instant();
    graph_ = std::make_unique<bitmapstore::Graph>(options);
    auto bh = twitter::LoadIntoBitmapstore(dataset_, graph_.get());
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();
    h_ = *bh;

    core::EngineOptions engine_options;
    engine_options.graph = graph_.get();
    engine_options.handles = &h_;
    engine_options.adjacency_cache = true;
    engine_options.adjacency_min_degree = 0;
    auto engine = core::OpenEngine(core::EngineKind::kBitmap, engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_.reset(static_cast<core::BitmapEngine*>(engine->release()));
  }

  twitter::Dataset dataset_;
  std::unique_ptr<bitmapstore::Graph> graph_;
  twitter::BitmapHandles h_;
  std::unique_ptr<core::BitmapEngine> engine_;
};

TEST_F(BitmapAdjacencyCacheTest, RepeatedReadsHitAndWritesInvalidate) {
  auto first = engine_->FolloweesOf(5);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine_->FolloweesOf(5);
  ASSERT_TRUE(second.ok());
  core::SortRows(&*first);
  core::SortRows(&*second);
  EXPECT_EQ(*first, *second);
  EXPECT_GT(engine_->adjacency_cache_stats().hits, 0u);

  // A new follows edge must appear in the next read.
  auto a = graph_->FindObject(h_.uid, common::Value::Int(5));
  ASSERT_TRUE(a.ok());
  auto b = graph_->FindObject(h_.uid, common::Value::Int(249));
  ASSERT_TRUE(b.ok());
  // uid 249 might already be followed; count either way and compare sizes.
  size_t before = first->size();
  auto edge = graph_->NewEdge(h_.follows, *a, *b);
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  auto after = engine_->FolloweesOf(5);
  ASSERT_TRUE(after.ok());
  bool already_followed = false;
  for (const auto& row : *first) {
    if (row[0].Compare(common::Value::Int(249)) == 0) already_followed = true;
  }
  EXPECT_EQ(after->size(), already_followed ? before : before + 1)
      << "cached neighbor list served after a write";
  EXPECT_GE(engine_->adjacency_cache_stats().invalidations, 1u);
}

TEST_F(BitmapAdjacencyCacheTest, HeavyQueriesAgreeWithUncachedEngine) {
  core::BitmapEngine uncached(graph_.get(), h_);
  auto cached_rows = engine_->RecommendFolloweesOfFollowees(3, 1 << 30);
  auto plain_rows = uncached.RecommendFolloweesOfFollowees(3, 1 << 30);
  ASSERT_TRUE(cached_rows.ok() && plain_rows.ok());
  core::SortRows(&*cached_rows);
  core::SortRows(&*plain_rows);
  EXPECT_EQ(*cached_rows, *plain_rows);

  auto cached_inf = engine_->PotentialInfluence(3, 1 << 30);
  auto plain_inf = uncached.PotentialInfluence(3, 1 << 30);
  ASSERT_TRUE(cached_inf.ok() && plain_inf.ok());
  core::SortRows(&*cached_inf);
  core::SortRows(&*plain_inf);
  EXPECT_EQ(*cached_inf, *plain_inf);
}

// --------------------------------------------------------- Concurrency

/// Concurrent readers keep hitting the cache while epochs advance — the
/// single-writer/concurrent-reader model: the writer thread only bumps
/// the registry (as every store write does first), readers Get/Put.
/// TSan-clean by construction: shard mutexes + atomic epochs.
TEST(CacheConcurrencyTest, ReadersRaceEpochBumpsWithoutTearing) {
  EpochRegistry epochs;
  ShardedLruCache<int, int> cache(LruOptions{64, 8, ""}, &epochs);
  std::atomic<int> readers_live{4};
  std::atomic<uint64_t> served{0};

  std::thread writer([&] {
    uint32_t i = 0;
    while (readers_live.load(std::memory_order_acquire) > 0) {
      epochs.Bump(RelTypeDomain(i++ % 4));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 2000; ++round) {
        for (int key = 0; key < 16; ++key) {
          int out = 0;
          if (!cache.Get(key, &out)) {
            EpochStamp stamp = CaptureStamp(
                epochs, {RelTypeDomain(static_cast<uint32_t>(key % 4))},
                /*use_global=*/false);
            cache.Put(key, key * 100 + t, 8, std::move(stamp));
          } else {
            // Values are only ever key*100+t for some t: a torn or stale
            // mix would break this invariant.
            EXPECT_EQ(out / 100, key);
            served.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      readers_live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& r : readers) r.join();
  writer.join();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, served.load());
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace mbq::cache
