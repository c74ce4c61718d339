// Concurrency harness for the parallel-execution work: shared engines
// hammered from reader threads while the metrics registry is scraped,
// plan-cache single-flight under racing sessions, and morsel-parallel
// execution checked against the sequential plans. Designed to run clean
// under ThreadSanitizer (scripts/run_sanitized_tests.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bitmap_engine.h"
#include "core/nodestore_engine.h"
#include "core/workload.h"
#include "cypher/session.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "twitter/loaders.h"

namespace mbq::core {
namespace {

constexpr char kCoMentionQuery[] =
    "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(b:user) "
    "WHERE b.uid <> $uid "
    "RETURN b.uid, count(t) AS c ORDER BY c DESC, b.uid ASC LIMIT $n";

/// Buffer-cache size of both engines, in pages: the engines' default,
/// which the stores fit, or 32 pages, at which readers evict and re-claim
/// frames under contention, on the record store by byte pages and
/// byteless ones alike.
class ConcurrencyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    twitter::DatasetSpec spec;
    spec.num_users = 400;
    spec.follows_per_user = 8;
    spec.mentions_per_tweet = 1.5;
    spec.active_user_fraction = 0.4;
    spec.tweets_per_active_user = 5;
    spec.seed = 77;
    dataset_ = twitter::GenerateDataset(spec);

    nodestore::GraphDbOptions ndb_options;
    ndb_options.disk_profile = storage::DiskProfile::Instant();
    bitmapstore::GraphOptions bg_options;
    bg_options.disk_profile = storage::DiskProfile::Instant();
    ndb_options.cache_bytes = GetParam() * storage::kPageSize;
    bg_options.cache_bytes = GetParam() * storage::kPageSize;
    db_ = std::make_unique<nodestore::GraphDb>(ndb_options);
    auto nh = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();

    graph_ = std::make_unique<bitmapstore::Graph>(bg_options);
    auto bh = twitter::LoadIntoBitmapstore(dataset_, graph_.get());
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();

    ns_ = std::make_unique<NodestoreEngine>(db_.get());
    bm_ = std::make_unique<BitmapEngine>(graph_.get(), *bh);

    auto by_mentions = UsersByMentionCount(dataset_);
    ASSERT_FALSE(by_mentions.empty());
    hot_uid_ = by_mentions.back().second;
  }

  static void SortedExpectEq(Result<ValueRows> got, const ValueRows& want,
                             const char* what) {
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    SortRows(&*got);
    EXPECT_EQ(*got, want) << what;
  }

  twitter::Dataset dataset_;
  std::unique_ptr<nodestore::GraphDb> db_;
  std::unique_ptr<bitmapstore::Graph> graph_;
  std::unique_ptr<NodestoreEngine> ns_;
  std::unique_ptr<BitmapEngine> bm_;
  int64_t hot_uid_ = 0;
};

// N reader threads share one GraphDb and one Graph — each runs the heavy
// Table 2 queries repeatedly while another thread scrapes the metrics
// registry. The readers start from cold caches. Every result must match
// the sequential reference; no reader may observe a torn page, stat, or
// plan.
TEST_P(ConcurrencyTest, SharedEnginesSurviveConcurrentReaders) {
  // Sequential reference results, taken before any concurrency starts.
  auto ref_ns = ns_->TopCoMentionedUsers(hot_uid_, 1 << 30);
  auto ref_bm = bm_->TopCoMentionedUsers(hot_uid_, 1 << 30);
  auto ref_inf = ns_->CurrentInfluence(hot_uid_, 1 << 30);
  ASSERT_TRUE(ref_ns.ok() && ref_bm.ok() && ref_inf.ok());
  SortRows(&*ref_ns);
  SortRows(&*ref_bm);
  SortRows(&*ref_inf);
  ASSERT_TRUE(ns_->DropCaches().ok());
  ASSERT_TRUE(bm_->DropCaches().ok());

  constexpr int kReaders = 4;
  constexpr int kRoundsPerReader = 8;
  std::atomic<bool> stop_scraping{false};
  std::atomic<int> failures{0};

  std::thread scraper([&] {
    while (!stop_scraping.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
      std::string json = snap.ToJson();
      if (json.empty()) failures.fetch_add(1);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRoundsPerReader; ++round) {
        auto a = ns_->TopCoMentionedUsers(hot_uid_, 1 << 30);
        auto b = bm_->TopCoMentionedUsers(hot_uid_, 1 << 30);
        auto c = (r % 2 == 0) ? ns_->CurrentInfluence(hot_uid_, 1 << 30)
                              : bm_->TweetsOfFollowees(hot_uid_);
        if (!a.ok() || !b.ok() || !c.ok()) {
          failures.fetch_add(1);
          continue;
        }
        SortRows(&*a);
        SortRows(&*b);
        if (*a != *ref_ns || *b != *ref_bm) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop_scraping.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(failures.load(), 0);
}

// The same query text raced from two threads must be compiled exactly
// once: the second thread blocks on the session mutex, then takes the
// cached plan (single-flight, no double-plan, no torn cache entry).
TEST_P(ConcurrencyTest, PlanCacheCompilesRacedQueryOnce) {
  cypher::CypherSession session(db_.get());
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto result = session.Run(kCoMentionQuery,
                                {{"uid", cypher::Value::Int(hot_uid_)},
                                 {"n", cypher::Value::Int(10)}});
      if (!result.ok()) failures.fetch_add(1);
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(session.plan_cache_misses(), 1u);
  EXPECT_EQ(session.plan_cache_hits(), static_cast<uint64_t>(kThreads - 1));
}

// Morsel-parallel execution must be invisible in the results: the same
// queries at 1, 2 and 4 threads return identical rows and identical
// session-level db-hit totals.
TEST_P(ConcurrencyTest, ParallelExecutionMatchesSequential) {
  auto seq_q31 = ns_->TopCoMentionedUsers(hot_uid_, 1 << 30);
  auto seq_q51 = ns_->CurrentInfluence(hot_uid_, 1 << 30);
  auto seq_bm = bm_->TopCoMentionedUsers(hot_uid_, 1 << 30);
  ASSERT_TRUE(seq_q31.ok() && seq_q51.ok() && seq_bm.ok());
  SortRows(&*seq_q31);
  SortRows(&*seq_q51);
  SortRows(&*seq_bm);

  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ns_->SetThreads(threads);
    bm_->SetThreads(threads);
    SortedExpectEq(ns_->TopCoMentionedUsers(hot_uid_, 1 << 30), *seq_q31,
                   "Q3.1 nodestore");
    SortedExpectEq(ns_->CurrentInfluence(hot_uid_, 1 << 30), *seq_q51,
                   "Q5.1 nodestore");
    SortedExpectEq(bm_->TopCoMentionedUsers(hot_uid_, 1 << 30), *seq_bm,
                   "Q3.1 bitmapstore");
  }
  ns_->SetThreads(1);
  bm_->SetThreads(1);
}

// PROFILE on a parallel session reports how many workers executed the
// aggregation pipeline (the `par=` annotation), and the db-hit total
// matches the sequential run — worker hits are folded back in.
TEST_P(ConcurrencyTest, ProfileReportsParallelWorkers) {
  cypher::CypherSession session(db_.get());
  cypher::Params params{{"uid", cypher::Value::Int(hot_uid_)},
                        {"n", cypher::Value::Int(1 << 30)}};
  const std::string profiled = std::string("PROFILE ") + kCoMentionQuery;

  session.SetThreads(1);
  auto seq = session.Run(profiled, params);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(seq->profile.find("par="), std::string::npos);

  session.SetThreads(4);
  auto par = session.Run(profiled, params);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_EQ(par->rows.size(), seq->rows.size());
  for (size_t r = 0; r < seq->rows.size(); ++r) {
    ASSERT_EQ(par->rows[r].size(), seq->rows[r].size());
    for (size_t c = 0; c < seq->rows[r].size(); ++c) {
      EXPECT_EQ(par->rows[r][c].value, seq->rows[r][c].value)
          << "row " << r << " col " << c;
    }
  }
  EXPECT_NE(par->profile.find("par="), std::string::npos)
      << "parallel PROFILE should annotate worker count:\n"
      << par->profile;
  EXPECT_EQ(par->db_hits, seq->db_hits)
      << "worker db hits must fold into the session total";
}

// Concurrent parallel queries: several threads each run a 2-way parallel
// aggregation on the shared session, all drawing workers from the same
// default pool. Checks pool sharing under contention.
TEST_P(ConcurrencyTest, ConcurrentParallelQueriesShareThePool) {
  ns_->SetThreads(2);
  auto ref = ns_->TopCoMentionedUsers(hot_uid_, 1 << 30);
  ASSERT_TRUE(ref.ok());
  SortRows(&*ref);

  constexpr int kCallers = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        auto got = ns_->TopCoMentionedUsers(hot_uid_, 1 << 30);
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        SortRows(&*got);
        if (*got != *ref) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  ns_->SetThreads(1);
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    CacheSizes, ConcurrencyTest,
    ::testing::Values(nodestore::GraphDbOptions().cache_bytes /
                          storage::kPageSize,
                      uint64_t{32}));

}  // namespace
}  // namespace mbq::core
