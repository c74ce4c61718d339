#include <gtest/gtest.h>

#include <memory>

#include "core/bitmap_engine.h"
#include "core/nodestore_engine.h"
#include "core/workload.h"
#include "twitter/loaders.h"

namespace mbq::core {
namespace {

using twitter::Dataset;
using twitter::DatasetSpec;

/// Loads the same generated dataset into both engines and checks that
/// every Table 2 query returns identical results — the strongest
/// correctness check in this reproduction (two independent storage
/// engines, two independent query implementations, one answer).
class EnginesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec;
    spec.num_users = 600;
    spec.follows_per_user = 9;
    spec.active_user_fraction = 0.3;
    spec.tweets_per_active_user = 6;
    spec.mentions_per_tweet = 1.2;
    spec.tags_per_tweet = 0.8;
    spec.retweet_fraction = 0.15;
    spec.seed = 7;
    dataset_ = new Dataset(twitter::GenerateDataset(spec));

    nodestore::GraphDbOptions ndb_options;
    ndb_options.disk_profile = storage::DiskProfile::Instant();
    db_ = new nodestore::GraphDb(ndb_options);
    auto nh = twitter::LoadIntoNodestore(*dataset_, db_);
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();

    bitmapstore::GraphOptions bg_options;
    bg_options.disk_profile = storage::DiskProfile::Instant();
    graph_ = new bitmapstore::Graph(bg_options);
    auto bh = twitter::LoadIntoBitmapstore(*dataset_, graph_);
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();

    // Through the factory (the one construction surface benches and tests
    // share); the typed pointers are recovered for session()-level tests.
    EngineOptions ns_options;
    ns_options.db = db_;
    auto ns = OpenEngine(EngineKind::kNodestore, ns_options);
    ASSERT_TRUE(ns.ok()) << ns.status().ToString();
    ns_engine_ = static_cast<NodestoreEngine*>(ns->release());

    EngineOptions bm_options;
    bm_options.graph = graph_;
    bm_options.handles = &*bh;
    auto bm = OpenEngine(EngineKind::kBitmap, bm_options);
    ASSERT_TRUE(bm.ok()) << bm.status().ToString();
    bm_engine_ = static_cast<BitmapEngine*>(bm->release());
  }

  static void TearDownTestSuite() {
    delete ns_engine_;
    delete bm_engine_;
    delete db_;
    delete graph_;
    delete dataset_;
    ns_engine_ = nullptr;
    bm_engine_ = nullptr;
    db_ = nullptr;
    graph_ = nullptr;
    dataset_ = nullptr;
  }

  static void ExpectSameRows(Result<ValueRows> a, Result<ValueRows> b,
                             const std::string& what) {
    ASSERT_TRUE(a.ok()) << what << " nodestore: " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << what << " bitmapstore: " << b.status().ToString();
    ValueRows ra = *a;
    ValueRows rb = *b;
    SortRows(&ra);
    SortRows(&rb);
    ASSERT_EQ(ra.size(), rb.size()) << what;
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].size(), rb[i].size()) << what << " row " << i;
      for (size_t j = 0; j < ra[i].size(); ++j) {
        EXPECT_EQ(ra[i][j].Compare(rb[i][j]), 0)
            << what << " row " << i << " col " << j << ": "
            << ra[i][j].ToString() << " vs " << rb[i][j].ToString();
      }
    }
  }

  static Dataset* dataset_;
  static nodestore::GraphDb* db_;
  static bitmapstore::Graph* graph_;
  static NodestoreEngine* ns_engine_;
  static BitmapEngine* bm_engine_;
};

Dataset* EnginesTest::dataset_ = nullptr;
nodestore::GraphDb* EnginesTest::db_ = nullptr;
bitmapstore::Graph* EnginesTest::graph_ = nullptr;
NodestoreEngine* EnginesTest::ns_engine_ = nullptr;
BitmapEngine* EnginesTest::bm_engine_ = nullptr;

TEST_F(EnginesTest, Q11SelectAgrees) {
  for (int64_t threshold : {0, 5, 20, 100}) {
    ExpectSameRows(ns_engine_->SelectUsersByFollowerCount(threshold),
                   bm_engine_->SelectUsersByFollowerCount(threshold),
                   "Q1.1 t=" + std::to_string(threshold));
  }
}

TEST_F(EnginesTest, Q21FolloweesAgree) {
  for (int64_t uid : {0, 7, 42, 599}) {
    ExpectSameRows(ns_engine_->FolloweesOf(uid), bm_engine_->FolloweesOf(uid),
                   "Q2.1 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q22FolloweeTweetsAgree) {
  for (int64_t uid : {3, 77, 200}) {
    ExpectSameRows(ns_engine_->TweetsOfFollowees(uid),
                   bm_engine_->TweetsOfFollowees(uid),
                   "Q2.2 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q23FolloweeHashtagsAgree) {
  for (int64_t uid : {3, 77, 200}) {
    ExpectSameRows(ns_engine_->HashtagsUsedByFollowees(uid),
                   bm_engine_->HashtagsUsedByFollowees(uid),
                   "Q2.3 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q31CoMentionsAgree) {
  auto by_mentions = UsersByMentionCount(*dataset_);
  ASSERT_FALSE(by_mentions.empty());
  // Most-mentioned user plus a mid-range one.
  int64_t hot = by_mentions.back().second;
  int64_t mid = by_mentions[by_mentions.size() / 2].second;
  for (int64_t uid : {hot, mid}) {
    ExpectSameRows(ns_engine_->TopCoMentionedUsers(uid, 1000000),
                   bm_engine_->TopCoMentionedUsers(uid, 1000000),
                   "Q3.1 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q32CoHashtagsAgree) {
  auto tags = HashtagsByUse(*dataset_);
  ASSERT_FALSE(tags.empty());
  std::string hot = tags.back().second;
  ExpectSameRows(ns_engine_->TopCoOccurringHashtags(hot, 1000000),
                 bm_engine_->TopCoOccurringHashtags(hot, 1000000),
                 "Q3.2 tag=" + hot);
}

TEST_F(EnginesTest, Q41RecommendationAgrees) {
  for (int64_t uid : {0, 42, 300}) {
    ExpectSameRows(ns_engine_->RecommendFolloweesOfFollowees(uid, 1000000),
                   bm_engine_->RecommendFolloweesOfFollowees(uid, 1000000),
                   "Q4.1 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q42RecommendationAgrees) {
  for (int64_t uid : {0, 42, 300}) {
    ExpectSameRows(ns_engine_->RecommendFollowersOfFollowees(uid, 1000000),
                   bm_engine_->RecommendFollowersOfFollowees(uid, 1000000),
                   "Q4.2 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q51CurrentInfluenceAgrees) {
  auto by_mentions = UsersByMentionCount(*dataset_);
  int64_t hot = by_mentions.back().second;
  ExpectSameRows(ns_engine_->CurrentInfluence(hot, 1000000),
                 bm_engine_->CurrentInfluence(hot, 1000000),
                 "Q5.1 uid=" + std::to_string(hot));
}

TEST_F(EnginesTest, Q52PotentialInfluenceAgrees) {
  auto by_mentions = UsersByMentionCount(*dataset_);
  int64_t hot = by_mentions.back().second;
  int64_t mid = by_mentions[by_mentions.size() / 2].second;
  for (int64_t uid : {hot, mid}) {
    ExpectSameRows(ns_engine_->PotentialInfluence(uid, 1000000),
                   bm_engine_->PotentialInfluence(uid, 1000000),
                   "Q5.2 uid=" + std::to_string(uid));
  }
}

TEST_F(EnginesTest, Q61ShortestPathAgrees) {
  Rng rng(99);
  int agreements = 0;
  for (int trial = 0; trial < 25; ++trial) {
    int64_t a = static_cast<int64_t>(rng.NextBounded(600));
    int64_t b = static_cast<int64_t>(rng.NextBounded(600));
    auto la = ns_engine_->ShortestPathLength(a, b, 3);
    auto lb = bm_engine_->ShortestPathLength(a, b, 3);
    ASSERT_TRUE(la.ok()) << la.status().ToString();
    ASSERT_TRUE(lb.ok()) << lb.status().ToString();
    EXPECT_EQ(*la, *lb) << "pair " << a << "->" << b;
    if (*la >= 0) ++agreements;
  }
  // The follows graph is dense enough that some pairs connect within 3.
  EXPECT_GT(agreements, 0);
}

TEST_F(EnginesTest, TopNLimitsConsistently) {
  auto by_mentions = UsersByMentionCount(*dataset_);
  int64_t hot = by_mentions.back().second;
  auto full = bm_engine_->TopCoMentionedUsers(hot, 1000000);
  auto top5_ns = ns_engine_->TopCoMentionedUsers(hot, 5);
  auto top5_bm = bm_engine_->TopCoMentionedUsers(hot, 5);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(top5_ns.ok());
  ASSERT_TRUE(top5_bm.ok());
  if (full->size() >= 5) {
    EXPECT_EQ(top5_ns->size(), 5u);
    EXPECT_EQ(top5_bm->size(), 5u);
  }
  // Both top-5 lists are prefixes of the same total order.
  for (size_t i = 0; i < std::min(top5_ns->size(), top5_bm->size()); ++i) {
    EXPECT_EQ((*top5_ns)[i][0].Compare((*top5_bm)[i][0]), 0) << "rank " << i;
    EXPECT_EQ((*top5_ns)[i][1].Compare((*top5_bm)[i][1]), 0) << "rank " << i;
  }
}

TEST_F(EnginesTest, RecommendationVariantsAgree) {
  // The three Cypher phrasings of Q4.1 (§4) must return the same rows.
  cypher::Params params{{"uid", common::Value::Int(42)},
                        {"n", common::Value::Int(1000000)}};
  auto a = ns_engine_->session().Run(NodestoreEngine::kRecommendVariantA,
                                     params);
  auto b = ns_engine_->session().Run(NodestoreEngine::kRecommendVariantB,
                                     params);
  auto c = ns_engine_->session().Run(NodestoreEngine::kRecommendVariantC,
                                     params);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    EXPECT_TRUE(a->rows[i][0].Equals(b->rows[i][0])) << "rank " << i;
    EXPECT_TRUE(a->rows[i][1].Equals(b->rows[i][1])) << "rank " << i;
  }
  // Variant C includes depth-1 reachability, but after removing direct
  // followees the surviving candidate set matches; counts include the
  // extra depth-1 paths only for nodes that are not direct followees —
  // for those candidates no depth-1 path exists, so counts match too.
  ASSERT_EQ(c->rows.size(), b->rows.size());
  for (size_t i = 0; i < c->rows.size(); ++i) {
    EXPECT_TRUE(c->rows[i][0].Equals(b->rows[i][0])) << "rank " << i;
  }
}

}  // namespace
}  // namespace mbq::core
