#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bitmap_engine.h"
#include "core/calls.h"
#include "core/nodestore_engine.h"
#include "core/workload.h"
#include "recorded_spans.h"
#include "twitter/loaders.h"
#include "verify_sweep.h"

namespace mbq::core {
namespace {

using twitter::Dataset;
using twitter::DatasetSpec;

/// Property-style sweep: for a spread of dataset shapes and seeds, the
/// two engines — different storage layouts, different query surfaces —
/// must return identical results for the whole Table 2 workload. Any
/// divergence in chain maintenance, bitmap algebra, planner logic or
/// expression evaluation shows up here.
struct AgreementCase {
  uint64_t seed;
  uint64_t users;
  double follows_per_user;
  double mentions_per_tweet;
  double active_fraction;
  bool partition_nodestore;
  /// gtest names each case in ctest by the struct's bytes. The tail that
  /// would be padding is a zeroed member, so every byte is set and the
  /// names are the same in every build.
  uint8_t zeroed_tail[7] = {};
};
static_assert(sizeof(AgreementCase) == 48, "AgreementCase has padding");

/// Both engines over one generated dataset of shape `c`.
class EnginePairTest : public ::testing::Test {
 protected:
  void Open(const AgreementCase& c) {
    DatasetSpec spec;
    spec.num_users = c.users;
    spec.follows_per_user = c.follows_per_user;
    spec.mentions_per_tweet = c.mentions_per_tweet;
    spec.active_user_fraction = c.active_fraction;
    spec.tweets_per_active_user = 5;
    spec.retweet_fraction = 0.1;
    spec.seed = c.seed;
    dataset_ = twitter::GenerateDataset(spec);

    nodestore::GraphDbOptions ndb_options;
    ndb_options.disk_profile = storage::DiskProfile::Instant();
    ndb_options.semantic_partitioning = c.partition_nodestore;
    db_ = std::make_unique<nodestore::GraphDb>(ndb_options);
    auto nh = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();

    bitmapstore::GraphOptions bg_options;
    bg_options.disk_profile = storage::DiskProfile::Instant();
    graph_ = std::make_unique<bitmapstore::Graph>(bg_options);
    auto bh = twitter::LoadIntoBitmapstore(dataset_, graph_.get());
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();

    EngineOptions ns_options;
    ns_options.db = db_.get();
    auto ns = OpenEngine(EngineKind::kNodestore, ns_options);
    ASSERT_TRUE(ns.ok()) << ns.status().ToString();
    ns_.reset(static_cast<NodestoreEngine*>(ns->release()));

    EngineOptions bm_options;
    bm_options.graph = graph_.get();
    bm_options.handles = &*bh;
    auto bm = OpenEngine(EngineKind::kBitmap, bm_options);
    ASSERT_TRUE(bm.ok()) << bm.status().ToString();
    bm_.reset(static_cast<BitmapEngine*>(bm->release()));
  }

  Dataset dataset_;
  std::unique_ptr<nodestore::GraphDb> db_;
  std::unique_ptr<bitmapstore::Graph> graph_;
  std::unique_ptr<NodestoreEngine> ns_;
  std::unique_ptr<BitmapEngine> bm_;
};

class AgreementSweepTest : public EnginePairTest,
                           public ::testing::WithParamInterface<AgreementCase> {
 protected:
  void SetUp() override { Open(GetParam()); }
};

TEST_P(AgreementSweepTest, WholeWorkloadAgrees) {
  // Fixed anchors: the first user, a middle one, the most-mentioned
  // user, the most used hashtag, then ten random shortest paths.
  auto by_mentions = UsersByMentionCount(dataset_);
  int64_t hot = by_mentions.empty() ? 0 : by_mentions.back().second;
  auto tags = HashtagsByUse(dataset_);
  std::vector<CallSpec> specs;
  auto add = [&specs](CallKind kind, int64_t a) -> CallSpec& {
    CallSpec& spec = specs.emplace_back();
    spec.kind = kind;
    spec.a = a;
    spec.n = 1 << 30;
    return spec;
  };

  add(CallKind::kSelectUsers, 0).threshold = 10;
  const int64_t users = static_cast<int64_t>(dataset_.users.size());
  for (int64_t uid : {int64_t{0}, users / 2}) {
    for (CallKind kind :
         {CallKind::kFollowees, CallKind::kTweetsOfFollowees,
          CallKind::kHashtagsOfFollowees, CallKind::kRecFollowees,
          CallKind::kRecFollowers}) {
      add(kind, uid);
    }
  }
  for (CallKind kind : {CallKind::kTopCoMentioned, CallKind::kCurrentInfluence,
                        CallKind::kPotentialInfluence}) {
    add(kind, hot);
  }
  const bool used_tag = !tags.empty() && tags.back().first > 0;
  if (used_tag) add(CallKind::kTopCoTags, 0).tag = tags.back().second;
  Rng rng(GetParam().seed ^ 0xABCD);
  for (int i = 0; i < 10; ++i) {
    CallSpec& path = add(CallKind::kShortestPath, rng.NextBounded(users));
    path.b = rng.NextBounded(users);
  }

  ExpectAgreement(Verify(*ns_, *bm_, specs), used_tag ? 11 : 10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AgreementSweepTest,
    ::testing::Values(
        // Baseline shape, shared relationship store.
        AgreementCase{101, 400, 8, 1.0, 0.3, false},
        // Same data on a semantically partitioned record store.
        AgreementCase{101, 400, 8, 1.0, 0.3, true},
        // Sparse follows, mention-heavy.
        AgreementCase{202, 500, 2, 2.5, 0.5, false},
        // Dense follows, few tweets.
        AgreementCase{303, 300, 25, 0.5, 0.1, false},
        // Tiny graph (edge cases: empty neighborhoods).
        AgreementCase{404, 50, 3, 1.0, 0.4, true}));

/// Randomized differential harness: every seed derives a random dataset
/// shape, a random thread count per engine, and 25 calls drawn from
/// scripts/verify.mix, every read kind at least twice — the two engines
/// must agree on all of them. A failure message carries the seed, which
/// fully reproduces the case (dataset, threads and calls are all derived
/// from it).
class RandomDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void BuildFromSeed(uint64_t seed) {
    Rng shape_rng(seed);
    DatasetSpec spec;
    spec.num_users = 60 + shape_rng.NextBounded(340);       // 60..399
    spec.follows_per_user = 1 + shape_rng.NextBounded(20);  // 1..20
    spec.mentions_per_tweet =
        0.5 + 0.25 * static_cast<double>(shape_rng.NextBounded(9));
    spec.active_user_fraction =
        0.1 + 0.05 * static_cast<double>(shape_rng.NextBounded(10));
    spec.tweets_per_active_user = 2 + shape_rng.NextBounded(6);
    spec.retweet_fraction = 0.05 * static_cast<double>(shape_rng.NextBounded(4));
    spec.seed = seed;
    dataset_ = twitter::GenerateDataset(spec);

    nodestore::GraphDbOptions ndb_options;
    ndb_options.disk_profile = storage::DiskProfile::Instant();
    ndb_options.semantic_partitioning = shape_rng.NextBounded(2) == 1;
    db_ = std::make_unique<nodestore::GraphDb>(ndb_options);
    auto nh = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();

    bitmapstore::GraphOptions bg_options;
    bg_options.disk_profile = storage::DiskProfile::Instant();
    graph_ = std::make_unique<bitmapstore::Graph>(bg_options);
    auto bh = twitter::LoadIntoBitmapstore(dataset_, graph_.get());
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();

    // Both read caches stay ON throughout the differential stream: every
    // repeated query mixes cached and fresh executions across the two
    // engines, so a cache replaying wrong rows diverges immediately.
    // Capacities are drawn small or default — the small draws force
    // evictions mid-stream.
    EngineOptions ns_options;
    ns_options.db = db_.get();
    ns_options.result_cache = true;
    ns_options.result_cache_capacity =
        shape_rng.NextBounded(2) == 1 ? 4 : 256;
    ns_options.adjacency_cache = true;
    ns_options.adjacency_cache_capacity =
        shape_rng.NextBounded(2) == 1 ? 8 : 4096;
    ns_options.adjacency_min_degree = shape_rng.NextBounded(2) == 1 ? 0 : 8;
    auto ns = OpenEngine(EngineKind::kNodestore, ns_options);
    ASSERT_TRUE(ns.ok()) << ns.status().ToString();
    ns_.reset(static_cast<NodestoreEngine*>(ns->release()));

    EngineOptions bm_options;
    bm_options.graph = graph_.get();
    bm_options.handles = &*bh;
    bm_options.adjacency_cache = true;
    bm_options.adjacency_cache_capacity =
        shape_rng.NextBounded(2) == 1 ? 8 : 4096;
    bm_options.adjacency_min_degree = shape_rng.NextBounded(2) == 1 ? 0 : 8;
    auto bm = OpenEngine(EngineKind::kBitmap, bm_options);
    ASSERT_TRUE(bm.ok()) << bm.status().ToString();
    bm_.reset(static_cast<BitmapEngine*>(bm->release()));

    // Each engine independently draws sequential or parallel execution,
    // so runs also cross-check parallel-vs-sequential between engines.
    const uint32_t kThreadChoices[] = {1, 2, 4};
    ns_->SetThreads(kThreadChoices[shape_rng.NextBounded(3)]);
    bm_->SetThreads(kThreadChoices[shape_rng.NextBounded(3)]);
  }

  twitter::Dataset dataset_;
  std::unique_ptr<nodestore::GraphDb> db_;
  std::unique_ptr<bitmapstore::Graph> graph_;
  std::unique_ptr<NodestoreEngine> ns_;
  std::unique_ptr<BitmapEngine> bm_;
};

TEST_P(RandomDifferentialTest, RandomQueryStreamAgrees) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("reproduce with seed=" + std::to_string(seed));
  BuildFromSeed(seed);
  if (HasFatalFailure()) return;

  constexpr int kCallsPerSeed = 25;
  ParamUniverse universe(dataset_);
  ExpectAgreement(Verify(*ns_, *bm_, ReadSweep(universe, seed, kCallsPerSeed)),
                  11);
}

/// 8 seeds x 25 random calls = 200 randomized differential cases per run.
INSTANTIATE_TEST_SUITE_P(Seeds, RandomDifferentialTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull,
                                           7ull, 8ull));

/// Forwards every call to `inner`; the decorators below override one call
/// each to plant a bug that only that call kind shows.
class ForwardingEngine : public MicroblogEngine {
 public:
  explicit ForwardingEngine(MicroblogEngine& inner) : inner_(inner) {}

  std::string name() const override { return "forward"; }
  Result<ValueRows> SelectUsersByFollowerCount(int64_t threshold) override {
    return inner_.SelectUsersByFollowerCount(threshold);
  }
  Result<ValueRows> FolloweesOf(int64_t uid) override {
    return inner_.FolloweesOf(uid);
  }
  Result<ValueRows> TweetsOfFollowees(int64_t uid) override {
    return inner_.TweetsOfFollowees(uid);
  }
  Result<ValueRows> HashtagsUsedByFollowees(int64_t uid) override {
    return inner_.HashtagsUsedByFollowees(uid);
  }
  Result<ValueRows> TopCoMentionedUsers(int64_t uid, int64_t n) override {
    return inner_.TopCoMentionedUsers(uid, n);
  }
  Result<ValueRows> TopCoOccurringHashtags(const std::string& tag,
                                           int64_t n) override {
    return inner_.TopCoOccurringHashtags(tag, n);
  }
  Result<ValueRows> RecommendFolloweesOfFollowees(int64_t uid,
                                                  int64_t n) override {
    return inner_.RecommendFolloweesOfFollowees(uid, n);
  }
  Result<ValueRows> RecommendFollowersOfFollowees(int64_t uid,
                                                  int64_t n) override {
    return inner_.RecommendFollowersOfFollowees(uid, n);
  }
  Result<ValueRows> CurrentInfluence(int64_t uid, int64_t n) override {
    return inner_.CurrentInfluence(uid, n);
  }
  Result<ValueRows> PotentialInfluence(int64_t uid, int64_t n) override {
    return inner_.PotentialInfluence(uid, n);
  }
  Result<int64_t> ShortestPathLength(int64_t a, int64_t b,
                                     uint32_t max_hops) override {
    return inner_.ShortestPathLength(a, b, max_hops);
  }
  Status DropCaches() override { return inner_.DropCaches(); }

 private:
  MicroblogEngine& inner_;
};

/// Q4.1 drops its last row.
class DropLastRecFollowee final : public ForwardingEngine {
 public:
  using ForwardingEngine::ForwardingEngine;

  Result<ValueRows> RecommendFolloweesOfFollowees(int64_t uid,
                                                  int64_t n) override {
    Result<ValueRows> rows =
        ForwardingEngine::RecommendFolloweesOfFollowees(uid, n);
    if (rows.ok() && !rows->empty()) {
      if (!first_dropped.has_value()) first_dropped = rows->back();
      rows->pop_back();
      ++drops;
    }
    return rows;
  }

  std::optional<ValueRow> first_dropped;
  uint64_t drops = 0;
};

/// Q3.2 answers an unknown hashtag with NotFound instead of no rows.
class RefuseUnknownHashtag final : public ForwardingEngine {
 public:
  using ForwardingEngine::ForwardingEngine;

  Result<ValueRows> TopCoOccurringHashtags(const std::string& tag,
                                           int64_t n) override {
    Result<ValueRows> rows = ForwardingEngine::TopCoOccurringHashtags(tag, n);
    if (rows.ok() && rows->empty()) {
      return Status::NotFound("no hashtag " + tag);
    }
    return rows;
  }
};

class VerifyTest : public EnginePairTest {
 protected:
  void SetUp() override { Open(AgreementCase{101, 400, 8, 1.0, 0.3, false}); }
};

TEST_F(VerifyTest, DroppedRowIsTheFirstDivergenceOfItsKindOnly) {
  DropLastRecFollowee broken(*ns_);
  ParamUniverse universe(dataset_);
  VerifyReport report = Verify(*ns_, broken, ReadSweep(universe, 7, 44));
  ASSERT_GT(broken.drops, 0u);
  ASSERT_EQ(11u, report.kinds.size());
  for (const auto& [kind, tally] : report.kinds) {
    uint64_t dropped = kind == CallKind::kRecFollowees ? broken.drops : 0;
    EXPECT_EQ(tally.total - dropped, tally.agreed) << CallKindName(kind);
    EXPECT_EQ(0u, tally.errors) << CallKindName(kind);
  }

  ASSERT_FALSE(report.ok());
  const Divergence& d = *report.first_divergence;
  EXPECT_EQ(CallKind::kRecFollowees, d.spec.kind);
  EXPECT_TRUE(d.reference_status.ok() && d.target_status.ok());
  // The two sorted row sets differ by exactly the dropped row.
  ValueRows restored = d.target_rows;
  restored.push_back(*broken.first_dropped);
  SortRows(&restored);
  EXPECT_EQ(d.reference_rows, restored);
  EXPECT_NE(std::string::npos,
            DivergenceToString(d).find("only in reference"))
      << DivergenceToString(d);
}

TEST_F(VerifyTest, MatchingErrorsAgreeInTheirOwnTally) {
  CallSpec unknown_tag;
  unknown_tag.kind = CallKind::kTopCoTags;
  unknown_tag.tag = "no_such_tag_zzz";
  CallSpec follow;
  follow.kind = CallKind::kFollow;
  follow.b = 1;

  // The decorated engine refuses an unknown hashtag with NotFound, and a
  // read-only engine refuses writes with NotImplemented.
  RefuseUnknownHashtag refusing(*bm_);
  VerifyReport alike = Verify(refusing, refusing, {unknown_tag, follow});
  EXPECT_TRUE(alike.ok());
  EXPECT_EQ(2u, alike.Total().agreed);
  EXPECT_EQ(2u, alike.Total().errors);
  EXPECT_EQ(1u, alike.kinds[CallKind::kTopCoTags].errors);

  // The engines themselves answer an unknown hashtag with no rows: an
  // error on one side only is a divergence, not an error tally.
  VerifyReport one_sided = Verify(*ns_, refusing, {unknown_tag});
  ASSERT_FALSE(one_sided.ok());
  EXPECT_TRUE(one_sided.first_divergence->reference_status.ok());
  EXPECT_TRUE(one_sided.first_divergence->target_status.IsNotFound());
  EXPECT_EQ(0u, one_sided.Total().errors);
  EXPECT_EQ(0u, one_sided.Total().agreed);
}

TEST_F(VerifyTest, MissingAnchorsAnswerNoRowsOnBothEngines) {
  ExpectAgreement(Verify(*ns_, *bm_, MissingAnchorSpecs()), 10);
}

/// RunCall opens no trace context of its own, so on either engine every
/// span a call records names no parent or a span the ring also holds.
TEST_F(VerifyTest, RunCallSpansNameOnlyRecordedParents) {
  ParamUniverse universe(dataset_);
  for (MicroblogEngine* engine :
       {static_cast<MicroblogEngine*>(ns_.get()),
        static_cast<MicroblogEngine*>(bm_.get())}) {
    SCOPED_TRACE(engine->name());
    obs::SpanRecorder::Global().Clear();
    for (const CallSpec& spec : ReadSweep(universe, 5, 11)) {
      Result<ValueRows> rows = RunCall(*engine, spec);
      ASSERT_TRUE(rows.ok()) << CallSpecToString(spec) << ": "
                             << rows.status().ToString();
    }
    std::vector<obs::RecordedSpan> spans = obs::RecordedSpans();
    EXPECT_FALSE(spans.empty());
    EXPECT_EQ(std::vector<std::string>{}, obs::OrphanSpans(spans));
  }
}

}  // namespace
}  // namespace mbq::core
