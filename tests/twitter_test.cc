#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "bitmapstore/script_loader.h"
#include "obs/introspect.h"
#include "recorded_spans.h"
#include "twitter/csv_export.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"
#include "twitter/schema.h"

namespace mbq::twitter {
namespace {

DatasetSpec SmallSpec() {
  DatasetSpec spec;
  spec.num_users = 300;
  spec.follows_per_user = 6;
  spec.active_user_fraction = 0.2;
  spec.tweets_per_active_user = 4;
  spec.mentions_per_tweet = 1.0;
  spec.tags_per_tweet = 0.7;
  spec.retweet_fraction = 0.1;
  spec.seed = 11;
  return spec;
}

// --------------------------------------------------------------- Generator

TEST(GeneratorTest, DeterministicFromSeed) {
  Dataset a = GenerateDataset(SmallSpec());
  Dataset b = GenerateDataset(SmallSpec());
  EXPECT_EQ(a.follows, b.follows);
  EXPECT_EQ(a.mentions, b.mentions);
  EXPECT_EQ(a.tags, b.tags);
  EXPECT_EQ(a.retweets, b.retweets);
  ASSERT_EQ(a.tweets.size(), b.tweets.size());
  for (size_t i = 0; i < a.tweets.size(); ++i) {
    EXPECT_EQ(a.tweets[i].text, b.tweets[i].text);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  DatasetSpec spec = SmallSpec();
  Dataset a = GenerateDataset(spec);
  spec.seed = 12;
  Dataset b = GenerateDataset(spec);
  EXPECT_NE(a.follows, b.follows);
}

TEST(GeneratorTest, EdgeEndpointsValid) {
  Dataset d = GenerateDataset(SmallSpec());
  int64_t num_users = static_cast<int64_t>(d.users.size());
  int64_t num_tweets = static_cast<int64_t>(d.tweets.size());
  int64_t num_tags = static_cast<int64_t>(d.hashtags.size());
  for (const auto& [src, dst] : d.follows) {
    EXPECT_GE(src, 0);
    EXPECT_LT(src, num_users);
    EXPECT_GE(dst, 0);
    EXPECT_LT(dst, num_users);
    EXPECT_NE(src, dst);  // no self-follows
  }
  for (const auto& [tid, uid] : d.mentions) {
    EXPECT_LT(tid, num_tweets);
    EXPECT_LT(uid, num_users);
  }
  for (const auto& [tid, hid] : d.tags) {
    EXPECT_LT(tid, num_tweets);
    EXPECT_LT(hid, num_tags);
  }
  for (const auto& [re, orig] : d.retweets) {
    EXPECT_LT(re, num_tweets);
    EXPECT_LT(orig, re);  // retweets reference earlier tweets
  }
}

TEST(GeneratorTest, NoDuplicateFollowsPerUser) {
  Dataset d = GenerateDataset(SmallSpec());
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const auto& e : d.follows) {
    EXPECT_TRUE(seen.insert(e).second) << e.first << "->" << e.second;
  }
}

TEST(GeneratorTest, FollowersCountMatchesInDegree) {
  Dataset d = GenerateDataset(SmallSpec());
  std::vector<int64_t> indeg(d.users.size(), 0);
  for (const auto& [src, dst] : d.follows) ++indeg[dst];
  for (const auto& u : d.users) {
    EXPECT_EQ(u.followers_count, indeg[u.uid]) << u.uid;
  }
}

TEST(GeneratorTest, FollowDistributionIsSkewed) {
  DatasetSpec spec = SmallSpec();
  spec.num_users = 3000;
  Dataset d = GenerateDataset(spec);
  std::vector<int64_t> indeg(d.users.size(), 0);
  for (const auto& [src, dst] : d.follows) ++indeg[dst];
  std::sort(indeg.begin(), indeg.end(), std::greater<>());
  int64_t top = 0;
  int64_t total = 0;
  for (size_t i = 0; i < indeg.size(); ++i) {
    total += indeg[i];
    if (i < indeg.size() / 20) top += indeg[i];  // top 5%
  }
  ASSERT_GT(total, 0);
  // Heavy tail: top 5% of users attract well over 5% of follows.
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(total), 0.2);
}

TEST(GeneratorTest, ScaleTracksUserCount) {
  DatasetSpec spec = SmallSpec();
  Dataset small = GenerateDataset(spec);
  spec.num_users *= 4;
  Dataset big = GenerateDataset(spec);
  EXPECT_GT(big.follows.size(), small.follows.size() * 2);
  EXPECT_GT(big.tweets.size(), small.tweets.size());
}

TEST(GeneratorTest, CountsConsistent) {
  Dataset d = GenerateDataset(SmallSpec());
  DatasetCounts c = CountDataset(d);
  EXPECT_EQ(c.total_nodes, d.NumNodes());
  EXPECT_EQ(c.total_edges, d.NumEdges());
  EXPECT_EQ(c.posts, c.tweets);
  EXPECT_GT(c.follows, 0u);
  EXPECT_GT(c.mentions, 0u);
}

TEST(GeneratorTest, PaperShapeRatiosRoughlyHold) {
  DatasetSpec spec;  // defaults target the paper's ratios
  spec.num_users = 20000;
  Dataset d = GenerateDataset(spec);
  DatasetCounts c = CountDataset(d);
  double follows_per_user =
      static_cast<double>(c.follows) / static_cast<double>(c.users);
  EXPECT_NEAR(follows_per_user, 11.5, 2.5);
  double mentions_per_tweet =
      static_cast<double>(c.mentions) / static_cast<double>(c.tweets);
  EXPECT_NEAR(mentions_per_tweet, 0.46, 0.15);
  double tags_per_tweet =
      static_cast<double>(c.tags) / static_cast<double>(c.tweets);
  EXPECT_NEAR(tags_per_tweet, 0.30, 0.12);
}

// ------------------------------------------------------------- CSV export

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mbq_twitter_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ExportTest, WritesAllFiles) {
  Dataset d = GenerateDataset(SmallSpec());
  ASSERT_TRUE(ExportCsv(d, dir_.string()).ok());
  for (const char* f :
       {CsvFiles::kUsers, CsvFiles::kTweets, CsvFiles::kHashtags,
        CsvFiles::kFollows, CsvFiles::kPosts, CsvFiles::kRetweets,
        CsvFiles::kMentions, CsvFiles::kTags}) {
    EXPECT_TRUE(std::filesystem::exists(dir_ / f)) << f;
  }
}

TEST_F(ExportTest, BothImportersLoadTheSameFiles) {
  Dataset d = GenerateDataset(SmallSpec());
  ASSERT_TRUE(ExportCsv(d, dir_.string()).ok());

  // Record-store import tool.
  nodestore::GraphDbOptions ndb_options;
  ndb_options.disk_profile = storage::DiskProfile::Instant();
  ndb_options.write_through = true;
  nodestore::GraphDb db(ndb_options);
  nodestore::BatchImporter importer(&db);
  ASSERT_TRUE(
      importer.Run(BuildImportSpec(/*with_retweets=*/true), dir_.string())
          .ok());
  EXPECT_EQ(importer.nodes_imported(), d.NumNodes());
  EXPECT_EQ(importer.rels_imported(), d.NumEdges());
  EXPECT_EQ(db.NumNodes(), d.NumNodes());
  EXPECT_EQ(db.NumRels(), d.NumEdges());

  // Bitmap-store script loader.
  bitmapstore::GraphOptions bg_options;
  bg_options.disk_profile = storage::DiskProfile::Instant();
  bitmapstore::Graph graph(bg_options);
  bitmapstore::ScriptLoader loader(&graph);
  ASSERT_TRUE(loader
                  .Execute(BuildLoadScript(/*with_retweets=*/true),
                           dir_.string())
                  .ok());
  EXPECT_EQ(graph.NumNodes(), d.NumNodes());
  EXPECT_EQ(graph.NumEdges(), d.NumEdges());

  // Spot-check one user's followee set against ground truth in both.
  int64_t probe = d.follows.front().first;
  std::set<int64_t> expected;
  for (const auto& [src, dst] : d.follows) {
    if (src == probe) expected.insert(dst);
  }
  auto nh = ResolveNodestoreHandles(&db);
  ASSERT_TRUE(nh.ok());
  auto node = db.IndexSeek(nh->user, nh->uid, common::Value::Int(probe));
  ASSERT_TRUE(node.ok());
  std::set<int64_t> ns_followees;
  ASSERT_TRUE(db.ForEachRelationship(
                    *node, nodestore::Direction::kOutgoing, nh->follows,
                    [&](const nodestore::GraphDb::RelInfo& rel) {
                      auto uid = db.GetNodeProperty(rel.other, nh->uid);
                      EXPECT_TRUE(uid.ok());
                      ns_followees.insert(uid->AsInt());
                      return true;
                    })
                  .ok());
  EXPECT_EQ(ns_followees, expected);

  auto bh = ResolveBitmapHandles(graph);
  ASSERT_TRUE(bh.ok());
  auto oid = graph.FindObject(bh->uid, common::Value::Int(probe));
  ASSERT_TRUE(oid.ok());
  auto nbrs = graph.Neighbors(*oid, bh->follows,
                              bitmapstore::EdgesDirection::kOutgoing);
  ASSERT_TRUE(nbrs.ok());
  std::set<int64_t> bm_followees;
  nbrs->ForEach([&](uint32_t n) {
    auto uid = graph.GetAttribute(n, bh->uid);
    EXPECT_TRUE(uid.ok());
    bm_followees.insert(uid->AsInt());
  });
  EXPECT_EQ(bm_followees, expected);
}

TEST_F(ExportTest, DirectLoadersMatchDatasetCounts) {
  Dataset d = GenerateDataset(SmallSpec());

  nodestore::GraphDbOptions ndb_options;
  ndb_options.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(ndb_options);
  auto nh = LoadIntoNodestore(d, &db);
  ASSERT_TRUE(nh.ok()) << nh.status().ToString();
  EXPECT_EQ(db.NumNodes(), d.NumNodes());
  EXPECT_EQ(db.NumRels(), d.NumEdges());
  EXPECT_TRUE(db.HasIndex(nh->user, nh->uid));

  bitmapstore::GraphOptions bg_options;
  bg_options.disk_profile = storage::DiskProfile::Instant();
  bitmapstore::Graph graph(bg_options);
  auto bh = LoadIntoBitmapstore(d, &graph);
  ASSERT_TRUE(bh.ok()) << bh.status().ToString();
  EXPECT_EQ(graph.NumNodes(), d.NumNodes());
  EXPECT_EQ(graph.NumEdges(), d.NumEdges());
  EXPECT_EQ(graph.CountObjects(bh->user), d.users.size());
  EXPECT_EQ(graph.CountObjects(bh->follows), d.follows.size());
}

using obs::RecordedSpan;
using obs::RecordedSpans;

/// Both bulk loaders are trace ingresses: the import span is a root, and
/// every phase span of one run shares its trace id and names it as parent.
TEST_F(ExportTest, ImportPhaseSpansNestUnderTheImportSpan) {
  Dataset d = GenerateDataset(SmallSpec());
  ASSERT_TRUE(ExportCsv(d, dir_.string()).ok());
  nodestore::ImportSpec spec = BuildImportSpec(/*with_retweets=*/true);

  nodestore::GraphDbOptions ndb_options;
  ndb_options.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(ndb_options);
  nodestore::BatchImporter importer(&db);
  obs::SpanRecorder::Global().Clear();
  ASSERT_TRUE(importer.Run(spec, dir_.string()).ok());
  std::vector<RecordedSpan> spans = RecordedSpans();

  bitmapstore::GraphOptions bg_options;
  bg_options.disk_profile = storage::DiskProfile::Instant();
  bitmapstore::Graph graph(bg_options);
  bitmapstore::ScriptLoader loader(&graph);
  obs::SpanRecorder::Global().Clear();
  ASSERT_TRUE(loader
                  .Execute(BuildLoadScript(/*with_retweets=*/true),
                           dir_.string())
                  .ok());
  std::vector<RecordedSpan> bitmap_spans = RecordedSpans();

  for (const auto& [root, recorded, phases] :
       {std::tuple("import:nodestore", &spans,
                   spec.nodes.size() + spec.rels.size() + 1 +
                       spec.indexes.size()),
        std::tuple("import:bitmapstore", &bitmap_spans,
                   spec.nodes.size() + spec.rels.size())}) {
    SCOPED_TRACE(root);
    const RecordedSpan* import = nullptr;
    for (const RecordedSpan& span : *recorded) {
      if (span.name == root) import = &span;
    }
    ASSERT_NE(import, nullptr);
    EXPECT_NE(import->trace_id, std::string(32, '0'));
    EXPECT_EQ(import->parent_span_id, obs::SpanIdHex(0));
    size_t children = 0;
    for (const RecordedSpan& span : *recorded) {
      if (&span == import) continue;
      EXPECT_EQ(span.trace_id, import->trace_id) << span.name;
      EXPECT_EQ(span.parent_span_id, import->span_id) << span.name;
      ++children;
    }
    EXPECT_EQ(children, phases);
  }
}

}  // namespace
}  // namespace mbq::twitter
