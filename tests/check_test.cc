// Tests for the storage checker (core/check.h): clean stores report no
// issues on both engines and both nodestore layouts; injected
// corruption — broken relationship chains, skewed bitmap counts,
// disagreeing adjacency — is detected; loaders run the optional
// post-import verification hook.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "bitmapstore/graph.h"
#include "bitmapstore/script_loader.h"
#include "core/check.h"
#include "nodestore/graph_db.h"
#include "twitter/csv_export.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"
#include "util/logging.h"

namespace mbq::core {
namespace {

using bitmapstore::Graph;
using nodestore::GraphDb;
using nodestore::GraphDbOptions;
using nodestore::RelId;
using nodestore::RelRecord;

twitter::Dataset SmallDataset() {
  twitter::DatasetSpec spec;
  spec.num_users = 50;
  spec.retweet_fraction = 0.2;
  return twitter::GenerateDataset(spec);
}

GraphDbOptions FastOptions(bool partitioned) {
  GraphDbOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  options.semantic_partitioning = partitioned;
  return options;
}

/// First in-use non-self-loop relationship.
RelId FirstRel(GraphDb* db, RelRecord* rec_out) {
  RelId found = nodestore::kInvalidRel;
  auto st = db->ForEachRawRel([&](RelId id, const RelRecord& rec) {
    if (!rec.in_use || rec.src == rec.dst) return true;
    found = id;
    *rec_out = rec;
    return false;
  });
  MBQ_CHECK(st.ok());
  MBQ_CHECK(found != nodestore::kInvalidRel);
  return found;
}

bool HasComponent(const CheckReport& report, const std::string& component) {
  for (const CheckIssue& issue : report.issues) {
    if (issue.component == component) return true;
  }
  return false;
}

// ----------------------------------------------------------- Nodestore

class NodestoreCheckTest : public ::testing::TestWithParam<bool> {};

TEST_P(NodestoreCheckTest, FreshImportIsClean) {
  GraphDb db(FastOptions(GetParam()));
  ASSERT_TRUE(twitter::LoadIntoNodestore(SmallDataset(), &db).ok());
  auto report = CheckNodestore(&db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_GT(report->nodes_checked, 0u);
  EXPECT_GT(report->rels_checked, 0u);
  EXPECT_GT(report->indexes_checked, 0u);
}

TEST_P(NodestoreCheckTest, DetectsBrokenRelationshipChain) {
  GraphDb db(FastOptions(GetParam()));
  ASSERT_TRUE(twitter::LoadIntoNodestore(SmallDataset(), &db).ok());

  // Point the chain at the record itself: the walk cycles and the
  // doubly-linked invariant breaks.
  RelRecord rec;
  RelId victim = FirstRel(&db, &rec);
  rec.src_next = victim;
  ASSERT_TRUE(db.RawPutRelRecord(victim, rec).ok());

  auto report = CheckNodestore(&db);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasComponent(*report, "rel-chain")) << report->ToText();
}

TEST_P(NodestoreCheckTest, DetectsDanglingChainPointer) {
  GraphDb db(FastOptions(GetParam()));
  ASSERT_TRUE(twitter::LoadIntoNodestore(SmallDataset(), &db).ok());

  RelRecord rec;
  RelId victim = FirstRel(&db, &rec);
  rec.dst_next = rec.dst_next == nodestore::kInvalidRel
                     ? victim + (1ull << 40)  // far past any store
                     : rec.dst_next + (1ull << 40);
  ASSERT_TRUE(db.RawPutRelRecord(victim, rec).ok());

  auto report = CheckNodestore(&db);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasComponent(*report, "rel-record")) << report->ToText();
}

TEST_P(NodestoreCheckTest, MaxIssuesSuppressesButStillFails) {
  GraphDb db(FastOptions(GetParam()));
  ASSERT_TRUE(twitter::LoadIntoNodestore(SmallDataset(), &db).ok());

  RelRecord rec;
  RelId victim = FirstRel(&db, &rec);
  rec.src_next = victim;
  ASSERT_TRUE(db.RawPutRelRecord(victim, rec).ok());

  CheckOptions options;
  options.max_issues = 1;
  auto report = CheckNodestore(&db, options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(report->issues.size(), 1u);
  EXPECT_GT(report->suppressed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, NodestoreCheckTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Partitioned" : "Single";
                         });

// --------------------------------------------------------- Bitmapstore

TEST(BitmapstoreCheckTest, FreshLoadIsClean) {
  Graph graph;
  ASSERT_TRUE(twitter::LoadIntoBitmapstore(SmallDataset(), &graph).ok());
  auto report = CheckBitmapstore(&graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_GT(report->objects_checked, 0u);
  EXPECT_GT(report->attrs_checked, 0u);
}

TEST(BitmapstoreCheckTest, DetectsSkewedTypeCount) {
  Graph graph;
  auto handles = twitter::LoadIntoBitmapstore(SmallDataset(), &graph);
  ASSERT_TRUE(handles.ok());
  graph.CorruptTypeCountForTest(handles->user, 2);

  auto report = CheckBitmapstore(&graph);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasComponent(*report, "type-count")) << report->ToText();
}

TEST(BitmapstoreCheckTest, DetectsAdjacencyDisagreement) {
  Graph graph;
  auto handles = twitter::LoadIntoBitmapstore(SmallDataset(), &graph);
  ASSERT_TRUE(handles.ok());

  // Plant an existing follows edge in a node that is not its tail.
  auto edges = graph.Select(handles->follows);
  ASSERT_TRUE(edges.ok());
  bitmapstore::Oid planted = bitmapstore::kInvalidOid;
  bitmapstore::Oid wrong_node = bitmapstore::kInvalidOid;
  for (bitmapstore::Oid edge : edges->ToVector()) {
    bitmapstore::Oid tail, head;
    graph.RawEdgeEndpoints(edge, &tail, &head);
    if (tail != head) {
      planted = edge;
      wrong_node = head;
      break;
    }
  }
  ASSERT_NE(planted, bitmapstore::kInvalidOid);
  graph.CorruptAdjacencyForTest(handles->follows, wrong_node, planted);

  auto report = CheckBitmapstore(&graph);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_TRUE(HasComponent(*report, "adjacency")) << report->ToText();
}

// ------------------------------------------------------ Loader hooks

TEST(PostImportCheckTest, ScriptLoaderRunsHookAndPropagatesFailure) {
  auto dataset = SmallDataset();
  std::string dir = ::testing::TempDir() + "/mbq_check_csv";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(twitter::ExportCsv(dataset, dir).ok());

  Graph graph;
  bitmapstore::ScriptLoader loader(&graph);
  bool hook_ran = false;
  loader.SetPostImportCheck([&]() -> Status {
    hook_ran = true;
    auto report = CheckBitmapstore(&graph);
    MBQ_RETURN_IF_ERROR(report.status());
    return report->ok() ? Status::OK()
                        : Status::Corruption("corrupt after import");
  });
  ASSERT_TRUE(loader.Execute(twitter::BuildLoadScript(true), dir).ok());
  EXPECT_TRUE(hook_ran);

  // A failing hook fails the load.
  bitmapstore::Graph graph2;
  bitmapstore::ScriptLoader loader2(&graph2);
  loader2.SetPostImportCheck(
      []() -> Status { return Status::Corruption("injected"); });
  EXPECT_FALSE(loader2.Execute(twitter::BuildLoadScript(true), dir).ok());
}

TEST(PostImportCheckTest, BatchImporterRunsHook) {
  auto dataset = SmallDataset();
  std::string dir = ::testing::TempDir() + "/mbq_check_csv2";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(twitter::ExportCsv(dataset, dir).ok());

  GraphDb db(FastOptions(false));
  nodestore::BatchImporter importer(&db);
  bool hook_ran = false;
  importer.SetPostImportCheck([&]() -> Status {
    hook_ran = true;
    auto report = CheckNodestore(&db);
    MBQ_RETURN_IF_ERROR(report.status());
    return report->ok() ? Status::OK()
                        : Status::Corruption("corrupt after import");
  });
  ASSERT_TRUE(importer.Run(twitter::BuildImportSpec(true), dir).ok());
  EXPECT_TRUE(hook_ran);
}

}  // namespace
}  // namespace mbq::core
