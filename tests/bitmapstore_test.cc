#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bitmapstore/graph.h"
#include "bitmapstore/script_loader.h"
#include "bitmapstore/shortest_path.h"
#include "bitmapstore/traversal.h"

namespace mbq::bitmapstore {
namespace {

using common::Value;
using common::ValueType;

GraphOptions FastOptions() {
  GraphOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  return options;
}

class BitmapGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<Graph>(FastOptions());
    user_ = *graph_->NewNodeType("user");
    follows_ = *graph_->NewEdgeType("follows");
    uid_ = *graph_->NewAttribute(user_, "uid", ValueType::kInt,
                                 AttributeKind::kUnique);
    name_ = *graph_->NewAttribute(user_, "name", ValueType::kString,
                                  AttributeKind::kBasic);
    score_ = *graph_->NewAttribute(user_, "score", ValueType::kInt,
                                   AttributeKind::kIndexed);
    for (int i = 0; i < 6; ++i) {
      Oid node = *graph_->NewNode(user_);
      nodes_.push_back(node);
      EXPECT_TRUE(graph_->SetAttribute(node, uid_, Value::Int(i)).ok());
      EXPECT_TRUE(graph_
                      ->SetAttribute(node, name_,
                                     Value::String("u" + std::to_string(i)))
                      .ok());
      EXPECT_TRUE(
          graph_->SetAttribute(node, score_, Value::Int(i * 10)).ok());
    }
    // 0->1, 0->2, 1->2, 2->3, 3->4, 4->5
    for (auto [a, b] : std::vector<std::pair<int, int>>{
             {0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}) {
      edges_.push_back(*graph_->NewEdge(follows_, nodes_[a], nodes_[b]));
    }
  }

  std::unique_ptr<Graph> graph_;
  TypeId user_, follows_;
  AttrId uid_, name_, score_;
  std::vector<Oid> nodes_;
  std::vector<Oid> edges_;
};

TEST_F(BitmapGraphTest, SchemaRegistries) {
  EXPECT_EQ(*graph_->FindType("user"), user_);
  EXPECT_EQ(*graph_->FindType("follows"), follows_);
  EXPECT_FALSE(graph_->FindType("ghost").ok());
  EXPECT_EQ(*graph_->FindAttribute(user_, "uid"), uid_);
  EXPECT_FALSE(graph_->FindAttribute(user_, "ghost").ok());
  EXPECT_TRUE(graph_->NewNodeType("user").status().IsAlreadyExists());
  EXPECT_EQ(graph_->TypeKind(user_), ObjectKind::kNode);
  EXPECT_EQ(graph_->TypeKind(follows_), ObjectKind::kEdge);
  EXPECT_EQ(graph_->AttributeType(uid_), ValueType::kInt);
  EXPECT_EQ(graph_->GetAttributeKind(score_), AttributeKind::kIndexed);
  EXPECT_EQ(graph_->NodeTypes().size(), 1u);
  EXPECT_EQ(graph_->EdgeTypes().size(), 1u);
}

TEST_F(BitmapGraphTest, CountsAndSelect) {
  EXPECT_EQ(graph_->CountObjects(user_), 6u);
  EXPECT_EQ(graph_->CountObjects(follows_), 6u);
  EXPECT_EQ(graph_->NumNodes(), 6u);
  EXPECT_EQ(graph_->NumEdges(), 6u);
  auto all = graph_->Select(user_);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->Count(), 6u);
}

TEST_F(BitmapGraphTest, AttributeRoundTrip) {
  auto v = graph_->GetAttribute(nodes_[3], name_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "u3");
  // Overwrite.
  ASSERT_TRUE(
      graph_->SetAttribute(nodes_[3], name_, Value::String("renamed")).ok());
  EXPECT_EQ(graph_->GetAttribute(nodes_[3], name_)->AsString(), "renamed");
  // Clear via null.
  ASSERT_TRUE(graph_->SetAttribute(nodes_[3], name_, Value::Null()).ok());
  EXPECT_TRUE(graph_->GetAttribute(nodes_[3], name_)->is_null());
}

TEST_F(BitmapGraphTest, AttributeTypeChecking) {
  EXPECT_TRUE(graph_->SetAttribute(nodes_[0], uid_, Value::String("x"))
                  .IsInvalidArgument());
}

TEST_F(BitmapGraphTest, UniqueAttributeEnforced) {
  EXPECT_TRUE(graph_->SetAttribute(nodes_[0], uid_, Value::Int(1))
                  .IsAlreadyExists());
  // Re-setting the same value on the same node is fine.
  EXPECT_TRUE(graph_->SetAttribute(nodes_[1], uid_, Value::Int(1)).ok());
}

TEST_F(BitmapGraphTest, FindObjectByUniqueAttribute) {
  auto found = graph_->FindObject(uid_, Value::Int(4));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, nodes_[4]);
  EXPECT_EQ(*graph_->FindObject(uid_, Value::Int(99)), kInvalidOid);
  // Basic attributes don't support FindObject.
  EXPECT_TRUE(graph_->FindObject(name_, Value::String("u1"))
                  .status()
                  .IsFailedPrecondition());
}

TEST_F(BitmapGraphTest, SelectWithConditions) {
  auto gt = graph_->Select(score_, Condition::kGreater, Value::Int(20));
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt->Count(), 3u);  // 30, 40, 50
  auto le = graph_->Select(score_, Condition::kLessEqual, Value::Int(20));
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->Count(), 3u);  // 0, 10, 20
  auto eq = graph_->Select(score_, Condition::kEqual, Value::Int(30));
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq->Contains(nodes_[3]));
  auto ne = graph_->Select(score_, Condition::kNotEqual, Value::Int(30));
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->Count(), 5u);
  // Conjunctions are done client-side with Objects algebra.
  auto both = Objects::CombineIntersection(*gt, *ne);
  EXPECT_EQ(both.Count(), 2u);
}

TEST_F(BitmapGraphTest, SelectOnBasicAttributeScans) {
  auto r = graph_->Select(name_, Condition::kEqual, Value::String("u2"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Count(), 1u);
  EXPECT_TRUE(r->Contains(nodes_[2]));
}

TEST_F(BitmapGraphTest, NeighborsAndExplode) {
  auto out = graph_->Neighbors(nodes_[0], follows_, EdgesDirection::kOutgoing);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Count(), 2u);
  EXPECT_TRUE(out->Contains(nodes_[1]));
  EXPECT_TRUE(out->Contains(nodes_[2]));

  auto in = graph_->Neighbors(nodes_[2], follows_, EdgesDirection::kIngoing);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->Count(), 2u);

  auto any = graph_->Neighbors(nodes_[2], follows_, EdgesDirection::kAny);
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(any->Count(), 3u);  // 0, 1 in; 3 out

  auto edges = graph_->Explode(nodes_[2], follows_, EdgesDirection::kAny);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->Count(), 3u);
  EXPECT_EQ(*graph_->Degree(nodes_[2], follows_, EdgesDirection::kAny), 3u);
  EXPECT_EQ(*graph_->Degree(nodes_[2], follows_, EdgesDirection::kOutgoing),
            1u);
}

TEST_F(BitmapGraphTest, NeighborsOfSet) {
  Objects sources;
  sources.Add(nodes_[0]);
  sources.Add(nodes_[1]);
  auto out = graph_->Neighbors(sources, follows_, EdgesDirection::kOutgoing);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Count(), 2u);  // {1, 2}
}

TEST_F(BitmapGraphTest, EdgeData) {
  auto data = graph_->GetEdgeData(edges_[0]);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->tail, nodes_[0]);
  EXPECT_EQ(data->head, nodes_[1]);
  EXPECT_EQ(data->type, follows_);
  EXPECT_EQ(*graph_->GetEdgePeer(edges_[0], nodes_[0]), nodes_[1]);
  EXPECT_EQ(*graph_->GetEdgePeer(edges_[0], nodes_[1]), nodes_[0]);
  EXPECT_FALSE(graph_->GetEdgePeer(edges_[0], nodes_[5]).ok());
  EXPECT_FALSE(graph_->GetEdgeData(nodes_[0]).ok());  // not an edge
}

TEST_F(BitmapGraphTest, MultigraphAllowsParallelEdges) {
  Oid e1 = *graph_->NewEdge(follows_, nodes_[0], nodes_[1]);
  EXPECT_NE(e1, edges_[0]);
  EXPECT_EQ(*graph_->Degree(nodes_[0], follows_, EdgesDirection::kOutgoing),
            3u);
  // Neighbors still dedupes to node set.
  auto out = graph_->Neighbors(nodes_[0], follows_, EdgesDirection::kOutgoing);
  EXPECT_EQ(out->Count(), 2u);
}

TEST_F(BitmapGraphTest, DropEdge) {
  ASSERT_TRUE(graph_->Drop(edges_[0]).ok());
  EXPECT_EQ(graph_->NumEdges(), 5u);
  auto out = graph_->Neighbors(nodes_[0], follows_, EdgesDirection::kOutgoing);
  EXPECT_FALSE(out->Contains(nodes_[1]));
  EXPECT_FALSE(graph_->GetObjectType(edges_[0]).ok());
}

TEST_F(BitmapGraphTest, DropNodeCascades) {
  ASSERT_TRUE(graph_->Drop(nodes_[2]).ok());
  EXPECT_EQ(graph_->NumNodes(), 5u);
  // Edges 0->2, 1->2, 2->3 are gone.
  EXPECT_EQ(graph_->NumEdges(), 3u);
  EXPECT_EQ(*graph_->Degree(nodes_[0], follows_, EdgesDirection::kOutgoing),
            1u);
  // Index entry removed too.
  EXPECT_EQ(*graph_->FindObject(uid_, Value::Int(2)), kInvalidOid);
}

TEST_F(BitmapGraphTest, MaterializedNeighborsAgree) {
  GraphOptions options = FastOptions();
  options.materialize_neighbors = true;
  Graph mat(options);
  TypeId user = *mat.NewNodeType("user");
  TypeId follows = *mat.NewEdgeType("follows");
  std::vector<Oid> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(*mat.NewNode(user));
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}) {
    ASSERT_TRUE(mat.NewEdge(follows, nodes[a], nodes[b]).ok());
  }
  for (int i = 0; i < 6; ++i) {
    auto expected =
        graph_->Neighbors(nodes_[i], follows_, EdgesDirection::kOutgoing);
    auto actual = mat.Neighbors(nodes[i], follows, EdgesDirection::kOutgoing);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(expected->Count(), actual->Count()) << i;
  }
}

TEST_F(BitmapGraphTest, ShortestPathBasic) {
  SinglePairShortestPathBFS bfs(graph_.get(), nodes_[0], nodes_[5]);
  bfs.AddEdgeType(follows_, EdgesDirection::kOutgoing);
  ASSERT_TRUE(bfs.Run().ok());
  ASSERT_TRUE(bfs.Exists());
  EXPECT_EQ(bfs.GetCost(), 4u);  // 0->2->3->4->5
  const auto& path = bfs.GetPathAsNodes();
  EXPECT_EQ(path.front(), nodes_[0]);
  EXPECT_EQ(path.back(), nodes_[5]);
  EXPECT_EQ(path.size(), 5u);
}

TEST_F(BitmapGraphTest, ShortestPathHopBound) {
  SinglePairShortestPathBFS bfs(graph_.get(), nodes_[0], nodes_[5]);
  bfs.AddEdgeType(follows_, EdgesDirection::kOutgoing);
  bfs.SetMaximumHops(3);
  ASSERT_TRUE(bfs.Run().ok());
  EXPECT_FALSE(bfs.Exists());
}

TEST_F(BitmapGraphTest, ShortestPathSelfAndMissing) {
  SinglePairShortestPathBFS self(graph_.get(), nodes_[1], nodes_[1]);
  self.AddEdgeType(follows_, EdgesDirection::kOutgoing);
  ASSERT_TRUE(self.Run().ok());
  EXPECT_TRUE(self.Exists());
  EXPECT_EQ(self.GetCost(), 0u);

  SinglePairShortestPathBFS none(graph_.get(), nodes_[5], nodes_[0]);
  none.AddEdgeType(follows_, EdgesDirection::kOutgoing);
  ASSERT_TRUE(none.Run().ok());
  EXPECT_FALSE(none.Exists());  // graph is a DAG in this direction
}

TEST_F(BitmapGraphTest, TraversalBFSDepths) {
  Traversal t(graph_.get(), nodes_[0], TraversalOrder::kBreadthFirst);
  t.AddEdgeType(follows_, EdgesDirection::kOutgoing);
  t.SetMaximumHops(2);
  std::vector<std::pair<Oid, uint32_t>> visits;
  ASSERT_TRUE(t.Run([&](Oid node, uint32_t depth) {
                 visits.emplace_back(node, depth);
                 return true;
               })
                  .ok());
  // 0 at depth 0; 1,2 at depth 1; 3 at depth 2.
  ASSERT_EQ(visits.size(), 4u);
  EXPECT_EQ(visits[0].second, 0u);
  EXPECT_EQ(visits[3].second, 2u);
}

TEST_F(BitmapGraphTest, TraversalCollectNodes) {
  Traversal t(graph_.get(), nodes_[0], TraversalOrder::kDepthFirst);
  t.AddEdgeType(follows_, EdgesDirection::kOutgoing);
  auto nodes = t.CollectNodes();
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->Count(), 6u);  // everything reachable
}

TEST_F(BitmapGraphTest, StatsCount) {
  graph_->ResetStats();
  ASSERT_TRUE(
      graph_->Neighbors(nodes_[0], follows_, EdgesDirection::kOutgoing).ok());
  ASSERT_TRUE(graph_->GetAttribute(nodes_[0], uid_).ok());
  EXPECT_EQ(graph_->stats().neighbors_calls, 1u);
  EXPECT_EQ(graph_->stats().attribute_reads, 1u);
}

TEST_F(BitmapGraphTest, DiskFootprintGrows) {
  uint64_t before = graph_->DiskSizeBytes();
  // Enough volume to outgrow the slack in already-allocated extents.
  for (int i = 0; i < 20000; ++i) {
    Oid n = *graph_->NewNode(user_);
    ASSERT_TRUE(
        graph_->SetAttribute(n, uid_, Value::Int(1000 + i)).ok());
  }
  EXPECT_GT(graph_->DiskSizeBytes(), before);
}

// ------------------------------------------------------------ ScriptLoader

class ScriptLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mbq_script_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    Write("users.csv", "uid,name\n1,alice\n2,bob\n3,carol\n");
    Write("follows.csv", "src,dst\n1,2\n2,3\n1,3\n");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Write(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(ScriptLoaderTest, LoadsSchemaAndData) {
  Graph graph(FastOptions());
  ScriptLoader loader(&graph);
  std::string script =
      "# schema\n"
      "CREATE NODE user\n"
      "CREATE EDGE follows\n"
      "ATTRIBUTE user.uid INT UNIQUE\n"
      "ATTRIBUTE user.name STRING BASIC\n"
      "LOAD NODES \"users.csv\" INTO user COLUMNS uid, name\n"
      "LOAD EDGES \"follows.csv\" INTO follows FROM user.uid TO user.uid\n";
  ASSERT_TRUE(loader.Execute(script, dir_.string()).ok());
  EXPECT_EQ(loader.nodes_loaded(), 3u);
  EXPECT_EQ(loader.edges_loaded(), 3u);
  TypeId user = *graph.FindType("user");
  TypeId follows = *graph.FindType("follows");
  AttrId uid = *graph.FindAttribute(user, "uid");
  Oid alice = *graph.FindObject(uid, Value::Int(1));
  ASSERT_NE(alice, kInvalidOid);
  auto out = graph.Neighbors(alice, follows, EdgesDirection::kOutgoing);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Count(), 2u);
}

TEST_F(ScriptLoaderTest, ReportsProgress) {
  Graph graph(FastOptions());
  ScriptLoader loader(&graph);
  std::vector<ImportProgress> reports;
  loader.SetProgressCallback(
      [&](const ImportProgress& p) { reports.push_back(p); }, 1);
  std::string script =
      "CREATE NODE user\n"
      "ATTRIBUTE user.uid INT UNIQUE\n"
      "LOAD NODES \"users.csv\" INTO user COLUMNS uid\n";
  ASSERT_TRUE(loader.Execute(script, dir_.string()).ok());
  ASSERT_GE(reports.size(), 3u);
  EXPECT_EQ(reports.back().total_objects, 3u);
  EXPECT_EQ(reports.back().phase, "nodes:user");
}

TEST_F(ScriptLoaderTest, RejectsBadStatements) {
  Graph graph(FastOptions());
  ScriptLoader loader(&graph);
  EXPECT_FALSE(loader.Execute("FROB x\n", dir_.string()).ok());
  EXPECT_FALSE(loader.Execute("CREATE NODE\n", dir_.string()).ok());
  EXPECT_FALSE(
      loader.Execute("ATTRIBUTE user.uid WEIRD UNIQUE\n", dir_.string()).ok());
  EXPECT_FALSE(loader
                   .Execute("CREATE NODE user\n"
                            "LOAD NODES \"missing.csv\" INTO user COLUMNS x\n",
                            dir_.string())
                   .ok());
}

TEST_F(ScriptLoaderTest, RejectsUnresolvedEndpoints) {
  Graph graph(FastOptions());
  ScriptLoader loader(&graph);
  Write("bad_edges.csv", "src,dst\n1,99\n");
  std::string script =
      "CREATE NODE user\n"
      "CREATE EDGE follows\n"
      "ATTRIBUTE user.uid INT UNIQUE\n"
      "LOAD NODES \"users.csv\" INTO user COLUMNS uid\n"
      "LOAD EDGES \"bad_edges.csv\" INTO follows FROM user.uid TO user.uid\n";
  EXPECT_TRUE(loader.Execute(script, dir_.string()).IsNotFound());
}

}  // namespace
}  // namespace mbq::bitmapstore
