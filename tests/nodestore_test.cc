#include <gtest/gtest.h>

#include <set>

#include "nodestore/batch_importer.h"
#include "nodestore/graph_db.h"
#include "nodestore/record_file.h"
#include "nodestore/records.h"
#include "nodestore/traversal.h"

namespace mbq::nodestore {
namespace {

using common::Value;

GraphDbOptions FastOptions() {
  GraphDbOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  return options;
}

// ----------------------------------------------------------------- Records

TEST(RecordsTest, NodeRecordCodec) {
  NodeRecord r;
  r.in_use = true;
  r.dense = true;
  r.label = 7;
  r.first_rel = 12345;
  r.first_prop = 678;
  uint8_t buf[NodeRecord::kSize];
  r.EncodeTo(buf);
  NodeRecord d = NodeRecord::DecodeFrom(buf);
  EXPECT_TRUE(d.in_use);
  EXPECT_TRUE(d.dense);
  EXPECT_EQ(d.label, 7);
  EXPECT_EQ(d.first_rel, 12345u);
  EXPECT_EQ(d.first_prop, 678u);
}

TEST(RecordsTest, RelRecordCodec) {
  RelRecord r;
  r.in_use = true;
  r.type = 3;
  r.src = 1;
  r.dst = 2;
  r.src_prev = 10;
  r.src_next = 11;
  r.dst_prev = 12;
  r.dst_next = 13;
  r.first_prop = 14;
  uint8_t buf[RelRecord::kSize];
  r.EncodeTo(buf);
  RelRecord d = RelRecord::DecodeFrom(buf);
  EXPECT_EQ(d.type, 3);
  EXPECT_EQ(d.src, 1u);
  EXPECT_EQ(d.dst, 2u);
  EXPECT_EQ(d.src_prev, 10u);
  EXPECT_EQ(d.src_next, 11u);
  EXPECT_EQ(d.dst_prev, 12u);
  EXPECT_EQ(d.dst_next, 13u);
  EXPECT_EQ(d.first_prop, 14u);
}

TEST(RecordsTest, PropAndStringRecordCodec) {
  PropRecord p;
  p.in_use = true;
  p.tag = PropValueTag::kInt;
  p.key = 42;
  p.next = 99;
  p.payload[0] = 0xAA;
  uint8_t buf[PropRecord::kSize];
  p.EncodeTo(buf);
  PropRecord dp = PropRecord::DecodeFrom(buf);
  EXPECT_EQ(dp.tag, PropValueTag::kInt);
  EXPECT_EQ(dp.key, 42u);
  EXPECT_EQ(dp.next, 99u);
  EXPECT_EQ(dp.payload[0], 0xAA);

  StringRecord s;
  s.in_use = true;
  s.used_bytes = 5;
  s.next = 7;
  std::memcpy(s.payload, "hello", 5);
  uint8_t sbuf[StringRecord::kSize];
  s.EncodeTo(sbuf);
  StringRecord ds = StringRecord::DecodeFrom(sbuf);
  EXPECT_EQ(ds.used_bytes, 5);
  EXPECT_EQ(std::memcmp(ds.payload, "hello", 5), 0);
}

// -------------------------------------------------------------- RecordFile

TEST(RecordFileTest, AllocateReadWriteFree) {
  VirtualClock clock;
  storage::SimulatedDisk disk(storage::DiskProfile::Instant(), &clock);
  storage::BufferCache cache(&disk, storage::BufferCacheOptions{});
  nodestore::DbHitCounter hits;
  RecordFile file("test", &cache, 24, &hits);

  auto id = file.Allocate();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  uint8_t data[24];
  std::fill(data, data + 24, 0x5C);
  ASSERT_TRUE(file.Write(*id, data).ok());
  uint8_t out[24] = {};
  ASSERT_TRUE(file.Read(*id, out).ok());
  EXPECT_EQ(std::memcmp(out, data, 24), 0);
  EXPECT_EQ(hits.total(), 2u);  // one read + one write

  ASSERT_TRUE(file.Free(*id).ok());
  auto recycled = file.Allocate();
  ASSERT_TRUE(recycled.ok());
  EXPECT_EQ(*recycled, *id);
  EXPECT_EQ(file.num_records(), 1u);
}

TEST(RecordFileTest, SpansManyPages) {
  VirtualClock clock;
  storage::SimulatedDisk disk(storage::DiskProfile::Instant(), &clock);
  storage::BufferCache cache(&disk, storage::BufferCacheOptions{});
  RecordFile file("test", &cache, 64, nullptr);
  const int kCount = 1000;  // > 128 records per 8K page
  for (int i = 0; i < kCount; ++i) {
    auto id = file.Allocate();
    ASSERT_TRUE(id.ok());
    uint8_t data[64];
    std::fill(data, data + 64, static_cast<uint8_t>(i));
    ASSERT_TRUE(file.Write(*id, data).ok());
  }
  EXPECT_GT(file.pages_used(), 1u);
  for (int i = 0; i < kCount; i += 97) {
    uint8_t out[64];
    ASSERT_TRUE(file.Read(i, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(i));
  }
  EXPECT_TRUE(file.Read(kCount, nullptr).IsOutOfRange());
}

// ----------------------------------------------------------------- GraphDb

class GraphDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<GraphDb>(FastOptions());
    user_ = *db_->Label("user");
    follows_ = *db_->RelType("follows");
    uid_ = db_->PropKey("uid");
    name_ = db_->PropKey("name");
  }

  NodeId MakeUser(int64_t uid) {
    NodeId node = *db_->CreateNode(user_);
    EXPECT_TRUE(db_->SetNodeProperty(node, uid_, Value::Int(uid)).ok());
    return node;
  }

  std::unique_ptr<GraphDb> db_;
  LabelId user_;
  RelTypeId follows_;
  PropKeyId uid_, name_;
};

TEST_F(GraphDbTest, CreateAndReadNode) {
  NodeId node = MakeUser(5);
  EXPECT_TRUE(db_->NodeExists(node));
  EXPECT_EQ(*db_->NodeLabel(node), user_);
  EXPECT_EQ(db_->GetNodeProperty(node, uid_)->AsInt(), 5);
  EXPECT_TRUE(db_->GetNodeProperty(node, name_)->is_null());
  EXPECT_EQ(db_->NumNodes(), 1u);
}

TEST_F(GraphDbTest, PropertyOverwriteAndRemove) {
  NodeId node = MakeUser(1);
  ASSERT_TRUE(db_->SetNodeProperty(node, name_, Value::String("alice")).ok());
  ASSERT_TRUE(db_->SetNodeProperty(node, name_, Value::String("bob")).ok());
  EXPECT_EQ(db_->GetNodeProperty(node, name_)->AsString(), "bob");
  ASSERT_TRUE(db_->SetNodeProperty(node, name_, Value::Null()).ok());
  EXPECT_TRUE(db_->GetNodeProperty(node, name_)->is_null());
  EXPECT_EQ(db_->GetNodeProperty(node, uid_)->AsInt(), 1);  // chain intact
}

TEST_F(GraphDbTest, PropertyTypes) {
  NodeId node = *db_->CreateNode(user_);
  PropKeyId b = db_->PropKey("b");
  PropKeyId d = db_->PropKey("d");
  ASSERT_TRUE(db_->SetNodeProperty(node, b, Value::Bool(true)).ok());
  ASSERT_TRUE(db_->SetNodeProperty(node, d, Value::Double(2.5)).ok());
  EXPECT_TRUE(db_->GetNodeProperty(node, b)->AsBool());
  EXPECT_DOUBLE_EQ(db_->GetNodeProperty(node, d)->AsDouble(), 2.5);
}

TEST_F(GraphDbTest, LongStringsSpillToStringStore) {
  NodeId node = *db_->CreateNode(user_);
  std::string long_text(1000, 'x');
  long_text += "END";
  ASSERT_TRUE(
      db_->SetNodeProperty(node, name_, Value::String(long_text)).ok());
  EXPECT_EQ(db_->GetNodeProperty(node, name_)->AsString(), long_text);
  // Overwrite with a short value frees the chain without corruption.
  ASSERT_TRUE(db_->SetNodeProperty(node, name_, Value::String("s")).ok());
  EXPECT_EQ(db_->GetNodeProperty(node, name_)->AsString(), "s");
}

TEST_F(GraphDbTest, RelationshipChains) {
  NodeId a = MakeUser(1);
  NodeId b = MakeUser(2);
  NodeId c = MakeUser(3);
  RelId ab = *db_->CreateRelationship(follows_, a, b);
  RelId ac = *db_->CreateRelationship(follows_, a, c);
  RelId cb = *db_->CreateRelationship(follows_, c, b);

  EXPECT_EQ(*db_->Degree(a, Direction::kOutgoing, follows_), 2u);
  EXPECT_EQ(*db_->Degree(a, Direction::kIncoming, follows_), 0u);
  EXPECT_EQ(*db_->Degree(b, Direction::kIncoming, follows_), 2u);
  EXPECT_EQ(*db_->Degree(b, Direction::kBoth, follows_), 2u);

  std::set<NodeId> from_a;
  ASSERT_TRUE(db_->ForEachRelationship(a, Direction::kOutgoing, follows_,
                                       [&](const GraphDb::RelInfo& rel) {
                                         from_a.insert(rel.other);
                                         return true;
                                       })
                  .ok());
  EXPECT_EQ(from_a, (std::set<NodeId>{b, c}));

  auto info = db_->GetRelationship(ab);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src, a);
  EXPECT_EQ(info->dst, b);
  (void)ac;
  (void)cb;
}

TEST_F(GraphDbTest, SelfLoop) {
  NodeId a = MakeUser(1);
  RelId loop = *db_->CreateRelationship(follows_, a, a);
  EXPECT_EQ(*db_->Degree(a, Direction::kOutgoing, follows_), 1u);
  EXPECT_EQ(*db_->Degree(a, Direction::kIncoming, follows_), 1u);
  int visits = 0;
  ASSERT_TRUE(db_->ForEachRelationship(a, Direction::kBoth, follows_,
                                       [&](const GraphDb::RelInfo&) {
                                         ++visits;
                                         return true;
                                       })
                  .ok());
  EXPECT_EQ(visits, 1);  // loops visit once
  ASSERT_TRUE(db_->DeleteRelationship(loop).ok());
  EXPECT_EQ(*db_->Degree(a, Direction::kBoth, follows_), 0u);
}

TEST_F(GraphDbTest, DeleteRelationshipRelinksChain) {
  NodeId a = MakeUser(1);
  std::vector<NodeId> targets;
  std::vector<RelId> rels;
  for (int i = 0; i < 5; ++i) {
    targets.push_back(MakeUser(10 + i));
    rels.push_back(*db_->CreateRelationship(follows_, a, targets.back()));
  }
  // Delete the middle, the head and the tail of a's chain.
  ASSERT_TRUE(db_->DeleteRelationship(rels[2]).ok());
  ASSERT_TRUE(db_->DeleteRelationship(rels[4]).ok());  // chain head (newest)
  ASSERT_TRUE(db_->DeleteRelationship(rels[0]).ok());  // chain tail (oldest)
  std::set<NodeId> remaining;
  ASSERT_TRUE(db_->ForEachRelationship(a, Direction::kOutgoing, follows_,
                                       [&](const GraphDb::RelInfo& rel) {
                                         remaining.insert(rel.other);
                                         return true;
                                       })
                  .ok());
  EXPECT_EQ(remaining, (std::set<NodeId>{targets[1], targets[3]}));
  EXPECT_EQ(db_->NumRels(), 2u);
}

TEST_F(GraphDbTest, DeleteNodeRequiresDetach) {
  NodeId a = MakeUser(1);
  NodeId b = MakeUser(2);
  ASSERT_TRUE(db_->CreateRelationship(follows_, a, b).ok());
  EXPECT_TRUE(db_->DeleteNode(a).IsFailedPrecondition());
  ASSERT_TRUE(db_->DetachDeleteNode(a).ok());
  EXPECT_FALSE(db_->NodeExists(a));
  EXPECT_EQ(db_->NumRels(), 0u);
  EXPECT_EQ(*db_->Degree(b, Direction::kIncoming, follows_), 0u);
}

TEST_F(GraphDbTest, LabelScanFiltersStaleEntries) {
  NodeId a = MakeUser(1);
  NodeId b = MakeUser(2);
  ASSERT_TRUE(db_->DeleteNode(b).ok());
  std::vector<NodeId> seen;
  ASSERT_TRUE(db_->ForEachNodeWithLabel(user_, [&](NodeId id) {
                   seen.push_back(id);
                   return true;
                 })
                  .ok());
  EXPECT_EQ(seen, std::vector<NodeId>{a});
  EXPECT_EQ(db_->CountNodesWithLabel(user_), 1u);
}

TEST_F(GraphDbTest, IndexSeekAndMaintenance) {
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(MakeUser(i));
  ASSERT_TRUE(db_->CreateIndex(user_, uid_, /*unique=*/true).ok());
  EXPECT_TRUE(db_->HasIndex(user_, uid_));
  EXPECT_EQ(*db_->IndexSeek(user_, uid_, Value::Int(7)), nodes[7]);
  EXPECT_EQ(*db_->IndexSeek(user_, uid_, Value::Int(99)), kInvalidNode);

  // New node is indexed on property write.
  NodeId fresh = MakeUser(100);
  EXPECT_EQ(*db_->IndexSeek(user_, uid_, Value::Int(100)), fresh);
  // Update moves the entry.
  ASSERT_TRUE(db_->SetNodeProperty(fresh, uid_, Value::Int(101)).ok());
  EXPECT_EQ(*db_->IndexSeek(user_, uid_, Value::Int(100)), kInvalidNode);
  EXPECT_EQ(*db_->IndexSeek(user_, uid_, Value::Int(101)), fresh);
  // Delete removes the entry.
  ASSERT_TRUE(db_->DeleteNode(fresh).ok());
  EXPECT_EQ(*db_->IndexSeek(user_, uid_, Value::Int(101)), kInvalidNode);
}

TEST_F(GraphDbTest, UniqueIndexRejectsDuplicates) {
  MakeUser(1);
  MakeUser(1);  // duplicate uid before index exists
  EXPECT_TRUE(db_->CreateIndex(user_, uid_, /*unique=*/true)
                  .IsAlreadyExists());
}

TEST_F(GraphDbTest, NonUniqueIndexLookup) {
  NodeId a = MakeUser(1);
  NodeId b = MakeUser(1);
  ASSERT_TRUE(db_->CreateIndex(user_, uid_, /*unique=*/false).ok());
  auto hits = db_->IndexLookup(user_, uid_, Value::Int(1));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
  EXPECT_NE(std::find(hits->begin(), hits->end(), a), hits->end());
  EXPECT_NE(std::find(hits->begin(), hits->end(), b), hits->end());
}

TEST_F(GraphDbTest, DbHitsCount) {
  NodeId a = MakeUser(1);
  db_->ResetDbHits();
  ASSERT_TRUE(db_->GetNodeProperty(a, uid_).ok());
  EXPECT_GT(db_->db_hits(), 0u);
}

TEST_F(GraphDbTest, ComputeDenseNodes) {
  GraphDbOptions options = FastOptions();
  options.dense_node_threshold = 3;
  GraphDb db(options);
  LabelId user = *db.Label("user");
  RelTypeId follows = *db.RelType("follows");
  NodeId hub = *db.CreateNode(user);
  for (int i = 0; i < 5; ++i) {
    NodeId spoke = *db.CreateNode(user);
    ASSERT_TRUE(db.CreateRelationship(follows, hub, spoke).ok());
  }
  auto dense = db.ComputeDenseNodes();
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(*dense, 1u);
}

// ------------------------------------------------------------ Transactions

TEST_F(GraphDbTest, CommitKeepsChanges) {
  NodeId node;
  {
    auto tx = db_->BeginTx();
    node = MakeUser(1);
    ASSERT_TRUE(tx.Commit().ok());
  }
  EXPECT_TRUE(db_->NodeExists(node));
}

TEST_F(GraphDbTest, RollbackUndoesCreates) {
  NodeId before = MakeUser(0);
  uint64_t nodes_before = db_->NumNodes();
  {
    auto tx = db_->BeginTx();
    NodeId a = MakeUser(1);
    NodeId b = MakeUser(2);
    ASSERT_TRUE(db_->CreateRelationship(follows_, a, b).ok());
    // Destructor rolls back.
  }
  EXPECT_EQ(db_->NumNodes(), nodes_before);
  EXPECT_EQ(db_->NumRels(), 0u);
  EXPECT_TRUE(db_->NodeExists(before));
}

TEST_F(GraphDbTest, RollbackRestoresPropertyValues) {
  NodeId node = MakeUser(1);
  ASSERT_TRUE(db_->SetNodeProperty(node, name_, Value::String("old")).ok());
  {
    auto tx = db_->BeginTx();
    ASSERT_TRUE(db_->SetNodeProperty(node, name_, Value::String("new")).ok());
    ASSERT_TRUE(tx.Rollback().ok());
  }
  EXPECT_EQ(db_->GetNodeProperty(node, name_)->AsString(), "old");
}

// -------------------------------------------------------- TraversalDesc

class TraversalTest : public GraphDbTest {
 protected:
  void SetUp() override {
    GraphDbTest::SetUp();
    // 0->1, 0->2, 1->3, 2->3, 3->4
    for (int i = 0; i < 5; ++i) nodes_.push_back(MakeUser(i));
    auto follow = [&](int a, int b) {
      ASSERT_TRUE(
          db_->CreateRelationship(follows_, nodes_[a], nodes_[b]).ok());
    };
    follow(0, 1);
    follow(0, 2);
    follow(1, 3);
    follow(2, 3);
    follow(3, 4);
  }
  std::vector<NodeId> nodes_;
};

TEST_F(TraversalTest, BreadthFirstDepths) {
  TraversalDescription td(db_.get());
  td.BreadthFirst().Relationships(follows_, Direction::kOutgoing).MaxDepth(2);
  std::vector<uint32_t> depths;
  ASSERT_TRUE(td.Traverse(nodes_[0], [&](const TraversalPath& p) {
                   depths.push_back(p.depth());
                   return true;
                 })
                  .ok());
  EXPECT_EQ(depths, (std::vector<uint32_t>{0, 1, 1, 2}));  // 3 seen once
}

TEST_F(TraversalTest, EvaluateAtDepthReportsOnlyThatDepth) {
  TraversalDescription td(db_.get());
  td.BreadthFirst()
      .Relationships(follows_, Direction::kOutgoing)
      .MaxDepth(2)
      .EvaluateAtDepth(2);
  std::vector<NodeId> ends;
  ASSERT_TRUE(td.Traverse(nodes_[0], [&](const TraversalPath& p) {
                   ends.push_back(p.end());
                   return true;
                 })
                  .ok());
  EXPECT_EQ(ends, std::vector<NodeId>{nodes_[3]});
}

TEST_F(TraversalTest, UniquenessNoneEnumeratesAllPaths) {
  TraversalDescription td(db_.get());
  td.BreadthFirst()
      .Relationships(follows_, Direction::kOutgoing)
      .MaxDepth(2)
      .SetUniqueness(Uniqueness::kNone)
      .EvaluateAtDepth(2);
  int paths = 0;
  ASSERT_TRUE(td.Traverse(nodes_[0], [&](const TraversalPath&) {
                   ++paths;
                   return true;
                 })
                  .ok());
  EXPECT_EQ(paths, 2);  // 0->1->3 and 0->2->3
}

TEST_F(TraversalTest, PathsCarryRelationships) {
  TraversalDescription td(db_.get());
  td.DepthFirst().Relationships(follows_, Direction::kOutgoing);
  ASSERT_TRUE(td.Traverse(nodes_[0], [&](const TraversalPath& p) {
                   EXPECT_EQ(p.rels.size() + 1, p.nodes.size());
                   return true;
                 })
                  .ok());
}

TEST_F(TraversalTest, BidirectionalShortestPath) {
  BidirectionalShortestPath bfs(db_.get(), follows_, Direction::kOutgoing);
  auto path = bfs.Find(nodes_[0], nodes_[4]);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 4u);  // 0 -> {1|2} -> 3 -> 4
  EXPECT_EQ(path->front(), nodes_[0]);
  EXPECT_EQ(path->back(), nodes_[4]);
  // Validate every hop is a real relationship.
  for (size_t i = 0; i + 1 < path->size(); ++i) {
    bool found = false;
    ASSERT_TRUE(db_->ForEachRelationship((*path)[i], Direction::kOutgoing,
                                         follows_,
                                         [&](const GraphDb::RelInfo& rel) {
                                           if (rel.other == (*path)[i + 1]) {
                                             found = true;
                                             return false;
                                           }
                                           return true;
                                         })
                    .ok());
    EXPECT_TRUE(found) << "hop " << i;
  }
}

TEST_F(TraversalTest, BidirectionalRespectsMaxHops) {
  BidirectionalShortestPath bfs(db_.get(), follows_, Direction::kOutgoing);
  bfs.SetMaxHops(1);
  auto path = bfs.Find(nodes_[0], nodes_[4]);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->empty());
}

TEST_F(TraversalTest, BidirectionalNoPath) {
  BidirectionalShortestPath bfs(db_.get(), follows_, Direction::kOutgoing);
  auto path = bfs.Find(nodes_[4], nodes_[0]);  // against edge direction
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->empty());
  auto self = bfs.Find(nodes_[2], nodes_[2]);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->size(), 1u);
}

}  // namespace
}  // namespace mbq::nodestore

namespace mbq::nodestore {
namespace {

// Fault injection at the engine level: cold reads that hit a failing
// device must surface IoError through every layer, and the engine must
// keep working once the device recovers.
TEST(GraphDbFaultTest, ColdReadSurfacesIoErrorAndRecovers) {
  // Reach the private disk through observable behaviour: a tiny cache
  // forces evictions, so enough churn guarantees real device reads.
  GraphDbOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  options.cache_bytes = 16 * storage::kPageSize;
  GraphDb db(options);
  auto user = *db.Label("user");
  auto name = db.PropKey("name");
  std::vector<NodeId> nodes;
  // Enough nodes+properties to exceed the 16-page cache.
  for (int i = 0; i < 4000; ++i) {
    auto node = db.CreateNode(user);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE(db.SetNodeProperty(*node, name,
                                   common::Value::String(
                                       "user-" + std::to_string(i)))
                    .ok());
    nodes.push_back(*node);
  }
  ASSERT_TRUE(db.DropCaches().ok());
  // Without a failure everything reads back.
  for (int i = 0; i < 4000; i += 500) {
    auto v = db.GetNodeProperty(nodes[i], name);
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(v->AsString(), "user-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace mbq::nodestore
