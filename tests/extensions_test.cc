#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>

#include "core/bitmap_engine.h"
#include "core/nodestore_engine.h"
#include "nodestore/graph_db.h"
#include "store/delta/delta_store.h"
#include "store/delta/wal.h"
#include "store/delta/write_batch.h"
#include "twitter/loaders.h"
#include "twitter/stream.h"

namespace mbq {
namespace {

using common::Value;
using nodestore::Direction;
using nodestore::GraphDb;
using nodestore::GraphDbOptions;
using nodestore::NodeId;

GraphDbOptions PartitionedOptions() {
  GraphDbOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  options.semantic_partitioning = true;
  return options;
}

// ------------------------------------- Semantic partitioning (nodestore)

class PartitionedGraphDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<GraphDb>(PartitionedOptions());
    user_ = *db_->Label("user");
    follows_ = *db_->RelType("follows");
    posts_ = *db_->RelType("posts");
    uid_ = db_->PropKey("uid");
    for (int i = 0; i < 5; ++i) {
      NodeId n = *db_->CreateNode(user_);
      EXPECT_TRUE(db_->SetNodeProperty(n, uid_, Value::Int(i)).ok());
      nodes_.push_back(n);
    }
  }

  std::unique_ptr<GraphDb> db_;
  nodestore::LabelId user_;
  nodestore::RelTypeId follows_, posts_;
  nodestore::PropKeyId uid_;
  std::vector<NodeId> nodes_;
};

TEST_F(PartitionedGraphDbTest, TypedChainsAreSeparate) {
  ASSERT_TRUE(db_->CreateRelationship(follows_, nodes_[0], nodes_[1]).ok());
  ASSERT_TRUE(db_->CreateRelationship(posts_, nodes_[0], nodes_[2]).ok());
  ASSERT_TRUE(db_->CreateRelationship(follows_, nodes_[0], nodes_[3]).ok());
  EXPECT_EQ(*db_->Degree(nodes_[0], Direction::kOutgoing, follows_), 2u);
  EXPECT_EQ(*db_->Degree(nodes_[0], Direction::kOutgoing, posts_), 1u);
  EXPECT_EQ(*db_->Degree(nodes_[0], Direction::kOutgoing, std::nullopt), 3u);
}

TEST_F(PartitionedGraphDbTest, TypedWalkSkipsOtherTypesRecords) {
  // A hub with many posts and two follows: walking follows must not read
  // the posts records.
  for (int i = 1; i < 5; ++i) {
    ASSERT_TRUE(db_->CreateRelationship(posts_, nodes_[0], nodes_[i]).ok());
    ASSERT_TRUE(db_->CreateRelationship(posts_, nodes_[0], nodes_[i]).ok());
  }
  ASSERT_TRUE(db_->CreateRelationship(follows_, nodes_[0], nodes_[1]).ok());
  db_->ResetDbHits();
  EXPECT_EQ(*db_->Degree(nodes_[0], Direction::kOutgoing, follows_), 1u);
  uint64_t partitioned_hits = db_->db_hits();

  GraphDbOptions mixed_options = PartitionedOptions();
  mixed_options.semantic_partitioning = false;
  GraphDb mixed(mixed_options);
  auto user = *mixed.Label("user");
  auto follows = *mixed.RelType("follows");
  auto posts = *mixed.RelType("posts");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(*mixed.CreateNode(user));
  for (int i = 1; i < 5; ++i) {
    ASSERT_TRUE(mixed.CreateRelationship(posts, nodes[0], nodes[i]).ok());
    ASSERT_TRUE(mixed.CreateRelationship(posts, nodes[0], nodes[i]).ok());
  }
  ASSERT_TRUE(mixed.CreateRelationship(follows, nodes[0], nodes[1]).ok());
  mixed.ResetDbHits();
  EXPECT_EQ(*mixed.Degree(nodes[0], Direction::kOutgoing, follows), 1u);
  uint64_t mixed_hits = mixed.db_hits();

  // The shared chain walks all 9 relationships; the typed chain reads the
  // group list plus one relationship.
  EXPECT_LT(partitioned_hits, mixed_hits);
}

TEST_F(PartitionedGraphDbTest, DeleteRelinksTypedChain) {
  auto r1 = *db_->CreateRelationship(follows_, nodes_[0], nodes_[1]);
  auto r2 = *db_->CreateRelationship(follows_, nodes_[0], nodes_[2]);
  auto r3 = *db_->CreateRelationship(follows_, nodes_[0], nodes_[3]);
  ASSERT_TRUE(db_->DeleteRelationship(r2).ok());
  std::set<NodeId> others;
  ASSERT_TRUE(db_->ForEachRelationship(nodes_[0], Direction::kOutgoing,
                                       follows_,
                                       [&](const GraphDb::RelInfo& rel) {
                                         others.insert(rel.other);
                                         return true;
                                       })
                  .ok());
  EXPECT_EQ(others, (std::set<NodeId>{nodes_[1], nodes_[3]}));
  ASSERT_TRUE(db_->DeleteRelationship(r1).ok());
  ASSERT_TRUE(db_->DeleteRelationship(r3).ok());
  EXPECT_EQ(*db_->Degree(nodes_[0], Direction::kOutgoing, follows_), 0u);
}

TEST_F(PartitionedGraphDbTest, DetachDeleteAcrossTypes) {
  ASSERT_TRUE(db_->CreateRelationship(follows_, nodes_[0], nodes_[1]).ok());
  ASSERT_TRUE(db_->CreateRelationship(posts_, nodes_[0], nodes_[2]).ok());
  ASSERT_TRUE(db_->CreateRelationship(follows_, nodes_[3], nodes_[0]).ok());
  EXPECT_TRUE(db_->DeleteNode(nodes_[0]).IsFailedPrecondition());
  ASSERT_TRUE(db_->DetachDeleteNode(nodes_[0]).ok());
  EXPECT_FALSE(db_->NodeExists(nodes_[0]));
  EXPECT_EQ(db_->NumRels(), 0u);
  EXPECT_EQ(*db_->Degree(nodes_[3], Direction::kOutgoing, follows_), 0u);
}

TEST_F(PartitionedGraphDbTest, DeleteNodeFreesEmptyGroups) {
  auto rel = *db_->CreateRelationship(follows_, nodes_[0], nodes_[1]);
  ASSERT_TRUE(db_->DeleteRelationship(rel).ok());
  // Groups exist but are empty; plain delete must succeed.
  EXPECT_TRUE(db_->DeleteNode(nodes_[0]).ok());
}

TEST_F(PartitionedGraphDbTest, SelfLoopInTypedChain) {
  ASSERT_TRUE(db_->CreateRelationship(follows_, nodes_[0], nodes_[0]).ok());
  int visits = 0;
  ASSERT_TRUE(db_->ForEachRelationship(nodes_[0], Direction::kBoth, follows_,
                                       [&](const GraphDb::RelInfo&) {
                                         ++visits;
                                         return true;
                                       })
                  .ok());
  EXPECT_EQ(visits, 1);
}

TEST_F(PartitionedGraphDbTest, AgreesWithSharedLayoutOnWorkload) {
  // Load the same dataset into a partitioned and a shared-store database
  // and compare a whole-workload query through the Cypher engine.
  twitter::DatasetSpec spec;
  spec.num_users = 300;
  spec.seed = 3;
  twitter::Dataset dataset = twitter::GenerateDataset(spec);

  GraphDb partitioned(PartitionedOptions());
  ASSERT_TRUE(twitter::LoadIntoNodestore(dataset, &partitioned).ok());
  GraphDbOptions mixed_options = PartitionedOptions();
  mixed_options.semantic_partitioning = false;
  GraphDb mixed(mixed_options);
  ASSERT_TRUE(twitter::LoadIntoNodestore(dataset, &mixed).ok());

  core::NodestoreEngine a(&partitioned);
  core::NodestoreEngine b(&mixed);
  for (int64_t uid : {0, 42, 299}) {
    auto ra = a.RecommendFolloweesOfFollowees(uid, 1 << 30);
    auto rb = b.RecommendFolloweesOfFollowees(uid, 1 << 30);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(*ra, *rb) << uid;
    auto ia = a.PotentialInfluence(uid, 1 << 30);
    auto ib = b.PotentialInfluence(uid, 1 << 30);
    ASSERT_TRUE(ia.ok() && ib.ok());
    EXPECT_EQ(*ia, *ib) << uid;
  }
}

// ------------------------------------------------------- Update streaming

class UpdateStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    twitter::DatasetSpec spec;
    spec.num_users = 200;
    spec.seed = 17;
    dataset_ = twitter::GenerateDataset(spec);
  }
  twitter::Dataset dataset_;
};

TEST_F(UpdateStreamTest, DeterministicFromSeed) {
  twitter::UpdateStream a(dataset_, twitter::StreamMix{}, 5);
  twitter::UpdateStream b(dataset_, twitter::StreamMix{}, 5);
  store::WriteBatch ba = a.Take(500);
  store::WriteBatch bb = b.Take(500);
  ASSERT_EQ(ba.size(), bb.size());
  for (size_t i = 0; i < ba.size(); ++i) {
    const store::WriteOp& ea = ba.ops()[i];
    const store::WriteOp& eb = bb.ops()[i];
    EXPECT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind));
    EXPECT_EQ(ea.a, eb.a);
    EXPECT_EQ(ea.b, eb.b);
    EXPECT_EQ(ea.text, eb.text);
  }
}

TEST_F(UpdateStreamTest, EventsAreReferentiallyConsistent) {
  using store::WriteOpKind;
  twitter::UpdateStream stream(dataset_, twitter::StreamMix{}, 6);
  int64_t max_uid = static_cast<int64_t>(dataset_.users.size()) - 1;
  int64_t max_tid = static_cast<int64_t>(dataset_.tweets.size()) - 1;
  const store::WriteOp* prev = nullptr;
  store::WriteBatch batch = stream.Take(2000);
  EXPECT_GE(batch.size(), 2000u);
  for (const store::WriteOp& e : batch.ops()) {
    switch (e.kind) {
      case WriteOpKind::kNewUser:
        EXPECT_EQ(e.a, max_uid + 1);
        max_uid = e.a;
        break;
      case WriteOpKind::kFollow:
      case WriteOpKind::kUnfollow:
        EXPECT_LE(e.a, max_uid);
        EXPECT_LE(e.b, max_uid);
        EXPECT_NE(e.a, e.b);
        break;
      case WriteOpKind::kPostTweet:
        EXPECT_EQ(e.b, max_tid + 1);
        max_tid = e.b;
        EXPECT_LE(e.a, max_uid);
        break;
      case WriteOpKind::kRetweetOf:
        // A retweet is the tweet just posted, pointing at an older one.
        ASSERT_NE(prev, nullptr);
        EXPECT_EQ(static_cast<int>(prev->kind),
                  static_cast<int>(WriteOpKind::kPostTweet));
        EXPECT_EQ(e.a, prev->b);
        EXPECT_EQ(e.a, max_tid);
        EXPECT_GE(e.b, 0);
        EXPECT_LT(e.b, e.a);
        break;
      case WriteOpKind::kAddMention:
        EXPECT_LE(e.a, max_tid);
        EXPECT_LE(e.b, max_uid);
        break;
      case WriteOpKind::kTagTweet:
        EXPECT_LE(e.a, max_tid);
        EXPECT_FALSE(e.text.empty());
        break;
    }
    prev = &e;
  }
}

/// Both engines over their own copy of `dataset`, opened writable through
/// OpenEngine; `wal_dir` empty commits without a log.
struct WritablePair {
  std::unique_ptr<GraphDb> db;
  std::unique_ptr<bitmapstore::Graph> graph;
  twitter::BitmapHandles handles{};
  std::unique_ptr<core::MicroblogEngine> ns;
  std::unique_ptr<core::MicroblogEngine> bm;
};

WritablePair OpenWritablePair(const twitter::Dataset& dataset,
                              const std::string& wal_dir = std::string()) {
  WritablePair pair;
  nodestore::GraphDbOptions ndb_options;
  ndb_options.disk_profile = storage::DiskProfile::Instant();
  pair.db = std::make_unique<GraphDb>(ndb_options);
  EXPECT_TRUE(twitter::LoadIntoNodestore(dataset, pair.db.get()).ok());
  bitmapstore::GraphOptions bg_options;
  bg_options.disk_profile = storage::DiskProfile::Instant();
  pair.graph = std::make_unique<bitmapstore::Graph>(bg_options);
  auto bh = twitter::LoadIntoBitmapstore(dataset, pair.graph.get());
  EXPECT_TRUE(bh.ok());
  if (bh.ok()) pair.handles = *bh;

  core::EngineOptions options;
  options.enable_writes = true;
  options.dataset = &dataset;
  options.db = pair.db.get();
  options.graph = pair.graph.get();
  options.handles = &pair.handles;
  options.wal_dir = wal_dir.empty() ? std::string() : wal_dir + "/ns";
  auto ns = core::OpenEngine(core::EngineKind::kNodestore, options);
  options.wal_dir = wal_dir.empty() ? std::string() : wal_dir + "/bm";
  auto bm = core::OpenEngine(core::EngineKind::kBitmap, options);
  EXPECT_TRUE(ns.ok()) << ns.status().ToString();
  EXPECT_TRUE(bm.ok()) << bm.status().ToString();
  if (ns.ok()) pair.ns = std::move(*ns);
  if (bm.ok()) pair.bm = std::move(*bm);
  return pair;
}

TEST_F(UpdateStreamTest, AppliersKeepEnginesInAgreement) {
  WritablePair pair = OpenWritablePair(dataset_);
  ASSERT_NE(pair.ns, nullptr);
  ASSERT_NE(pair.bm, nullptr);
  core::WritableEngine* ns = pair.ns->AsWritable();
  core::WritableEngine* bm = pair.bm->AsWritable();

  twitter::UpdateStream stream(dataset_, twitter::StreamMix{}, 9);
  uint64_t ops = 0;
  for (int batch = 0; batch < 5; ++batch) {
    store::WriteBatch events = stream.Take(300);
    ops += events.size();
    ASSERT_TRUE(ns->Commit(events).ok()) << batch;
    ASSERT_TRUE(bm->Commit(std::move(events)).ok()) << batch;
  }
  EXPECT_GE(ops, 1500u);  // 5 x 300 events; a retweet is two ops
  EXPECT_EQ(ns->delta().batches(), 5u);
  EXPECT_EQ(ns->delta().ops(), ops);
  EXPECT_EQ(bm->delta().ops(), ops);
  EXPECT_EQ(pair.db->NumNodes(), pair.graph->NumNodes());
  EXPECT_EQ(pair.db->NumRels(), pair.graph->NumEdges());

  for (int64_t uid : {0, 50, 150}) {
    auto a = pair.ns->FolloweesOf(uid);
    auto b = pair.bm->FolloweesOf(uid);
    ASSERT_TRUE(a.ok() && b.ok());
    core::SortRows(&*a);
    core::SortRows(&*b);
    EXPECT_EQ(*a, *b) << uid;
  }
}

TEST_F(UpdateStreamTest, ApplierRejectsUnknownReferences) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mbq_stream_reject_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    WritablePair pair = OpenWritablePair(dataset_, dir.string());
    for (core::MicroblogEngine* engine : {pair.ns.get(), pair.bm.get()}) {
      ASSERT_NE(engine, nullptr);
      core::WritableEngine* writer = engine->AsWritable();
      store::WriteBatch bogus;
      bogus.Follow(999999, 0);
      EXPECT_TRUE(writer->Commit(std::move(bogus)).IsNotFound())
          << engine->name();
      // Not logged, not counted.
      EXPECT_EQ(writer->wal()->records(), 0u) << engine->name();
      EXPECT_EQ(writer->delta().batches(), 0u) << engine->name();
      EXPECT_EQ(writer->delta().ops(), 0u) << engine->name();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mbq
