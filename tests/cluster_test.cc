#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/bitmap_engine.h"
#include "core/calls.h"
#include "core/engine.h"
#include "core/nodestore_engine.h"
#include "core/partition.h"
#include "core/remote_engine.h"
#include "core/shard_service.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "rpc/server.h"
#include "storage/simulated_disk.h"
#include "twitter/loaders.h"
#include "verify_sweep.h"

namespace mbq::core {
namespace {

using twitter::Dataset;
using twitter::DatasetSpec;

// ------------------------------------------------------------ partition

TEST(Partitioner, HashTranslationIsABijection) {
  Partitioner p(PartitionKind::kHash, 3, 100);
  uint64_t seen = 0;
  for (int64_t uid = 0; uid < 100; ++uid) {
    uint32_t shard = p.OwnerShard(uid);
    ASSERT_LT(shard, 3u);
    uint64_t local = p.GlobalToLocal(uid);
    ASSERT_LT(local, p.OwnedCount(shard));
    EXPECT_EQ(uid, p.LocalToGlobal(shard, local));
    ++seen;
  }
  EXPECT_EQ(100u, seen);
  EXPECT_EQ(100u, p.OwnedCount(0) + p.OwnedCount(1) + p.OwnedCount(2));
}

TEST(Partitioner, RangeTranslationIsABijection) {
  Partitioner p(PartitionKind::kRange, 4, 103);
  uint64_t total = 0;
  for (uint32_t s = 0; s < 4; ++s) total += p.OwnedCount(s);
  EXPECT_EQ(103u, total);
  uint32_t last_shard = 0;
  for (int64_t uid = 0; uid < 103; ++uid) {
    uint32_t shard = p.OwnerShard(uid);
    // Range partitioning is monotone in uid.
    ASSERT_GE(shard, last_shard);
    last_shard = shard;
    EXPECT_EQ(uid, p.LocalToGlobal(shard, p.GlobalToLocal(uid)));
  }
}

TEST(Partitioner, SliceCoversActivityExactlyOnce) {
  DatasetSpec spec;
  spec.num_users = 300;
  spec.seed = 7;
  Dataset full = twitter::GenerateDataset(spec);
  Partitioner p(PartitionKind::kHash, 3, spec.num_users);

  uint64_t tweets = 0, mentions = 0, tag_edges = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    SliceCounts counts;
    Dataset slice = MakeShardSlice(full, p, s, &counts);
    // Social skeleton replicated in full.
    EXPECT_EQ(full.users.size(), slice.users.size());
    EXPECT_EQ(full.follows.size(), slice.follows.size());
    EXPECT_EQ(full.hashtags.size(), slice.hashtags.size());
    // Every tweet's poster is owned by this shard.
    for (const Dataset::Tweet& tweet : slice.tweets) {
      EXPECT_EQ(s, p.OwnerShard(tweet.poster_uid));
    }
    tweets += slice.tweets.size();
    mentions += slice.mentions.size();
    tag_edges += slice.tags.size();
  }
  // The slices partition the activity graph: nothing lost, nothing
  // duplicated.
  EXPECT_EQ(full.tweets.size(), tweets);
  EXPECT_EQ(full.mentions.size(), mentions);
  EXPECT_EQ(full.tags.size(), tag_edges);
}

// -------------------------------------------------------------- cluster

/// One in-process shard: slice, stores, engine, service, RPC server.
struct Shard {
  std::unique_ptr<nodestore::GraphDb> db;
  std::unique_ptr<bitmapstore::Graph> graph;
  twitter::BitmapHandles bitmap_handles{};
  std::unique_ptr<MicroblogEngine> engine;
  std::unique_ptr<ShardService> service;
  std::unique_ptr<rpc::RpcServer> server;
};

/// Spins up `num_shards` shard servers over slices of `full` on loopback
/// and returns them plus their addresses. `engine_kind` selects the
/// per-shard engine; mixing engines across shards is fine (and tested) —
/// the protocol hides the implementation.
class ClusterFixture {
 public:
  ClusterFixture(const Dataset& full, uint32_t num_shards,
                 PartitionKind partition, EngineKind engine_kind,
                 uint64_t num_users) {
    status_ = Init(full, num_shards, partition, engine_kind, num_users);
  }

  const Status& status() const { return status_; }
  const std::vector<RemoteEngine::ShardAddress>& addresses() const {
    return addresses_;
  }

 private:
  Status Init(const Dataset& full, uint32_t num_shards,
              PartitionKind partition, EngineKind engine_kind,
              uint64_t num_users) {
    Partitioner partitioner(partition, num_shards, num_users);
    for (uint32_t s = 0; s < num_shards; ++s) {
      auto shard = std::make_unique<Shard>();
      Dataset slice = MakeShardSlice(full, partitioner, s);
      EngineOptions options;
      EngineKind kind =
          engine_kind == EngineKind::kRemote
              // "kRemote" is reused here to mean "alternate per shard".
              ? (s % 2 == 0 ? EngineKind::kNodestore : EngineKind::kBitmap)
              : engine_kind;
      if (kind == EngineKind::kNodestore) {
        nodestore::GraphDbOptions ndb;
        ndb.disk_profile = storage::DiskProfile::Instant();
        shard->db = std::make_unique<nodestore::GraphDb>(ndb);
        auto handles = twitter::LoadIntoNodestore(slice, shard->db.get());
        MBQ_RETURN_IF_ERROR(handles.status());
        options.db = shard->db.get();
      } else {
        bitmapstore::GraphOptions bg;
        bg.disk_profile = storage::DiskProfile::Instant();
        shard->graph = std::make_unique<bitmapstore::Graph>(bg);
        auto handles = twitter::LoadIntoBitmapstore(slice, shard->graph.get());
        MBQ_RETURN_IF_ERROR(handles.status());
        shard->bitmap_handles = *handles;
        options.graph = shard->graph.get();
        options.handles = &shard->bitmap_handles;
      }
      MBQ_ASSIGN_OR_RETURN(shard->engine, OpenEngine(kind, options));

      rpc::HelloReply info;
      info.shard_id = s;
      info.num_shards = num_shards;
      info.partition = static_cast<uint8_t>(partition);
      info.num_users = num_users;
      info.engine = shard->engine->name();
      shard->service = std::make_unique<ShardService>(shard->engine.get(),
                                                      info);
      ShardService* service = shard->service.get();
      MBQ_ASSIGN_OR_RETURN(
          shard->server,
          rpc::RpcServer::Start(rpc::RpcServer::Options{},
                                [service](const rpc::Frame& f) {
                                  return service->Handle(f);
                                }));
      addresses_.push_back(
          {std::string("127.0.0.1"), shard->server->port()});
      shards_.push_back(std::move(shard));
    }
    return Status::OK();
  }

  Status status_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RemoteEngine::ShardAddress> addresses_;
};

struct ClusterCase {
  uint64_t seed;
  uint64_t users;
  uint32_t shards;
  EngineKind engine;  // kRemote = alternate nodestore/bitmap per shard
  PartitionKind partition;
  /// gtest names each case in ctest by the struct's bytes. The tail that
  /// would be padding is a zeroed member, so every byte is set and the
  /// names are the same in every build.
  uint8_t zeroed_tail[7] = {};
};
static_assert(std::has_unique_object_representations_v<ClusterCase>,
              "ClusterCase has padding");

class ClusterAgreementTest : public ::testing::TestWithParam<ClusterCase> {
 protected:
  void SetUp() override {
    const ClusterCase& c = GetParam();
    DatasetSpec spec;
    spec.num_users = c.users;
    spec.seed = c.seed;
    spec.tweets_per_active_user = 5;
    spec.active_user_fraction = 0.3;
    spec.follows_per_user = 6;
    spec.mentions_per_tweet = 1.2;
    dataset_ = twitter::GenerateDataset(spec);

    // Reference: the whole dataset in one local engine.
    nodestore::GraphDbOptions ndb;
    ndb.disk_profile = storage::DiskProfile::Instant();
    db_ = std::make_unique<nodestore::GraphDb>(ndb);
    auto handles = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(handles.ok()) << handles.status().ToString();
    EngineOptions options;
    options.db = db_.get();
    auto local = OpenEngine(EngineKind::kNodestore, options);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    local_ = std::move(*local);

    cluster_ = std::make_unique<ClusterFixture>(dataset_, c.shards,
                                                c.partition, c.engine,
                                                c.users);
    ASSERT_TRUE(cluster_->status().ok()) << cluster_->status().ToString();
    auto remote = RemoteEngine::Connect(cluster_->addresses());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ = std::move(*remote);
  }

  Dataset dataset_;
  std::unique_ptr<nodestore::GraphDb> db_;
  std::unique_ptr<MicroblogEngine> local_;
  std::unique_ptr<ClusterFixture> cluster_;
  std::unique_ptr<RemoteEngine> remote_;
};

/// The randomized differential sweep (agreement_test.cc), pointed at
/// the aggregation plane instead of a second local engine: the shards +
/// merge must reproduce the single-process engine exactly.
TEST_P(ClusterAgreementTest, AggregatedResultsMatchSingleProcess) {
  const uint64_t seed = GetParam().seed;
  SCOPED_TRACE("reproduce with seed=" + std::to_string(seed));
  constexpr int kCallsPerSeed = 25;
  ParamUniverse universe(dataset_);
  ExpectAgreement(
      Verify(*local_, *remote_, ReadSweep(universe, seed, kCallsPerSeed)), 11);
}

/// An unknown hashtag answers no rows on every topology, as it does on
/// the single-process engine, and the merge keeps it that way.
TEST_P(ClusterAgreementTest, UnknownHashtagMatchesSingleProcessSemantics) {
  auto want = local_->TopCoOccurringHashtags("no_such_tag_zzz", 10);
  auto got = remote_->TopCoOccurringHashtags("no_such_tag_zzz", 10);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(*want, *got);
}

/// Every anchored read kind on a missing uid or hashtag.
TEST_P(ClusterAgreementTest, MissingAnchorsMatchSingleProcess) {
  ExpectAgreement(Verify(*local_, *remote_, MissingAnchorSpecs()), 10);
}

TEST_P(ClusterAgreementTest, DropCachesReachesEveryShard) {
  EXPECT_TRUE(remote_->DropCaches().ok());
}

/// Client and shards share one process here, so the global span ring
/// sees both halves of a traced call: the RemoteEngine nav span and
/// every shard's execute span must carry the one installed trace id
/// (wire-propagated via kTracedEnvelope over real loopback sockets),
/// and the aggregation plane must attribute latency to each shard.
TEST_P(ClusterAgreementTest, TracedCallsStitchAcrossTheRpcBoundary) {
  obs::SpanRecorder::Global().Clear();
  obs::TraceContext root = obs::MintTraceContext();
  {
    obs::ScopedTraceContext scope(root);
    // A fan-out call: every shard answers, so every shard's histogram
    // and execute span participate in the trace.
    ASSERT_TRUE(remote_->TweetsOfFollowees(1).ok());
  }
  std::string json = obs::SpanRecorder::Global().ToTraceJson();
  const std::string id = "\"trace_id\": \"" + obs::TraceIdHex(root) + "\"";
  size_t stitched = 0;
  for (size_t at = json.find(id); at != std::string::npos;
       at = json.find(id, at + 1)) {
    ++stitched;
  }
  // At least the client-side nav span plus one span per shard, all
  // under the same trace even though the context crossed the wire.
  EXPECT_GE(stitched, 1u + GetParam().shards) << json;

  // Latency attribution: every shard's histogram saw the call.
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  for (uint32_t s = 0; s < GetParam().shards; ++s) {
    const std::string name = "rpc.shard." + std::to_string(s) + ".latency";
    bool found = false;
    for (const auto& h : snap.histograms) {
      if (h.name == name) {
        found = true;
        EXPECT_GT(h.count, 0u) << name;
      }
    }
    EXPECT_TRUE(found) << "missing histogram " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ClusterAgreementTest,
    ::testing::Values(
        // The acceptance topology: 2 nodestore shards, hash partition.
        ClusterCase{11, 240, 2, EngineKind::kNodestore, PartitionKind::kHash},
        // Range partitioning.
        ClusterCase{12, 240, 2, EngineKind::kNodestore,
                    PartitionKind::kRange},
        // Bitmap shards.
        ClusterCase{13, 240, 2, EngineKind::kBitmap, PartitionKind::kHash},
        // 3 shards, mixed engine kinds across shards.
        ClusterCase{14, 300, 3, EngineKind::kRemote, PartitionKind::kHash}));

/// OpenEngine(kRemote) is the factory face of the same machinery; it
/// must dial, validate and answer like a directly constructed
/// RemoteEngine.
TEST(RemoteFactory, OpenEngineRemoteWorksAndValidates) {
  DatasetSpec spec;
  spec.num_users = 120;
  spec.seed = 5;
  Dataset full = twitter::GenerateDataset(spec);
  ClusterFixture cluster(full, 2, PartitionKind::kHash,
                         EngineKind::kNodestore, spec.num_users);
  ASSERT_TRUE(cluster.status().ok()) << cluster.status().ToString();

  EngineOptions options;
  for (const RemoteEngine::ShardAddress& addr : cluster.addresses()) {
    options.shard_addresses.push_back(addr.host + ":" +
                                      std::to_string(addr.port));
  }
  auto engine = OpenEngine(EngineKind::kRemote, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto rows = (*engine)->FolloweesOf(0);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();

  // Addressing only one shard of a two-shard topology must be refused.
  EngineOptions partial;
  partial.shard_addresses = {options.shard_addresses[0]};
  auto bad = OpenEngine(EngineKind::kRemote, partial);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsFailedPrecondition())
      << bad.status().ToString();

  // And no addresses at all is an argument error.
  EXPECT_TRUE(OpenEngine(EngineKind::kRemote, EngineOptions{})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace mbq::core
