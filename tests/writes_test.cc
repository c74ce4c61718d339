#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/mix.h"
#include "core/bitmap_engine.h"
#include "core/calls.h"
#include "core/check.h"
#include "core/nodestore_engine.h"
#include "core/shard_service.h"
#include "core/workload.h"
#include "cypher/session.h"
#include "rpc/messages.h"
#include "rpc/server.h"
#include "store/delta/delta_store.h"
#include "store/delta/wal.h"
#include "store/delta/write_batch.h"
#include "twitter/loaders.h"
#include "twitter/stream.h"
#include "util/rng.h"

namespace mbq::core {
namespace {

using twitter::Dataset;
using twitter::DatasetSpec;

Dataset SmallDataset(uint64_t seed, uint64_t users = 120) {
  DatasetSpec spec;
  spec.num_users = users;
  spec.follows_per_user = 5;
  spec.mentions_per_tweet = 1.0;
  spec.active_user_fraction = 0.4;
  spec.tweets_per_active_user = 3;
  spec.retweet_fraction = 0.1;
  spec.seed = seed;
  return twitter::GenerateDataset(spec);
}

/// Owns one writable engine plus the stores underneath it, so tests can
/// build several engines over copies of the same dataset.
struct WritableFixture {
  Dataset dataset;
  std::unique_ptr<nodestore::GraphDb> db;
  std::unique_ptr<bitmapstore::Graph> graph;
  twitter::BitmapHandles handles{};
  std::unique_ptr<MicroblogEngine> engine;

  WritableEngine* writer() { return engine->AsWritable(); }
};

/// Builds a writable engine of `kind` over `dataset`; `wal_dir` empty
/// commits without durability. `mutate` lets tests toggle cache knobs.
std::unique_ptr<WritableFixture> OpenWritable(
    EngineKind kind, const Dataset& dataset,
    const std::string& wal_dir = std::string(),
    void (*mutate)(EngineOptions*) = nullptr) {
  auto fx = std::make_unique<WritableFixture>();
  fx->dataset = dataset;
  EngineOptions options;
  options.enable_writes = true;
  options.dataset = &fx->dataset;
  options.wal_dir = wal_dir;
  if (kind == EngineKind::kNodestore) {
    nodestore::GraphDbOptions ndb;
    ndb.disk_profile = storage::DiskProfile::Instant();
    fx->db = std::make_unique<nodestore::GraphDb>(ndb);
    auto nh = twitter::LoadIntoNodestore(fx->dataset, fx->db.get());
    EXPECT_TRUE(nh.ok()) << nh.status().ToString();
    options.db = fx->db.get();
  } else {
    bitmapstore::GraphOptions bg;
    bg.disk_profile = storage::DiskProfile::Instant();
    fx->graph = std::make_unique<bitmapstore::Graph>(bg);
    auto bh = twitter::LoadIntoBitmapstore(fx->dataset, fx->graph.get());
    EXPECT_TRUE(bh.ok()) << bh.status().ToString();
    fx->handles = *bh;
    options.graph = fx->graph.get();
    options.handles = &fx->handles;
  }
  if (mutate != nullptr) mutate(&options);
  auto engine = OpenEngine(kind, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  fx->engine = std::move(*engine);
  return fx;
}

/// The writer's commit counters: ops, batches, tombstones, last WAL seq.
std::array<uint64_t, 4> CommitCounters(const WritableEngine& w) {
  const store::DeltaStore& delta = w.delta();
  return {delta.ops(), delta.batches(), delta.tombstones(), delta.last_seq()};
}

bool RowsContainInt(const ValueRows& rows, int64_t v) {
  for (const ValueRow& row : rows) {
    for (const Value& cell : row) {
      if (cell.type() == common::ValueType::kInt && cell.AsInt() == v)
        return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- API shape

TEST(WriteApiTest, ReadOnlyEngineHasNoWriteSurface) {
  Dataset dataset = SmallDataset(11);
  nodestore::GraphDbOptions ndb;
  ndb.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(ndb);
  auto nh = twitter::LoadIntoNodestore(dataset, &db);
  ASSERT_TRUE(nh.ok());
  EngineOptions options;
  options.db = &db;
  auto engine = OpenEngine(EngineKind::kNodestore, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->AsWritable(), nullptr);

  // Dispatching a write call against it is a typed refusal, not a crash.
  CallSpec spec;
  spec.kind = CallKind::kFollow;
  spec.a = 1;
  spec.b = 2;
  auto outcome = DispatchCall(**engine, spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsNotImplemented())
      << outcome.status().ToString();
}

TEST(WriteApiTest, IsWriteCallClassifiesKinds) {
  EXPECT_TRUE(IsWriteCall(CallKind::kPostTweet));
  EXPECT_TRUE(IsWriteCall(CallKind::kFollow));
  EXPECT_TRUE(IsWriteCall(CallKind::kUnfollow));
  EXPECT_TRUE(IsWriteCall(CallKind::kAddMention));
  EXPECT_FALSE(IsWriteCall(CallKind::kFollowees));
  EXPECT_FALSE(IsWriteCall(CallKind::kSelectUsers));
  EXPECT_FALSE(IsWriteCall(CallKind::kShortestPath));
}

TEST(WriteApiTest, WritableNodestoreRefusesTheModelledRedoLog) {
  // The record store has no redo log of its own: the writable engine's
  // WAL is the one log of committed writes, so asking the store for one
  // aborts, naming the field.
  nodestore::GraphDbOptions ndb;
  ndb.disk_profile = storage::DiskProfile::Instant();
  ndb.wal_enabled = true;
  EXPECT_DEATH({ nodestore::GraphDb db(ndb); }, "GraphDbOptions::wal_enabled");
}

TEST(WriteApiTest, CallerAssignedTidsAdvanceAllocation) {
  Dataset dataset = SmallDataset(13);
  auto ns = OpenWritable(EngineKind::kNodestore, dataset);
  auto bm = OpenWritable(EngineKind::kBitmap, dataset);
  for (WritableFixture* fx : {ns.get(), bm.get()}) {
    WritableEngine* w = fx->writer();
    ASSERT_NE(w, nullptr);
    // A batch that assigns its own tid (as the update stream does) must
    // move allocation past it, or the typed post below would collide.
    const int64_t tid = w->next_tid();
    store::WriteBatch batch;
    batch.Append({store::WriteOpKind::kPostTweet, 0, tid, "caller tid"});
    ASSERT_TRUE(w->Commit(std::move(batch)).ok());
    Status typed = w->PostTweet(1, "allocated tid");
    EXPECT_TRUE(typed.ok()) << typed.ToString();
    EXPECT_EQ(w->next_tid(), tid + 2);
  }
  EXPECT_EQ(ns->db->NumNodes(), bm->graph->NumNodes());
}

TEST(WriteBatchCodecTest, RoundTripsEveryKind) {
  using store::WriteOpKind;
  store::WriteBatch batch;
  for (WriteOpKind kind :
       {WriteOpKind::kPostTweet, WriteOpKind::kFollow, WriteOpKind::kUnfollow,
        WriteOpKind::kAddMention, WriteOpKind::kNewUser,
        WriteOpKind::kTagTweet, WriteOpKind::kRetweetOf}) {
    const int64_t k = static_cast<int64_t>(kind);
    batch.Append({kind, k, -k, ""});
    batch.Append({kind, INT64_MAX - k, INT64_MIN + k,
                  "text of kind " + std::to_string(k)});
  }
  for (const store::WriteBatch& in : {store::WriteBatch(), batch}) {
    std::string encoded;
    store::EncodeWriteBatch(in, &encoded);
    auto decoded = store::DecodeWriteBatch(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, in);
  }
}

TEST(WriteBatchCodecTest, RejectsMalformedInputAsCorruption) {
  // [u32 count][u8 kind][i64 a][i64 b][u32 text len][text]
  store::WriteBatch batch;
  batch.Append({store::WriteOpKind::kTagTweet, 7, 0, "tag"});
  std::string good;
  store::EncodeWriteBatch(batch, &good);
  ASSERT_EQ(good.size(), 4u + 1 + 8 + 8 + 4 + 3);
  const size_t kind_at = 4;

  std::string kind0 = good;
  kind0[kind_at] = 0;
  std::string kind8 = good;
  kind8[kind_at] = 8;
  for (const std::string& bad :
       {kind0, kind8, good.substr(0, 3) /* count */,
        good.substr(0, kind_at + 1 + 10) /* payload */,
        good.substr(0, good.size() - 1) /* text */, good + "x" /* trailing */}) {
    auto decoded = store::DecodeWriteBatch(bad);
    ASSERT_FALSE(decoded.ok()) << bad.size() << " bytes decoded";
    EXPECT_TRUE(decoded.status().IsCorruption())
        << decoded.status().ToString();
  }
}

class WriteVisibilityTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(WriteVisibilityTest, CommittedWritesAreImmediatelyVisible) {
  auto fx = OpenWritable(GetParam(), SmallDataset(22));
  ASSERT_NE(fx->writer(), nullptr);
  WritableEngine* w = fx->writer();
  const int64_t users = static_cast<int64_t>(fx->dataset.users.size());
  const int64_t src = 0, dst = users - 1;

  // Follow: the edge appears in Q2.1 the moment Commit returns.
  auto before = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(RowsContainInt(*before, dst))
      << "seed produced src->dst already; pick another seed";
  ASSERT_TRUE(w->Follow(src, dst).ok());
  auto after = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(RowsContainInt(*after, dst));

  // PostTweet: a fresh tweet id past the bulk-loaded space, visible to
  // Q2.2 through the new follows edge.
  const int64_t tid_floor = static_cast<int64_t>(fx->dataset.tweets.size());
  EXPECT_EQ(w->next_tid(), tid_floor);
  ASSERT_TRUE(w->PostTweet(dst, "hello live writes").ok());
  EXPECT_EQ(w->next_tid(), tid_floor + 1);
  auto feed = fx->engine->TweetsOfFollowees(src);
  ASSERT_TRUE(feed.ok());
  EXPECT_TRUE(RowsContainInt(*feed, tid_floor));

  // AddMention: the new tweet mentioning src shows up in Q5 influence
  // queries for src (dst follows nobody relevant, so potential side).
  ASSERT_TRUE(w->AddMention(tid_floor, src).ok());
  auto cur = fx->engine->CurrentInfluence(src, 1 << 30);
  auto pot = fx->engine->PotentialInfluence(src, 1 << 30);
  ASSERT_TRUE(cur.ok() && pot.ok());
  EXPECT_TRUE(RowsContainInt(*cur, dst) || RowsContainInt(*pot, dst));

  // Unfollow: tombstoned edge disappears from Q2.1.
  ASSERT_TRUE(w->Unfollow(src, dst).ok());
  auto gone = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(RowsContainInt(*gone, dst));

  // The commit counters saw every committed op.
  EXPECT_EQ(w->delta().ops(), 4u);
  EXPECT_EQ(w->delta().tombstones(), 1u);
}

TEST_P(WriteVisibilityTest, PackedBatchCommitsAsOneUnit) {
  auto fx = OpenWritable(GetParam(), SmallDataset(33));
  ASSERT_NE(fx->writer(), nullptr);
  WritableEngine* w = fx->writer();
  const int64_t users = static_cast<int64_t>(fx->dataset.users.size());

  store::WriteBatch batch;
  batch.Follow(0, users - 1).Follow(0, users - 2).PostTweet(users - 1, "grp");
  ASSERT_TRUE(w->Commit(std::move(batch)).ok());

  auto rows = fx->engine->FolloweesOf(0);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(RowsContainInt(*rows, users - 1));
  EXPECT_TRUE(RowsContainInt(*rows, users - 2));
  EXPECT_EQ(w->delta().batches(), 1u);
  EXPECT_EQ(w->delta().ops(), 3u);

  // Empty batches are a no-op, not an error and not a counted batch.
  ASSERT_TRUE(w->Commit(store::WriteBatch()).ok());
  EXPECT_EQ(w->delta().batches(), 1u);

  // Write calls dispatch through the uniform call surface too.
  CallSpec spec;
  spec.kind = CallKind::kPostTweet;
  spec.a = 0;
  spec.text = "via dispatch";
  auto outcome = DispatchCall(*fx->engine, spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->rows, 0u);
  EXPECT_EQ(w->delta().ops(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Engines, WriteVisibilityTest,
                         ::testing::Values(EngineKind::kNodestore,
                                           EngineKind::kBitmap));

// ------------------------------------------------------- churn agreement

/// The churn agreement property (docs/WRITES.md): two engines fed the
/// same interleaved read/write call stream must agree on every read.
/// Randomized over seeds; the failing seed reproduces the stream.
class WriteAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WriteAgreementTest, InterleavedStreamAgrees) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("reproduce with seed=" + std::to_string(seed));
  Dataset dataset = SmallDataset(seed, 80 + seed % 120);
  auto ns = OpenWritable(EngineKind::kNodestore, dataset);
  auto bm = OpenWritable(EngineKind::kBitmap, dataset);
  ASSERT_NE(ns->writer(), nullptr);
  ASSERT_NE(bm->writer(), nullptr);

  Rng rng(seed ^ 0xC0FFEE);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  int64_t tweets = static_cast<int64_t>(dataset.tweets.size());

  for (int call = 0; call < 120; ++call) {
    SCOPED_TRACE("call #" + std::to_string(call));
    CallSpec spec;
    int64_t uid = static_cast<int64_t>(rng.NextBounded(users));
    switch (rng.NextBounded(10)) {
      case 0:
        spec.kind = CallKind::kPostTweet;
        spec.a = uid;
        spec.text = "churn #" + std::to_string(call);
        ++tweets;  // both engines assign the same fresh tid
        break;
      case 1:
        spec.kind = CallKind::kFollow;
        spec.a = uid;
        spec.b = static_cast<int64_t>(rng.NextBounded(users));
        break;
      case 2:
        spec.kind = CallKind::kUnfollow;
        spec.a = uid;
        spec.b = static_cast<int64_t>(rng.NextBounded(users));
        break;
      case 3:
        spec.kind = CallKind::kAddMention;
        spec.a = static_cast<int64_t>(rng.NextBounded(tweets));
        spec.b = uid;
        break;
      case 4:
        spec.kind = CallKind::kFollowees;
        spec.a = uid;
        break;
      case 5:
        spec.kind = CallKind::kTweetsOfFollowees;
        spec.a = uid;
        break;
      case 6:
        spec.kind = CallKind::kHashtagsOfFollowees;
        spec.a = uid;
        break;
      case 7:
        spec.kind = CallKind::kCurrentInfluence;
        spec.a = uid;
        spec.n = 1 << 30;
        break;
      case 8:
        spec.kind = CallKind::kSelectUsers;
        spec.threshold = static_cast<int64_t>(rng.NextBounded(20));
        break;
      default:
        spec.kind = CallKind::kShortestPath;
        spec.a = uid;
        spec.b = static_cast<int64_t>(rng.NextBounded(users));
        break;
    }
    auto a = DispatchCall(*ns->engine, spec);
    auto b = DispatchCall(*bm->engine, spec);
    ASSERT_TRUE(a.ok()) << CallSpecToString(spec) << ": "
                        << a.status().ToString();
    ASSERT_TRUE(b.ok()) << CallSpecToString(spec) << ": "
                        << b.status().ToString();
    ASSERT_EQ(*a, *b) << "diverged on " << CallSpecToString(spec);
    if (HasFailure()) return;
  }
  // Identical streams leave identical commit counters.
  EXPECT_EQ(ns->writer()->delta().ops(), bm->writer()->delta().ops());
  EXPECT_EQ(ns->writer()->delta().tombstones(),
            bm->writer()->delta().tombstones());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteAgreementTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull));

// ------------------------------------------------------ snapshot reads

/// Readers hammer Q2.1 while a writer commits batches that add — then
/// remove — a *pair* of edges in one batch. Snapshot atomicity means a
/// read sees both edges or neither, never one.
class WriteConcurrencyTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(WriteConcurrencyTest, ReadersNeverObserveHalfABatch) {
  auto fx = OpenWritable(GetParam(), SmallDataset(44));
  ASSERT_NE(fx->writer(), nullptr);
  WritableEngine* w = fx->writer();
  const int64_t users = static_cast<int64_t>(fx->dataset.users.size());
  const int64_t src = 0;
  const int64_t e1 = users - 1, e2 = users - 2;  // the paired edges
  // The generated graph may already contain either edge: tombstone both
  // so the flip-flop below starts from a known state.
  store::WriteBatch clear;
  clear.Unfollow(src, e1).Unfollow(src, e2);
  ASSERT_TRUE(w->Commit(std::move(clear)).ok());
  auto base = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(base.ok());
  ASSERT_FALSE(RowsContainInt(*base, e1));
  ASSERT_FALSE(RowsContainInt(*base, e2));

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto rows = fx->engine->FolloweesOf(src);
        if (!rows.ok()) {
          torn.fetch_add(1);
          return;
        }
        if (RowsContainInt(*rows, e1) != RowsContainInt(*rows, e2)) {
          torn.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int round = 0; round < 60; ++round) {
    store::WriteBatch add;
    add.Follow(src, e1).Follow(src, e2);
    ASSERT_TRUE(w->Commit(std::move(add)).ok());
    store::WriteBatch del;
    del.Unfollow(src, e1).Unfollow(src, e2);
    ASSERT_TRUE(w->Commit(std::move(del)).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0) << "a reader observed half a batch";
}

INSTANTIATE_TEST_SUITE_P(Engines, WriteConcurrencyTest,
                         ::testing::Values(EngineKind::kNodestore,
                                           EngineKind::kBitmap));

// ----------------------------------------------------------- WAL replay

class WalReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mbq_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string wal_dir() const { return dir_.string(); }
  std::filesystem::path wal_file() const { return dir_ / "delta.wal"; }

  /// The full read workload as comparable outcomes.
  static std::vector<CallOutcome> ReadDigests(MicroblogEngine& engine,
                                              int64_t users) {
    std::vector<CallSpec> specs;
    for (int64_t uid : {int64_t{0}, users / 2, users - 1}) {
      for (CallKind kind :
           {CallKind::kFollowees, CallKind::kTweetsOfFollowees,
            CallKind::kHashtagsOfFollowees, CallKind::kCurrentInfluence,
            CallKind::kPotentialInfluence, CallKind::kRecFollowees}) {
        CallSpec spec;
        spec.kind = kind;
        spec.a = uid;
        spec.n = 1 << 30;
        specs.push_back(spec);
      }
    }
    CallSpec select;
    select.kind = CallKind::kSelectUsers;
    select.threshold = 5;
    specs.push_back(select);

    std::vector<CallOutcome> out;
    for (const CallSpec& spec : specs) {
      auto outcome = DispatchCall(engine, spec);
      EXPECT_TRUE(outcome.ok())
          << CallSpecToString(spec) << ": " << outcome.status().ToString();
      out.push_back(outcome.ok() ? *outcome : CallOutcome{});
    }
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(WalReplayTest, ReplayAfterCrashRestoresIdenticalResults) {
  Dataset dataset = SmallDataset(55);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  std::vector<CallOutcome> committed;
  std::array<uint64_t, 4> counters{};
  {
    auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    WritableEngine* w = fx->writer();
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(w->Follow(i % users, (i * 7 + 1) % users).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(w->PostTweet(i % users, "wal #" + std::to_string(i)).ok());
      }
      if (i % 5 == 0) {
        ASSERT_TRUE(w->Unfollow(i % users, (i * 7 + 1) % users).ok());
      }
    }
    ASSERT_TRUE(w->AddMention(static_cast<int64_t>(dataset.tweets.size()),
                              users - 1)
                    .ok());
    committed = ReadDigests(*fx->engine, users);
    counters = CommitCounters(*w);
    // Engine destroyed without any shutdown ceremony: the crash.
  }
  ASSERT_TRUE(std::filesystem::exists(wal_file()));

  // A fresh base + the surviving log must reconstruct the exact state.
  auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
  ASSERT_NE(fx->writer(), nullptr);
  EXPECT_GT(fx->writer()->delta().batches(), 0u);
  // Replay recounts the log: ops, batches, tombstones and last_seq all
  // match the pre-crash writer.
  EXPECT_EQ(CommitCounters(*fx->writer()), counters);
  std::vector<CallOutcome> replayed = ReadDigests(*fx->engine, users);
  ASSERT_EQ(committed.size(), replayed.size());
  for (size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(committed[i], replayed[i]) << "read #" << i << " diverged";
  }
  // New commits continue the sequence after replay.
  EXPECT_TRUE(fx->writer()->Follow(0, users - 1).ok());
}

TEST_F(WalReplayTest, GarbageTailIsTruncatedOnReplay) {
  Dataset dataset = SmallDataset(66);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  uint64_t committed_seq = 0;
  std::vector<CallOutcome> committed;
  {
    auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(fx->writer()->Follow(i, (i + 1) % users).ok());
    }
    committed_seq = fx->writer()->delta().last_seq();
    committed = ReadDigests(*fx->engine, users);
  }
  {
    std::ofstream tail(wal_file(), std::ios::binary | std::ios::app);
    tail << "garbage bytes that are not a wal record";
  }
  auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
  ASSERT_NE(fx->writer(), nullptr);
  EXPECT_EQ(fx->writer()->delta().last_seq(), committed_seq);
  std::vector<CallOutcome> replayed = ReadDigests(*fx->engine, users);
  for (size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(committed[i], replayed[i]) << "read #" << i << " diverged";
  }
}

TEST_F(WalReplayTest, TornLastRecordIsDropped) {
  Dataset dataset = SmallDataset(77);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  uint64_t committed_seq = 0;
  {
    auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fx->writer()->Follow(i, (i + 2) % users).ok());
    }
    committed_seq = fx->writer()->delta().last_seq();
  }
  // Chop into the last record: replay keeps the intact prefix.
  auto size = std::filesystem::file_size(wal_file());
  ASSERT_GT(size, 4u);
  std::filesystem::resize_file(wal_file(), size - 3);

  auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
  ASSERT_NE(fx->writer(), nullptr);
  EXPECT_EQ(fx->writer()->delta().last_seq(), committed_seq - 1);
  // The torn edge (last Follow) must NOT be visible.
  auto rows = fx->engine->FolloweesOf(7);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(RowsContainInt(*rows, (7 + 2) % users));
  // The intact prefix IS.
  rows = fx->engine->FolloweesOf(0);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(RowsContainInt(*rows, 2));
}

TEST_F(WalReplayTest, BitmapEngineReplaysTheSameLog) {
  Dataset dataset = SmallDataset(88);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  {
    auto fx = OpenWritable(EngineKind::kBitmap, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    ASSERT_TRUE(fx->writer()->Follow(0, users - 1).ok());
    ASSERT_TRUE(fx->writer()->PostTweet(users - 1, "bitmap wal").ok());
  }
  auto fx = OpenWritable(EngineKind::kBitmap, dataset, wal_dir());
  ASSERT_NE(fx->writer(), nullptr);
  EXPECT_EQ(fx->writer()->delta().ops(), 2u);
  auto rows = fx->engine->FolloweesOf(0);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(RowsContainInt(*rows, users - 1));
  auto feed = fx->engine->TweetsOfFollowees(0);
  ASSERT_TRUE(feed.ok());
  EXPECT_TRUE(
      RowsContainInt(*feed, static_cast<int64_t>(dataset.tweets.size())));
}

TEST_F(WalReplayTest, StreamBatchReplaysOnBothEngines) {
  Dataset dataset = SmallDataset(89);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  store::WriteBatch stream =
      twitter::UpdateStream(dataset, twitter::StreamMix{}, 3).Take(400);
  std::set<store::WriteOpKind> kinds;
  for (const store::WriteOp& op : stream.ops()) kinds.insert(op.kind);
  ASSERT_EQ(kinds.size(), 7u) << "the stream batch must hold every kind";

  std::vector<std::vector<CallOutcome>> digests;
  for (EngineKind kind : {EngineKind::kNodestore, EngineKind::kBitmap}) {
    SCOPED_TRACE(kind == EngineKind::kNodestore ? "nodestore" : "bitmap");
    const std::string dir =
        wal_dir() + (kind == EngineKind::kNodestore ? "/ns" : "/bm");
    std::vector<CallOutcome> committed;
    std::array<uint64_t, 4> counters{};
    {
      auto fx = OpenWritable(kind, dataset, dir);
      ASSERT_NE(fx->writer(), nullptr);
      ASSERT_TRUE(fx->writer()->Commit(stream).ok());
      ASSERT_TRUE(fx->writer()->PostTweet(0, "after the stream").ok());
      committed = ReadDigests(*fx->engine, users);
      counters = CommitCounters(*fx->writer());
    }
    auto fx = OpenWritable(kind, dataset, dir);
    ASSERT_NE(fx->writer(), nullptr);
    EXPECT_EQ(CommitCounters(*fx->writer()), counters);
    std::vector<CallOutcome> replayed = ReadDigests(*fx->engine, users);
    ASSERT_EQ(committed.size(), replayed.size());
    for (size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(committed[i], replayed[i]) << "read #" << i << " diverged";
    }
    digests.push_back(std::move(replayed));
  }
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0], digests[1]) << "the engines replayed differently";
}

// ----------------------------------------------------- cache coherence

/// Read caches primed before a commit must not serve stale rows after
/// it: the base-store mutations a commit applies bump the per-domain
/// epochs every cached entry is stamped with (cache/epoch.h); the commit
/// itself adds no bump of its own.
class WriteCacheTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(WriteCacheTest, CachesInvalidateUnderChurn) {
  auto fx = OpenWritable(GetParam(), SmallDataset(99), std::string(),
                         [](EngineOptions* options) {
                           options->result_cache = true;
                           options->adjacency_cache = true;
                           options->adjacency_min_degree = 0;
                         });
  ASSERT_NE(fx->writer(), nullptr);
  const int64_t users = static_cast<int64_t>(fx->dataset.users.size());
  const int64_t src = 0, dst = users - 1;

  // Prime: run the query twice so the second execution is cache-served
  // where a cache exists.
  for (int i = 0; i < 2; ++i) {
    auto rows = fx->engine->FolloweesOf(src);
    ASSERT_TRUE(rows.ok());
    ASSERT_FALSE(RowsContainInt(*rows, dst));
  }
  ASSERT_TRUE(fx->writer()->Follow(src, dst).ok());
  auto rows = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(RowsContainInt(*rows, dst)) << "cache served a stale read";

  for (int i = 0; i < 2; ++i) {
    auto again = fx->engine->FolloweesOf(src);
    ASSERT_TRUE(again.ok());
  }
  ASSERT_TRUE(fx->writer()->Unfollow(src, dst).ok());
  rows = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(RowsContainInt(*rows, dst)) << "cache outlived a tombstone";
}

INSTANTIATE_TEST_SUITE_P(Engines, WriteCacheTest,
                         ::testing::Values(EngineKind::kNodestore,
                                           EngineKind::kBitmap));

// -------------------------------------------------------- cypher writes

/// Cypher write queries lower to WriteBatch ops and commit through the
/// engine's writer, so the WAL, replay and checkdb see them like every
/// other write.
class CypherWriteTest : public WalReplayTest {
 protected:
  static constexpr char kFollowQuery[] =
      "MATCH (a:user {uid: $a}), (b:user {uid: $b}) "
      "CREATE (a)-[:follows]->(b)";

  static cypher::CypherSession& Session(WritableFixture& fx) {
    return static_cast<NodestoreEngine*>(fx.engine.get())->session();
  }

  /// Q2.1 and Q4.1 of `uid`, as comparable outcomes.
  static std::vector<CallOutcome> FollowDigests(MicroblogEngine& engine,
                                                int64_t uid) {
    std::vector<CallOutcome> out;
    for (CallKind kind : {CallKind::kFollowees, CallKind::kRecFollowees}) {
      CallSpec spec;
      spec.kind = kind;
      spec.a = uid;
      spec.n = 1 << 30;
      auto outcome = DispatchCall(engine, spec);
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      out.push_back(outcome.ok() ? *outcome : CallOutcome{});
    }
    return out;
  }
};

TEST_F(CypherWriteTest, CreateSetDeleteRoundTrip) {
  auto fx = OpenWritable(EngineKind::kNodestore, SmallDataset(111));
  ASSERT_NE(fx->writer(), nullptr);
  cypher::CypherSession& session = Session(*fx);
  const int64_t users = static_cast<int64_t>(fx->dataset.users.size());
  const int64_t src = 1, dst = users - 1;

  // CREATE a follows edge declaratively; the engine read sees it.
  auto created = session.Run(
      kFollowQuery, {{"a", Value::Int(src)}, {"b", Value::Int(dst)}});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto rows = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(RowsContainInt(*rows, dst));

  // No WriteBatch op sets a property: SET is refused, naming the clause,
  // and nothing commits.
  const uint64_t batches = fx->writer()->delta().batches();
  auto set = session.Run(
      "MATCH (u:user {uid: $a}) SET u.followers_count = 100000",
      {{"a", Value::Int(src)}});
  ASSERT_FALSE(set.ok());
  EXPECT_TRUE(set.status().IsNotImplemented()) << set.status().ToString();
  EXPECT_NE(set.status().message().find("SET u.followers_count"),
            std::string::npos)
      << set.status().ToString();
  EXPECT_EQ(fx->writer()->delta().batches(), batches);
  auto selected = fx->engine->SelectUsersByFollowerCount(99999);
  ASSERT_TRUE(selected.ok());
  EXPECT_FALSE(RowsContainInt(*selected, src));

  // DELETE the relationship; the edge is gone from the read surface.
  auto deleted = session.Run(
      "MATCH (a:user {uid: $a})-[r:follows]->(b:user {uid: $b}) DELETE r",
      {{"a", Value::Int(src)}, {"b", Value::Int(dst)}});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  rows = fx->engine->FolloweesOf(src);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(RowsContainInt(*rows, dst));
}

TEST_F(CypherWriteTest, WriteQueryReportsSummaryRow) {
  auto fx = OpenWritable(EngineKind::kNodestore, SmallDataset(122));
  auto result = Session(*fx).Run(
      "MATCH (a:user {uid: 0}), (b:user {uid: 1}) "
      "CREATE (a)-[:follows]->(b)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);  // the mutation summary
  std::vector<int64_t> summary;
  for (const cypher::RtValue& v : result->rows[0]) {
    summary.push_back(v.value.AsInt());
  }
  EXPECT_EQ(summary, (std::vector<int64_t>{0, 1, 0, 0, 0}));
}

TEST_F(CypherWriteTest, FollowIsLoggedReplayedAndChecked) {
  Dataset dataset = SmallDataset(151);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  const int64_t src = 2, dst = users - 2;
  std::vector<CallOutcome> committed;
  {
    auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    auto result = Session(*fx).Run(
        kFollowQuery, {{"a", Value::Int(src)}, {"b", Value::Int(dst)}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(fx->writer()->delta().batches(), 1u);
    EXPECT_EQ(fx->writer()->wal()->records(), 1u);
    auto report = CheckWritePath(*fx->engine, dataset);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->ToText();
    EXPECT_EQ(report->wal_records_checked, 1u);
    EXPECT_EQ(report->delta_ops_checked, 1u);
    auto rows = fx->engine->FolloweesOf(src);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(RowsContainInt(*rows, dst));
    committed = FollowDigests(*fx->engine, src);
  }
  // The follow survives reopen, and the same WAL replayed into the
  // bitmap engine answers the same.
  for (EngineKind kind : {EngineKind::kNodestore, EngineKind::kBitmap}) {
    SCOPED_TRACE(kind == EngineKind::kNodestore ? "nodestore" : "bitmap");
    auto fx = OpenWritable(kind, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    EXPECT_EQ(fx->writer()->delta().batches(), 1u);
    EXPECT_EQ(FollowDigests(*fx->engine, src), committed);
  }
}

TEST_F(CypherWriteTest, ReadOnlyEngineRefusesCypherWrites) {
  // mbqd runs every kQuery through a read-only engine's session.
  auto ro = OpenWritable(EngineKind::kNodestore, SmallDataset(152),
                         std::string(), [](EngineOptions* options) {
                           options->enable_writes = false;
                         });
  ASSERT_EQ(ro->writer(), nullptr);
  const int64_t users = static_cast<int64_t>(ro->dataset.users.size());
  const std::vector<CallOutcome> before = FollowDigests(*ro->engine, 1);
  auto result = Session(*ro).Run(
      kFollowQuery, {{"a", Value::Int(1)}, {"b", Value::Int(users - 1)}});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotImplemented())
      << result.status().ToString();
  EXPECT_EQ(FollowDigests(*ro->engine, 1), before);
}

TEST_F(CypherWriteTest, EachOpKindLowersToTheHandBuiltBatch) {
  Dataset dataset = SmallDataset(153);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  const int64_t tweets = static_cast<int64_t>(dataset.tweets.size());
  const int64_t fresh_tid = tweets + 10;
  using store::WriteOpKind;
  struct Case {
    const char* query;
    cypher::Params params;
    store::WriteBatch want;
  };
  auto batch = [](std::vector<store::WriteOp> ops) {
    store::WriteBatch out;
    for (store::WriteOp& op : ops) out.Append(std::move(op));
    return out;
  };
  std::vector<Case> cases = {
      {"CREATE (:user {uid: $u})",
       {{"u", Value::Int(users)}},
       batch({{WriteOpKind::kNewUser, users, 0, ""}})},
      {kFollowQuery,
       {{"a", Value::Int(1)}, {"b", Value::Int(users)}},
       batch({{WriteOpKind::kFollow, 1, users, ""}})},
      {"MATCH (a:user {uid: $a})-[r:follows]->(b:user {uid: $b}) DELETE r",
       {{"a", Value::Int(1)}, {"b", Value::Int(users)}},
       batch({{WriteOpKind::kUnfollow, 1, users, ""}})},
      {"MATCH (u:user {uid: $u}) "
       "CREATE (u)-[:posts]->(:tweet {tid: $t, text: $text})",
       {{"u", Value::Int(3)},
        {"t", Value::Int(fresh_tid)},
        {"text", Value::String("lowered")}},
       batch({{WriteOpKind::kPostTweet, 3, fresh_tid, "lowered"}})},
      {"MATCH (t:tweet {tid: $t}), (m:user {uid: $m}) "
       "CREATE (t)-[:mentions]->(m)",
       {{"t", Value::Int(fresh_tid)}, {"m", Value::Int(4)}},
       batch({{WriteOpKind::kAddMention, fresh_tid, 4, ""}})},
      {"MATCH (t:tweet {tid: $t}) CREATE (t)-[:tags]->(:hashtag {tag: $tag})",
       {{"t", Value::Int(fresh_tid)}, {"tag", Value::String("lowering")}},
       batch({{WriteOpKind::kTagTweet, fresh_tid, 0, "lowering"}})},
      {"MATCH (r:tweet {tid: $r}), (o:tweet {tid: $o}) "
       "CREATE (r)-[:retweets]->(o)",
       {{"r", Value::Int(fresh_tid)}, {"o", Value::Int(0)}},
       batch({{WriteOpKind::kRetweetOf, fresh_tid, 0, ""}})},
      // One query, several ops: the new tweet is posted before the ops
      // that name it, whatever the pattern order.
      {"MATCH (u:user {uid: $u}), (m:user {uid: $m}) "
       "CREATE (m)<-[:mentions]-(t:tweet {tid: $t, text: 'hi'})"
       "<-[:posts]-(u), (t)-[:tags]->(:hashtag {tag: 'fresh'})",
       {{"u", Value::Int(5)}, {"m", Value::Int(6)},
        {"t", Value::Int(fresh_tid + 1)}},
       batch({{WriteOpKind::kPostTweet, 5, fresh_tid + 1, "hi"},
              {WriteOpKind::kAddMention, fresh_tid + 1, 6, ""},
              {WriteOpKind::kTagTweet, fresh_tid + 1, 0, "fresh"}})},
  };
  {
    auto fx = OpenWritable(EngineKind::kNodestore, dataset, wal_dir());
    ASSERT_NE(fx->writer(), nullptr);
    for (const Case& c : cases) {
      auto result = Session(*fx).Run(c.query, c.params);
      ASSERT_TRUE(result.ok()) << c.query << ": "
                               << result.status().ToString();
    }
    EXPECT_EQ(fx->writer()->delta().batches(), cases.size());
  }
  store::WalRecovery logged;
  auto wal = store::Wal::Open(store::WalOptions{wal_dir(), 0}, &logged);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(logged.batches.size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(logged.batches[i], cases[i].want) << cases[i].query;
  }
}

TEST_F(CypherWriteTest, UnloweredWritesFailBeforeAnythingCommits) {
  auto fx = OpenWritable(EngineKind::kNodestore, SmallDataset(154));
  ASSERT_NE(fx->writer(), nullptr);
  const std::pair<const char*, const char*> refused[] = {
      {"MATCH (u:user {uid: 1}) SET u.followers_count = 5",
       "SET u.followers_count"},
      {"MATCH (u:user {uid: 1}) DELETE u", "DELETE u"},
      {"MATCH (u:user {uid: 1}) DETACH DELETE u", "DETACH DELETE u"},
      {"CREATE (:user {uid: 5000, screen_name: 'extra'})", "CREATE (:user)"},
      {"CREATE (:place {name: 'x'})", "CREATE (:place)"},
      {"MATCH (a:user {uid: 1}), (b:user {uid: 2}) CREATE (a)-[:likes]->(b)",
       "CREATE [:likes]"},
      // A follow in the same query does not commit either.
      {"MATCH (a:user {uid: 1}), (b:user {uid: 2}) "
       "CREATE (a)-[:follows]->(b) SET a.followers_count = 5",
       "SET a.followers_count"},
  };
  for (const auto& [query, clause] : refused) {
    auto result = Session(*fx).Run(query);
    ASSERT_FALSE(result.ok()) << query;
    EXPECT_TRUE(result.status().IsNotImplemented())
        << query << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find(clause), std::string::npos)
        << result.status().ToString();
  }
  EXPECT_EQ(fx->writer()->delta().batches(), 0u);
}

// --------------------------------------------------------- write fsck

class WriteCheckTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(WriteCheckTest, CleanChurnPassesAndReadOnlyIsRefused) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mbq_wcheck_" + std::to_string(::getpid()) + "_" +
       std::to_string(static_cast<int>(GetParam())));
  std::filesystem::create_directories(dir);
  Dataset dataset = SmallDataset(133);
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  auto fx = OpenWritable(GetParam(), dataset, dir.string());
  ASSERT_NE(fx->writer(), nullptr);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fx->writer()->Follow(i, (i + 3) % users).ok());
  }
  ASSERT_TRUE(fx->writer()->Unfollow(0, 3).ok());

  auto report = CheckWritePath(*fx->engine, dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_EQ(report->delta_ops_checked, 13u);
  EXPECT_EQ(report->wal_records_checked, 13u);

  // A garbage tail is an invariant violation here — checkdb reports what
  // replay-on-open would silently repair.
  {
    std::ofstream tail(fx->writer()->wal()->path(),
                       std::ios::binary | std::ios::app);
    tail << "not a wal record";
  }
  report = CheckWritePath(*fx->engine, dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  bool found_tail = false;
  for (const CheckIssue& issue : report->issues) {
    if (issue.component == "wal-tail") found_tail = true;
  }
  EXPECT_TRUE(found_tail) << report->ToText();

  // Read-only engines have no write path to check, and a writable engine
  // without a WAL has no record of its writes to check against.
  auto ro = OpenWritable(GetParam(), dataset, std::string(),
                         [](EngineOptions* options) {
                           options->enable_writes = false;
                         });
  ASSERT_EQ(ro->writer(), nullptr);
  auto no_wal = OpenWritable(GetParam(), dataset);
  ASSERT_NE(no_wal->writer(), nullptr);
  for (MicroblogEngine* engine : {ro->engine.get(), no_wal->engine.get()}) {
    auto refused = CheckWritePath(*engine, dataset);
    ASSERT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST_P(WriteCheckTest, StreamBatchesCheckClean) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mbq_wcheck_stream_" + std::to_string(::getpid()) + "_" +
       std::to_string(static_cast<int>(GetParam())));
  std::filesystem::create_directories(dir);
  Dataset dataset = SmallDataset(134);
  twitter::UpdateStream stream(dataset, twitter::StreamMix{}, 4);
  uint64_t ops = 0;
  {
    auto fx = OpenWritable(GetParam(), dataset, dir.string());
    ASSERT_NE(fx->writer(), nullptr);
    for (int i = 0; i < 3; ++i) {
      store::WriteBatch batch = stream.Take(200);
      ops += batch.size();
      ASSERT_TRUE(fx->writer()->Commit(std::move(batch)).ok());
    }
    auto report = CheckWritePath(*fx->engine, dataset);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->ToText();
    EXPECT_EQ(report->wal_records_checked, 3u);
    EXPECT_EQ(report->delta_ops_checked, ops);
    EXPECT_GT(report->rels_checked, 0u);
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Engines, WriteCheckTest,
                         ::testing::Values(EngineKind::kNodestore,
                                           EngineKind::kBitmap));

// ------------------------------------------------------- cluster plane

TEST(WriteRpcTest, WriteBatchFrameIsReservedNotImplemented) {
  Dataset dataset = SmallDataset(144);
  nodestore::GraphDbOptions ndb;
  ndb.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(ndb);
  ASSERT_TRUE(twitter::LoadIntoNodestore(dataset, &db).ok());
  EngineOptions options;
  options.db = &db;
  auto engine = OpenEngine(EngineKind::kNodestore, options);
  ASSERT_TRUE(engine.ok());

  rpc::HelloReply info;
  info.shard_id = 0;
  info.num_shards = 1;
  info.num_users = dataset.users.size();
  info.engine = (*engine)->name();
  ShardService service(engine->get(), info);

  store::WriteBatch batch;
  batch.Follow(1, 2);
  std::string encoded;
  store::EncodeWriteBatch(batch, &encoded);
  rpc::Frame frame;
  frame.type = static_cast<uint8_t>(rpc::MsgType::kWriteBatch);
  frame.body.assign(encoded.begin(), encoded.end());

  rpc::Frame reply = service.Handle(frame);
  ASSERT_EQ(reply.type, static_cast<uint8_t>(rpc::MsgType::kError));
  Status status = rpc::DecodeError(reply);
  EXPECT_TRUE(status.IsNotImplemented()) << status.ToString();
}

TEST(WriteRpcTest, RemoteEngineIsReadOnly) {
  Dataset dataset = SmallDataset(155);
  nodestore::GraphDbOptions ndb;
  ndb.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(ndb);
  ASSERT_TRUE(twitter::LoadIntoNodestore(dataset, &db).ok());
  EngineOptions shard_options;
  shard_options.db = &db;
  auto shard_engine = OpenEngine(EngineKind::kNodestore, shard_options);
  ASSERT_TRUE(shard_engine.ok());

  rpc::HelloReply info;
  info.shard_id = 0;
  info.num_shards = 1;
  info.num_users = dataset.users.size();
  info.engine = (*shard_engine)->name();
  ShardService service(shard_engine->get(), info);
  auto server = rpc::RpcServer::Start(
      rpc::RpcServer::Options{},
      [&service](const rpc::Frame& f) { return service.Handle(f); });
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  EngineOptions remote_options;
  remote_options.shard_addresses = {"127.0.0.1:" +
                                    std::to_string((*server)->port())};
  auto remote = OpenEngine(EngineKind::kRemote, remote_options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ((*remote)->AsWritable(), nullptr);

  CallSpec spec;
  spec.kind = CallKind::kFollow;
  spec.a = 1;
  spec.b = 2;
  auto outcome = DispatchCall(**remote, spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsNotImplemented());

  // Reads still work over the same connection.
  auto rows = (*remote)->FolloweesOf(0);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
}

// ------------------------------------------------------- workload mix

TEST(WriteMixTest, ChurnSuiteCarriesWriteTemplates) {
  auto churn = bench::driver::BuiltinSuite("churn");
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  EXPECT_TRUE(bench::driver::MixHasWrites(*churn));

  auto ldbc = bench::driver::BuiltinSuite("ldbc");
  ASSERT_TRUE(ldbc.ok());
  EXPECT_FALSE(bench::driver::MixHasWrites(*ldbc));

  bool saw_post = false, saw_follow = false, saw_unfollow = false,
       saw_mention = false;
  for (const auto& entry : churn->entries) {
    if (entry.template_name == "post_tweet") saw_post = true;
    if (entry.template_name == "follow") saw_follow = true;
    if (entry.template_name == "unfollow") saw_unfollow = true;
    if (entry.template_name == "add_mention") saw_mention = true;
  }
  EXPECT_TRUE(saw_post && saw_follow && saw_unfollow && saw_mention);
}

}  // namespace
}  // namespace mbq::core
