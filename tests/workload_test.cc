#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/driver.h"
#include "bench/mix.h"
#include "bitmapstore/graph.h"
#include "core/calls.h"
#include "core/engine.h"
#include "nodestore/graph_db.h"
#include "storage/simulated_disk.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"

namespace mbq::bench::driver {
namespace {

using core::CallOutcome;
using core::CallSpec;
using core::MicroblogEngine;
using core::ParamUniverse;

/// End-to-end differential check of the built-in suites: the driver
/// issues a fixed number of requests from each suite against both
/// engines, and every recorded outcome must agree across engines and
/// with a direct (non-driver) dispatch of the same spec — extending
/// agreement_test's randomized sweep to driver-generated workloads.
class WorkloadSuiteTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kUsers = 300;
  static constexpr uint64_t kSeed = 21;

  void SetUp() override {
    twitter::DatasetSpec spec;
    spec.num_users = kUsers;
    spec.seed = kSeed;
    dataset_ = twitter::GenerateDataset(spec);
    universe_ = std::make_unique<ParamUniverse>(dataset_);

    nodestore::GraphDbOptions ndb_options;
    ndb_options.disk_profile = storage::DiskProfile::Instant();
    db_ = std::make_unique<nodestore::GraphDb>(ndb_options);
    auto nh = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();

    bitmapstore::GraphOptions bg_options;
    bg_options.disk_profile = storage::DiskProfile::Instant();
    graph_ = std::make_unique<bitmapstore::Graph>(bg_options);
    auto bh = twitter::LoadIntoBitmapstore(dataset_, graph_.get());
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();
    bm_handles_ = *bh;

    // Writable engines so the registry's write templates (post_tweet,
    // follow, ...) dispatch too; both engines see identical write
    // streams, so cross-engine agreement still holds.
    core::EngineOptions ns_options;
    ns_options.db = db_.get();
    ns_options.enable_writes = true;
    ns_options.dataset = &dataset_;
    auto ns = core::OpenEngine(core::EngineKind::kNodestore, ns_options);
    ASSERT_TRUE(ns.ok()) << ns.status().ToString();
    nodestore_ = std::move(*ns);

    core::EngineOptions bm_options;
    bm_options.graph = graph_.get();
    bm_options.handles = &bm_handles_;
    bm_options.enable_writes = true;
    bm_options.dataset = &dataset_;
    auto bm = core::OpenEngine(core::EngineKind::kBitmap, bm_options);
    ASSERT_TRUE(bm.ok()) << bm.status().ToString();
    bitmap_ = std::move(*bm);
  }

  /// Loads the suite with every top-n widened past any tie: a small n
  /// can cut tied counts differently per engine (agreement_test avoids
  /// the same artifact the same way).
  WorkloadMix SuiteWithoutLimitTies(const std::string& name) {
    Result<WorkloadMix> suite = BuiltinSuite(name);
    EXPECT_TRUE(suite.ok());
    for (MixEntry& entry : suite->entries) entry.n = int64_t{1} << 30;
    return *suite;
  }

  /// Runs `requests` driver requests against `engine` and returns the
  /// recorded calls keyed by (client, seq) — the deterministic stream
  /// identity, independent of thread interleaving.
  std::map<std::pair<uint32_t, uint64_t>, RecordedCall> Drive(
      MicroblogEngine& engine, const WorkloadMix& mix, uint64_t requests) {
    DriverOptions options;
    options.rate_qps = 20000;  // the cap binds, not the horizon
    options.clients = 2;
    options.duration_seconds = 0;
    options.max_requests = requests;
    options.seed = kSeed;
    options.record_outcomes = true;
    LoadDriver driver(&engine, mix, *universe_, options);
    Result<DriverReport> report = driver.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::map<std::pair<uint32_t, uint64_t>, RecordedCall> by_id;
    for (RecordedCall& call : report->calls) {
      by_id[{call.client, call.seq}] = std::move(call);
    }
    EXPECT_EQ(by_id.size(), requests);
    return by_id;
  }

  void ExpectSuiteAgreement(const std::string& suite_name,
                            uint64_t requests) {
    WorkloadMix mix = SuiteWithoutLimitTies(suite_name);
    auto on_nodestore = Drive(*nodestore_, mix, requests);
    auto on_bitmap = Drive(*bitmap_, mix, requests);
    ASSERT_EQ(on_nodestore.size(), on_bitmap.size());
    for (const auto& [id, ns_call] : on_nodestore) {
      auto it = on_bitmap.find(id);
      ASSERT_NE(it, on_bitmap.end());
      const RecordedCall& bm_call = it->second;
      // Same (seed, client, seq) must materialize the same spec on
      // both runs...
      ASSERT_EQ(core::CallSpecToString(ns_call.spec),
                core::CallSpecToString(bm_call.spec));
      // ...and both engines must agree on its outcome.
      ASSERT_TRUE(ns_call.status.ok()) << ns_call.status.ToString();
      ASSERT_TRUE(bm_call.status.ok()) << bm_call.status.ToString();
      EXPECT_TRUE(ns_call.outcome == bm_call.outcome)
          << core::CallSpecToString(ns_call.spec) << ": nodestore "
          << ns_call.outcome.rows << " rows, bitmap " << bm_call.outcome.rows
          << " rows";
      // The driver-recorded outcome matches a direct dispatch of the
      // same spec: the driver adds scheduling, not semantics.
      Result<CallOutcome> direct =
          core::DispatchCall(*bitmap_, ns_call.spec);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_TRUE(*direct == ns_call.outcome)
          << core::CallSpecToString(ns_call.spec);
    }
  }

  twitter::Dataset dataset_;
  std::unique_ptr<ParamUniverse> universe_;
  std::unique_ptr<nodestore::GraphDb> db_;
  std::unique_ptr<bitmapstore::Graph> graph_;
  twitter::BitmapHandles bm_handles_{};
  std::unique_ptr<MicroblogEngine> nodestore_;
  std::unique_ptr<MicroblogEngine> bitmap_;
};

TEST_F(WorkloadSuiteTest, TaoSuiteAgreesAcrossEnginesAndDirectDispatch) {
  ExpectSuiteAgreement("tao", 120);
}

TEST_F(WorkloadSuiteTest, LdbcSuiteAgreesAcrossEnginesAndDirectDispatch) {
  ExpectSuiteAgreement("ldbc", 120);
}

TEST_F(WorkloadSuiteTest, SuiteWeightsShapeTheIssuedMix) {
  // With 600 draws from the tao mix, the heaviest template
  // (assoc_range, 42%) must dominate the lightest (assoc_count, 12%).
  Result<WorkloadMix> suite = BuiltinSuite("tao");
  ASSERT_TRUE(suite.ok());
  DriverOptions options;
  options.rate_qps = 50000;
  options.clients = 2;
  options.duration_seconds = 0;
  options.max_requests = 600;
  options.seed = kSeed;
  LoadDriver driver(bitmap_.get(), *suite, *universe_, options);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::map<std::string, uint64_t> requests;
  for (const TemplateReport& tr : report->templates) {
    requests[tr.name] = tr.requests;
  }
  EXPECT_EQ(report->requests, 600u);
  EXPECT_GT(requests["assoc_range"], requests["assoc_count"]);
  EXPECT_GT(requests["assoc_range"], 600u * 30 / 100);  // ~42% expected
  EXPECT_GT(requests["assoc_count"], 0u);
}

TEST_F(WorkloadSuiteTest, DispatchCoversEveryCallKind) {
  // Every template in the registry dispatches successfully on both
  // engines with universe-drawn parameters.
  Rng rng(4);
  for (const TemplateInfo& info : Templates()) {
    MixEntry entry;
    entry.template_name = info.name;
    entry.n = int64_t{1} << 30;  // past any tie a LIMIT could cut
    CallSpec spec = MaterializeCall(entry, *universe_, rng);
    Result<CallOutcome> ns = core::DispatchCall(*nodestore_, spec);
    Result<CallOutcome> bm = core::DispatchCall(*bitmap_, spec);
    ASSERT_TRUE(ns.ok()) << info.name << ": " << ns.status().ToString();
    ASSERT_TRUE(bm.ok()) << info.name << ": " << bm.status().ToString();
    EXPECT_TRUE(*ns == *bm) << info.name;
  }
}

}  // namespace
}  // namespace mbq::bench::driver
