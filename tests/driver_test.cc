#include "bench/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/hist.h"
#include "bench/mix.h"
#include "core/calls.h"
#include "core/engine.h"
#include "twitter/dataset.h"
#include "util/rng.h"

namespace mbq::bench::driver {
namespace {

using core::CallSpec;
using core::MicroblogEngine;
using core::ParamUniverse;
using core::ValueRows;

// ---------------------------------------------------------------------
// Fixtures: a fake engine whose service time is charged to the fake
// clock, making every schedule and latency in these tests exact.

class FakeEngine : public MicroblogEngine {
 public:
  /// `service_nanos(seq)` is the service time of the seq-th dispatched
  /// call (a process-wide sequence over all clients).
  FakeEngine(FakeDriverClock* clock,
             std::function<uint64_t(uint64_t seq)> service_nanos,
             bool fail = false)
      : clock_(clock), service_nanos_(std::move(service_nanos)), fail_(fail) {}

  std::string name() const override { return "fake"; }

  Result<ValueRows> SelectUsersByFollowerCount(int64_t) override {
    return Serve();
  }
  Result<ValueRows> FolloweesOf(int64_t) override { return Serve(); }
  Result<ValueRows> TweetsOfFollowees(int64_t) override { return Serve(); }
  Result<ValueRows> HashtagsUsedByFollowees(int64_t) override {
    return Serve();
  }
  Result<ValueRows> TopCoMentionedUsers(int64_t, int64_t) override {
    return Serve();
  }
  Result<ValueRows> TopCoOccurringHashtags(const std::string&,
                                           int64_t) override {
    return Serve();
  }
  Result<ValueRows> RecommendFolloweesOfFollowees(int64_t, int64_t) override {
    return Serve();
  }
  Result<ValueRows> RecommendFollowersOfFollowees(int64_t, int64_t) override {
    return Serve();
  }
  Result<ValueRows> CurrentInfluence(int64_t, int64_t) override {
    return Serve();
  }
  Result<ValueRows> PotentialInfluence(int64_t, int64_t) override {
    return Serve();
  }
  Result<int64_t> ShortestPathLength(int64_t, int64_t, uint32_t) override {
    Result<ValueRows> rows = Serve();
    if (!rows.ok()) return rows.status();
    return int64_t{1};
  }
  Status DropCaches() override { return Status::OK(); }

  uint64_t calls() const { return seq_.load(); }

 private:
  Result<ValueRows> Serve() {
    uint64_t seq = seq_.fetch_add(1);
    if (clock_ != nullptr) clock_->AdvanceNanos(service_nanos_(seq));
    if (fail_) return Status::Internal("fake engine failure");
    return ValueRows{};
  }

  FakeDriverClock* clock_;
  std::function<uint64_t(uint64_t)> service_nanos_;
  bool fail_;
  std::atomic<uint64_t> seq_{0};
};

WorkloadMix OneTemplateMix() {
  WorkloadMix mix;
  mix.name = "unit";
  MixEntry entry;
  entry.template_name = "followees";
  mix.entries.push_back(entry);
  return mix;
}

/// A tiny dataset is enough: these tests exercise scheduling, not
/// queries. Shared across tests to keep the suite fast.
const ParamUniverse& TestUniverse() {
  static const twitter::Dataset* dataset = [] {
    twitter::DatasetSpec spec;
    spec.num_users = 200;
    spec.seed = 7;
    return new twitter::Dataset(twitter::GenerateDataset(spec));
  }();
  static const ParamUniverse* universe = new ParamUniverse(*dataset);
  return *universe;
}

DriverOptions BaseOptions() {
  DriverOptions options;
  options.rate_qps = 1000;  // 1ms mean gap
  options.clients = 1;
  options.duration_seconds = 0.1;
  options.arrival = Arrival::kUniform;
  options.seed = 3;
  return options;
}

// ---------------------------------------------------------------------
// Pacing.

TEST(DriverPacingTest, UniformScheduleIssuesExactlyOnSchedule) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; });
  DriverOptions options = BaseOptions();  // 1000 qps for 0.1s
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Intended times 0ms, 1ms, ..., 99ms all fall inside the horizon.
  EXPECT_EQ(report->requests, 100u);
  EXPECT_EQ(report->late, 0u);
  EXPECT_EQ(report->errors, 0u);
  // Zero service time on a fake clock: every sample is exactly 0.
  EXPECT_EQ(report->latency_micros.count(), 100u);
  EXPECT_EQ(report->latency_micros.max(), 0u);
}

TEST(DriverPacingTest, UniformClientsSplitTheRate) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; });
  DriverOptions options = BaseOptions();
  options.clients = 4;
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 4 clients at 250 qps each over 0.1s = 25 requests per client.
  EXPECT_EQ(report->requests, 100u);
}

TEST(DriverPacingTest, PoissonScheduleHitsTheTargetRateOnAverage) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; });
  DriverOptions options = BaseOptions();
  options.arrival = Arrival::kPoisson;
  options.duration_seconds = 10;
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 10s at 1000 qps: expectation 10000, sd = sqrt(10000) = 100. A ±5%
  // band is ~5 sigma — deterministic given the seed anyway.
  EXPECT_GT(report->requests, 9500u);
  EXPECT_LT(report->requests, 10500u);
}

TEST(DriverPacingTest, PoissonScheduleIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FakeDriverClock clock;
    FakeEngine engine(&clock, [](uint64_t) { return 0; });
    DriverOptions options = BaseOptions();
    options.arrival = Arrival::kPoisson;
    options.seed = seed;
    options.record_outcomes = true;
    LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                      &clock);
    Result<DriverReport> report = driver.Run();
    EXPECT_TRUE(report.ok());
    return std::move(*report);
  };
  auto uids = [](const DriverReport& r) {
    std::vector<int64_t> out;
    for (const RecordedCall& call : r.calls) out.push_back(call.spec.a);
    return out;
  };
  DriverReport a = run(11), b = run(11), c = run(12);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(uids(a), uids(b));
  EXPECT_NE(uids(a), uids(c));  // different seed, different draws
}

TEST(DriverPacingTest, RequestCapSplitsAcrossClientsExactly) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; });
  DriverOptions options = BaseOptions();
  options.clients = 4;
  options.duration_seconds = 1000;  // cap binds long before the horizon
  options.max_requests = 10;
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 10u);  // 3 + 3 + 2 + 2
  EXPECT_EQ(engine.calls(), 10u);
}

TEST(DriverPacingTest, CallStreamIsIndependentOfEngineTiming) {
  // The same seed must issue the same calls whether the engine is
  // instant or stalling: parameter draws never depend on timing.
  auto specs = [](uint64_t stall_nanos) {
    FakeDriverClock clock;
    FakeEngine engine(&clock, [=](uint64_t) { return stall_nanos; });
    DriverOptions options = BaseOptions();
    options.record_outcomes = true;
    LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                      &clock);
    Result<DriverReport> report = driver.Run();
    EXPECT_TRUE(report.ok());
    std::vector<int64_t> uids;
    for (const RecordedCall& call : report->calls) uids.push_back(call.spec.a);
    return uids;
  };
  std::vector<int64_t> fast = specs(0);
  std::vector<int64_t> slow = specs(3 * 1000 * 1000);  // 3ms per call
  // The slow run issues fewer or equal requests (the horizon still cuts
  // at intended times; both runs issue the same 100) — and every issued
  // call matches.
  ASSERT_EQ(fast.size(), slow.size());
  EXPECT_EQ(fast, slow);
}

// ---------------------------------------------------------------------
// Coordinated omission.

TEST(DriverCoordinatedOmissionTest, StalledEngineChargesQueueingDelay) {
  FakeDriverClock clock;
  // Call #10 stalls for 50ms; every other call is instant.
  FakeEngine engine(&clock, [](uint64_t seq) {
    return seq == 10 ? uint64_t{50} * 1000 * 1000 : uint64_t{0};
  });
  DriverOptions options = BaseOptions();  // uniform 1000 qps, 0.1s, 1 client
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // All 100 intended sends are inside the horizon: a coordinated-omission
  // -safe driver issues every one of them even though the engine stalled.
  EXPECT_EQ(report->requests, 100u);
  EXPECT_EQ(report->latency_micros.count(), 100u);

  // The stalled call itself: 50ms, charged in full.
  EXPECT_EQ(report->latency_micros.max(), 50000u);

  // Requests 11..59 were queued behind the stall; their latency is
  // charged from the *intended* send time, so request k records
  // (60ms - k ms). Requests 11..58 are late beyond the 1ms slack.
  EXPECT_EQ(report->late, 48u);

  // Exact sum: 50ms (the stall) + 49+48+...+1 ms (the queue drain).
  EXPECT_EQ(report->latency_micros.sum(), 50000u + 1225u * 1000u);

  // The tail exposes the stall: without the CO correction every sample
  // but one would be ~0 and p95 would read 0.
  EXPECT_GT(report->latency_micros.Quantile(0.95), 30000.0);
  // Median untouched: half the requests ran before the stall or after
  // the drain.
  EXPECT_LT(report->latency_micros.Quantile(0.50), 10000.0);
}

TEST(DriverCoordinatedOmissionTest, SaturatedEngineOverrunsTheHorizon) {
  FakeDriverClock clock;
  // 3ms of service per request against a 1ms schedule: the engine can
  // only do ~333 qps of the 1000 offered.
  FakeEngine engine(&clock,
                    [](uint64_t) { return uint64_t{3} * 1000 * 1000; });
  DriverOptions options = BaseOptions();
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Open loop: all 100 intended sends issue; the run takes ~300ms of
  // (fake) wall time instead of silently shedding load.
  EXPECT_EQ(report->requests, 100u);
  EXPECT_GT(report->wall_seconds, 0.29);
  // Later requests queue ~2ms more each; the last one waits ~200ms.
  EXPECT_GT(report->latency_micros.Quantile(0.99), 150000.0);
  EXPECT_GT(report->late, 90u);
}

// ---------------------------------------------------------------------
// Error accounting and validation.

TEST(DriverTest, ErrorsAreCountedAndExcludedFromLatency) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; }, /*fail=*/true);
  DriverOptions options = BaseOptions();
  LoadDriver driver(&engine, OneTemplateMix(), TestUniverse(), options,
                    &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 100u);
  EXPECT_EQ(report->errors, 100u);
  EXPECT_EQ(report->latency_micros.count(), 0u);
}

TEST(DriverTest, RejectsNonsenseOptions) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; });
  WorkloadMix mix = OneTemplateMix();

  DriverOptions zero_rate = BaseOptions();
  zero_rate.rate_qps = 0;
  EXPECT_FALSE(
      LoadDriver(&engine, mix, TestUniverse(), zero_rate, &clock).Run().ok());

  DriverOptions no_clients = BaseOptions();
  no_clients.clients = 0;
  EXPECT_FALSE(
      LoadDriver(&engine, mix, TestUniverse(), no_clients, &clock).Run().ok());

  DriverOptions no_bound = BaseOptions();
  no_bound.duration_seconds = 0;
  no_bound.max_requests = 0;
  EXPECT_FALSE(
      LoadDriver(&engine, mix, TestUniverse(), no_bound, &clock).Run().ok());

  WorkloadMix empty;
  EXPECT_FALSE(
      LoadDriver(&engine, empty, TestUniverse(), BaseOptions(), &clock)
          .Run()
          .ok());
}

// ---------------------------------------------------------------------
// Histogram merge.

TEST(LatencyHistogramTest, MergeEqualsRecordingEverythingInOne) {
  Rng rng(99);
  LatencyHistogram parts[3];
  LatencyHistogram reference;
  for (int i = 0; i < 30000; ++i) {
    // Heavy-tailed values spanning many power-of-two segments.
    uint64_t value = rng.Next() >> (rng.NextBounded(50) + 14);
    parts[i % 3].Record(value);
    reference.Record(value);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.sum(), reference.sum());
  EXPECT_EQ(merged.min(), reference.min());
  EXPECT_EQ(merged.max(), reference.max());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    // Bucket-exact merge: quantiles agree exactly, not approximately.
    EXPECT_DOUBLE_EQ(merged.Quantile(q), reference.Quantile(q)) << q;
  }
}

TEST(LatencyHistogramTest, PerClientMergeMatchesTotalsInDriverReport) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t seq) { return seq % 7 * 100000; });
  WorkloadMix mix = OneTemplateMix();
  MixEntry second;
  second.template_name = "obj_get";
  mix.entries.push_back(second);
  DriverOptions options = BaseOptions();
  options.clients = 4;
  LoadDriver driver(&engine, mix, TestUniverse(), options, &clock);
  Result<DriverReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  uint64_t template_requests = 0, template_count = 0;
  for (const TemplateReport& tr : report->templates) {
    template_requests += tr.requests;
    template_count += tr.latency_micros.count();
  }
  EXPECT_EQ(template_requests, report->requests);
  EXPECT_EQ(template_count, report->latency_micros.count());
  EXPECT_EQ(report->requests, engine.calls());
}

// ---------------------------------------------------------------------
// Mix parsing: round trips and hostile inputs.

TEST(MixParseTest, BuiltinSuitesRoundTripThroughTheTextFormat) {
  for (const std::string& name : BuiltinSuiteNames()) {
    Result<WorkloadMix> suite = BuiltinSuite(name);
    ASSERT_TRUE(suite.ok()) << name;
    Result<WorkloadMix> reparsed = ParseMix(FormatMix(*suite), name);
    ASSERT_TRUE(reparsed.ok()) << name << ": "
                               << reparsed.status().message();
    ASSERT_EQ(suite->entries.size(), reparsed->entries.size()) << name;
    for (size_t i = 0; i < suite->entries.size(); ++i) {
      const MixEntry& a = suite->entries[i];
      const MixEntry& b = reparsed->entries[i];
      EXPECT_EQ(a.template_name, b.template_name);
      EXPECT_DOUBLE_EQ(a.weight, b.weight);
      EXPECT_EQ(a.uid_dist, b.uid_dist);
      EXPECT_EQ(a.tag_dist, b.tag_dist);
      EXPECT_EQ(a.n, b.n);
      EXPECT_EQ(a.threshold, b.threshold);
      EXPECT_EQ(a.max_hops, b.max_hops);
    }
  }
}

TEST(MixParseTest, ParsesCommentsBlanksAndKeyValues) {
  Result<WorkloadMix> mix = ParseMix(
      "# a comment\n"
      "\n"
      "followees 3 uid=zipf   # trailing comment\n"
      "co_tags 1.5 tag=uniform n=25\n"
      "shortest_path 0.5 hops=2\n"
      "select_users 1 threshold=40\n",
      "test");
  ASSERT_TRUE(mix.ok()) << mix.status().message();
  ASSERT_EQ(mix->entries.size(), 4u);
  EXPECT_EQ(mix->entries[0].uid_dist, Dist::kZipf);
  EXPECT_DOUBLE_EQ(mix->entries[1].weight, 1.5);
  EXPECT_EQ(mix->entries[1].tag_dist, Dist::kUniform);
  EXPECT_EQ(mix->entries[1].n, 25);
  EXPECT_EQ(mix->entries[2].max_hops, 2u);
  EXPECT_EQ(mix->entries[3].threshold, 40);
}

TEST(MixParseTest, HostileInputsFailWithTheOffendingLine) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the error message
  };
  const Case cases[] = {
      {"nonsense 5\n", "unknown template"},
      {"followees\n", "missing weight"},
      {"followees 0\n", "bad weight"},
      {"followees -3\n", "bad weight"},
      {"followees abc\n", "bad weight"},
      {"followees 12x\n", "bad weight"},
      {"followees 1e99\n", "bad weight"},
      {"followees 2 uid=banana\n", "uniform|zipf"},
      {"co_tags 2 tag=\n", "uniform|zipf"},
      {"co_mentioned 2 n=0\n", "n must be >= 1"},
      {"co_mentioned 2 n=abc\n", "integer"},
      {"shortest_path 2 hops=0\n", "hops"},
      {"shortest_path 2 hops=17\n", "hops"},
      {"shortest_path 2 hops=two\n", "integer"},
      {"followees 2 bogus=1\n", "unknown key"},
      {"followees 2 noequals\n", "key=value"},
      {"", "no entries"},
      {"# only a comment\n", "no entries"},
  };
  for (const Case& c : cases) {
    Result<WorkloadMix> mix = ParseMix(c.text, "hostile");
    ASSERT_FALSE(mix.ok()) << "accepted: " << c.text;
    EXPECT_NE(mix.status().message().find(c.expect), std::string::npos)
        << "input " << c.text << " produced: " << mix.status().message();
  }
  // Line numbers name the offender, not line 1.
  Result<WorkloadMix> mix =
      ParseMix("followees 1\n# fine\nfollowees bad\n", "hostile");
  ASSERT_FALSE(mix.ok());
  EXPECT_NE(mix.status().message().find("line 3"), std::string::npos)
      << mix.status().message();
}

TEST(MixParseTest, UnknownSuiteIsRejected) {
  EXPECT_FALSE(BuiltinSuite("linkbench-z").ok());
  EXPECT_TRUE(BuiltinSuite("tao").ok());
  EXPECT_TRUE(BuiltinSuite("ldbc").ok());
}

// ---------------------------------------------------------------------
// Parameter generation invariants.

TEST(ParamUniverseTest, UidPairsAreAlwaysDistinct) {
  const ParamUniverse& universe = TestUniverse();
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    auto [a, b] = universe.SampleUidPair(rng, i % 2 == 0);
    EXPECT_NE(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, universe.num_users());
    EXPECT_GE(b, 0);
    EXPECT_LT(b, universe.num_users());
  }
}

TEST(ParamUniverseTest, MaterializedCallsRespectTemplateShapes) {
  const ParamUniverse& universe = TestUniverse();
  Rng rng(6);
  for (const TemplateInfo& info : Templates()) {
    MixEntry entry;
    entry.template_name = info.name;
    entry.n = 17;
    CallSpec spec = MaterializeCall(entry, universe, rng);
    EXPECT_EQ(spec.kind, info.kind) << info.name;
    if (info.uses_pair) {
      EXPECT_NE(spec.a, spec.b) << info.name;
    }
    if (info.uses_n) {
      EXPECT_EQ(spec.n, 17) << info.name;
    }
    if (info.uses_tag) {
      EXPECT_FALSE(spec.tag.empty()) << info.name;
    }
    if (info.fixed_hops != 0) {
      EXPECT_EQ(spec.max_hops, info.fixed_hops) << info.name;
    }
  }
}

}  // namespace
}  // namespace mbq::bench::driver
