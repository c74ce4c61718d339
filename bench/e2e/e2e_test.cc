// Unit tests of how the benchmark drives LoadDriver — the closed loop,
// the send-lag clock, error-aware percentiles — and of its timing
// decorator, all on the fake driver clock: service time is charged by
// advancing the clock, so every schedule, lag and latency below is exact.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "bench/driver.h"
#include "bench/e2e/measure.h"
#include "bench/e2e/trace.h"
#include "bench/mix.h"
#include "core/calls.h"
#include "twitter/dataset.h"

namespace mbq::bench::e2e {
namespace {

using core::ValueRows;
using driver::DriverOptions;
using driver::DriverReport;
using driver::FakeDriverClock;
using driver::LatencyHistogram;
using driver::LoadDriver;

/// Serves FolloweesOf by charging `service(seq)` to the clock; the seq-th
/// call fails when `fails(seq)`.
class FakeEngine final : public core::MicroblogEngine {
 public:
  FakeEngine(FakeDriverClock* clock, std::function<uint64_t(uint64_t)> service,
             std::function<bool(uint64_t)> fails = nullptr)
      : clock_(clock), service_(std::move(service)), fails_(std::move(fails)) {}

  std::string name() const override { return "fake"; }
  Result<ValueRows> FolloweesOf(int64_t) override {
    uint64_t seq = seq_.fetch_add(1);
    clock_->AdvanceNanos(service_(seq));
    if (fails_ && fails_(seq)) return Status::Internal("fake failure");
    return ValueRows{};
  }
  Result<ValueRows> SelectUsersByFollowerCount(int64_t) override {
    return Unused();
  }
  Result<ValueRows> TweetsOfFollowees(int64_t) override { return Unused(); }
  Result<ValueRows> HashtagsUsedByFollowees(int64_t) override {
    return Unused();
  }
  Result<ValueRows> TopCoMentionedUsers(int64_t, int64_t) override {
    return Unused();
  }
  Result<ValueRows> TopCoOccurringHashtags(const std::string&,
                                           int64_t) override {
    return Unused();
  }
  Result<ValueRows> RecommendFolloweesOfFollowees(int64_t, int64_t) override {
    return Unused();
  }
  Result<ValueRows> RecommendFollowersOfFollowees(int64_t, int64_t) override {
    return Unused();
  }
  Result<ValueRows> CurrentInfluence(int64_t, int64_t) override {
    return Unused();
  }
  Result<ValueRows> PotentialInfluence(int64_t, int64_t) override {
    return Unused();
  }
  Result<int64_t> ShortestPathLength(int64_t, int64_t, uint32_t) override {
    return Status::NotImplemented("fake");
  }
  Status DropCaches() override { return Status::OK(); }

 private:
  static Result<ValueRows> Unused() { return Status::NotImplemented("fake"); }

  FakeDriverClock* clock_;
  std::function<uint64_t(uint64_t)> service_;
  std::function<bool(uint64_t)> fails_;
  std::atomic<uint64_t> seq_{0};
};

driver::WorkloadMix FolloweesMix() {
  Result<driver::WorkloadMix> mix = driver::ParseMix("followees 1\n", "unit");
  EXPECT_TRUE(mix.ok());
  return *mix;
}

const core::ParamUniverse& Universe() {
  static const twitter::Dataset* dataset = [] {
    twitter::DatasetSpec spec;
    spec.num_users = 200;
    spec.seed = 7;
    return new twitter::Dataset(twitter::GenerateDataset(spec));
  }();
  static const core::ParamUniverse* universe =
      new core::ParamUniverse(*dataset);
  return *universe;
}

Result<DriverReport> Drive(core::MicroblogEngine* engine,
                           const DriverOptions& options,
                           driver::DriverClock* clock) {
  return LoadDriver(engine, FolloweesMix(), Universe(), options, clock).Run();
}

constexpr uint64_t kMilli = 1000 * 1000;

TEST(E2eLoopTest, ClosedLoopRunsBackToBackWithoutWaiting) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return kMilli; });
  Result<DriverReport> report = Drive(&engine, ClosedLoop(1, 50), &clock);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 50u);
  EXPECT_EQ(report->errors, 0u);
  // Only service time passed: no sleep ever moved the clock.
  EXPECT_EQ(clock.NowNanos(), 50 * kMilli);
  EXPECT_DOUBLE_EQ(report->wall_seconds, 0.05);
}

TEST(E2eLoopTest, ClosedLoopSplitsTheRequestCountAcrossClients) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return kMilli; });
  Result<DriverReport> report = Drive(&engine, ClosedLoop(2, 7), &clock);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->requests, 7u);
  EXPECT_EQ(clock.NowNanos(), 7 * kMilli);
}

TEST(E2eLoopTest, SendLagEqualsTheStall) {
  FakeDriverClock fake;
  LagClock clock(&fake, 0);
  const uint64_t stall = 50 * kMilli;
  FakeEngine engine(&fake, [&](uint64_t seq) { return seq == 0 ? stall : 0; });
  // A rate this high draws every gap as 0 ns: all ten requests are due
  // at the phase start, so each one queued behind the stall leaves
  // exactly `stall` late.
  DriverOptions options;
  options.rate_qps = 1e12;
  options.clients = 1;
  options.duration_seconds = 1;
  options.max_requests = 10;
  Result<DriverReport> report = Drive(&engine, options, &clock);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->requests, 10u);
  const LatencyHistogram lag = clock.SendLagNanos();
  EXPECT_EQ(lag.count(), 10u);
  EXPECT_EQ(lag.min(), 0u);
  EXPECT_EQ(lag.max(), stall);
  EXPECT_EQ(lag.sum(), 9 * stall);
  EXPECT_EQ(report->late, 9u);
  // Latency is charged from the intended time: the stall reaches every
  // request, including the nine that never touched the slow call.
  EXPECT_EQ(report->latency_micros.min(), stall / 1000);
}

TEST(E2eLoopTest, LagClockReturnsNoEarlierThanTheDeadline) {
  driver::SteadyDriverClock steady;
  LagClock clock(&steady, 200 * 1000);
  const uint64_t deadline = clock.NowNanos() + kMilli;
  clock.SleepUntilNanos(deadline);
  EXPECT_GE(clock.NowNanos(), deadline);
  EXPECT_EQ(clock.SendLagNanos().count(), 1u);
}

TEST(E2eLoopTest, FailingTheSlowRequestsDoesNotLowerP99) {
  // Every 25th request is slow (4% of them). Gaps of 20 ms outlast every
  // call, so each latency is exactly its service time. Run once with the
  // slow requests succeeding and once with them failing.
  auto service = [](uint64_t seq) {
    return seq % 25 == 0 ? 10 * kMilli : kMilli;
  };
  auto p99 = [&](bool slow_fails) {
    FakeDriverClock clock;
    FakeEngine engine(&clock, service, [&](uint64_t seq) {
      return slow_fails && seq % 25 == 0;
    });
    DriverOptions options;
    options.rate_qps = 50;
    options.clients = 1;
    options.duration_seconds = 20;
    options.arrival = driver::Arrival::kUniform;
    Result<DriverReport> report = Drive(&engine, options, &clock);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report->requests, 1000u);
    EXPECT_EQ(report->errors, slow_fails ? 40u : 0u);
    return QuantileWithErrors(report->latency_micros, report->errors, 0.99);
  };
  const double succeeding = p99(false);
  const double failing = p99(true);
  EXPECT_NEAR(succeeding, 10'000.0, 0.05 * 10'000);
  EXPECT_TRUE(std::isinf(failing));
  EXPECT_GE(failing, succeeding);
}

TEST(E2eLoopTest, QuantileWithErrorsRanksFailuresAboveEverySuccess) {
  LatencyHistogram ok;
  for (uint64_t v = 1; v <= 990; ++v) ok.Record(v * 1000);
  const double clean = QuantileWithErrors(ok, 0, 0.99);
  EXPECT_DOUBLE_EQ(clean, ok.Quantile(0.99));
  // Five failures push the 99th percentile further into the successes;
  // eleven put it among the failures.
  EXPECT_GT(QuantileWithErrors(ok, 5, 0.99), clean);
  EXPECT_TRUE(std::isinf(QuantileWithErrors(ok, 11, 0.99)));
  EXPECT_TRUE(std::isinf(QuantileWithErrors(LatencyHistogram(), 1, 0.5)));
  EXPECT_EQ(QuantileWithErrors(LatencyHistogram(), 0, 0.5), 0);
}

TEST(E2eTraceTest, EveryOtherCallOfEachClientIsOneRootSpan) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return kMilli; });
  TimedEngine timed(&engine);
  Result<DriverReport> report = Drive(&timed, ClosedLoop(2, 20), &clock);
  ASSERT_TRUE(report.ok());
  const TimedEngine::Totals totals = timed.Collect();
  std::set<uint64_t> requests;
  std::set<uint32_t> threads;
  for (const Span& s : totals.spans) {
    EXPECT_STREQ(s.name, "FolloweesOf");
    EXPECT_EQ(s.depth, 0u);
    requests.insert(s.request);
    threads.insert(s.thread);
  }
  EXPECT_EQ(totals.spans.size(), 10u);  // calls 0, 2, .. of each client
  EXPECT_EQ(requests.size(), 10u);
  EXPECT_EQ(threads, (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(totals.traced_nanos.count(), 10u);
  EXPECT_EQ(totals.plain_nanos.count(), 10u);
}

TEST(E2eTraceTest, ForwardsResultsAndHasNoWriterOverAReadOnlyEngine) {
  FakeDriverClock clock;
  FakeEngine engine(&clock, [](uint64_t) { return 0; },
                    [](uint64_t seq) { return seq == 1; });
  TimedEngine timed(&engine);
  EXPECT_TRUE(timed.FolloweesOf(1).ok());
  EXPECT_FALSE(timed.FolloweesOf(1).ok());
  EXPECT_EQ(timed.name(), "fake");
  EXPECT_EQ(timed.AsWritable(), nullptr);
  EXPECT_EQ(timed.Collect().spans.size(), 1u);
}

}  // namespace
}  // namespace mbq::bench::e2e
