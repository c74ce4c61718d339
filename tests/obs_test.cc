#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mbq::obs {
namespace {

// ----------------------------------------------------------------- Counter

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.events", "events");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
}

TEST(CounterTest, SameNameReturnsSameCounter) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("test.one", "items");
  Counter* b = registry.GetCounter("test.one");
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(b->value(), 3u);
}

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, SmallValuesAreExact) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.small", "ns");
  // Values below 32 land in exact unit buckets.
  for (uint64_t v = 0; v < 32; ++v) h->Record(v);
  EXPECT_EQ(h->count(), 32u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 31u);
  // p50 of 0..31 sits around 16; unit buckets make this exact-ish.
  EXPECT_NEAR(h->Quantile(0.5), 16.0, 1.0);
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.uniform", "ns");
  for (uint64_t v = 1; v <= 100000; ++v) h->Record(v);
  EXPECT_EQ(h->count(), 100000u);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_EQ(h->max(), 100000u);
  EXPECT_EQ(h->sum(), 100000ull * 100001ull / 2);
  // Log-linear buckets (32 per power of two) bound relative error ~3%;
  // allow 5% slack for interpolation.
  EXPECT_NEAR(h->Quantile(0.50), 50000.0, 50000.0 * 0.05);
  EXPECT_NEAR(h->Quantile(0.95), 95000.0, 95000.0 * 0.05);
  EXPECT_NEAR(h->Quantile(0.99), 99000.0, 99000.0 * 0.05);
}

TEST(HistogramTest, QuantilesOnSkewedDistribution) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.skewed", "ns");
  // 99 fast events, 1 slow outlier.
  for (int i = 0; i < 99; ++i) h->Record(10);
  h->Record(1000000);
  EXPECT_NEAR(h->Quantile(0.50), 10.0, 1.0);
  EXPECT_GE(h->Quantile(0.999), 900000.0);
  EXPECT_EQ(h->max(), 1000000u);
}

TEST(HistogramTest, ConcurrentRecordsKeepCount) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.mt", "ns");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h->Record(t * 1000 + 17);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  EXPECT_EQ(h->min(), 17u);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.empty", "ns");
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 0u);
  EXPECT_EQ(h->Quantile(0.5), 0.0);
}

// --------------------------------------------------------------- Providers

TEST(ProviderTest, GaugesFromTwoProvidersSum) {
  MetricsRegistry registry;
  uint64_t id1 = registry.RegisterProvider(
      [](MetricsSink* sink) { sink->Gauge("cache.hits", 10, "pages"); });
  uint64_t id2 = registry.RegisterProvider(
      [](MetricsSink* sink) { sink->Gauge("cache.hits", 32, "pages"); });
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.ValueOf("cache.hits"), 42.0);
  registry.UnregisterProvider(id1);
  registry.UnregisterProvider(id2);
}

TEST(ProviderTest, UnregisterRetainsFinalValues) {
  // A torn-down component's totals stay visible: the bench --metrics-out
  // snapshot runs after the testbed is destroyed.
  MetricsRegistry registry;
  {
    ScopedProvider provider(&registry, [](MetricsSink* sink) {
      sink->Gauge("engine.reads", 7, "records");
    });
    EXPECT_EQ(registry.Snapshot().ValueOf("engine.reads"), 7.0);
  }
  EXPECT_EQ(registry.Snapshot().ValueOf("engine.reads"), 7.0);
}

TEST(ProviderTest, ScopedProviderMoveTransfersOwnership) {
  MetricsRegistry registry;
  int calls = 0;
  ScopedProvider a(&registry, [&calls](MetricsSink* sink) {
    ++calls;
    sink->Gauge("g", 1);
  });
  ScopedProvider b(std::move(a));
  registry.Snapshot();
  EXPECT_EQ(calls, 1);  // exactly one live registration
}

// ---------------------------------------------------------------- Snapshot

TEST(SnapshotTest, JsonContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("c.one", "items")->Inc(5);
  registry.GetHistogram("h.lat", "ns")->Record(100);
  ScopedProvider provider(&registry, [](MetricsSink* sink) {
    sink->Gauge("g.val", 1.5, "ratio");
  });
  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"g.val\""), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
}

TEST(SnapshotTest, ValueOfAndHas) {
  MetricsRegistry registry;
  registry.GetCounter("present")->Inc(9);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.ValueOf("present"), 9.0);
  EXPECT_TRUE(snap.Has("present"));
  EXPECT_FALSE(snap.Has("absent"));
}

// ------------------------------------------------------------------- Trace

TEST(TraceTest, SpanFeedsLatencyHistogram) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("test.latency", "ns");
  { TraceSpan span(latency); }
  { TraceSpan span("named", latency); }
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_GT(latency->sum(), 0u);
}

}  // namespace
}  // namespace mbq::obs
