#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/bitmap_engine.h"
#include "core/engine.h"
#include "cypher/session.h"
#include "nodestore/graph_db.h"
#include "obs/export.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "twitter/loaders.h"

namespace mbq::obs {
namespace {

// --------------------------------------------------------- QueryRegistry

TEST(IntrospectTest, ActiveQueryAppearsAndDisappears) {
  QueryRegistry registry;
  {
    ActiveQueryScope scope(&registry, "MATCH (u) RETURN u", "cypher", 4);
    scope.SetRows(7);
    scope.SetDbHits(42);
    auto active = registry.Snapshot();
    ASSERT_EQ(active.size(), 1u);
    EXPECT_EQ(active[0].query, "MATCH (u) RETURN u");
    EXPECT_EQ(active[0].engine, "cypher");
    EXPECT_EQ(active[0].threads, 4u);
    EXPECT_EQ(active[0].rows_emitted, 7u);
    EXPECT_EQ(active[0].db_hits, 42u);
  }
  EXPECT_TRUE(registry.Snapshot().empty());
  EXPECT_EQ(registry.started(), 1u);
  EXPECT_EQ(registry.finished(), 1u);
  EXPECT_EQ(registry.dropped(), 0u);
}

TEST(IntrospectTest, NullRegistryMakesScopeInert) {
  ActiveQueryScope scope(nullptr, "q", "cypher", 1);
  scope.SetRows(1);  // must not crash
  EXPECT_GT(scope.ElapsedNanos(), 0u);
}

TEST(IntrospectTest, FullTableCountsDrops) {
  QueryRegistry registry;
  std::vector<std::unique_ptr<ActiveQueryScope>> scopes;
  for (size_t i = 0; i < QueryRegistry::kSlots + 3; ++i) {
    scopes.push_back(std::make_unique<ActiveQueryScope>(
        &registry, "q" + std::to_string(i), "cypher", 1));
  }
  EXPECT_EQ(registry.Snapshot().size(), QueryRegistry::kSlots);
  EXPECT_EQ(registry.dropped(), 3u);
  scopes.clear();
  EXPECT_TRUE(registry.Snapshot().empty());
  // Unregistered executions still count as started and finished.
  EXPECT_EQ(registry.started(), QueryRegistry::kSlots + 3);
  EXPECT_EQ(registry.finished(), QueryRegistry::kSlots + 3);
}

TEST(IntrospectTest, RegistryJsonEscapesHostileQueryText) {
  QueryRegistry registry;
  ActiveQueryScope scope(&registry, "RETURN \"quoted\"\nline2", "cypher", 1);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("RETURN \\\"quoted\\\"\\nline2"), std::string::npos);
  EXPECT_EQ(json.find('\n') == std::string::npos,
            false);  // payload has line breaks between objects...
  // ...but never a raw newline inside a string literal: unescaping the
  // escaped form recovers the original text.
  EXPECT_EQ(JsonUnescape("RETURN \\\"quoted\\\"\\nline2"),
            "RETURN \"quoted\"\nline2");
}

TEST(IntrospectTest, ConcurrentScopesAndSnapshotsAreSafe) {
  QueryRegistry registry;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto active = registry.Snapshot();
      EXPECT_LE(active.size(), QueryRegistry::kSlots);
    }
  });
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        ActiveQueryScope scope(&registry, "thread query", "bitmap",
                               static_cast<uint32_t>(t + 1));
        scope.SetRows(static_cast<uint64_t>(i));
        scope.SetDbHits(static_cast<uint64_t>(i) * 2);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_TRUE(registry.Snapshot().empty());
  EXPECT_EQ(registry.started(), kThreads * kIters);
  EXPECT_EQ(registry.finished(), kThreads * kIters);
}

// -------------------------------------------------------- FlightRecorder

SlowQuery MakeSlow(const std::string& query, double millis) {
  SlowQuery slow;
  slow.query = query;
  slow.engine = "cypher";
  slow.millis = millis;
  return slow;
}

TEST(IntrospectTest, RingKeepsTheNewestCapturesAfterWraparound) {
  FlightRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(MakeSlow("q" + std::to_string(i), i));
  }
  EXPECT_EQ(recorder.captured(), 10u);
  auto slow = recorder.Snapshot();
  ASSERT_EQ(slow.size(), 4u);
  // Oldest first; wraparound discarded q0..q5.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(slow[i].query, "q" + std::to_string(i + 6));
    EXPECT_EQ(slow[i].seq, static_cast<uint64_t>(i + 6));
  }
}

TEST(IntrospectTest, ClearEmptiesTheRingButKeepsTheLifetimeCount) {
  FlightRecorder recorder(/*capacity=*/4);
  recorder.Record(MakeSlow("q", 1));
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.captured(), 1u);
}

TEST(IntrospectTest, ThresholdBoundaryIsInclusive) {
  EXPECT_TRUE(IsSlowQuery(50.0, 50));   // exactly the threshold: captured
  EXPECT_FALSE(IsSlowQuery(49.999, 50));
  EXPECT_TRUE(IsSlowQuery(50.001, 50));
  EXPECT_TRUE(IsSlowQuery(0.0, 0));  // threshold 0 captures everything
}

TEST(IntrospectTest, DefaultThresholdHonoursTheEnvironmentIncludingZero) {
  ::setenv("MBQ_SLOW_QUERY_MILLIS", "0", 1);
  EXPECT_EQ(DefaultSlowQueryMillis(), 0u);
  ::setenv("MBQ_SLOW_QUERY_MILLIS", "125", 1);
  EXPECT_EQ(DefaultSlowQueryMillis(), 125u);
  ::setenv("MBQ_SLOW_QUERY_MILLIS", "not-a-number", 1);
  EXPECT_EQ(DefaultSlowQueryMillis(), 50u);
  ::unsetenv("MBQ_SLOW_QUERY_MILLIS");
  EXPECT_EQ(DefaultSlowQueryMillis(), 50u);
}

TEST(IntrospectTest, ConcurrentRecordersNeverLoseACapture) {
  FlightRecorder recorder(/*capacity=*/64);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto slow = recorder.Snapshot();
      EXPECT_LE(slow.size(), 64u);
    }
  });
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kIters; ++i) {
        recorder.Record(MakeSlow("t" + std::to_string(t), i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(recorder.captured(), kThreads * kIters);
  auto slow = recorder.Snapshot();
  ASSERT_EQ(slow.size(), 64u);
  // Sequence numbers are unique and strictly increasing oldest-first.
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_LT(slow[i - 1].seq, slow[i].seq);
  }
}

TEST(IntrospectTest, FlightRecorderJsonAndTextRenderCaptures) {
  FlightRecorder recorder(/*capacity=*/8);
  SlowQuery slow = MakeSlow("MATCH (u:user) RETURN \"x\"", 75.5);
  slow.profile = "ProduceResults\n  NodeByLabelScan\n";
  slow.cache = "miss";
  recorder.Record(std::move(slow));
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"captured\": 1"), std::string::npos);
  EXPECT_NE(json.find("RETURN \\\"x\\\""), std::string::npos);
  std::string text = recorder.ToText();
  EXPECT_NE(text.find("NodeByLabelScan"), std::string::npos);
  EXPECT_NE(text.find("cache=miss"), std::string::npos);
}

// ---------------------------------------------------------- SpanRecorder

TEST(IntrospectTest, SpanRecorderExportsChromeTraceEvents) {
  SpanRecorder recorder(/*capacity=*/8);
  recorder.Record("query one", "cypher", 1000, 2000);
  recorder.Record("import phase", "import", 4000, 500);
  std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("query one"), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"import\""), std::string::npos);
  EXPECT_EQ(recorder.size(), 2u);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(IntrospectTest, SpanRecorderRingBoundsMemory) {
  SpanRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 20; ++i) {
    recorder.Record("s" + std::to_string(i), "cypher", 1000 + i, 10);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 20u);
}

// ----------------------------------------------- export name round-trips

TEST(IntrospectTest, JsonEscapeRoundTripsHostileStrings) {
  const std::string hostile[] = {
      "plain", "with \"quotes\"", "back\\slash", "new\nline\ttab",
      std::string("nul\0byte", 8), "\x01\x1f control", "caf\xc3\xa9 utf8",
  };
  for (const std::string& s : hostile) {
    EXPECT_EQ(JsonUnescape(JsonEscape(s)), s) << "for: " << s;
    // The escaped form never carries raw control bytes.
    for (char c : JsonEscape(s)) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
}

TEST(IntrospectTest, PrometheusNamesAreSanitizedAndValid) {
  EXPECT_EQ(PrometheusName("cypher.query_latency"), "cypher_query_latency");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName(""), "_");
  EXPECT_TRUE(IsValidPrometheusName(PrometheusName("weird name!{}\"")));
  EXPECT_FALSE(IsValidPrometheusName("has.dots"));
  EXPECT_FALSE(IsValidPrometheusName(""));
}

TEST(IntrospectTest, PrometheusExportDeduplicatesCollidingNames) {
  MetricsRegistry registry;
  // Both sanitize to a_b; the exporter must keep them distinct.
  registry.GetCounter("a.b", "items")->Inc(1);
  registry.GetCounter("a_b", "items")->Inc(2);
  registry.RegisterProvider([](MetricsSink* sink) {
    sink->Gauge("weird name!", 3, "items");
  });
  std::string text = registry.Snapshot().ToPrometheus();
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_TRUE(IsValidPrometheusName(name)) << "illegal name: " << name;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  // Sample lines of one metric (summary quantiles) repeat the name;
  // distinct *metrics* must never share one.
  names.erase(std::unique(names.begin(), names.end()), names.end());
  ASSERT_GE(names.size(), 3u);
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_NE(names[i - 1], names[i]);
  }
}

TEST(IntrospectTest, PrometheusExportCoversWritePathFamilies) {
  // The write path, WAL and load driver register dotted names; their
  // exposition must sanitize cleanly, suffix counters with _total and
  // render histograms as p50/p95/p99 summaries — the exact families the
  // live write path and mbqbench publish.
  MetricsRegistry registry;
  registry.GetCounter("write.commits", "batches")->Inc(4);
  registry.GetCounter("write.ops.post_tweet", "ops")->Inc(9);
  registry.GetCounter("wal.fsyncs", "fsyncs")->Inc(2);
  registry.GetCounter("wal.group_commits", "commits")->Inc(1);
  registry.GetCounter("driver.requests", "requests")->Inc(100);
  Histogram* commit = registry.GetHistogram("write.commit_micros", "us");
  Histogram* latency = registry.GetHistogram("driver.latency_micros", "us");
  for (int i = 1; i <= 100; ++i) {
    commit->Record(static_cast<uint64_t>(i));
    latency->Record(static_cast<uint64_t>(i * 10));
  }
  std::string text = registry.Snapshot().ToPrometheus();

  // Counters: sanitized name + _total, with the value.
  EXPECT_NE(text.find("write_commits_total 4"), std::string::npos);
  EXPECT_NE(text.find("write_ops_post_tweet_total 9"), std::string::npos);
  EXPECT_NE(text.find("wal_fsyncs_total 2"), std::string::npos);
  EXPECT_NE(text.find("wal_group_commits_total 1"), std::string::npos);
  EXPECT_NE(text.find("driver_requests_total 100"), std::string::npos);

  // Histograms: summary type with all three quantiles and sum/count.
  for (const char* family : {"write_commit_micros", "driver_latency_micros"}) {
    std::string base(family);
    EXPECT_NE(text.find("# TYPE " + base + " summary"), std::string::npos);
    EXPECT_NE(text.find(base + "{quantile=\"0.5\"} "), std::string::npos);
    EXPECT_NE(text.find(base + "{quantile=\"0.95\"} "), std::string::npos);
    EXPECT_NE(text.find(base + "{quantile=\"0.99\"} "), std::string::npos);
    EXPECT_NE(text.find(base + "_count 100"), std::string::npos);
  }

  // Every exposed sample line carries a legal name — no dots survive.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_TRUE(IsValidPrometheusName(name)) << "illegal name: " << name;
  }
}

TEST(IntrospectTest, MetricsJsonMatchesTheSnapshotPath) {
  MetricsRegistry registry;
  registry.GetCounter("hostile \"name\"\n", "items")->Inc(7);
  std::string shared = MetricsJson(&registry);
  EXPECT_EQ(shared, registry.Snapshot().ToJson());
  EXPECT_NE(shared.find(JsonEscape("hostile \"name\"\n")), std::string::npos);
}

}  // namespace
}  // namespace mbq::obs

// ------------------------------------------------- end-to-end slow capture

namespace mbq {
namespace {

class SlowQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    twitter::DatasetSpec spec;
    spec.num_users = 120;
    spec.seed = 7;
    dataset_ = twitter::GenerateDataset(spec);

    nodestore::GraphDbOptions options;
    options.disk_profile = storage::DiskProfile::Instant();
    db_ = std::make_unique<nodestore::GraphDb>(options);
    auto nh = twitter::LoadIntoNodestore(dataset_, db_.get());
    ASSERT_TRUE(nh.ok()) << nh.status().ToString();

    graph_ = std::make_unique<bitmapstore::Graph>();
    auto bh = twitter::LoadIntoBitmapstore(dataset_, graph_.get());
    ASSERT_TRUE(bh.ok()) << bh.status().ToString();
    bm_handles_ = *bh;

    obs::FlightRecorder::Global().Clear();
  }

  twitter::Dataset dataset_;
  std::unique_ptr<nodestore::GraphDb> db_;
  std::unique_ptr<bitmapstore::Graph> graph_;
  twitter::BitmapHandles bm_handles_;
};

TEST_F(SlowQueryTest, CypherCaptureCarriesTheProfileTree) {
  cypher::CypherSession session(db_.get());
  cypher::SessionOptions options;
  options.slow_query_millis = 0;  // capture everything
  session.Configure(options);
  auto result = session.Run("MATCH (u:user) RETURN count(u)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto slow = obs::FlightRecorder::Global().Snapshot();
  ASSERT_GE(slow.size(), 1u);
  const obs::SlowQuery& capture = slow.back();
  EXPECT_EQ(capture.engine, "cypher");
  EXPECT_EQ(capture.query, "MATCH (u:user) RETURN count(u)");
  EXPECT_GT(capture.db_hits, 0u);
  EXPECT_FALSE(capture.profile.empty());
  // The profile is the executed operator tree, not just the plan shape.
  EXPECT_NE(capture.profile.find("rows="), std::string::npos);
}

TEST_F(SlowQueryTest, HighThresholdCapturesNothing) {
  cypher::CypherSession session(db_.get());
  cypher::SessionOptions options;
  options.slow_query_millis = 1000000;  // nothing here takes 1000 s
  session.Configure(options);
  ASSERT_TRUE(session.Run("MATCH (u:user) RETURN count(u)").ok());
  EXPECT_TRUE(obs::FlightRecorder::Global().Snapshot().empty());
}

TEST_F(SlowQueryTest, KeepCurrentThresholdDoesNotReset) {
  cypher::CypherSession session(db_.get());
  session.SetSlowQueryMillis(7);
  cypher::SessionOptions options;  // slow_query_millis = -1: keep current
  session.Configure(options);
  EXPECT_EQ(session.slow_query_millis(), 7u);
}

TEST_F(SlowQueryTest, BitmapEngineCapturesNavigationCalls) {
  core::EngineOptions engine_options;
  engine_options.graph = graph_.get();
  engine_options.handles = &bm_handles_;
  auto engine = core::OpenEngine(core::EngineKind::kBitmap, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto* bitmap = static_cast<core::BitmapEngine*>(engine->get());
  bitmap->SetSlowQueryMillis(0);  // capture everything

  auto rows = bitmap->FolloweesOf(dataset_.users[0].uid);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();

  auto slow = obs::FlightRecorder::Global().Snapshot();
  ASSERT_GE(slow.size(), 1u);
  const obs::SlowQuery& capture = slow.back();
  EXPECT_EQ(capture.engine, "bitmap");
  EXPECT_NE(capture.query.find("FolloweesOf"), std::string::npos);
}

}  // namespace
}  // namespace mbq
