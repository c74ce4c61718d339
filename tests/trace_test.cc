// Distributed-tracing plane: context minting and scoping
// (src/obs/trace_context.*), the kTracedEnvelope wire frame
// (src/rpc/messages.*) and span tagging in the recorder ring
// (src/obs/introspect.*). The cross-process stitch itself is exercised
// by scripts/cluster_local.sh against real daemons.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "rpc/messages.h"

namespace mbq::obs {
namespace {

// ------------------------------------------------------------- the context

TEST(TraceContextTest, MintedRootsAreValidSampledAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    TraceContext ctx = MintTraceContext();
    ASSERT_TRUE(ctx.valid());
    EXPECT_TRUE(ctx.sampled);  // MBQ_TRACE_SAMPLE defaults to 1
    EXPECT_EQ(ctx.parent_span_id, 0u);
    EXPECT_TRUE(seen.insert(TraceIdHex(ctx)).second)
        << "trace id minted twice";
  }
}

TEST(TraceContextTest, HexFormsAreFixedWidthLowercase) {
  TraceContext ctx;
  ctx.trace_hi = 0xABCDEF0102030405ull;
  ctx.trace_lo = 0x1ull;
  EXPECT_EQ(TraceIdHex(ctx), "abcdef01020304050000000000000001");
  EXPECT_EQ(SpanIdHex(0x2aull), "000000000000002a");
  EXPECT_EQ(TraceIdHex(ctx).size(), 32u);
  EXPECT_EQ(SpanIdHex(NextSpanId()).size(), 16u);
}

TEST(TraceContextTest, ScopedInstallAndRestore) {
  ASSERT_FALSE(CurrentTraceContext().valid()) << "leaked context";
  TraceContext root = MintTraceContext();
  {
    ScopedTraceContext scope(root);
    EXPECT_TRUE(scope.active());
    EXPECT_EQ(CurrentTraceContext().trace_lo, root.trace_lo);
    EXPECT_EQ(CurrentTraceContext().span_id, root.span_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContextTest, ChildScopeDerivesFromTheCurrentContext) {
  TraceContext root = MintTraceContext();
  ScopedTraceContext outer(root);
  ScopedTraceContext child;  // default = child mode
  ASSERT_TRUE(child.active());
  const TraceContext& current = CurrentTraceContext();
  EXPECT_EQ(current.trace_hi, root.trace_hi);
  EXPECT_EQ(current.trace_lo, root.trace_lo);
  EXPECT_EQ(current.parent_span_id, root.span_id);
  EXPECT_NE(current.span_id, root.span_id);
  EXPECT_EQ(current.sampled, root.sampled);
}

TEST(TraceContextTest, ChildScopeIsInertWithoutATrace) {
  ASSERT_FALSE(CurrentTraceContext().valid());
  {
    ScopedTraceContext child;
    EXPECT_FALSE(child.active());
    EXPECT_FALSE(CurrentTraceContext().valid());
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContextTest, ChildOrRootMintsOrDerives) {
  // No trace active: a fresh root.
  TraceContext root = ChildOrRootContext();
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.parent_span_id, 0u);
  // Under a scope: same trace, nested span.
  ScopedTraceContext scope(root);
  TraceContext child = ChildOrRootContext();
  EXPECT_EQ(child.trace_hi, root.trace_hi);
  EXPECT_EQ(child.trace_lo, root.trace_lo);
  EXPECT_EQ(child.parent_span_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
}

TEST(TraceContextTest, ProcessRoleRoundTrips) {
  std::string before = ProcessRole();
  SetProcessRole("test-role");
  EXPECT_EQ(ProcessRole(), "test-role");
  SetProcessRole(before);
  EXPECT_EQ(ProcessRole(), before);
}

// ----------------------------------------------------- span ring tagging

TEST(TraceSpanRingTest, SpansAreStampedWithTheActiveContext) {
  SpanRecorder recorder(16);
  TraceContext ctx = MintTraceContext();
  {
    ScopedTraceContext scope(ctx);
    recorder.Record("tagged", "test", 1000, 500);
  }
  recorder.Record("untagged", "test", 2000, 500);
  std::string json = recorder.ToTraceJson();
  EXPECT_NE(json.find("\"trace_id\": \"" + TraceIdHex(ctx) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"span_id\": \"" + SpanIdHex(ctx.span_id) + "\""),
            std::string::npos);
  // The untraced span carries the zero identity.
  EXPECT_NE(json.find("\"span_id\": \"" + SpanIdHex(0) + "\""),
            std::string::npos);
  // Chrome export: only the tagged span gets trace args.
  std::string chrome = recorder.ToChromeTraceJson();
  EXPECT_NE(chrome.find(TraceIdHex(ctx)), std::string::npos);
}

TEST(TraceSpanRingTest, WraparoundCountsDroppedSpans) {
  SpanRecorder recorder(2);
  recorder.Record("a", "test", 1000, 1);
  recorder.Record("b", "test", 2000, 1);
  EXPECT_EQ(recorder.dropped(), 0u);
  recorder.Record("c", "test", 3000, 1);
  recorder.Record("d", "test", 4000, 1);
  EXPECT_EQ(recorder.recorded(), 4u);
  EXPECT_EQ(recorder.dropped(), 2u);
  EXPECT_EQ(recorder.size(), 2u);
  std::string json = recorder.ToTraceJson();
  EXPECT_NE(json.find("\"recorded\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 2"), std::string::npos);
  // Clear resets the accounting with the ring.
  recorder.Clear();
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(TraceSpanRingTest, GlobalRecorderReportsGaugesInDefaultRegistry) {
  SpanRecorder::Global().Record("gauge probe", "test", 1000, 1);
  MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  EXPECT_GE(snap.ValueOf("obs.spans.recorded"), 1.0);
  EXPECT_GE(snap.ValueOf("obs.spans.dropped"), 0.0);
}

}  // namespace
}  // namespace mbq::obs

// ------------------------------------------------------ the wire envelope

namespace mbq::rpc {
namespace {

Frame MakeInner() {
  CallRequest call;
  call.call = NavCall::kFolloweesOf;
  call.uid = 42;
  return EncodeCall(call);
}

TEST(TraceEnvelopeTest, RoundTripsWithoutTiming) {
  TracedEnvelope env;
  env.trace_hi = 0x1111222233334444ull;
  env.trace_lo = 0x5555666677778888ull;
  env.span_id = 0x9999aaaabbbbccccull;
  env.sampled = true;
  env.has_timing = false;
  env.inner = MakeInner();

  Frame wire = EncodeTracedEnvelope(env);
  EXPECT_EQ(wire.type, static_cast<uint8_t>(MsgType::kTracedEnvelope));
  Result<TracedEnvelope> decoded = DecodeTracedEnvelope(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_hi, env.trace_hi);
  EXPECT_EQ(decoded->trace_lo, env.trace_lo);
  EXPECT_EQ(decoded->span_id, env.span_id);
  EXPECT_TRUE(decoded->sampled);
  EXPECT_FALSE(decoded->has_timing);
  EXPECT_EQ(decoded->inner.type, static_cast<uint8_t>(MsgType::kCall));
  EXPECT_EQ(decoded->inner.body, env.inner.body);

  // The wrapped call decodes exactly as if it had arrived bare.
  Result<CallRequest> call = DecodeCall(decoded->inner);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call->call, NavCall::kFolloweesOf);
  EXPECT_EQ(call->uid, 42);
}

TEST(TraceEnvelopeTest, RoundTripsShardTiming) {
  TracedEnvelope env;
  env.trace_hi = 1;
  env.trace_lo = 2;
  env.span_id = 3;
  env.sampled = true;
  env.has_timing = true;
  env.timing.queue_nanos = 10;
  env.timing.execute_nanos = 2000000;
  env.timing.serialize_nanos = 300;
  env.timing.reply_nanos = 2000500;
  env.inner = MakeInner();

  Result<TracedEnvelope> decoded =
      DecodeTracedEnvelope(EncodeTracedEnvelope(env));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->has_timing);
  EXPECT_EQ(decoded->timing.queue_nanos, 10u);
  EXPECT_EQ(decoded->timing.execute_nanos, 2000000u);
  EXPECT_EQ(decoded->timing.serialize_nanos, 300u);
  EXPECT_EQ(decoded->timing.reply_nanos, 2000500u);
}

TEST(TraceEnvelopeTest, RejectsNestedEnvelopes) {
  TracedEnvelope inner_env;
  inner_env.trace_hi = 1;
  inner_env.trace_lo = 1;
  inner_env.span_id = 1;
  inner_env.inner = MakeInner();

  TracedEnvelope outer;
  outer.trace_hi = 2;
  outer.trace_lo = 2;
  outer.span_id = 2;
  outer.inner = EncodeTracedEnvelope(inner_env);

  Result<TracedEnvelope> decoded =
      DecodeTracedEnvelope(EncodeTracedEnvelope(outer));
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption())
      << decoded.status().ToString();
}

TEST(TraceEnvelopeTest, RejectsTruncatedAndMismatchedBodies) {
  TracedEnvelope env;
  env.trace_hi = 1;
  env.trace_lo = 2;
  env.span_id = 3;
  env.inner = MakeInner();
  Frame wire = EncodeTracedEnvelope(env);

  // Truncation anywhere in the body must fail, never crash.
  for (size_t keep : {size_t{0}, size_t{8}, size_t{24}, size_t{25},
                      wire.body.size() - 1}) {
    Frame cut = wire;
    cut.body.resize(keep);
    EXPECT_FALSE(DecodeTracedEnvelope(cut).ok()) << "kept " << keep;
  }
  // A wrong message type is rejected up front.
  Frame wrong = wire;
  wrong.type = static_cast<uint8_t>(MsgType::kCall);
  EXPECT_FALSE(DecodeTracedEnvelope(wrong).ok());
}

TEST(TraceEnvelopeTest, TypeHasANameAndLockedWireValue) {
  EXPECT_EQ(static_cast<uint8_t>(MsgType::kTracedEnvelope), 14);
  EXPECT_STREQ(MsgTypeName(static_cast<uint8_t>(MsgType::kTracedEnvelope)),
               "kTracedEnvelope");
}

}  // namespace
}  // namespace mbq::rpc
