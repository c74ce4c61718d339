#include "core/shard_service.h"

#include <chrono>
#include <cstring>
#include <mutex>

#include "core/calls.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/clock.h"

namespace mbq::core {

namespace {

/// Per-call latency histograms of the eleven read kinds, indexed by
/// CallKind. The names are spelled out literally so the docs link checker
/// can hold docs/OBSERVABILITY.md to account for every one of them.
obs::Histogram* CallLatency(CallKind kind) {
  static obs::Histogram* table[11] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    auto hist = [&reg](const char* name) {
      return reg.GetHistogram(name, "us",
                              "Server-side latency of this navigation call");
    };
    table[0] = hist("rpc.call.select_users_by_follower_count.latency");
    table[1] = hist("rpc.call.followees_of.latency");
    table[2] = hist("rpc.call.tweets_of_followees.latency");
    table[3] = hist("rpc.call.hashtags_used_by_followees.latency");
    table[4] = hist("rpc.call.top_co_mentioned_users.latency");
    table[5] = hist("rpc.call.top_co_occurring_hashtags.latency");
    table[6] = hist("rpc.call.recommend_followees_of_followees.latency");
    table[7] = hist("rpc.call.recommend_followers_of_followees.latency");
    table[8] = hist("rpc.call.current_influence.latency");
    table[9] = hist("rpc.call.potential_influence.latency");
    table[10] = hist("rpc.call.shortest_path_length.latency");
  });
  return table[static_cast<size_t>(kind)];
}

/// Overwrites the four ShardTiming words of an encoded reply envelope in
/// place. Timing can only be final *after* the envelope is encoded (the
/// serialize component is the encode itself), so the encoder writes
/// zeros and this patches the fixed-offset slot: 25 bytes of ids + flags
/// precede it (docs/CLUSTER.md).
void PatchEnvelopeTiming(rpc::Frame* frame, const rpc::ShardTiming& timing) {
  constexpr size_t kTimingOffset = 8 + 8 + 8 + 1;
  const uint64_t words[4] = {timing.queue_nanos, timing.execute_nanos,
                             timing.serialize_nanos, timing.reply_nanos};
  if (frame->body.size() < kTimingOffset + sizeof(words)) return;
  for (size_t w = 0; w < 4; ++w) {
    for (size_t b = 0; b < 8; ++b) {
      frame->body[kTimingOffset + w * 8 + b] =
          static_cast<uint8_t>(words[w] >> (b * 8));
    }
  }
}

}  // namespace

ShardService::ShardService(MicroblogEngine* engine, rpc::HelloReply info)
    : engine_(engine), info_(std::move(info)) {}

rpc::Frame ShardService::Handle(const rpc::Frame& request) {
  uint64_t entry_nanos = WallClock().NowNanos();
  if (request.type == static_cast<uint8_t>(rpc::MsgType::kTracedEnvelope)) {
    return HandleEnvelope(request, entry_nanos);
  }
  // A bare frame comes from an untraced client: the engine's own call
  // span mints the root.
  Result<rpc::Frame> reply = Dispatch(request);
  if (reply.ok()) return *std::move(reply);
  return rpc::EncodeError(reply.status());
}

rpc::Frame ShardService::HandleEnvelope(const rpc::Frame& request,
                                        uint64_t entry_nanos) {
  Result<rpc::TracedEnvelope> env = rpc::DecodeTracedEnvelope(request);
  if (!env.ok()) return rpc::EncodeError(env.status());
  obs::TraceMetrics::Get().envelope_received->Inc();

  // Adopt the wire context: same trace, the sender's span as parent, a
  // fresh span for the server section.
  obs::TraceContext ctx;
  ctx.trace_hi = env->trace_hi;
  ctx.trace_lo = env->trace_lo;
  ctx.parent_span_id = env->span_id;
  ctx.span_id = obs::NextSpanId();
  ctx.sampled = env->sampled;
  obs::ScopedTraceContext scope(ctx);
  obs::TraceMetrics::Get().adopted->Inc();

  uint64_t dispatch_nanos = WallClock().NowNanos();
  Result<rpc::Frame> inner_reply = Dispatch(env->inner);
  rpc::Frame reply_frame = inner_reply.ok()
                               ? *std::move(inner_reply)
                               : rpc::EncodeError(inner_reply.status());
  uint64_t done_nanos = WallClock().NowNanos();
  obs::SpanRecorder::Global().Record(
      std::string("rpc.server.") + rpc::MsgTypeName(env->inner.type), "rpc",
      entry_nanos, done_nanos - entry_nanos);

  // A near-cap reply goes back bare rather than blowing kMaxBodyBytes;
  // the client treats it as a reply with no timing.
  if (reply_frame.body.size() + 64 >= rpc::kMaxBodyBytes) return reply_frame;

  rpc::TracedEnvelope reply_env;
  reply_env.trace_hi = env->trace_hi;
  reply_env.trace_lo = env->trace_lo;
  reply_env.span_id = ctx.span_id;
  reply_env.sampled = env->sampled;
  reply_env.has_timing = true;  // encoded as zeros, patched below
  reply_env.inner = std::move(reply_frame);
  rpc::Frame out = rpc::EncodeTracedEnvelope(reply_env);
  uint64_t encoded_nanos = WallClock().NowNanos();
  rpc::ShardTiming timing;
  timing.queue_nanos = dispatch_nanos - entry_nanos;
  timing.execute_nanos = done_nanos - dispatch_nanos;
  timing.serialize_nanos = encoded_nanos - done_nanos;
  timing.reply_nanos = encoded_nanos - entry_nanos;
  PatchEnvelopeTiming(&out, timing);
  return out;
}

Result<rpc::Frame> ShardService::Dispatch(const rpc::Frame& request) {
  switch (static_cast<rpc::MsgType>(request.type)) {
    case rpc::MsgType::kHello:
      return rpc::EncodeHelloReply(info_);
    case rpc::MsgType::kPing:
      return rpc::EmptyFrame(rpc::MsgType::kPong);
    case rpc::MsgType::kCall: {
      CallSpec spec;
      MBQ_ASSIGN_OR_RETURN(spec, DecodeCallSpec(request));
      auto start = std::chrono::steady_clock::now();
      Result<ValueRows> rows = RunCall(*engine_, spec);
      CallLatency(spec.kind)->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      MBQ_RETURN_IF_ERROR(rows.status());
      return rpc::EncodeRowsReply(*rows);
    }
    case rpc::MsgType::kDropCaches:
      MBQ_RETURN_IF_ERROR(engine_->DropCaches());
      return rpc::EmptyFrame(rpc::MsgType::kOkReply);
    case rpc::MsgType::kWriteBatch:
      // Reserved in protocol version 1 (docs/CLUSTER.md): the wire value
      // is assigned so peers agree on its meaning, but no shard applies
      // remote writes yet — replicated commit needs cross-shard ordering
      // the single-node WAL does not provide.
      return Status::NotImplemented(
          "rpc: kWriteBatch is reserved — cluster writes are not "
          "implemented; open the engine locally with enable_writes");
    default:
      // The retired kIntReply, kQuery and kQueryReply land here too.
      return Status::NotImplemented(
          std::string("rpc: server cannot handle ") +
          rpc::MsgTypeName(request.type) + " frames");
  }
}

}  // namespace mbq::core
