#include "rpc/messages.h"

#include "common/value_codec.h"

namespace mbq::rpc {

namespace {

Status CheckType(const Frame& frame, MsgType want) {
  if (frame.type == static_cast<uint8_t>(want)) return Status::OK();
  if (frame.type == static_cast<uint8_t>(MsgType::kError)) {
    // Let the caller surface the server's error instead of a type
    // mismatch: re-decode it here.
    return DecodeError(frame);
  }
  return Status::Corruption(std::string("rpc: expected ") +
                            MsgTypeName(static_cast<uint8_t>(want)) +
                            " frame, got " + MsgTypeName(frame.type));
}

void PutRows(std::vector<uint8_t>* out, const ValueRows& rows) {
  PutU32(out, static_cast<uint32_t>(rows.size()));
  for (const auto& row : rows) {
    PutU32(out, static_cast<uint32_t>(row.size()));
    for (const common::Value& v : row) common::EncodeValue(v, out);
  }
}

Result<ValueRows> GetRows(const std::vector<uint8_t>& body, size_t* offset) {
  uint32_t num_rows;
  MBQ_ASSIGN_OR_RETURN(num_rows, GetU32(body, offset));
  ValueRows rows;
  rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t num_cols;
    MBQ_ASSIGN_OR_RETURN(num_cols, GetU32(body, offset));
    std::vector<common::Value> row;
    row.reserve(num_cols);
    for (uint32_t c = 0; c < num_cols; ++c) {
      common::Value v;
      MBQ_ASSIGN_OR_RETURN(v, common::DecodeValue(body, offset));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

const char* MsgTypeName(uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello: return "kHello";
    case MsgType::kHelloReply: return "kHelloReply";
    case MsgType::kCall: return "kCall";
    case MsgType::kRowsReply: return "kRowsReply";
    case MsgType::kIntReply: return "kIntReply";
    case MsgType::kQuery: return "kQuery";
    case MsgType::kQueryReply: return "kQueryReply";
    case MsgType::kError: return "kError";
    case MsgType::kPing: return "kPing";
    case MsgType::kPong: return "kPong";
    case MsgType::kDropCaches: return "kDropCaches";
    case MsgType::kOkReply: return "kOkReply";
    case MsgType::kWriteBatch: return "kWriteBatch";
    case MsgType::kTracedEnvelope: return "kTracedEnvelope";
  }
  return "kUnknown";
}

Frame EmptyFrame(MsgType type) {
  Frame frame;
  frame.type = static_cast<uint8_t>(type);
  return frame;
}

Frame EncodeHelloReply(const HelloReply& reply) {
  Frame frame = EmptyFrame(MsgType::kHelloReply);
  PutU32(&frame.body, reply.shard_id);
  PutU32(&frame.body, reply.num_shards);
  PutU8(&frame.body, reply.partition);
  PutU64(&frame.body, reply.num_users);
  PutString(&frame.body, reply.engine);
  return frame;
}

Result<HelloReply> DecodeHelloReply(const Frame& frame) {
  MBQ_RETURN_IF_ERROR(CheckType(frame, MsgType::kHelloReply));
  HelloReply reply;
  size_t offset = 0;
  MBQ_ASSIGN_OR_RETURN(reply.shard_id, GetU32(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(reply.num_shards, GetU32(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(reply.partition, GetU8(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(reply.num_users, GetU64(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(reply.engine, GetString(frame.body, &offset));
  return reply;
}

Frame EncodeCall(const CallRequest& req) {
  Frame frame = EmptyFrame(MsgType::kCall);
  PutU8(&frame.body, static_cast<uint8_t>(req.call));
  PutI64(&frame.body, req.uid);
  PutI64(&frame.body, req.arg);
  PutU32(&frame.body, req.max_hops);
  PutString(&frame.body, req.tag);
  return frame;
}

Result<CallRequest> DecodeCall(const Frame& frame) {
  MBQ_RETURN_IF_ERROR(CheckType(frame, MsgType::kCall));
  CallRequest req;
  size_t offset = 0;
  uint8_t call;
  MBQ_ASSIGN_OR_RETURN(call, GetU8(frame.body, &offset));
  if (call < 1 || call > 11) {
    return Status::Corruption("rpc: unknown navigation call " +
                              std::to_string(static_cast<int>(call)));
  }
  req.call = static_cast<NavCall>(call);
  MBQ_ASSIGN_OR_RETURN(req.uid, GetI64(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(req.arg, GetI64(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(req.max_hops, GetU32(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(req.tag, GetString(frame.body, &offset));
  return req;
}

Frame EncodeRowsReply(const ValueRows& rows) {
  Frame frame = EmptyFrame(MsgType::kRowsReply);
  PutRows(&frame.body, rows);
  return frame;
}

Result<ValueRows> DecodeRowsReply(const Frame& frame) {
  MBQ_RETURN_IF_ERROR(CheckType(frame, MsgType::kRowsReply));
  size_t offset = 0;
  return GetRows(frame.body, &offset);
}

Frame EncodeError(const Status& status) {
  Frame frame = EmptyFrame(MsgType::kError);
  StatusCode code = status.ok() ? StatusCode::kInternal : status.code();
  PutU8(&frame.body, static_cast<uint8_t>(code));
  PutString(&frame.body, status.ok() ? "error frame from OK status"
                                     : status.message());
  return frame;
}

namespace {

constexpr uint8_t kEnvelopeSampledBit = 1u << 0;
constexpr uint8_t kEnvelopeTimingBit = 1u << 1;

}  // namespace

Frame EncodeTracedEnvelope(const TracedEnvelope& env) {
  Frame frame = EmptyFrame(MsgType::kTracedEnvelope);
  PutU64(&frame.body, env.trace_hi);
  PutU64(&frame.body, env.trace_lo);
  PutU64(&frame.body, env.span_id);
  uint8_t flags = 0;
  if (env.sampled) flags |= kEnvelopeSampledBit;
  if (env.has_timing) flags |= kEnvelopeTimingBit;
  PutU8(&frame.body, flags);
  if (env.has_timing) {
    PutU64(&frame.body, env.timing.queue_nanos);
    PutU64(&frame.body, env.timing.execute_nanos);
    PutU64(&frame.body, env.timing.serialize_nanos);
    PutU64(&frame.body, env.timing.reply_nanos);
  }
  PutU8(&frame.body, env.inner.type);
  PutU32(&frame.body, static_cast<uint32_t>(env.inner.body.size()));
  frame.body.insert(frame.body.end(), env.inner.body.begin(),
                    env.inner.body.end());
  return frame;
}

Result<TracedEnvelope> DecodeTracedEnvelope(const Frame& frame) {
  MBQ_RETURN_IF_ERROR(CheckType(frame, MsgType::kTracedEnvelope));
  TracedEnvelope env;
  size_t offset = 0;
  MBQ_ASSIGN_OR_RETURN(env.trace_hi, GetU64(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(env.trace_lo, GetU64(frame.body, &offset));
  MBQ_ASSIGN_OR_RETURN(env.span_id, GetU64(frame.body, &offset));
  uint8_t flags;
  MBQ_ASSIGN_OR_RETURN(flags, GetU8(frame.body, &offset));
  env.sampled = (flags & kEnvelopeSampledBit) != 0;
  env.has_timing = (flags & kEnvelopeTimingBit) != 0;
  if (env.has_timing) {
    MBQ_ASSIGN_OR_RETURN(env.timing.queue_nanos, GetU64(frame.body, &offset));
    MBQ_ASSIGN_OR_RETURN(env.timing.execute_nanos,
                         GetU64(frame.body, &offset));
    MBQ_ASSIGN_OR_RETURN(env.timing.serialize_nanos,
                         GetU64(frame.body, &offset));
    MBQ_ASSIGN_OR_RETURN(env.timing.reply_nanos, GetU64(frame.body, &offset));
  }
  MBQ_ASSIGN_OR_RETURN(env.inner.type, GetU8(frame.body, &offset));
  if (env.inner.type == static_cast<uint8_t>(MsgType::kTracedEnvelope)) {
    return Status::Corruption("rpc: nested kTracedEnvelope");
  }
  uint32_t inner_len;
  MBQ_ASSIGN_OR_RETURN(inner_len, GetU32(frame.body, &offset));
  if (frame.body.size() - offset != inner_len) {
    return Status::Corruption("rpc: envelope inner length mismatch");
  }
  env.inner.body.assign(frame.body.begin() + static_cast<ptrdiff_t>(offset),
                        frame.body.end());
  return env;
}

Status DecodeError(const Frame& frame) {
  if (frame.type != static_cast<uint8_t>(MsgType::kError)) {
    return Status::Corruption(std::string("rpc: expected kError frame, got ") +
                              MsgTypeName(frame.type));
  }
  size_t offset = 0;
  uint8_t code;
  {
    Result<uint8_t> r = GetU8(frame.body, &offset);
    if (!r.ok()) return r.status();
    code = *r;
  }
  std::string message;
  {
    Result<std::string> r = GetString(frame.body, &offset);
    if (!r.ok()) return r.status();
    message = std::move(*r);
  }
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal("rpc: peer sent unknown status code " +
                            std::to_string(static_cast<int>(code)) + ": " +
                            message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace mbq::rpc
