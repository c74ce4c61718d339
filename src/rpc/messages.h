#ifndef MBQ_RPC_MESSAGES_H_
#define MBQ_RPC_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "rpc/framing.h"
#include "util/result.h"

namespace mbq::rpc {

/// Row type carried by kRowsReply. Identical layout to core::ValueRows,
/// so engine results cross the wire without conversion.
using ValueRows = std::vector<std::vector<common::Value>>;

/// Every message type of protocol version 1. The numeric values are the
/// wire encoding (frame header byte 5) and must never be reused, retired
/// ones included; new types append. Documented in docs/CLUSTER.md.
enum class MsgType : uint8_t {
  kHello = 1,       ///< client -> server: identify the peer, no body
  kHelloReply = 2,  ///< server -> client: shard topology + engine info
  kCall = 3,        ///< client -> server: one Table 2 navigation call
  kRowsReply = 4,   ///< server -> client: ValueRows result of every kCall
  kIntReply = 5,    ///< retired: never sent; servers refuse it
  kQuery = 6,       ///< retired: never sent; servers refuse it
  kQueryReply = 7,  ///< retired: never sent; servers refuse it
  kError = 8,       ///< server -> client: Status code + message
  kPing = 9,        ///< client -> server: liveness probe, no body
  kPong = 10,       ///< server -> client: liveness answer, no body
  kDropCaches = 11, ///< client -> server: drop engine caches, no body
  kOkReply = 12,    ///< server -> client: success with no payload
  /// Reserved for cluster writes: body is an encoded store::WriteBatch
  /// (store/delta/write_batch.h). No server implements it yet — shards
  /// answer kError(kNotImplemented); the value is burned now so protocol
  /// version 1 peers agree on its meaning when it lands (docs/CLUSTER.md).
  kWriteBatch = 13,
  /// Distributed-tracing envelope: a TraceContext plus one complete
  /// inner frame of any other type (docs/CLUSTER.md has the layout).
  /// Requests wrapped in an envelope get their reply wrapped too, with a
  /// per-shard timing summary.
  kTracedEnvelope = 14,
};

/// Returns the spec name of a message type ("kCall", ...) for logs and
/// error messages; "kUnknown" for unassigned values.
const char* MsgTypeName(uint8_t type);

/// The eleven Table 2 navigation calls a kCall frame can request. The
/// numeric values are the wire encoding; same append-only rule as
/// MsgType. core::EncodeCallSpec and DecodeCallSpec map them to and from
/// core::CallSpec.
enum class NavCall : uint8_t {
  kSelectUsersByFollowerCount = 1,   // Q1.1  (uid = threshold)
  kFolloweesOf = 2,                  // Q2.1
  kTweetsOfFollowees = 3,            // Q2.2
  kHashtagsUsedByFollowees = 4,      // Q2.3
  kTopCoMentionedUsers = 5,          // Q3.1  (arg = n)
  kTopCoOccurringHashtags = 6,       // Q3.2  (tag, arg = n)
  kRecommendFolloweesOfFollowees = 7,// Q4.1  (arg = n)
  kRecommendFollowersOfFollowees = 8,// Q4.2  (arg = n)
  kCurrentInfluence = 9,             // Q5.1  (arg = n)
  kPotentialInfluence = 10,          // Q5.2  (arg = n)
  kShortestPathLength = 11,          // Q6.1  (uid, arg = uid_b, max_hops)
};

/// kHelloReply body: how a server describes itself. The aggregator
/// presents itself as a single unpartitioned shard so any client —
/// including another RemoteEngine — can sit in front of it unchanged.
struct HelloReply {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
  uint8_t partition = 0;  ///< core::PartitionKind wire value
  uint64_t num_users = 0; ///< size of the global user id space
  std::string engine;     ///< "nodestore", "bitmap", "aggregator"
};

/// kCall body: one navigation call. Field use per call is fixed by the
/// NavCall comments above; unused fields are zero/empty on the wire.
struct CallRequest {
  NavCall call = NavCall::kFolloweesOf;
  int64_t uid = 0;      ///< anchor uid, or Q1.1 threshold
  int64_t arg = 0;      ///< top-n limit, or Q6.1 uid_b
  uint32_t max_hops = 0;///< Q6.1 only
  std::string tag;      ///< Q3.2 only
};

/// Where a request's time went inside one shard, carried back to the
/// aggregator on kTracedEnvelope replies. All steady-clock nanoseconds,
/// measured server-side: queue (decode + dispatch overhead before the
/// engine ran), execute (the engine call itself), serialize (encoding
/// the reply body), reply (the whole Handle, >= the sum of the parts).
struct ShardTiming {
  uint64_t queue_nanos = 0;
  uint64_t execute_nanos = 0;
  uint64_t serialize_nanos = 0;
  uint64_t reply_nanos = 0;
};

/// kTracedEnvelope body: a trace context plus one complete inner frame.
/// The span id is the *sender's* span (the receiver adopts it as the
/// parent of everything it does); timing rides only on replies.
struct TracedEnvelope {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  bool sampled = false;
  bool has_timing = false;
  ShardTiming timing;
  Frame inner;
};

// --------------------------------------------------------------- encoders
// Each returns a complete Frame ready for WriteFrame. Bodiless types
// (kHello, kPing, kPong, kDropCaches, kOkReply) are built with
// EmptyFrame.

Frame EmptyFrame(MsgType type);
Frame EncodeHelloReply(const HelloReply& reply);
Frame EncodeCall(const CallRequest& req);
Frame EncodeRowsReply(const ValueRows& rows);
/// kError body: u8 StatusCode + message string. `status` must be non-OK.
Frame EncodeError(const Status& status);
/// The envelope's inner frame must itself not be an envelope (one level
/// of wrapping, enforced on both encode and decode).
Frame EncodeTracedEnvelope(const TracedEnvelope& env);

// --------------------------------------------------------------- decoders
// Each checks frame.type and fails with Corruption on a mismatch or a
// malformed body.

Result<HelloReply> DecodeHelloReply(const Frame& frame);
Result<CallRequest> DecodeCall(const Frame& frame);
Result<ValueRows> DecodeRowsReply(const Frame& frame);
/// Reconstructs the Status carried by a kError frame (always non-OK).
Status DecodeError(const Frame& frame);
Result<TracedEnvelope> DecodeTracedEnvelope(const Frame& frame);

}  // namespace mbq::rpc

#endif  // MBQ_RPC_MESSAGES_H_
