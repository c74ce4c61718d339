#ifndef MBQ_RPC_CLIENT_H_
#define MBQ_RPC_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "rpc/messages.h"
#include "util/lock_rank.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace mbq::rpc {

/// Blocking request/response client over one TCP connection. Thread-safe:
/// a mutex serializes calls, so several engine threads can share a client
/// (the protocol is strictly one-reply-per-request, there is nothing to
/// pipeline). On a transport failure (peer died, timeout) the client
/// redials once and retries the request; application errors arriving as
/// kError frames are returned to the caller untouched — the connection is
/// still healthy.
class RpcClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Per-syscall poll() timeout for connect/send/recv.
    int timeout_millis = 30000;
  };

  /// Dials the server and exchanges kHello/kHelloReply so the caller
  /// immediately learns the peer's topology (and a mis-addressed port —
  /// e.g. the stats HTTP server — fails fast instead of on first use).
  static Result<std::unique_ptr<RpcClient>> Connect(const Options& options);

  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sends `request` and reads the single reply frame. A kError reply is
  /// decoded into its Status; any other frame is returned for the caller
  /// to decode.
  ///
  /// Tracing: when the calling thread has a sampled TraceContext active,
  /// the request is wrapped in a kTracedEnvelope carrying a fresh client
  /// span (child of the caller's), the reply is unwrapped transparently,
  /// and the round trip lands in the span ring as "rpc.client.<type>".
  /// The shard's timing summary from the reply envelope is written to
  /// `*timing` when non-null (zeros when the reply came back bare). A
  /// peer that refuses the envelope answers kError, and the caller gets
  /// that error.
  Result<Frame> Call(const Frame& request, ShardTiming* timing = nullptr);

  /// kPing round-trip.
  Status Ping();

  /// The topology the server reported at connect time.
  const HelloReply& server_info() const { return server_info_; }
  const Options& options() const { return options_; }

 private:
  explicit RpcClient(Options options);

  /// Establishes fd_ (closing any previous connection).
  Status Dial() MBQ_REQUIRES(mu_);
  /// One write+read exchange on the current connection.
  Result<Frame> Exchange(const Frame& request) MBQ_REQUIRES(mu_);

  Options options_;
  HelloReply server_info_;
  /// LockRank::kRpc, the outermost rank: held across the whole network
  /// round-trip, during which no other in-process lock may be acquired
  /// (the exchange only touches fd_ and lock-free obs counters).
  util::RankedMutex mu_{util::LockRank::kRpc, "rpc.client"};
  int fd_ MBQ_GUARDED_BY(mu_) = -1;
};

}  // namespace mbq::rpc

#endif  // MBQ_RPC_CLIENT_H_
