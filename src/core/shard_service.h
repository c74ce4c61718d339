#ifndef MBQ_CORE_SHARD_SERVICE_H_
#define MBQ_CORE_SHARD_SERVICE_H_

#include "core/engine.h"
#include "rpc/messages.h"

namespace mbq::core {

/// Server-side dispatch: decodes request frames, invokes a
/// MicroblogEngine, encodes reply frames. A kCall is decoded into a
/// CallSpec and run through core::RunCall, and every call is answered
/// with kRowsReply (Q6.1: the one row holding the length). The same
/// service backs both `mbqd` roles — a shard (engine = local engine over
/// its slice) and the aggregator (engine = RemoteEngine over N shards) —
/// which is what lets a client treat the aggregator as just another
/// shard.
class ShardService {
 public:
  /// `engine` is borrowed and must outlive the service. `info` is what
  /// kHello is answered with.
  ShardService(MicroblogEngine* engine, rpc::HelloReply info);

  /// The rpc::RpcServer::Handler: every request type in, one reply
  /// frame out. Errors become kError frames, never exceptions; a type the
  /// service does not serve (the retired kIntReply, kQuery and
  /// kQueryReply among them) gets kError(kNotImplemented).
  ///
  /// A kTracedEnvelope request is unwrapped here: the wire context is
  /// adopted for the dispatch (so every span and per-call histogram the
  /// engine records belongs to the caller's trace), the server section
  /// lands in the span ring as "rpc.server.<inner type>", and the reply
  /// is re-wrapped with a ShardTiming breakdown of where the time went.
  rpc::Frame Handle(const rpc::Frame& request);

 private:
  Result<rpc::Frame> Dispatch(const rpc::Frame& request);
  rpc::Frame HandleEnvelope(const rpc::Frame& request, uint64_t entry_nanos);

  MicroblogEngine* engine_;
  rpc::HelloReply info_;
};

}  // namespace mbq::core

#endif  // MBQ_CORE_SHARD_SERVICE_H_
