#include "rpc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/clock.h"

namespace mbq::rpc {

namespace {

struct ClientMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Counter* reconnects;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Histogram* latency;

  static ClientMetrics Get() {
    static ClientMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      ClientMetrics out;
      out.requests = reg.GetCounter("rpc.client.requests", "requests",
                                    "RPC requests issued by this process");
      out.errors = reg.GetCounter(
          "rpc.client.errors", "requests",
          "RPC requests that failed (transport or server error)");
      out.reconnects =
          reg.GetCounter("rpc.client.reconnects", "connections",
                         "Connections re-established after a transport "
                         "failure mid-request");
      out.bytes_in = reg.GetCounter("rpc.client.bytes_in", "bytes",
                                    "RPC reply bytes received");
      out.bytes_out = reg.GetCounter("rpc.client.bytes_out", "bytes",
                                     "RPC request bytes sent");
      out.latency = reg.GetHistogram(
          "rpc.client.latency", "us",
          "Round-trip time of RPC requests, including redial on retry");
      return out;
    }();
    return m;
  }
};

/// connect() with a poll() deadline; blocking connect has no timeout knob.
Status ConnectWithTimeout(int fd, const sockaddr_in& addr,
                          int timeout_millis) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::IoError("rpc: connect() failed: " +
                           std::string(std::strerror(errno)));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_millis);
    if (ready == 0) return Status::IoError("rpc: connect timed out");
    if (ready < 0) {
      return Status::IoError("rpc: poll() failed: " +
                             std::string(std::strerror(errno)));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return Status::IoError("rpc: connect() failed: " +
                             std::string(std::strerror(err != 0 ? err : errno)));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return Status::OK();
}

bool IsTransportError(const Status& status) {
  // Framing violations and server-side Status replies do not heal with a
  // redial; only socket-level failures do.
  return status.IsIoError();
}

}  // namespace

RpcClient::RpcClient(Options options) : options_(std::move(options)) {}

RpcClient::~RpcClient() {
  // No concurrent Call can be alive here, but the analysis cannot know
  // that — take the lock so the guarded read is checkable.
  util::ScopedLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<RpcClient>> RpcClient::Connect(const Options& options) {
  std::unique_ptr<RpcClient> client(new RpcClient(options));
  util::ScopedLock lock(client->mu_);
  MBQ_RETURN_IF_ERROR(client->Dial());
  Frame reply;
  MBQ_ASSIGN_OR_RETURN(reply, client->Exchange(EmptyFrame(MsgType::kHello)));
  MBQ_ASSIGN_OR_RETURN(client->server_info_, DecodeHelloReply(reply));
  return client;
}

Status RpcClient::Dial() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("rpc: socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("rpc: bad host address \"" +
                                   options_.host + "\"");
  }
  Status connected = ConnectWithTimeout(fd, addr, options_.timeout_millis);
  if (!connected.ok()) {
    ::close(fd);
    return Status(connected.code(),
                  connected.message() + " (" + options_.host + ":" +
                      std::to_string(options_.port) + ")");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

Result<Frame> RpcClient::Exchange(const Frame& request) {
  ClientMetrics metrics = ClientMetrics::Get();
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  Status written = WriteFrame(fd_, request, options_.timeout_millis,
                              &bytes_out);
  metrics.bytes_out->Inc(bytes_out);
  MBQ_RETURN_IF_ERROR(written);
  Result<Frame> reply = ReadFrame(fd_, options_.timeout_millis, &bytes_in);
  metrics.bytes_in->Inc(bytes_in);
  return reply;
}

Result<Frame> RpcClient::Call(const Frame& request, ShardTiming* timing) {
  ClientMetrics metrics = ClientMetrics::Get();
  metrics.requests->Inc();
  if (timing != nullptr) *timing = ShardTiming{};

  util::ScopedLock lock(mu_);
  // Wrap in a tracing envelope when a sampled trace is active. The client
  // span is a child of the caller's current span and is installed for the
  // exchange, so the recorded round trip nests correctly; the margin keeps
  // a near-cap inner body from pushing the envelope over kMaxBodyBytes.
  const obs::TraceContext& current = obs::CurrentTraceContext();
  bool enveloped =
      current.valid() && current.sampled &&
      request.type != static_cast<uint8_t>(MsgType::kTracedEnvelope) &&
      request.body.size() + 64 < kMaxBodyBytes;
  obs::TraceContext client_ctx = current;
  Frame wire_request = request;
  if (enveloped) {
    client_ctx.parent_span_id = current.span_id;
    client_ctx.span_id = obs::NextSpanId();
    TracedEnvelope env;
    env.trace_hi = client_ctx.trace_hi;
    env.trace_lo = client_ctx.trace_lo;
    env.span_id = client_ctx.span_id;
    env.sampled = true;
    env.inner = request;
    wire_request = EncodeTracedEnvelope(env);
    obs::TraceMetrics::Get().envelope_sent->Inc();
  }

  uint64_t start_nanos = WallClock().NowNanos();
  Result<Frame> reply = Exchange(wire_request);
  if (!reply.ok() && IsTransportError(reply.status())) {
    // The peer may have restarted between requests; one redial covers
    // that without masking a genuinely dead shard behind a retry loop.
    Status redialed = Dial();
    if (redialed.ok()) {
      metrics.reconnects->Inc();
      reply = Exchange(wire_request);
    }
  }
  uint64_t elapsed_nanos = WallClock().NowNanos() - start_nanos;
  metrics.latency->Record(elapsed_nanos / 1000);

  if (enveloped && reply.ok() &&
      reply->type == static_cast<uint8_t>(MsgType::kTracedEnvelope)) {
    Result<TracedEnvelope> env = DecodeTracedEnvelope(*reply);
    if (!env.ok()) {
      metrics.errors->Inc();
      return env.status();
    }
    obs::TraceMetrics::Get().envelope_received->Inc();
    if (timing != nullptr && env->has_timing) *timing = env->timing;
    reply = std::move(env->inner);
  }
  if (enveloped) {
    // Record with the client span installed so it carries its own id and
    // parents onto the caller's span. Only lock-free ring work happens
    // under the scope — legal below the kRpc mutex held here.
    obs::ScopedTraceContext span_scope(client_ctx);
    obs::SpanRecorder::Global().Record(
        std::string("rpc.client.") + MsgTypeName(request.type), "rpc",
        start_nanos, elapsed_nanos);
  }

  if (!reply.ok()) {
    metrics.errors->Inc();
    return reply;
  }
  if (reply->type == static_cast<uint8_t>(MsgType::kError)) {
    metrics.errors->Inc();
    return DecodeError(*reply);
  }
  return reply;
}

Status RpcClient::Ping() {
  Frame reply;
  MBQ_ASSIGN_OR_RETURN(reply, Call(EmptyFrame(MsgType::kPing)));
  if (reply.type != static_cast<uint8_t>(MsgType::kPong)) {
    return Status::Corruption(std::string("rpc: expected kPong, got ") +
                              MsgTypeName(reply.type));
  }
  return Status::OK();
}

}  // namespace mbq::rpc
