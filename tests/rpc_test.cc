#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "rpc/client.h"
#include "rpc/framing.h"
#include "rpc/messages.h"
#include "rpc/server.h"

namespace mbq::rpc {
namespace {

using common::Value;

// ------------------------------------------------------------- framing

TEST(Framing, BodyCodecRoundTrip) {
  std::vector<uint8_t> body;
  PutU8(&body, 7);
  PutU16(&body, 300);
  PutU32(&body, 70000);
  PutU64(&body, uint64_t{1} << 40);
  PutI64(&body, -42);
  PutString(&body, "hello");
  PutString(&body, "");

  size_t offset = 0;
  EXPECT_EQ(7, *GetU8(body, &offset));
  EXPECT_EQ(300, *GetU16(body, &offset));
  EXPECT_EQ(70000u, *GetU32(body, &offset));
  EXPECT_EQ(uint64_t{1} << 40, *GetU64(body, &offset));
  EXPECT_EQ(-42, *GetI64(body, &offset));
  EXPECT_EQ("hello", *GetString(body, &offset));
  EXPECT_EQ("", *GetString(body, &offset));
  EXPECT_EQ(body.size(), offset);
  // One byte past the end fails cleanly.
  EXPECT_TRUE(GetU8(body, &offset).status().IsCorruption());
}

TEST(Framing, FrameRoundTripThroughDecoder) {
  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kCall);
  frame.body = {1, 2, 3, 4, 5};
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  ASSERT_EQ(kHeaderBytes + 5, wire.size());

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  Result<bool> done = decoder.Next(&out);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_TRUE(*done);
  EXPECT_EQ(frame.type, out.type);
  EXPECT_EQ(frame.body, out.body);
  EXPECT_EQ(0u, decoder.buffered_bytes());
  // No second frame.
  EXPECT_FALSE(*decoder.Next(&out));
}

TEST(Framing, DecoderHandlesDribbledBytes) {
  Frame frame;
  frame.type = static_cast<uint8_t>(MsgType::kRowsReply);
  for (int i = 0; i < 100; ++i) frame.body.push_back(static_cast<uint8_t>(i));
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  EncodeFrame(frame, &wire);  // two back-to-back frames

  FrameDecoder decoder;
  Frame out;
  int frames = 0;
  for (uint8_t byte : wire) {
    decoder.Feed(&byte, 1);
    Result<bool> done = decoder.Next(&out);
    ASSERT_TRUE(done.ok());
    if (*done) {
      EXPECT_EQ(frame.body, out.body);
      ++frames;
    }
  }
  EXPECT_EQ(2, frames);
}

TEST(Framing, HostileLengthIsRejected) {
  Frame frame;
  frame.type = 1;
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  // Patch the length field (offset 8) to something absurd.
  uint32_t huge = kMaxBodyBytes + 1;
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  Result<bool> done = decoder.Next(&out);
  ASSERT_FALSE(done.ok());
  EXPECT_TRUE(done.status().IsCorruption());
  // The decoder stays poisoned even if more (valid) bytes arrive.
  std::vector<uint8_t> good;
  EncodeFrame(Frame{}, &good);
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&out).ok());
}

TEST(Framing, BadMagicAndVersionAreRejected) {
  {
    std::vector<uint8_t> wire;
    EncodeFrame(Frame{}, &wire);
    wire[0] ^= 0xFF;  // corrupt magic
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame out;
    EXPECT_TRUE(decoder.Next(&out).status().IsCorruption());
  }
  {
    std::vector<uint8_t> wire;
    EncodeFrame(Frame{}, &wire);
    wire[4] = kProtocolVersion + 1;  // future version
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame out;
    EXPECT_TRUE(decoder.Next(&out).status().IsCorruption());
  }
  {
    std::vector<uint8_t> wire;
    EncodeFrame(Frame{}, &wire);
    wire[6] = 1;  // non-zero reserved
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame out;
    EXPECT_TRUE(decoder.Next(&out).status().IsCorruption());
  }
}

TEST(Framing, TruncatedBodyKeepsWaiting) {
  Frame frame;
  frame.type = 2;
  frame.body.assign(64, 0xAB);
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size() - 1);  // everything but one byte
  Frame out;
  Result<bool> done = decoder.Next(&out);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);  // not an error — just incomplete
  decoder.Feed(wire.data() + wire.size() - 1, 1);
  done = decoder.Next(&out);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(*done);
  EXPECT_EQ(frame.body, out.body);
}

// ------------------------------------------------------------- messages

TEST(Messages, CallRoundTrip) {
  CallRequest req;
  req.call = NavCall::kTopCoOccurringHashtags;
  req.uid = 123;
  req.arg = 10;
  req.max_hops = 3;
  req.tag = "graphs";
  Result<CallRequest> back = DecodeCall(EncodeCall(req));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(req.call, back->call);
  EXPECT_EQ(req.uid, back->uid);
  EXPECT_EQ(req.arg, back->arg);
  EXPECT_EQ(req.max_hops, back->max_hops);
  EXPECT_EQ(req.tag, back->tag);
}

TEST(Messages, RowsReplyRoundTripAllValueTypes) {
  ValueRows rows;
  rows.push_back({Value::Int(7), Value::String("seven")});
  rows.push_back({Value::Null(), Value::Bool(true), Value::Double(2.5)});
  rows.push_back({});
  Result<ValueRows> back = DecodeRowsReply(EncodeRowsReply(rows));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(rows, *back);
}

TEST(Messages, HelloReplyRoundTrip) {
  HelloReply reply;
  reply.shard_id = 3;
  reply.num_shards = 8;
  reply.partition = 2;
  reply.num_users = 1000000;
  reply.engine = "bitmap-navigation";
  Result<HelloReply> back = DecodeHelloReply(EncodeHelloReply(reply));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(reply.shard_id, back->shard_id);
  EXPECT_EQ(reply.num_shards, back->num_shards);
  EXPECT_EQ(reply.partition, back->partition);
  EXPECT_EQ(reply.num_users, back->num_users);
  EXPECT_EQ(reply.engine, back->engine);
}

TEST(Messages, ErrorRoundTripPreservesCodeAndMessage) {
  Status status = Status::NotFound("no hashtag #zzz");
  Status back = DecodeError(EncodeError(status));
  EXPECT_TRUE(back.IsNotFound());
  EXPECT_EQ(status.message(), back.message());
}

TEST(Messages, DecodeChecksFrameType) {
  Frame frame = EncodeHelloReply(HelloReply{});
  EXPECT_TRUE(DecodeRowsReply(frame).status().IsCorruption());
  // An error frame surfaces as the carried status, not a type mismatch.
  Frame error = EncodeError(Status::Aborted("shard shutting down"));
  EXPECT_TRUE(DecodeRowsReply(error).status().IsAborted());
}

TEST(Messages, TruncatedBodiesFailCleanly) {
  Frame frame = EncodeCall(CallRequest{});
  frame.body.resize(frame.body.size() / 2);
  EXPECT_TRUE(DecodeCall(frame).status().IsCorruption());

  ValueRows rows;
  rows.push_back({Value::String("x")});
  Frame rows_frame = EncodeRowsReply(rows);
  rows_frame.body.pop_back();
  EXPECT_TRUE(DecodeRowsReply(rows_frame).status().IsCorruption());
}

// ------------------------------------------------------------- transport

/// Echo-style test service: kCall answers with a one-row reply carrying
/// the request uid, everything else per protocol.
Frame TestHandler(const Frame& request) {
  switch (static_cast<MsgType>(request.type)) {
    case MsgType::kHello: {
      HelloReply reply;
      reply.shard_id = 0;
      reply.num_shards = 1;
      reply.engine = "rpc-test";
      return EncodeHelloReply(reply);
    }
    case MsgType::kPing:
      return EmptyFrame(MsgType::kPong);
    case MsgType::kCall: {
      Result<CallRequest> req = DecodeCall(request);
      if (!req.ok()) return EncodeError(req.status());
      ValueRows rows;
      rows.push_back({Value::Int(req->uid)});
      return EncodeRowsReply(rows);
    }
    default:
      return EncodeError(
          Status::NotImplemented("rpc-test: unhandled message type"));
  }
}

class RpcServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RpcServer::Options options;
    Result<std::unique_ptr<RpcServer>> server =
        RpcServer::Start(options, TestHandler);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::unique_ptr<RpcServer> server_;
};

TEST_F(RpcServerTest, HelloPingAndCallRoundTrip) {
  RpcClient::Options options;
  options.port = server_->port();
  Result<std::unique_ptr<RpcClient>> client = RpcClient::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ("rpc-test", (*client)->server_info().engine);
  EXPECT_TRUE((*client)->Ping().ok());

  CallRequest req;
  req.uid = 99;
  Result<Frame> reply = (*client)->Call(EncodeCall(req));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  Result<ValueRows> rows = DecodeRowsReply(*reply);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(1u, rows->size());
  EXPECT_EQ(Value::Int(99), (*rows)[0][0]);
}

TEST_F(RpcServerTest, ServerSurvivesFourByteAtATimeRequests) {
  // Raw socket, dribbling the request across many tiny writes: the
  // server's per-connection decoder must reassemble it.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));

  CallRequest req;
  req.uid = 1234;
  std::vector<uint8_t> wire;
  EncodeFrame(EncodeCall(req), &wire);
  for (size_t i = 0; i < wire.size(); i += 4) {
    size_t n = std::min<size_t>(4, wire.size() - i);
    ASSERT_EQ(static_cast<ssize_t>(n), ::send(fd, wire.data() + i, n, 0));
  }
  Result<Frame> reply = ReadFrame(fd, 10000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  Result<ValueRows> rows = DecodeRowsReply(*reply);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Value::Int(1234), (*rows)[0][0]);
  ::close(fd);
}

TEST_F(RpcServerTest, HostileFrameGetsErrorThenClose) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));

  // A header claiming a body far beyond the cap.
  std::vector<uint8_t> wire;
  EncodeFrame(Frame{}, &wire);
  uint32_t huge = 0xFFFFFFFF;
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));

  Result<Frame> reply = ReadFrame(fd, 10000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  Status error = DecodeError(*reply);
  EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  // The server hangs up after a framing violation.
  char byte;
  EXPECT_EQ(0, ::recv(fd, &byte, 1, 0));
  ::close(fd);

  // ...and keeps serving everyone else.
  RpcClient::Options options;
  options.port = server_->port();
  Result<std::unique_ptr<RpcClient>> client = RpcClient::Connect(options);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(RpcServerTest, ConcurrentClients) {
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      RpcClient::Options options;
      options.port = server_->port();
      Result<std::unique_ptr<RpcClient>> client =
          RpcClient::Connect(options);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCallsPerThread; ++i) {
        CallRequest req;
        req.uid = t * 1000 + i;
        Result<Frame> reply = (*client)->Call(EncodeCall(req));
        Result<ValueRows> rows =
            reply.ok() ? DecodeRowsReply(*reply) : reply.status();
        if (!rows.ok() || rows->size() != 1 ||
            (*rows)[0][0] != Value::Int(req.uid)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(0, failures.load());
}

TEST(RpcServer, PortConflictFailsCleanly) {
  RpcServer::Options options;
  Result<std::unique_ptr<RpcServer>> first =
      RpcServer::Start(options, TestHandler);
  ASSERT_TRUE(first.ok());
  options.port = (*first)->port();
  Result<std::unique_ptr<RpcServer>> second =
      RpcServer::Start(options, TestHandler);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsIoError()) << second.status().ToString();
}

TEST(RpcClient, ConnectToDeadPortFails) {
  // Bind-then-close to find a port that is almost certainly unused.
  RpcServer::Options options;
  Result<std::unique_ptr<RpcServer>> server =
      RpcServer::Start(options, TestHandler);
  ASSERT_TRUE(server.ok());
  uint16_t port = (*server)->port();
  (*server)->Stop();
  server->reset();

  RpcClient::Options client_options;
  client_options.port = port;
  client_options.timeout_millis = 2000;
  Result<std::unique_ptr<RpcClient>> client =
      RpcClient::Connect(client_options);
  EXPECT_FALSE(client.ok());
}

TEST(RpcClient, ReconnectsAfterServerRestart) {
  RpcServer::Options options;
  Result<std::unique_ptr<RpcServer>> server =
      RpcServer::Start(options, TestHandler);
  ASSERT_TRUE(server.ok());
  uint16_t port = (*server)->port();

  RpcClient::Options client_options;
  client_options.port = port;
  client_options.timeout_millis = 5000;
  Result<std::unique_ptr<RpcClient>> client =
      RpcClient::Connect(client_options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());

  // Restart the server on the same port; the client's next call rides
  // its one-redial retry.
  (*server)->Stop();
  server->reset();
  options.port = port;
  Result<std::unique_ptr<RpcServer>> restarted =
      RpcServer::Start(options, TestHandler);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
}

}  // namespace
}  // namespace mbq::rpc
