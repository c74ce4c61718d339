// mbqd — the sharded serving plane's daemon (docs/CLUSTER.md).
//
// One binary, four roles:
//
//   shard       Generate the twitter dataset deterministically, carve out
//               this shard's slice (core::MakeShardSlice), load it into a
//               local engine and serve the RPC protocol on --port.
//
//                 ./mbqd --port=7001 --shards=2 --shard-id=0 \
//                        [--users=N --seed=S --engine=nodestore|bitmap \
//                         --partition=hash|range --threads=T --serve[=P]]
//
//   aggregator  Dial N shards, expose the same RPC surface on --port and
//               fan navigation calls out, merging per the call shape.
//               Presents itself as a single unpartitioned shard, so
//               clients cannot tell it from a whole-dataset daemon.
//
//                 ./mbqd --aggregate --port=7000 \
//                        --shard=127.0.0.1:7001 --shard=127.0.0.1:7002
//
//   verify      Build the full dataset in-process as the reference
//               engine, run every Table 2 call (fixed anchors plus the
//               randomized differential call set) through the remote
//               topology, and compare results bit-for-bit (after the
//               canonical SortRows). Exit 0 on agreement, 1 on any
//               divergence.
//
//                 ./mbqd --verify --users=N --seed=S \
//                        --shard=127.0.0.1:7000 [--calls=M]
//
//   probe       Liveness-check one daemon. Tries the stats server's
//               /healthz endpoint first (cheap: no dataset hello, no
//               RPC dial); when the address is an RPC port, falls back
//               to the full hello + ping round trip.
//
//                 ./mbqd --probe=127.0.0.1:7001
//
// Every role honours MBQ_STATS_PORT (obs::MaybeServeFromEnv) and shard /
// aggregator additionally honour --serve[=PORT] for the embedded stats
// HTTP server (/ /metrics /metrics.json /queries /slow /trace).
//
// Exit status: 0 success, 1 verify divergence, 2 usage or startup error.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "bitmapstore/graph.h"
#include "core/engine.h"
#include "core/nodestore_engine.h"
#include "core/partition.h"
#include "core/remote_engine.h"
#include "core/shard_service.h"
#include "core/workload.h"
#include "cypher/session.h"
#include "nodestore/graph_db.h"
#include "obs/http_client.h"
#include "obs/httpd.h"
#include "obs/trace_context.h"
#include "rpc/server.h"
#include "storage/simulated_disk.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"
#include "util/rng.h"

namespace {

using mbq::Result;
using mbq::Rng;
using mbq::Status;

struct Args {
  enum class Role { kShard, kAggregate, kVerify, kProbe } role = Role::kShard;
  uint16_t port = 0;  // 0 = ephemeral, printed at startup
  uint32_t shards = 1;
  uint32_t shard_id = 0;
  uint64_t users = 20000;
  uint64_t seed = 42;
  std::string engine = "nodestore";  // nodestore|bitmap
  std::string partition = "hash";    // hash|range
  uint32_t threads = 1;
  int calls = 25;  // randomized verify calls
  bool serve = false;
  uint16_t serve_port = 0;
  std::string probe;  // --probe=H:P
  std::vector<std::string> shard_addresses;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: mbqd --port=N --shards=K --shard-id=I [options]      shard\n"
      "       mbqd --aggregate --port=N --shard=H:P [--shard=...]  "
      "aggregator\n"
      "       mbqd --verify --shard=H:P [--shard=...] [options]    verify\n"
      "       mbqd --probe=H:P                                     probe\n"
      "options:\n"
      "  --users=N --seed=S          dataset shape (default 20000 / 42)\n"
      "  --engine=nodestore|bitmap   shard engine (default nodestore)\n"
      "  --partition=hash|range      user partitioning (default hash)\n"
      "  --threads=T                 engine worker threads (default 1)\n"
      "  --calls=M                   randomized verify calls (default 25)\n"
      "  --serve[=PORT]              embedded stats HTTP server (/metrics,\n"
      "                              /metrics.json, /queries, /slow, /trace)\n"
      "environment: MBQ_STATS_PORT=P also starts the stats server\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--aggregate") {
      args->role = Args::Role::kAggregate;
    } else if (arg == "--verify") {
      args->role = Args::Role::kVerify;
    } else if (const char* v = value_of("--probe=")) {
      args->role = Args::Role::kProbe;
      args->probe = v;
    } else if (const char* v = value_of("--port=")) {
      args->port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--shards=")) {
      args->shards = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--shard-id=")) {
      args->shard_id = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--shard=")) {
      args->shard_addresses.emplace_back(v);
    } else if (const char* v = value_of("--users=")) {
      args->users = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--engine=")) {
      args->engine = v;
      if (args->engine != "nodestore" && args->engine != "bitmap") {
        std::fprintf(stderr, "unknown engine: %s\n", v);
        return false;
      }
    } else if (const char* v = value_of("--partition=")) {
      args->partition = v;
    } else if (const char* v = value_of("--threads=")) {
      args->threads = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--calls=")) {
      args->calls = std::atoi(v);
    } else if (const char* v = value_of("--serve=")) {
      args->serve = true;
      args->serve_port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--serve") {
      args->serve = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Shard and verify must build bit-identical datasets; one spec builder
/// keeps them honest.
mbq::twitter::DatasetSpec SpecFromArgs(const Args& args) {
  mbq::twitter::DatasetSpec spec;
  spec.num_users = args.users;
  spec.seed = args.seed;
  return spec;
}

/// Blocks until SIGINT/SIGTERM. The RPC and stats servers run their own
/// threads; the main thread just waits to tear them down.
void WaitForSignal() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  std::fprintf(stderr, "mbqd: caught signal %d, shutting down\n", sig);
}

std::unique_ptr<mbq::obs::StatsServer> MaybeServe(const Args& args) {
  std::unique_ptr<mbq::obs::StatsServer> server =
      mbq::obs::MaybeServeFromEnv();
  if (server != nullptr || !args.serve) return server;
  mbq::obs::ServeOptions options;
  options.port = args.serve_port;
  Result<std::unique_ptr<mbq::obs::StatsServer>> started =
      mbq::obs::StatsServer::Start(options);
  if (!started.ok()) {
    std::fprintf(stderr, "mbqd: stats server failed: %s\n",
                 started.status().message().c_str());
    return nullptr;
  }
  std::fprintf(stderr, "mbqd: stats server listening on http://%s:%u/\n",
               (*started)->bind_address().c_str(),
               static_cast<unsigned>((*started)->port()));
  return std::move(started).value();
}

int RunShard(const Args& args) {
  using namespace mbq;          // NOLINT(build/namespaces)
  using namespace mbq::core;    // NOLINT(build/namespaces)

  mbq::obs::SetProcessRole("shard-" + std::to_string(args.shard_id));
  Result<PartitionKind> kind = ParsePartitionKind(
      args.shards <= 1 ? "none" : args.partition);
  if (!kind.ok()) {
    std::fprintf(stderr, "mbqd: %s\n", kind.status().message().c_str());
    return 2;
  }
  if (args.shard_id >= args.shards) {
    std::fprintf(stderr, "mbqd: --shard-id=%u out of range (--shards=%u)\n",
                 args.shard_id, args.shards);
    return 2;
  }

  twitter::Dataset full = twitter::GenerateDataset(SpecFromArgs(args));
  Partitioner partitioner(*kind, args.shards, args.users);
  SliceCounts counts;
  twitter::Dataset slice =
      MakeShardSlice(full, partitioner, args.shard_id, &counts);
  std::fprintf(stderr,
               "mbqd: shard %u/%u (%s): %llu owned users, %llu tweets, "
               "%llu mentions, %llu tags (%llu cross-shard retweets "
               "dropped)\n",
               args.shard_id, args.shards, PartitionKindName(*kind),
               static_cast<unsigned long long>(counts.owned_users),
               static_cast<unsigned long long>(counts.tweets),
               static_cast<unsigned long long>(counts.mentions),
               static_cast<unsigned long long>(counts.tags),
               static_cast<unsigned long long>(counts.dropped_retweets));

  // In-memory stores with the instant disk profile: the daemon's job is
  // serving, not simulating device latency.
  std::unique_ptr<nodestore::GraphDb> db;
  std::unique_ptr<bitmapstore::Graph> graph;
  twitter::BitmapHandles bitmap_handles{};
  EngineOptions options;
  if (args.engine == "nodestore") {
    nodestore::GraphDbOptions ndb;
    ndb.disk_profile = storage::DiskProfile::Instant();
    db = std::make_unique<nodestore::GraphDb>(ndb);
    Result<twitter::NodestoreHandles> handles =
        twitter::LoadIntoNodestore(slice, db.get());
    if (!handles.ok()) {
      std::fprintf(stderr, "mbqd: load failed: %s\n",
                   handles.status().ToString().c_str());
      return 2;
    }
    options.db = db.get();
  } else {
    bitmapstore::GraphOptions bg;
    bg.disk_profile = storage::DiskProfile::Instant();
    graph = std::make_unique<bitmapstore::Graph>(bg);
    Result<twitter::BitmapHandles> handles =
        twitter::LoadIntoBitmapstore(slice, graph.get());
    if (!handles.ok()) {
      std::fprintf(stderr, "mbqd: load failed: %s\n",
                   handles.status().ToString().c_str());
      return 2;
    }
    bitmap_handles = *handles;
    options.graph = graph.get();
    options.handles = &bitmap_handles;
  }
  options.threads = args.threads;
  Result<std::unique_ptr<MicroblogEngine>> engine = OpenEngine(
      args.engine == "nodestore" ? EngineKind::kNodestore
                                 : EngineKind::kBitmap,
      options);
  if (!engine.ok()) {
    std::fprintf(stderr, "mbqd: engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 2;
  }

  rpc::HelloReply info;
  info.shard_id = args.shard_id;
  info.num_shards = args.shards;
  info.partition = static_cast<uint8_t>(*kind);
  info.num_users = args.users;
  info.engine = (*engine)->name();

  // Nodestore shards expose their CypherSession for remote mini-Cypher;
  // bitmap shards answer kQuery with NotImplemented.
  ShardService::QueryFn query_fn;
  if (args.engine == "nodestore") {
    auto* ns = static_cast<NodestoreEngine*>(engine->get());
    query_fn = [ns](const rpc::QueryRequest& req)
        -> Result<rpc::QueryReply> {
      cypher::QueryResult result;
      MBQ_ASSIGN_OR_RETURN(result, ns->session().Run(req.text));
      rpc::QueryReply reply;
      reply.columns = std::move(result.columns);
      reply.rows.reserve(result.rows.size());
      for (const cypher::Row& row : result.rows) {
        std::vector<common::Value> out;
        out.reserve(row.size());
        for (const cypher::RtValue& v : row) {
          // Scalars cross the wire typed; nodes/rels/paths carry
          // shard-local ids, so they are rendered to display strings.
          if (v.kind == cypher::RtValue::Kind::kValue) {
            out.push_back(v.value);
          } else if (v.kind == cypher::RtValue::Kind::kNull) {
            out.push_back(common::Value::Null());
          } else {
            out.push_back(common::Value::String(v.ToString()));
          }
        }
        reply.rows.push_back(std::move(out));
      }
      return reply;
    };
  }

  ShardService service(engine->get(), info, std::move(query_fn));
  rpc::RpcServer::Options server_options;
  server_options.port = args.port;
  Result<std::unique_ptr<rpc::RpcServer>> server = rpc::RpcServer::Start(
      server_options,
      [&service](const rpc::Frame& request) { return service.Handle(request); });
  if (!server.ok()) {
    std::fprintf(stderr, "mbqd: %s\n", server.status().message().c_str());
    return 2;
  }
  std::unique_ptr<mbq::obs::StatsServer> stats = MaybeServe(args);
  // cluster_local.sh greps this exact line for the resolved port.
  std::fprintf(stderr, "mbqd: shard %u listening on 127.0.0.1:%u\n",
               args.shard_id, static_cast<unsigned>((*server)->port()));
  WaitForSignal();
  return 0;
}

int RunAggregator(const Args& args) {
  using namespace mbq;        // NOLINT(build/namespaces)
  using namespace mbq::core;  // NOLINT(build/namespaces)

  mbq::obs::SetProcessRole("aggregator");
  if (args.shard_addresses.empty()) {
    std::fprintf(stderr, "mbqd: --aggregate needs at least one --shard=\n");
    return 2;
  }
  EngineOptions options;
  options.shard_addresses = args.shard_addresses;
  // Shards may still be loading their slice; retry the dial for ~30s.
  Result<std::unique_ptr<MicroblogEngine>> engine =
      Status::Internal("unreached");
  for (int attempt = 0; attempt < 120; ++attempt) {
    engine = OpenEngine(EngineKind::kRemote, options);
    if (engine.ok() || !engine.status().IsIoError()) break;
    struct timespec ts = {0, 250 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  if (!engine.ok()) {
    std::fprintf(stderr, "mbqd: cannot reach shards: %s\n",
                 engine.status().ToString().c_str());
    return 2;
  }
  auto* remote = static_cast<RemoteEngine*>(engine->get());
  std::fprintf(stderr, "mbqd: aggregating %u shards (%s partition)\n",
               remote->num_shards(),
               PartitionKindName(remote->partitioner().kind()));

  // The aggregator answers hello as one unpartitioned shard: clients —
  // including another RemoteEngine — need not know they are talking to
  // a fan-out plane rather than a whole-dataset daemon.
  rpc::HelloReply info;
  info.shard_id = 0;
  info.num_shards = 1;
  info.partition = static_cast<uint8_t>(PartitionKind::kNone);
  info.num_users = remote->partitioner().num_users();
  info.engine = "aggregator(" + std::to_string(remote->num_shards()) + ")";

  ShardService service(
      engine->get(), info,
      [remote](const rpc::QueryRequest& req) { return remote->Query(req); });
  rpc::RpcServer::Options server_options;
  server_options.port = args.port;
  Result<std::unique_ptr<rpc::RpcServer>> server = rpc::RpcServer::Start(
      server_options,
      [&service](const rpc::Frame& request) { return service.Handle(request); });
  if (!server.ok()) {
    std::fprintf(stderr, "mbqd: %s\n", server.status().message().c_str());
    return 2;
  }
  std::unique_ptr<mbq::obs::StatsServer> stats = MaybeServe(args);
  std::fprintf(stderr, "mbqd: aggregator listening on 127.0.0.1:%u\n",
               static_cast<unsigned>((*server)->port()));
  WaitForSignal();
  return 0;
}

int RunVerify(const Args& args) {
  using namespace mbq;        // NOLINT(build/namespaces)
  using namespace mbq::core;  // NOLINT(build/namespaces)

  mbq::obs::SetProcessRole("verify");
  if (args.shard_addresses.empty()) {
    std::fprintf(stderr, "mbqd: --verify needs at least one --shard=\n");
    return 2;
  }

  // Reference: the full dataset in one local nodestore engine.
  twitter::Dataset full = twitter::GenerateDataset(SpecFromArgs(args));
  nodestore::GraphDbOptions ndb;
  ndb.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(ndb);
  Result<twitter::NodestoreHandles> handles =
      twitter::LoadIntoNodestore(full, &db);
  if (!handles.ok()) {
    std::fprintf(stderr, "mbqd: reference load failed: %s\n",
                 handles.status().ToString().c_str());
    return 2;
  }
  EngineOptions local_options;
  local_options.db = &db;
  Result<std::unique_ptr<MicroblogEngine>> local =
      OpenEngine(EngineKind::kNodestore, local_options);
  if (!local.ok()) {
    std::fprintf(stderr, "mbqd: reference engine failed: %s\n",
                 local.status().ToString().c_str());
    return 2;
  }

  // Candidate: the remote topology (shards directly, or one aggregator).
  EngineOptions remote_options;
  remote_options.shard_addresses = args.shard_addresses;
  Result<std::unique_ptr<MicroblogEngine>> remote =
      Status::Internal("unreached");
  for (int attempt = 0; attempt < 120; ++attempt) {
    remote = OpenEngine(EngineKind::kRemote, remote_options);
    if (remote.ok() || !remote.status().IsIoError()) break;
    struct timespec ts = {0, 250 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  if (!remote.ok()) {
    std::fprintf(stderr, "mbqd: cannot reach shards: %s\n",
                 remote.status().ToString().c_str());
    return 2;
  }

  int failures = 0;
  auto expect_rows = [&](Result<ValueRows> want, Result<ValueRows> got,
                         const std::string& what) {
    if (!want.ok() || !got.ok()) {
      // NotFound-vs-NotFound is agreement (e.g. unknown hashtag).
      if (want.status().code() == got.status().code()) return;
      ++failures;
      std::fprintf(stderr, "mbqd: DIVERGED %s: local=%s remote=%s\n",
                   what.c_str(), want.status().ToString().c_str(),
                   got.status().ToString().c_str());
      return;
    }
    SortRows(&*want);
    SortRows(&*got);
    if (*want != *got) {
      ++failures;
      std::fprintf(stderr,
                   "mbqd: DIVERGED %s: local %zu rows, remote %zu rows\n",
                   what.c_str(), want->size(), got->size());
    }
  };

  MicroblogEngine& ref = **local;
  MicroblogEngine& agg = **remote;
  const int64_t num_users = static_cast<int64_t>(full.users.size());
  const int64_t kAll = int64_t{1} << 30;

  // Fixed sweep: every call once with representative anchors.
  auto by_mentions = UsersByMentionCount(full);
  int64_t hot = by_mentions.empty() ? 0 : by_mentions.back().second;
  auto tags = HashtagsByUse(full);
  expect_rows(ref.SelectUsersByFollowerCount(10),
              agg.SelectUsersByFollowerCount(10), "Q1.1");
  for (int64_t uid : {int64_t{0}, num_users / 2}) {
    std::string at = "@" + std::to_string(uid);
    expect_rows(ref.FolloweesOf(uid), agg.FolloweesOf(uid), "Q2.1" + at);
    expect_rows(ref.TweetsOfFollowees(uid), agg.TweetsOfFollowees(uid),
                "Q2.2" + at);
    expect_rows(ref.HashtagsUsedByFollowees(uid),
                agg.HashtagsUsedByFollowees(uid), "Q2.3" + at);
    expect_rows(ref.RecommendFolloweesOfFollowees(uid, kAll),
                agg.RecommendFolloweesOfFollowees(uid, kAll), "Q4.1" + at);
    expect_rows(ref.RecommendFollowersOfFollowees(uid, kAll),
                agg.RecommendFollowersOfFollowees(uid, kAll), "Q4.2" + at);
  }
  expect_rows(ref.TopCoMentionedUsers(hot, kAll),
              agg.TopCoMentionedUsers(hot, kAll), "Q3.1");
  if (!tags.empty()) {
    expect_rows(ref.TopCoOccurringHashtags(tags.back().second, kAll),
                agg.TopCoOccurringHashtags(tags.back().second, kAll),
                "Q3.2");
  }
  expect_rows(ref.CurrentInfluence(hot, kAll), agg.CurrentInfluence(hot, kAll),
              "Q5.1");
  expect_rows(ref.PotentialInfluence(hot, kAll),
              agg.PotentialInfluence(hot, kAll), "Q5.2");

  // Randomized sweep: the differential test's call mix.
  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  for (int call = 0; call < args.calls; ++call) {
    std::string label = "call#" + std::to_string(call);
    int64_t uid = static_cast<int64_t>(rng.NextBounded(num_users));
    switch (rng.NextBounded(11)) {
      case 0: {
        int64_t threshold = static_cast<int64_t>(rng.NextBounded(30));
        expect_rows(ref.SelectUsersByFollowerCount(threshold),
                    agg.SelectUsersByFollowerCount(threshold),
                    label + " Q1.1");
        break;
      }
      case 1:
        expect_rows(ref.FolloweesOf(uid), agg.FolloweesOf(uid),
                    label + " Q2.1");
        break;
      case 2:
        expect_rows(ref.TweetsOfFollowees(uid), agg.TweetsOfFollowees(uid),
                    label + " Q2.2");
        break;
      case 3:
        expect_rows(ref.HashtagsUsedByFollowees(uid),
                    agg.HashtagsUsedByFollowees(uid), label + " Q2.3");
        break;
      case 4:
        expect_rows(ref.TopCoMentionedUsers(uid, kAll),
                    agg.TopCoMentionedUsers(uid, kAll), label + " Q3.1");
        break;
      case 5: {
        std::string tag = tags.empty()
                              ? "missing"
                              : tags[rng.NextBounded(tags.size())].second;
        expect_rows(ref.TopCoOccurringHashtags(tag, kAll),
                    agg.TopCoOccurringHashtags(tag, kAll), label + " Q3.2");
        break;
      }
      case 6:
        expect_rows(ref.RecommendFolloweesOfFollowees(uid, kAll),
                    agg.RecommendFolloweesOfFollowees(uid, kAll),
                    label + " Q4.1");
        break;
      case 7:
        expect_rows(ref.RecommendFollowersOfFollowees(uid, kAll),
                    agg.RecommendFollowersOfFollowees(uid, kAll),
                    label + " Q4.2");
        break;
      case 8:
        expect_rows(ref.CurrentInfluence(uid, kAll),
                    agg.CurrentInfluence(uid, kAll), label + " Q5.1");
        break;
      case 9:
        expect_rows(ref.PotentialInfluence(uid, kAll),
                    agg.PotentialInfluence(uid, kAll), label + " Q5.2");
        break;
      case 10: {
        int64_t b = static_cast<int64_t>(rng.NextBounded(num_users));
        Result<int64_t> want = ref.ShortestPathLength(uid, b, 3);
        Result<int64_t> got = agg.ShortestPathLength(uid, b, 3);
        if (!want.ok() || !got.ok() || *want != *got) {
          ++failures;
          std::fprintf(stderr, "mbqd: DIVERGED %s Q6.1 %lld->%lld\n",
                       label.c_str(), static_cast<long long>(uid),
                       static_cast<long long>(b));
        }
        break;
      }
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "mbqd: verify FAILED: %d divergent calls\n",
                 failures);
    return 1;
  }
  std::fprintf(stderr,
               "mbqd: verify OK: remote agrees with the single-process "
               "engine on all calls (users=%llu seed=%llu)\n",
               static_cast<unsigned long long>(args.users),
               static_cast<unsigned long long>(args.seed));
  return 0;
}

int RunProbe(const Args& args) {
  using namespace mbq;        // NOLINT(build/namespaces)
  using namespace mbq::core;  // NOLINT(build/namespaces)

  Result<RemoteEngine::ShardAddress> addr = ParseShardAddress(args.probe);
  if (!addr.ok()) {
    std::fprintf(stderr, "mbqd: %s\n", addr.status().message().c_str());
    return 2;
  }
  // Prefer the stats server's liveness endpoint: it answers without a
  // dataset hello or an RPC dial. An RPC port rejects the HTTP bytes
  // immediately (bad frame magic), so the fallback is fast.
  std::string health;
  if (mbq::obs::HttpGet(addr->host, addr->port, "/healthz", &health)) {
    std::fwrite(health.data(), 1, health.size(), stdout);
    return 0;
  }
  rpc::RpcClient::Options options;
  options.host = addr->host;
  options.port = addr->port;
  options.timeout_millis = 5000;
  Result<std::unique_ptr<rpc::RpcClient>> client =
      rpc::RpcClient::Connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "mbqd: %s\n", client.status().ToString().c_str());
    return 2;
  }
  const rpc::HelloReply& info = (*client)->server_info();
  Status pinged = (*client)->Ping();
  std::printf(
      "shard %u/%u partition=%s users=%llu engine=\"%s\" ping=%s\n",
      info.shard_id, info.num_shards,
      PartitionKindName(static_cast<PartitionKind>(info.partition)),
      static_cast<unsigned long long>(info.num_users), info.engine.c_str(),
      pinged.ok() ? "ok" : pinged.ToString().c_str());
  return pinged.ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  switch (args.role) {
    case Args::Role::kShard: return RunShard(args);
    case Args::Role::kAggregate: return RunAggregator(args);
    case Args::Role::kVerify: return RunVerify(args);
    case Args::Role::kProbe: return RunProbe(args);
  }
  return 2;
}
