// checkdb — storage fsck for both engines (src/core/check.h).
//
// Generates a microblog graph, loads it into the selected engine(s),
// optionally injects a storage fault, then walks every structural
// invariant the engines maintain: relationship-chain consistency,
// record-pointer bounds and index completeness in the record store;
// bitmap cardinalities, object-table agreement and mutual src/dst
// adjacency in the bitmap store.
//
// A third section exercises the live write path (docs/WRITES.md): it
// opens a writable engine over the same crawl, drives a scripted churn
// of follows/unfollows/posts/mentions through the WAL, then decodes the
// WAL independently — the one record of committed writes — and checks the
// writer against it: fresh-tid sanity, commit counters equal to what the
// log holds, and read-back visibility of every touched pair.
//
//   ./checkdb [options]
//     --engine=nodestore|bitmapstore|both   engines to check (both)
//     --users=N                             graph size (500)
//     --partitioned                         nodestore semantic partitioning
//     --max-issues=N                        issues materialized (64)
//     --no-writes                           skip the write-path section
//     --corrupt=FAULT                       inject a fault first:
//         rel-chain     nodestore: point a chain pointer at its own record
//         type-count    bitmapstore: skew a cached type count by +3
//         adjacency     bitmapstore: phantom edge in an adjacency bitmap
//         wal-tail      write path: garbage bytes appended to the WAL
//     --metrics                             print the check.* metric snapshot
//     --serve[=PORT]                        embedded stats server (/metrics,
//                                           /queries, /slow, /trace) while
//                                           the check runs
//
// Exit status: 0 when every checked store is clean, 1 when corruption
// was found, 2 on usage or load errors.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/check.h"
#include "core/engine.h"
#include "obs/httpd.h"
#include "obs/metrics.h"
#include "store/delta/wal.h"
#include "store/delta/write_batch.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"

namespace {

struct Args {
  bool nodestore = true;
  bool bitmapstore = true;
  uint64_t users = 500;
  bool partitioned = false;
  bool write_path = true;
  size_t max_issues = 64;
  std::string corrupt;  // empty = none
  bool metrics = false;
  bool serve = false;
  uint16_t serve_port = 0;  // 0 = ephemeral
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--engine=")) {
      args->nodestore = std::string(v) != "bitmapstore";
      args->bitmapstore = std::string(v) != "nodestore";
      if (std::string(v) != "nodestore" && std::string(v) != "bitmapstore" &&
          std::string(v) != "both") {
        std::fprintf(stderr, "unknown engine: %s\n", v);
        return false;
      }
    } else if (const char* v = value_of("--users=")) {
      args->users = std::strtoull(v, nullptr, 10);
      if (args->users < 10) args->users = 10;
    } else if (const char* v = value_of("--max-issues=")) {
      args->max_issues = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--corrupt=")) {
      args->corrupt = v;
      if (args->corrupt != "rel-chain" && args->corrupt != "type-count" &&
          args->corrupt != "adjacency" && args->corrupt != "wal-tail") {
        std::fprintf(stderr, "unknown fault: %s\n", v);
        return false;
      }
    } else if (const char* v = value_of("--serve=")) {
      char* end = nullptr;
      unsigned long port = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || port > 65535) {
        std::fprintf(stderr, "bad --serve port: %s\n", v);
        return false;
      }
      args->serve = true;
      args->serve_port = static_cast<uint16_t>(port);
    } else if (arg == "--serve") {
      args->serve = true;
    } else if (arg == "--partitioned") {
      args->partitioned = true;
    } else if (arg == "--no-writes") {
      args->write_path = false;
    } else if (arg == "--metrics") {
      args->metrics = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Points an in-use relationship's src_next at its own record: the chain
// walk cycles and the doubly-linked invariant breaks.
mbq::Status BreakRelChain(mbq::nodestore::GraphDb* db) {
  mbq::nodestore::RelId victim = mbq::nodestore::kInvalidRel;
  mbq::nodestore::RelRecord victim_rec;
  MBQ_RETURN_IF_ERROR(db->ForEachRawRel(
      [&](mbq::nodestore::RelId id, const mbq::nodestore::RelRecord& rec) {
        if (!rec.in_use || rec.src == rec.dst) return true;
        victim = id;
        victim_rec = rec;
        return false;
      }));
  if (victim == mbq::nodestore::kInvalidRel) {
    return mbq::Status::NotFound("no relationship to corrupt");
  }
  victim_rec.src_next = victim;
  std::printf("injected fault: rel %llu src_next -> itself\n",
              static_cast<unsigned long long>(victim));
  return db->RawPutRelRecord(victim, victim_rec);
}

// Adds an existing follows edge to its head's *outgoing* adjacency — the
// edge's tail is someone else, so the mutual-agreement pass flags it.
mbq::Status BreakAdjacency(mbq::bitmapstore::Graph* graph,
                           mbq::bitmapstore::TypeId follows) {
  MBQ_ASSIGN_OR_RETURN(mbq::bitmapstore::Objects edges,
                       graph->Select(follows));
  for (mbq::bitmapstore::Oid edge : edges.ToVector()) {
    mbq::bitmapstore::Oid tail = mbq::bitmapstore::kInvalidOid;
    mbq::bitmapstore::Oid head = mbq::bitmapstore::kInvalidOid;
    graph->RawEdgeEndpoints(edge, &tail, &head);
    if (tail == head) continue;
    graph->CorruptAdjacencyForTest(follows, head, edge);
    std::printf("injected fault: edge %u added to node %u's outgoing "
                "adjacency\n",
                edge, head);
    return mbq::Status::OK();
  }
  return mbq::Status::NotFound("no edge to corrupt");
}

// Scripted churn for the write-path section: every typed op kind, including
// tombstones over both freshly created and bulk-loaded follows edges,
// plus one packed batch — deterministic, so reruns check the same graph.
mbq::Status DriveScriptedChurn(mbq::core::WritableEngine* writer,
                               const mbq::twitter::Dataset& dataset) {
  const int64_t users = static_cast<int64_t>(dataset.users.size());
  const int64_t tweets = static_cast<int64_t>(dataset.tweets.size());
  auto pair = [users](int64_t i) {
    int64_t src = i % users;
    int64_t dst = (i * 7 + 1) % users;
    if (dst == src) dst = (dst + 1) % users;
    return std::make_pair(src, dst);
  };
  for (int64_t i = 0; i < 40; ++i) {
    auto [src, dst] = pair(i);
    MBQ_RETURN_IF_ERROR(writer->Follow(src, dst));
  }
  for (int64_t i = 0; i < 10; ++i) {
    MBQ_RETURN_IF_ERROR(
        writer->PostTweet(i % users, "checkdb tweet " + std::to_string(i)));
    if (tweets > 0) {
      MBQ_RETURN_IF_ERROR(writer->AddMention(i % tweets, (i * 3 + 2) % users));
    }
  }
  for (int64_t i = 0; i < 10; ++i) {  // tombstone just-created edges
    auto [src, dst] = pair(i);
    MBQ_RETURN_IF_ERROR(writer->Unfollow(src, dst));
  }
  for (size_t i = 0; i < 5 && i < dataset.follows.size(); ++i) {
    MBQ_RETURN_IF_ERROR(  // tombstone bulk-loaded edges
        writer->Unfollow(dataset.follows[i].first, dataset.follows[i].second));
  }
  // A packed batch: group commits share the single-op path.
  mbq::store::WriteBatch batch;
  batch.PostTweet(0, "checkdb group commit").Follow(0, 1 % users);
  return writer->Commit(std::move(batch));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  std::unique_ptr<mbq::obs::StatsServer> stats;
  if (args.serve) {
    mbq::obs::ServeOptions serve_options;
    serve_options.port = args.serve_port;
    auto server = mbq::obs::StatsServer::Start(serve_options);
    if (!server.ok()) {
      std::fprintf(stderr, "stats server failed to start: %s\n",
                   server.status().message().c_str());
      return 2;
    }
    stats = std::move(server).value();
    std::fprintf(stderr, "stats server listening on http://%s:%u/\n",
                 stats->bind_address().c_str(),
                 static_cast<unsigned>(stats->port()));
  } else {
    stats = mbq::obs::MaybeServeFromEnv();
  }

  std::printf("generating a %llu-user microblog graph...\n",
              static_cast<unsigned long long>(args.users));
  mbq::twitter::DatasetSpec spec;
  spec.num_users = args.users;
  spec.retweet_fraction = 0.15;
  auto dataset = mbq::twitter::GenerateDataset(spec);

  mbq::core::CheckOptions options;
  options.max_issues = args.max_issues;
  int corrupt_stores = 0;

  if (args.nodestore) {
    mbq::nodestore::GraphDbOptions db_options;
    db_options.semantic_partitioning = args.partitioned;
    mbq::nodestore::GraphDb db(db_options);
    auto handles = mbq::twitter::LoadIntoNodestore(dataset, &db);
    if (!handles.ok()) {
      std::fprintf(stderr, "nodestore load failed: %s\n",
                   handles.status().ToString().c_str());
      return 2;
    }
    if (args.corrupt == "rel-chain") {
      auto st = BreakRelChain(&db);
      if (!st.ok()) {
        std::fprintf(stderr, "fault injection failed: %s\n",
                     st.ToString().c_str());
        return 2;
      }
    }
    auto report = mbq::core::CheckNodestore(&db, options);
    if (!report.ok()) {
      std::fprintf(stderr, "nodestore check failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    std::printf("--- nodestore%s ---\n%s",
                args.partitioned ? " (partitioned)" : "",
                report->ToText().c_str());
    if (!report->ok()) ++corrupt_stores;
  }

  if (args.bitmapstore) {
    mbq::bitmapstore::Graph graph;
    auto handles = mbq::twitter::LoadIntoBitmapstore(dataset, &graph);
    if (!handles.ok()) {
      std::fprintf(stderr, "bitmapstore load failed: %s\n",
                   handles.status().ToString().c_str());
      return 2;
    }
    if (args.corrupt == "type-count") {
      graph.CorruptTypeCountForTest(handles->user, 3);
      std::printf("injected fault: user type count skewed by +3\n");
    } else if (args.corrupt == "adjacency") {
      auto st = BreakAdjacency(&graph, handles->follows);
      if (!st.ok()) {
        std::fprintf(stderr, "fault injection failed: %s\n",
                     st.ToString().c_str());
        return 2;
      }
    }
    auto report = mbq::core::CheckBitmapstore(&graph, options);
    if (!report.ok()) {
      std::fprintf(stderr, "bitmapstore check failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    std::printf("--- bitmapstore ---\n%s", report->ToText().c_str());
    if (!report->ok()) ++corrupt_stores;
  }

  if (args.write_path) {
    char wal_template[] = "/tmp/checkdb-wal-XXXXXX";
    char* wal_dir = ::mkdtemp(wal_template);
    if (wal_dir == nullptr) {
      std::fprintf(stderr, "cannot create a WAL scratch directory\n");
      return 2;
    }
    auto cleanup = [&] { std::filesystem::remove_all(wal_dir); };
    mbq::nodestore::GraphDb db;
    auto handles = mbq::twitter::LoadIntoNodestore(dataset, &db);
    if (!handles.ok()) {
      std::fprintf(stderr, "write-path load failed: %s\n",
                   handles.status().ToString().c_str());
      cleanup();
      return 2;
    }
    mbq::core::EngineOptions engine_options;
    engine_options.db = &db;
    engine_options.enable_writes = true;
    engine_options.dataset = &dataset;
    engine_options.wal_dir = wal_dir;
    auto engine = mbq::core::OpenEngine(mbq::core::EngineKind::kNodestore,
                                        engine_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "write-path engine failed: %s\n",
                   engine.status().ToString().c_str());
      cleanup();
      return 2;
    }
    mbq::core::WritableEngine* writer = (*engine)->AsWritable();
    auto churned = DriveScriptedChurn(writer, dataset);
    if (!churned.ok()) {
      std::fprintf(stderr, "write-path churn failed: %s\n",
                   churned.ToString().c_str());
      cleanup();
      return 2;
    }
    if (args.corrupt == "wal-tail") {
      std::ofstream tail(writer->wal()->path(),
                         std::ios::binary | std::ios::app);
      tail << "garbage: not a wal record";
      std::printf("injected fault: garbage bytes appended to the WAL tail\n");
    }
    auto report = mbq::core::CheckWritePath(**engine, dataset, options);
    if (!report.ok()) {
      std::fprintf(stderr, "write-path check failed: %s\n",
                   report.status().ToString().c_str());
      cleanup();
      return 2;
    }
    std::printf("--- write path (delta over nodestore) ---\n%s",
                report->ToText().c_str());
    if (!report->ok()) ++corrupt_stores;
    cleanup();
  }

  if (args.metrics) {
    std::printf("%s",
                mbq::obs::MetricsRegistry::Default().Snapshot().ToText()
                    .c_str());
  }
  return corrupt_stores > 0 ? 1 : 0;
}
