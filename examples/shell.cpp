// Interactive mini-Cypher shell over a generated microblog graph,
// opened through the engine API with live writes enabled.
//
//   ./shell [num_users] [wal_dir]
//
// Reads one query per line from stdin and prints rows. CREATE and
// DELETE queries lower to WriteBatch ops and commit through the engine's
// writer, like the typed commands (docs/WRITES.md, "Cypher writes"); SET
// is refused. Passing `wal_dir` makes every commit durable.
// Queries may be prefixed with the PROFILE verb (run and print the
// operator tree with per-operator rows and db hits), EXPLAIN (print the
// plan shape without running), or LINT (semantic analysis only).
// Dot-commands:
//   :help              this text
//   :profile <query>   alias for the PROFILE prefix
//   :lint <query>      alias for the LINT prefix (semantic diagnostics)
//   :stats             database counters (nodes, rels, db hits)
//   :writes            write-path counters (commits, WAL, next tid)
//   :post <uid> <txt>  typed write: post a tweet for <uid> (W1.1)
//   :follow <a> <b>    typed write: <a> follows <b> (W2.1)
//   :unfollow <a> <b>  typed write: tombstone the edge (W2.2)
//   :metrics           full observability snapshot (docs/OBSERVABILITY.md)
//   :metrics <prefix>  only metrics whose name starts with <prefix>
//   :slow              slow-query flight recorder (threshold via
//                      MBQ_SLOW_QUERY_MILLIS, default 50 ms)
//   :slow clear        empty the flight recorder
//   :serve [port]      start the embedded stats server (/metrics,
//                      /metrics.json, /queries, /slow, /trace); no port
//                      picks an ephemeral one
//   :cache             read-cache stats (result + adjacency)
//   :cache on|off      enable/disable both read caches
//   :cache clear       empty the read caches (keeps them enabled)
//   :cold              drop the page cache (next query runs cold)
//   :quit              exit
//
// Example session:
//   mbq> MATCH (u:user) WHERE u.followers_count > 50 RETURN u.uid LIMIT 5
//   mbq> PROFILE MATCH (a:user {uid: 7})-[:follows]->(f:user) RETURN f.uid
//   mbq> MATCH (a:user {uid: 7}), (b:user {uid: 9}) CREATE (a)-[:follows]->(b)
//   mbq> :follow 7 11

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "core/nodestore_engine.h"
#include "core/workload.h"
#include "cypher/session.h"
#include "obs/httpd.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "store/delta/delta_store.h"
#include "store/delta/wal.h"
#include "twitter/loaders.h"
#include "util/string_util.h"

namespace {

/// Snapshot restricted to metric names starting with `prefix` (":metrics
/// cypher." shows just the query-layer counters).
mbq::obs::MetricsSnapshot FilterByPrefix(mbq::obs::MetricsSnapshot snapshot,
                                         const std::string& prefix) {
  auto drop = [&](auto* rows) {
    rows->erase(std::remove_if(rows->begin(), rows->end(),
                               [&](const auto& row) {
                                 return row.name.compare(0, prefix.size(),
                                                         prefix) != 0;
                               }),
                rows->end());
  };
  drop(&snapshot.counters);
  drop(&snapshot.gauges);
  drop(&snapshot.histograms);
  return snapshot;
}

void PrintResult(const mbq::cypher::QueryResult& result, bool with_profile) {
  if (result.lint_only) {
    if (result.rows.empty()) {
      std::printf("no diagnostics\n");
    } else {
      std::printf("%s", result.profile.c_str());
    }
    return;
  }
  if (result.explain_only) {
    std::printf("compiled plan (not executed):\n%s", result.profile.c_str());
    return;
  }
  std::string header;
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (i > 0) header += " | ";
    header += result.columns[i];
  }
  std::printf("%s\n", header.c_str());
  std::printf("%s\n", std::string(header.size(), '-').c_str());
  size_t shown = 0;
  for (const auto& row : result.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += row[i].ToString();
    }
    std::printf("%s\n", line.c_str());
    if (++shown >= 50) {
      std::printf("... (%zu more rows)\n", result.rows.size() - shown);
      break;
    }
  }
  std::printf("%zu row(s), %llu db hits%s\n", result.rows.size(),
              static_cast<unsigned long long>(result.db_hits),
              result.plan_cached ? " (plan cached)" : "");
  if (with_profile) {
    std::printf("\n%s", result.profile.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t num_users = 2000;
  if (argc > 1) {
    num_users = std::strtoull(argv[1], nullptr, 10);
    if (num_users < 10) num_users = 10;
  }
  std::string wal_dir;
  if (argc > 2) wal_dir = argv[2];
  std::printf("generating a %llu-user microblog graph...\n",
              static_cast<unsigned long long>(num_users));
  mbq::twitter::DatasetSpec spec;
  spec.num_users = num_users;
  spec.retweet_fraction = 0.15;
  auto dataset = mbq::twitter::GenerateDataset(spec);

  mbq::nodestore::GraphDb db;
  auto handles = mbq::twitter::LoadIntoNodestore(dataset, &db);
  if (!handles.ok()) {
    std::printf("load failed: %s\n", handles.status().ToString().c_str());
    return 1;
  }

  // The engine API rather than a bare CypherSession: writes enabled, so
  // CREATE/DELETE queries and the typed :post/:follow/:unfollow commands
  // commit through the same writer. A replayed WAL (second run with the
  // same wal_dir) restores earlier live writes, Cypher ones included.
  mbq::core::EngineOptions engine_options;
  engine_options.db = &db;
  engine_options.enable_writes = true;
  engine_options.dataset = &dataset;
  engine_options.wal_dir = wal_dir;
  auto engine =
      mbq::core::OpenEngine(mbq::core::EngineKind::kNodestore, engine_options);
  if (!engine.ok()) {
    std::printf("engine open failed: %s\n",
                engine.status().ToString().c_str());
    return 1;
  }
  auto* ns = static_cast<mbq::core::NodestoreEngine*>(engine->get());
  mbq::core::WritableEngine* writer = ns->AsWritable();

  std::string durability = wal_dir.empty()
                               ? "no WAL — pass a wal_dir to persist"
                               : "wal_dir=" + wal_dir;
  std::printf(
      "loaded %llu nodes / %llu relationships "
      "(schema: user/tweet/hashtag; follows/posts/retweets/mentions/tags)\n"
      "live writes enabled (%s); type :help for commands\n",
      static_cast<unsigned long long>(db.NumNodes()),
      static_cast<unsigned long long>(db.NumRels()), durability.c_str());
  if (writer != nullptr && writer->delta().batches() > 0) {
    std::printf("replayed %llu committed batch(es) from the WAL\n",
                static_cast<unsigned long long>(writer->delta().batches()));
  }

  mbq::cypher::CypherSession& session = ns->session();
  // MBQ_STATS_PORT serves /metrics etc. for the whole session; :serve
  // starts the same server interactively.
  std::unique_ptr<mbq::obs::StatsServer> stats = mbq::obs::MaybeServeFromEnv();
  std::string line;
  while (true) {
    std::printf("mbq> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = mbq::TrimString(line);
    if (trimmed.empty()) continue;
    if (trimmed == ":quit" || trimmed == ":exit") break;
    if (trimmed == ":help") {
      std::printf(
          "PROFILE <query>   run and print the operator tree with db hits\n"
          "EXPLAIN <query>   print the compiled plan without running it\n"
          "LINT <query>      semantic diagnostics only (never executes)\n"
          ":profile <query>  alias for the PROFILE prefix\n"
          ":lint <query>     alias for the LINT prefix\n"
          ":stats            database counters\n"
          ":writes           write-path counters (commits, WAL)\n"
          ":post <uid> <txt> typed write: post a tweet for <uid>\n"
          ":follow <a> <b>   typed write: <a> follows <b>\n"
          ":unfollow <a> <b> typed write: remove the follows edge\n"
          ":metrics          full observability snapshot\n"
          ":metrics <prefix> only metrics starting with <prefix>, e.g. "
          ":metrics cypher.\n"
          ":slow             slow-query flight recorder (:slow clear to "
          "empty)\n"
          ":serve [port]     start the embedded stats server "
          "(/metrics, /metrics.json, /queries, /slow, /trace)\n"
          ":cache            read-cache stats (result + adjacency)\n"
          ":cache on|off     enable/disable both read caches\n"
          ":cache clear      empty the read caches\n"
          ":cold             drop the page cache\n"
          ":quit             exit\n"
          "anything else is parsed as a mini-Cypher query — reads and\n"
          "writes, e.g.\n"
          "  MATCH (u:user) WHERE u.followers_count > 50 "
          "RETURN u.uid LIMIT 5\n"
          "  MATCH (a:user {uid: 7}), (b:user {uid: 9}) "
          "CREATE (a)-[:follows]->(b)\n"
          "writes lower to WriteBatch ops: CREATE of :follows, :posts,\n"
          ":mentions, :tags, :retweets and (:user {uid}), DELETE of a\n"
          "matched :follows; SET and node DELETE are refused\n");
      continue;
    }
    if (trimmed == ":metrics" || mbq::StartsWith(trimmed, ":metrics ")) {
      auto snapshot = mbq::obs::MetricsRegistry::Default().Snapshot();
      if (trimmed != ":metrics") {
        std::string prefix(mbq::TrimString(trimmed.substr(9)));
        snapshot = FilterByPrefix(std::move(snapshot), prefix);
        if (snapshot.counters.empty() && snapshot.gauges.empty() &&
            snapshot.histograms.empty()) {
          std::printf("no metrics with prefix \"%s\"\n", prefix.c_str());
          continue;
        }
      }
      std::printf("%s", snapshot.ToText().c_str());
      continue;
    }
    if (trimmed == ":slow") {
      std::printf("%s", mbq::obs::FlightRecorder::Global().ToText().c_str());
      continue;
    }
    if (trimmed == ":slow clear") {
      mbq::obs::FlightRecorder::Global().Clear();
      std::printf("flight recorder cleared\n");
      continue;
    }
    if (trimmed == ":serve" || mbq::StartsWith(trimmed, ":serve ")) {
      if (stats != nullptr) {
        std::printf("stats server already on http://%s:%u/\n",
                    stats->bind_address().c_str(),
                    static_cast<unsigned>(stats->port()));
        continue;
      }
      mbq::obs::ServeOptions serve_options;
      if (trimmed != ":serve") {
        unsigned long port = std::strtoul(
            std::string(mbq::TrimString(trimmed.substr(7))).c_str(), nullptr,
            10);
        if (port > 65535) {
          std::printf("bad port\n");
          continue;
        }
        serve_options.port = static_cast<uint16_t>(port);
      }
      auto server = mbq::obs::StatsServer::Start(serve_options);
      if (!server.ok()) {
        std::printf("stats server failed: %s\n",
                    server.status().message().c_str());
        continue;
      }
      stats = std::move(server).value();
      std::printf("stats server listening on http://%s:%u/\n",
                  stats->bind_address().c_str(),
                  static_cast<unsigned>(stats->port()));
      continue;
    }
    if (trimmed == ":stats") {
      std::printf("nodes=%llu rels=%llu db_hits=%llu disk=%llu bytes\n",
                  static_cast<unsigned long long>(db.NumNodes()),
                  static_cast<unsigned long long>(db.NumRels()),
                  static_cast<unsigned long long>(db.db_hits()),
                  static_cast<unsigned long long>(db.DiskSizeBytes()));
      continue;
    }
    if (trimmed == ":writes") {
      if (writer == nullptr) {
        std::printf("engine is read-only\n");
        continue;
      }
      const mbq::store::DeltaStore& delta = writer->delta();
      std::printf(
          "commits: %llu batch(es), %llu op(s), %llu tombstone(s), "
          "last_seq=%llu next_tid=%lld\n",
          static_cast<unsigned long long>(delta.batches()),
          static_cast<unsigned long long>(delta.ops()),
          static_cast<unsigned long long>(delta.tombstones()),
          static_cast<unsigned long long>(delta.last_seq()),
          static_cast<long long>(writer->next_tid()));
      if (writer->wal() != nullptr) {
        std::printf("wal: %s — %llu record(s), %llu bytes\n",
                    writer->wal()->path().c_str(),
                    static_cast<unsigned long long>(writer->wal()->records()),
                    static_cast<unsigned long long>(writer->wal()->bytes()));
      } else {
        std::printf("wal: none (commits are not durable)\n");
      }
      continue;
    }
    if (mbq::StartsWith(trimmed, ":post ") ||
        mbq::StartsWith(trimmed, ":follow ") ||
        mbq::StartsWith(trimmed, ":unfollow ")) {
      if (writer == nullptr) {
        std::printf("engine is read-only\n");
        continue;
      }
      bool is_post = mbq::StartsWith(trimmed, ":post ");
      size_t skip = is_post ? 6 : (mbq::StartsWith(trimmed, ":follow ") ? 8 : 10);
      std::string rest(mbq::TrimString(trimmed.substr(skip)));
      char* end = nullptr;
      long long a = std::strtoll(rest.c_str(), &end, 10);
      mbq::Status committed;
      if (is_post) {
        std::string text(mbq::TrimString(std::string(end == nullptr ? "" : end)));
        committed = writer->PostTweet(a, text);
        if (committed.ok()) {
          std::printf("tweet %lld posted by user %lld\n",
                      static_cast<long long>(writer->next_tid() - 1), a);
        }
      } else {
        long long b = std::strtoll(end == nullptr ? "" : end, nullptr, 10);
        committed = mbq::StartsWith(trimmed, ":follow ")
                        ? writer->Follow(a, b)
                        : writer->Unfollow(a, b);
        if (committed.ok()) std::printf("committed\n");
      }
      if (!committed.ok()) {
        std::printf("error: %s\n", committed.ToString().c_str());
      }
      continue;
    }
    if (trimmed == ":cache" || trimmed == ":cache on" ||
        trimmed == ":cache off" || trimmed == ":cache clear") {
      if (trimmed == ":cache on" || trimmed == ":cache off") {
        mbq::cypher::SessionOptions options;
        options.threads = 0;  // keep the current thread setting
        options.result_cache = trimmed == ":cache on";
        options.adjacency_cache = trimmed == ":cache on";
        session.Configure(options);
        std::printf("read caches %s\n",
                    trimmed == ":cache on" ? "enabled" : "disabled");
        continue;
      }
      if (trimmed == ":cache clear") {
        session.ClearReadCaches();
        std::printf("read caches cleared\n");
        continue;
      }
      auto print_stats = [](const char* name, bool enabled,
                            const mbq::cache::CacheStats& stats) {
        if (!enabled) {
          std::printf("%s: disabled (:cache on to enable)\n", name);
          return;
        }
        std::printf(
            "%s: %llu hits / %llu misses, %llu entries (%llu bytes), "
            "%llu evicted, %llu invalidated\n",
            name, static_cast<unsigned long long>(stats.hits),
            static_cast<unsigned long long>(stats.misses),
            static_cast<unsigned long long>(stats.entries),
            static_cast<unsigned long long>(stats.bytes),
            static_cast<unsigned long long>(stats.evictions),
            static_cast<unsigned long long>(stats.invalidations));
      };
      print_stats("result cache   ", session.result_cache_enabled(),
                  session.result_cache_stats());
      print_stats("adjacency cache", session.adjacency_cache_enabled(),
                  session.adjacency_cache_stats());
      continue;
    }
    if (trimmed == ":cold") {
      auto st = db.DropCaches();
      std::printf("%s\n", st.ok() ? "page cache dropped" : st.ToString().c_str());
      continue;
    }
    std::string query(trimmed);
    if (mbq::StartsWith(query, ":profile")) {
      query = "PROFILE " + std::string(mbq::TrimString(query.substr(8)));
    } else if (mbq::StartsWith(query, ":lint")) {
      query = "LINT " + std::string(mbq::TrimString(query.substr(5)));
    }
    auto result = session.Run(query);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintResult(*result, result->profiled);
  }
  std::printf("\nbye\n");
  return 0;
}
