#include "core/engine.h"

#include <algorithm>

#include "core/bitmap_engine.h"
#include "core/nodestore_engine.h"
#include "core/remote_engine.h"
#include "core/write_path.h"
#include "cypher/session.h"
#include "twitter/dataset.h"

namespace mbq::core {

namespace {

/// Shared by the two local kinds: validates the write knobs and builds
/// the WAL options EnableWrites expects.
Result<store::WalOptions> WalOptionsFrom(const EngineOptions& options) {
  if (options.dataset == nullptr) {
    return Status::InvalidArgument(
        "OpenEngine: enable_writes needs EngineOptions.dataset (the "
        "bulk-loaded base the writer extends)");
  }
  store::WalOptions wal;
  wal.dir = options.wal_dir;
  wal.group_commit_window_micros = options.group_commit_window_micros;
  return wal;
}

}  // namespace

Result<std::unique_ptr<MicroblogEngine>> OpenEngine(
    EngineKind kind, const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kNodestore: {
      if (options.db == nullptr) {
        return Status::InvalidArgument(
            "OpenEngine(kNodestore) needs EngineOptions.db");
      }
      auto engine = std::make_unique<NodestoreEngine>(options.db);
      cypher::SessionOptions session;
      session.threads = options.threads == 0 ? 1 : options.threads;
      session.pool = options.pool;
      session.result_cache = options.result_cache;
      session.result_cache_capacity = options.result_cache_capacity;
      session.adjacency_cache = options.adjacency_cache;
      session.adjacency_cache_capacity = options.adjacency_cache_capacity;
      session.adjacency_min_degree = options.adjacency_min_degree;
      engine->Configure(session);
      if (options.enable_writes) {
        MBQ_ASSIGN_OR_RETURN(store::WalOptions wal, WalOptionsFrom(options));
        MBQ_RETURN_IF_ERROR(engine->EnableWrites(wal, *options.dataset));
      }
      return std::unique_ptr<MicroblogEngine>(std::move(engine));
    }
    case EngineKind::kBitmap: {
      if (options.graph == nullptr || options.handles == nullptr) {
        return Status::InvalidArgument(
            "OpenEngine(kBitmap) needs EngineOptions.graph and .handles");
      }
      auto engine =
          std::make_unique<BitmapEngine>(options.graph, *options.handles);
      engine->SetThreads(options.threads, options.pool);
      if (options.adjacency_cache) {
        engine->EnableAdjacencyCache(options.adjacency_cache_capacity,
                                     options.adjacency_min_degree);
      }
      if (options.enable_writes) {
        MBQ_ASSIGN_OR_RETURN(store::WalOptions wal, WalOptionsFrom(options));
        MBQ_RETURN_IF_ERROR(engine->EnableWrites(wal, *options.dataset));
      }
      return std::unique_ptr<MicroblogEngine>(std::move(engine));
    }
    case EngineKind::kRemote: {
      if (options.enable_writes) {
        return Status::NotImplemented(
            "OpenEngine(kRemote): the cluster plane is read-only — "
            "kWriteBatch frames are reserved but unimplemented "
            "(docs/CLUSTER.md)");
      }
      if (options.shard_addresses.empty()) {
        return Status::InvalidArgument(
            "OpenEngine(kRemote) needs EngineOptions.shard_addresses");
      }
      std::vector<RemoteEngine::ShardAddress> shards;
      shards.reserve(options.shard_addresses.size());
      for (const std::string& spec : options.shard_addresses) {
        RemoteEngine::ShardAddress addr;
        MBQ_ASSIGN_OR_RETURN(addr, ParseShardAddress(spec));
        shards.push_back(std::move(addr));
      }
      std::unique_ptr<RemoteEngine> engine;
      MBQ_ASSIGN_OR_RETURN(
          engine, RemoteEngine::Connect(shards, options.rpc_timeout_millis));
      return std::unique_ptr<MicroblogEngine>(std::move(engine));
    }
  }
  return Status::InvalidArgument("unknown EngineKind");
}

void SortRows(ValueRows* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const ValueRow& a, const ValueRow& b) {
              for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
                int c = a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return a.size() < b.size();
            });
}

ValueRows TopNCounts(const std::vector<std::pair<Value, int64_t>>& counts,
                     int64_t n) {
  std::vector<std::pair<Value, int64_t>> sorted = counts;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first.Compare(b.first) < 0;
            });
  if (n >= 0 && sorted.size() > static_cast<size_t>(n)) {
    sorted.resize(static_cast<size_t>(n));
  }
  ValueRows rows;
  rows.reserve(sorted.size());
  for (auto& [key, count] : sorted) {
    rows.push_back({std::move(key), Value::Int(count)});
  }
  return rows;
}

}  // namespace mbq::core
