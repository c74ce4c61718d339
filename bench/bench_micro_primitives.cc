// Google-benchmark microbenchmarks of the primitives both engines are
// built on: compressed bitmap algebra, record-file access, and the two
// engines' single-hop expansion. These are the atomic costs behind every
// number in the Table 2 / Figure 4 reproductions.

#include <benchmark/benchmark.h>

#include "bitmapstore/bitmap.h"
#include "bitmapstore/graph.h"
#include "nodestore/graph_db.h"
#include "nodestore/record_file.h"
#include "util/rng.h"

namespace mbq {
namespace {

using bitmapstore::Bitmap;

Bitmap MakeBitmap(uint64_t seed, uint32_t universe, size_t count) {
  Rng rng(seed);
  Bitmap bm;
  for (size_t i = 0; i < count; ++i) {
    bm.Add(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  return bm;
}

void BM_BitmapAdd(benchmark::State& state) {
  const uint32_t universe = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Bitmap bm;
    for (int i = 0; i < 1000; ++i) {
      bm.Add(static_cast<uint32_t>(rng.NextBounded(universe)));
    }
    benchmark::DoNotOptimize(bm.Cardinality());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BitmapAdd)->Arg(1 << 12)->Arg(1 << 20)->Arg(1 << 28);

void BM_BitmapAnd(benchmark::State& state) {
  const uint32_t universe = 1 << 22;
  Bitmap a = MakeBitmap(1, universe, static_cast<size_t>(state.range(0)));
  Bitmap b = MakeBitmap(2, universe, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitmap::And(a, b).Cardinality());
  }
}
BENCHMARK(BM_BitmapAnd)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_BitmapOr(benchmark::State& state) {
  const uint32_t universe = 1 << 22;
  Bitmap a = MakeBitmap(3, universe, static_cast<size_t>(state.range(0)));
  Bitmap b = MakeBitmap(4, universe, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bitmap::Or(a, b).Cardinality());
  }
}
BENCHMARK(BM_BitmapOr)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_BitmapIterate(benchmark::State& state) {
  Bitmap bm = MakeBitmap(5, 1 << 22, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    uint64_t sum = 0;
    bm.ForEach([&sum](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapIterate)->Arg(10000)->Arg(1000000);

void BM_RecordFileRead(benchmark::State& state) {
  VirtualClock clock;
  storage::SimulatedDisk disk(storage::DiskProfile::Instant(), &clock);
  storage::BufferCacheOptions options;
  options.capacity_pages = 1 << 14;
  storage::BufferCache cache(&disk, options);
  nodestore::RecordFile file("bench", &cache, 64, nullptr);
  const int kRecords = 100000;
  uint8_t buf[64] = {};
  for (int i = 0; i < kRecords; ++i) {
    auto id = file.Allocate();
    (void)file.Write(*id, buf);
  }
  Rng rng(6);
  for (auto _ : state) {
    (void)file.Read(rng.NextBounded(kRecords), buf);
    benchmark::DoNotOptimize(buf[0]);
  }
}
BENCHMARK(BM_RecordFileRead);

void BM_NodestoreExpand(benchmark::State& state) {
  nodestore::GraphDbOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  nodestore::GraphDb db(options);
  auto user = *db.Label("user");
  auto follows = *db.RelType("follows");
  const int64_t kFanOut = state.range(0);
  auto hub = *db.CreateNode(user);
  for (int64_t i = 0; i < kFanOut; ++i) {
    auto spoke = *db.CreateNode(user);
    (void)db.CreateRelationship(follows, hub, spoke);
  }
  for (auto _ : state) {
    uint64_t count = 0;
    (void)db.ForEachRelationship(hub, nodestore::Direction::kOutgoing,
                                 follows,
                                 [&](const nodestore::GraphDb::RelInfo&) {
                                   ++count;
                                   return true;
                                 });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * kFanOut);
}
BENCHMARK(BM_NodestoreExpand)->Arg(10)->Arg(1000)->Arg(100000);

void BM_BitmapstoreNeighbors(benchmark::State& state) {
  bitmapstore::GraphOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  bitmapstore::Graph graph(options);
  auto user = *graph.NewNodeType("user");
  auto follows = *graph.NewEdgeType("follows");
  const int64_t kFanOut = state.range(0);
  auto hub = *graph.NewNode(user);
  for (int64_t i = 0; i < kFanOut; ++i) {
    auto spoke = *graph.NewNode(user);
    (void)graph.NewEdge(follows, hub, spoke);
  }
  for (auto _ : state) {
    auto nbrs = graph.Neighbors(hub, follows,
                                bitmapstore::EdgesDirection::kOutgoing);
    benchmark::DoNotOptimize(nbrs->Count());
  }
  state.SetItemsProcessed(state.iterations() * kFanOut);
}
BENCHMARK(BM_BitmapstoreNeighbors)->Arg(10)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace mbq

BENCHMARK_MAIN();
