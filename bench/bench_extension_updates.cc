// Extension E1 (the paper's future work, §5): "it would be possible to
// test for the ability of systems to handle update workloads" by
// generating the graph on-the-fly with new incoming users, tweets and
// follow relationships. We commit live event batches to both engines
// through the live write path (WritableEngine::Commit — transactional
// batches on the record store, in-place updates on the bitmap store),
// measuring sustained update throughput and the query latency before and
// after the stream, and verifying the engines still agree afterwards.

#include <cstdio>

#include "bench/bench_common.h"
#include "store/delta/write_batch.h"
#include "twitter/stream.h"
#include "util/logging.h"

namespace mbq::bench {
namespace {

double ThroughputKeps(uint64_t events, double millis) {
  return millis > 0 ? static_cast<double>(events) / millis : 0;
}

void Run() {
  uint64_t users = BenchUsers();
  std::printf("Extension E1 — live update workload (%s base users)\n\n",
              FormatCount(users).c_str());
  Testbed bed = BuildTestbed(users);
  uint32_t runs = BenchRuns();

  // Reopen both engines writable over the loaded stores. No WAL: E1
  // times apply and the commit section, not the device's fsync.
  core::EngineOptions writable;
  writable.enable_writes = true;
  writable.dataset = &bed.dataset;
  writable.db = bed.db.get();
  writable.graph = bed.graph.get();
  writable.handles = &bed.bm_handles;
  auto ns = core::OpenEngine(core::EngineKind::kNodestore, writable);
  auto bm = core::OpenEngine(core::EngineKind::kBitmap, writable);
  MBQ_CHECK(ns.ok() && bm.ok());
  bed.nodestore_engine = std::move(*ns);
  bed.bitmap_engine = std::move(*bm);

  auto by_followees = core::UsersByFolloweeCount(bed.dataset);
  int64_t probe_uid = by_followees[by_followees.size() * 3 / 4].second;

  auto query_latency = [&](core::MicroblogEngine* engine,
                           const std::function<uint64_t()>& io) -> double {
    auto timing = core::MeasureQuery(
        [&]() -> Result<uint64_t> {
          MBQ_ASSIGN_OR_RETURN(auto rows, engine->FolloweesOf(probe_uid));
          return rows.size();
        },
        1, runs, io);
    MBQ_CHECK(timing.ok());
    return timing->avg_millis;
  };
  double ns_before = query_latency(bed.nodestore_engine.get(),
                                   [&] { return bed.db->SimulatedIoNanos(); });
  double bm_before = query_latency(
      bed.bitmap_engine.get(), [&] { return bed.graph->SimulatedIoNanos(); });

  // One deterministic stream, committed identically to both engines.
  const size_t kBatches = 20;
  const size_t kBatchSize = 500;
  twitter::UpdateStream stream(bed.dataset, twitter::StreamMix{}, 77);
  std::vector<store::WriteBatch> batches;
  for (size_t b = 0; b < kBatches; ++b) batches.push_back(stream.Take(kBatchSize));

  // `copy` is taken before the clock starts: Commit consumes its batch.
  auto commit_all = [&](core::MicroblogEngine* engine,
                        std::vector<store::WriteBatch> copy,
                        const std::function<uint64_t()>& io, const char* name) {
    core::WritableEngine* writer = engine->AsWritable();
    WallClock wall;
    uint64_t io0 = io();
    uint64_t wall0 = wall.NowNanos();
    for (store::WriteBatch& batch : copy) {
      Status st = writer->Commit(std::move(batch));
      MBQ_CHECK(st.ok());
    }
    double millis = static_cast<double>(wall.NowNanos() - wall0) / 1e6 +
                    static_cast<double>(io() - io0) / 1e6;
    std::printf(
        "  %-12s %s events in %s  (%.1f events/ms)\n", name,
        FormatCount(kBatches * kBatchSize).c_str(),
        FormatMillis(millis).c_str(),
        ThroughputKeps(kBatches * kBatchSize, millis));
  };

  std::printf("update throughput (%zu batches x %zu events):\n", kBatches,
              kBatchSize);
  commit_all(bed.nodestore_engine.get(), batches,
             [&] { return bed.db->SimulatedIoNanos(); }, "nodestore");
  commit_all(bed.bitmap_engine.get(), batches,
             [&] { return bed.graph->SimulatedIoNanos(); }, "bitmapstore");

  double ns_after = query_latency(bed.nodestore_engine.get(),
                                  [&] { return bed.db->SimulatedIoNanos(); });
  double bm_after = query_latency(
      bed.bitmap_engine.get(), [&] { return bed.graph->SimulatedIoNanos(); });
  std::printf("\nquery latency (Q2.1 on uid %lld):\n",
              static_cast<long long>(probe_uid));
  std::printf("  nodestore   before %s -> after %s\n",
              FormatMillis(ns_before).c_str(), FormatMillis(ns_after).c_str());
  std::printf("  bitmapstore before %s -> after %s\n",
              FormatMillis(bm_before).c_str(), FormatMillis(bm_after).c_str());

  // Cross-engine agreement after the stream: both engines saw the same
  // events, so the workload queries must still coincide.
  auto ns_rows = bed.nodestore_engine->FolloweesOf(probe_uid);
  auto bm_rows = bed.bitmap_engine->FolloweesOf(probe_uid);
  MBQ_CHECK(ns_rows.ok() && bm_rows.ok());
  core::SortRows(&*ns_rows);
  core::SortRows(&*bm_rows);
  bool agree = *ns_rows == *bm_rows;
  auto ns_reco = bed.nodestore_engine->RecommendFolloweesOfFollowees(
      probe_uid, 1 << 30);
  auto bm_reco =
      bed.bitmap_engine->RecommendFolloweesOfFollowees(probe_uid, 1 << 30);
  MBQ_CHECK(ns_reco.ok() && bm_reco.ok());
  core::SortRows(&*ns_reco);
  core::SortRows(&*bm_reco);
  bool agree_reco = *ns_reco == *bm_reco;
  std::printf("\nengines agree after %s updates: Q2.1 %s, Q4.1 %s\n",
              FormatCount(kBatches * kBatchSize).c_str(),
              agree ? "yes" : "NO", agree_reco ? "yes" : "NO");
}

}  // namespace
}  // namespace mbq::bench

int main(int argc, char** argv) {
  mbq::bench::MetricsExportGuard metrics(argc, argv);
  mbq::bench::Run();
  return 0;
}
