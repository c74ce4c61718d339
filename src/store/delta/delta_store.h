#ifndef MBQ_STORE_DELTA_DELTA_STORE_H_
#define MBQ_STORE_DELTA_DELTA_STORE_H_

#include <atomic>
#include <cstdint>

#include "store/delta/write_batch.h"

namespace mbq::store {

/// The writer's per-engine commit counters. The WAL is the one record of
/// committed writes: the commit path applies ops to the base store *at*
/// commit (merge-on-commit, under the SnapshotRegistry's exclusive
/// section), so no read needs a second copy of them. This class only
/// summarizes the committed prefix — for `:writes`, for `checkdb`, which
/// checks it against an independent decode of the WAL, and for tests.
///
/// Written only inside the exclusive commit section (one writer at a
/// time); relaxed atomics let the stats plane and checkdb read a live
/// engine without taking the snapshot lock.
class DeltaStore {
 public:
  /// Counts `batch` as committed at WAL sequence `seq` (0 when the engine
  /// runs without a WAL).
  void Count(const WriteBatch& batch, uint64_t seq) {
    uint64_t unfollows = 0;
    for (const WriteOp& op : batch.ops()) {
      if (op.kind == WriteOpKind::kUnfollow) ++unfollows;
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    ops_.fetch_add(batch.size(), std::memory_order_relaxed);
    tombstones_.fetch_add(unfollows, std::memory_order_relaxed);
    if (seq > last_seq()) last_seq_.store(seq, std::memory_order_relaxed);
  }

  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  /// Unfollow ops committed — each one a tombstone over a base or live
  /// follow edge.
  uint64_t tombstones() const {
    return tombstones_.load(std::memory_order_relaxed);
  }
  uint64_t last_seq() const {
    return last_seq_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> tombstones_{0};
  std::atomic<uint64_t> last_seq_{0};
};

}  // namespace mbq::store

#endif  // MBQ_STORE_DELTA_DELTA_STORE_H_
