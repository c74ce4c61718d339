#ifndef MBQ_CORE_WRITE_PATH_H_
#define MBQ_CORE_WRITE_PATH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/engine.h"
#include "store/delta/delta_store.h"
#include "store/delta/snapshot.h"
#include "store/delta/wal.h"
#include "store/delta/write_batch.h"
#include "util/result.h"

namespace mbq::core {

/// The one WritableEngine implementation, shared by both backends: each
/// engine supplies an `ApplyFn` that folds a batch's ops into its base
/// store, and EngineWriter wraps it with the commit protocol —
///
///   assign fresh tweet ids (and move allocation past caller-assigned ones)
///   -> exclusive snapshot section (readers drain, none can start)
///        apply to base store   (epoch bumps invalidate the read caches)
///        stage the WAL record  (WAL order == apply order)
///        count it in the commit counters
///   -> section ends (the batch is visible)
///   -> group-commit fsync (batched across concurrent committers)
///
/// Apply failures surface before anything is logged or counted: a
/// batch that did not apply is not in the WAL, so replay-on-open only
/// ever re-applies batches that succeeded.
class EngineWriter : public WritableEngine {
 public:
  using ApplyFn = std::function<Status(const store::WriteBatch&)>;

  /// Opens the writer: opens/replays the WAL in `wal.dir` (an empty dir
  /// runs without a log: no crash durability), re-applies every recovered
  /// batch through `apply`, and seeds tweet id allocation at `tid_floor` —
  /// one past the bulk-loaded dataset — or past the replayed tail,
  /// whichever is higher.
  static Result<std::unique_ptr<EngineWriter>> Open(
      const store::WalOptions& wal, int64_t tid_floor, ApplyFn apply);

  Status Commit(store::WriteBatch batch) override;

  store::SnapshotRegistry& snapshots() override { return snapshots_; }
  const store::DeltaStore& delta() const override { return delta_; }
  const store::Wal* wal() const override { return wal_.get(); }
  int64_t next_tid() const override {
    return next_tid_.load(std::memory_order_relaxed);
  }

 private:
  EngineWriter(ApplyFn apply, int64_t tid_floor)
      : apply_(std::move(apply)), next_tid_(tid_floor) {}

  /// Moves tweet id allocation past every tid `batch` posts, so a later
  /// PostTweet never reuses one: ids replayed from the WAL at open, and
  /// ids a caller assigned itself (the update stream does).
  void AdvancePastTids(const store::WriteBatch& batch);

  store::SnapshotRegistry snapshots_;
  store::DeltaStore delta_;
  std::unique_ptr<store::Wal> wal_;
  ApplyFn apply_;
  std::atomic<int64_t> next_tid_;
};

}  // namespace mbq::core

#endif  // MBQ_CORE_WRITE_PATH_H_
