#ifndef MBQ_STORE_DELTA_SNAPSHOT_H_
#define MBQ_STORE_DELTA_SNAPSHOT_H_

#include <mutex>
#include <shared_mutex>

#include "util/lock_rank.h"

namespace mbq::store {

/// Atomic visibility for the live write path: a reader that opens a
/// snapshot observes every committed batch entirely or not at all, never
/// a half-applied one.
///
/// The model stays the repo's single-writer / concurrent-readers
/// discipline, enforced rather than assumed: commits hold the registry
/// exclusively while they apply a batch to the base store, reads hold it
/// shared. Cache invalidation needs nothing from here — base-store
/// mutations bump the engine's per-domain `cache::EpochRegistry` under
/// the exclusive section, so read caches invalidate correctly under churn.
class SnapshotRegistry {
 public:
  /// A shared-lock read view: while alive, no commit can apply.
  /// Default-constructed snapshots guard nothing (read-only engines).
  using ReadSnapshot = std::shared_lock<util::RankedSharedMutex>;
  /// An exclusive commit section; readers drain and none can start.
  using CommitGuard = std::unique_lock<util::RankedSharedMutex>;

  ReadSnapshot OpenSnapshot() { return ReadSnapshot(mu_); }
  CommitGuard BeginCommit() { return CommitGuard(mu_); }

 private:
  /// LockRank::kSnapshot: the widest engine lock — a commit holds it
  /// exclusively while applying to the base store (kBufferCache, kDisk),
  /// staging the WAL record (kWal) and creating metrics (kObs), so it
  /// ranks above that whole tier; only session/rpc sit higher.
  /// Holds are tracked through the std lock adapters, which stay movable,
  /// so there are no GUARDED_BY fields here.
  util::RankedSharedMutex mu_{util::LockRank::kSnapshot,
                              "store.delta.snapshot"};
};

}  // namespace mbq::store

#endif  // MBQ_STORE_DELTA_SNAPSHOT_H_
