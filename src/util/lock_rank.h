#ifndef MBQ_UTIL_LOCK_RANK_H_
#define MBQ_UTIL_LOCK_RANK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace mbq::util {

/// The repo-wide lock hierarchy (docs/STATIC_ANALYSIS.md has the full
/// table with rationale). The rule is strict descent: a thread may
/// acquire a mutex only while every lock it already holds has a strictly
/// HIGHER rank — outermost locks carry the highest ranks, leaves the
/// lowest, and re-acquiring any mutex of a held rank (including the same
/// mutex, shared or exclusive) is an inversion. Acquiring up the table
/// is how deadlock cycles form; the runtime checker traps the first such
/// acquisition and names both sites.
///
/// Derived from the real nesting chains, innermost first:
///   ring < driver < pool < disk < buffer cache < cache < obs < wal
///        < snapshot < session < rpc
///
/// Two orderings deserve a note. The obs registry ranks ABOVE the
/// storage tier because a metrics scrape holds the registry mutex while
/// pull providers read component stats (buffer-cache shard locks, the
/// disk mutex, the driver accumulator). The WAL ranks BELOW the snapshot
/// registry because the commit protocol stages the WAL record inside the
/// exclusive commit section (WAL order == apply order, docs/WRITES.md) —
/// the WAL mutex is therefore an inner lock of a commit.
enum class LockRank : int {
  /// Introspection rings & slots (flight recorder, span ring, query
  /// table slots): recordable from any context, never call out.
  kRing = 10,
  /// Load-driver accounting; scraped by an obs provider, so it must sit
  /// below kObs.
  kDriver = 20,
  /// Thread-pool wake/queue mutexes; tasks always run with no pool lock
  /// held, so pool internals never reach back into the engine tiers.
  kPool = 30,
  /// SimulatedDisk: the single-head device model, a pure leaf under the
  /// storage tier.
  kDisk = 40,
  /// BufferCache shards: a miss reads the disk while the shard lock is
  /// held, so the shard lock must rank above kDisk.
  kBufferCache = 50,
  /// ShardedLruCache shards (result/adjacency caches): bump lock-free
  /// obs counters only, never nest further.
  kCache = 55,
  /// MetricsRegistry: Snapshot() holds it while providers walk the
  /// storage/driver tiers below.
  kObs = 60,
  /// Delta WAL staging/group-commit: staged inside the commit section,
  /// hence below kSnapshot; may create obs metrics on first use.
  kWal = 70,
  /// SnapshotRegistry commit/read sections: a commit applies to the base
  /// store and stages the WAL while holding it.
  kSnapshot = 80,
  /// Cypher session state (plan cache, lint level): held across
  /// parse/plan, which may read the store catalogue.
  kSession = 90,
  /// RPC client exchange serialization: outermost by design — nothing
  /// in-process is ever held around a remote call.
  kRpc = 100,
};

/// Spec name of a rank ("kDisk", ...) for violation reports and docs.
const char* LockRankName(LockRank rank);

/// Runtime toggles. Checking defaults to ON wherever the machinery is
/// compiled in (everything except -DMBQ_LOCK_RANK_DISABLE=1 release
/// builds) unless the MBQ_LOCK_RANK environment variable says 0.
/// Violations abort by default, naming both sites; tests flip the abort
/// switch to count violations instead (the lockrank.violations metric).
bool LockRankChecksEnabled();
void SetLockRankChecksEnabled(bool enabled);
void SetLockRankAbortOnViolation(bool abort_on_violation);

/// Monotonic totals, exported as `lockrank.checks` / `lockrank.violations`
/// gauges by obs::MetricsRegistry::Snapshot().
uint64_t LockRankChecks();
uint64_t LockRankViolations();

/// Locks currently held by the calling thread (tests).
size_t LockRankHeldDepth();

namespace lockrank_internal {

#if !defined(MBQ_LOCK_RANK_DISABLE)
/// Pre-acquisition check: traps (or counts) an out-of-order acquisition
/// BEFORE the underlying lock call, so a would-be deadlock aborts with
/// both site names instead of hanging. Then records the hold.
void OnAcquire(LockRank rank, const char* name);
/// Drops the most recent matching hold. A miss is ignored: guard objects
/// (snapshots, commit guards) may legally migrate across threads.
void OnRelease(LockRank rank, const char* name);
#else
inline void OnAcquire(LockRank, const char*) {}
inline void OnRelease(LockRank, const char*) {}
#endif

}  // namespace lockrank_internal

/// std::mutex drop-in carrying a lock rank and a site name. Meets
/// Lockable, so std::condition_variable_any and std::unique_lock work,
/// but lock through ScopedLock / RankedLock so the Clang thread-safety
/// analysis sees the acquisition too.
class MBQ_CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() MBQ_ACQUIRE() {
    lockrank_internal::OnAcquire(rank_, name_);
    mu_.lock();
  }
  void unlock() MBQ_RELEASE() {
    mu_.unlock();
    lockrank_internal::OnRelease(rank_, name_);
  }
  bool try_lock() MBQ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockrank_internal::OnAcquire(rank_, name_);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// std::shared_mutex drop-in with the same rank discipline for both
/// modes: a shared acquisition must also descend the hierarchy, and no
/// reacquisition of a held mutex is allowed in either mode (shared-then-
/// exclusive self-deadlocks; shared-then-shared is UB under contention —
/// a writer queued between the two acquisitions deadlocks all three).
class MBQ_CAPABILITY("shared_mutex") RankedSharedMutex {
 public:
  RankedSharedMutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}
  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock() MBQ_ACQUIRE() {
    lockrank_internal::OnAcquire(rank_, name_);
    mu_.lock();
  }
  void unlock() MBQ_RELEASE() {
    mu_.unlock();
    lockrank_internal::OnRelease(rank_, name_);
  }
  bool try_lock() MBQ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockrank_internal::OnAcquire(rank_, name_);
    return true;
  }

  void lock_shared() MBQ_ACQUIRE_SHARED() {
    lockrank_internal::OnAcquire(rank_, name_);
    mu_.lock_shared();
  }
  void unlock_shared() MBQ_RELEASE_SHARED() {
    mu_.unlock_shared();
    lockrank_internal::OnRelease(rank_, name_);
  }
  bool try_lock_shared() MBQ_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    lockrank_internal::OnAcquire(rank_, name_);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// std::lock_guard equivalent over RankedMutex.
class MBQ_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(RankedMutex& mu) MBQ_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~ScopedLock() MBQ_RELEASE() { mu_.unlock(); }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  RankedMutex& mu_;
};

/// std::unique_lock equivalent over RankedMutex: lockable/unlockable
/// mid-scope and BasicLockable itself, so it is the lock argument for
/// std::condition_variable_any::wait (which unlocks and relocks through
/// these methods, keeping the rank bookkeeping exact across waits).
class MBQ_SCOPED_CAPABILITY RankedLock {
 public:
  explicit RankedLock(RankedMutex& mu) MBQ_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    owned_ = true;
  }
  ~RankedLock() MBQ_RELEASE() {
    if (owned_) mu_->unlock();
  }

  RankedLock(const RankedLock&) = delete;
  RankedLock& operator=(const RankedLock&) = delete;

  void lock() MBQ_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }
  void unlock() MBQ_RELEASE() {
    owned_ = false;
    mu_->unlock();
  }
  bool owns_lock() const { return owned_; }
  RankedMutex* mutex() const { return mu_; }

 private:
  RankedMutex* mu_;
  bool owned_ = false;
};

/// Shared-mode std::lock_guard equivalent over RankedSharedMutex.
class MBQ_SCOPED_CAPABILITY SharedScopedLock {
 public:
  explicit SharedScopedLock(RankedSharedMutex& mu) MBQ_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedScopedLock() MBQ_RELEASE_GENERIC() { mu_.unlock_shared(); }

  SharedScopedLock(const SharedScopedLock&) = delete;
  SharedScopedLock& operator=(const SharedScopedLock&) = delete;

 private:
  RankedSharedMutex& mu_;
};

/// Exclusive-mode std::lock_guard equivalent over RankedSharedMutex.
class MBQ_SCOPED_CAPABILITY ExclusiveScopedLock {
 public:
  explicit ExclusiveScopedLock(RankedSharedMutex& mu) MBQ_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock();
  }
  ~ExclusiveScopedLock() MBQ_RELEASE() { mu_.unlock(); }

  ExclusiveScopedLock(const ExclusiveScopedLock&) = delete;
  ExclusiveScopedLock& operator=(const ExclusiveScopedLock&) = delete;

 private:
  RankedSharedMutex& mu_;
};

}  // namespace mbq::util

#endif  // MBQ_UTIL_LOCK_RANK_H_
