#ifndef MBQ_STORAGE_SIMULATED_DISK_H_
#define MBQ_STORAGE_SIMULATED_DISK_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/clock.h"
#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mbq::storage {

/// Fixed page size used by every store in the library.
inline constexpr size_t kPageSize = 8192;

using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = ~0ULL;

/// Latency model for the backing device. Defaults approximate the paper's
/// testbed (a commodity non-SSD HDD): a large positional (seek) cost for
/// non-sequential access plus a per-page transfer cost.
struct DiskProfile {
  uint64_t seek_nanos = 4'000'000;        // 4 ms average seek+rotation
  uint64_t read_page_nanos = 60'000;      // ~130 MB/s sequential read
  uint64_t write_page_nanos = 70'000;     // slightly slower writes
  /// Accesses within this many pages of the previous access count as
  /// sequential and skip the seek charge.
  uint64_t sequential_window = 16;

  /// Zero-latency profile for pure-logic tests.
  static DiskProfile Instant() { return DiskProfile{0, 0, 0, 1}; }
};

/// Cumulative I/O counters.
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t seeks = 0;
  uint64_t busy_nanos = 0;  // total simulated device time charged
};

/// An array of pages that charges HDD-like latency to a Clock.
///
/// The paper's import-time "jumps" (Figures 2 and 3) and the cold-cache
/// discussion in Section 4 are disk effects; modelling the device lets the
/// benches reproduce those shapes deterministically at laptop scale.
///
/// A page holds bytes only once something writes it with bytes; a
/// transfer with a null buffer is only modelled (failure check, latency,
/// counters). A page is one or the other for its whole life: a byte
/// transfer of a page once transferred without bytes, or the reverse,
/// aborts naming the page.
///
/// Thread-safe: one internal mutex serializes accesses, modelling a
/// single-head device — concurrent readers queue at the disk exactly as
/// they would at real hardware.
class SimulatedDisk {
 public:
  /// Charges latency to `clock` (typically a VirtualClock owned by the
  /// caller, so logic time and device time are separable).
  SimulatedDisk(DiskProfile profile, Clock* clock);

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  /// Appends a page, holding no bytes yet, and returns its id.
  PageId AllocatePage();

  /// Copies page `id` into `out` (kPageSize bytes; a page never written
  /// with bytes reads as zeros). A null `out` only models the read.
  Status ReadPage(PageId id, uint8_t* out);

  /// Overwrites page `id` from `data` (kPageSize bytes); the page gets its
  /// buffer on the first such write. A null `data` only models the write.
  Status WritePage(PageId id, const uint8_t* data);

  /// Fault injection: after `ops` further successful reads/writes, every
  /// subsequent access fails with IoError until ClearFailure(). Lets
  /// tests verify that errors propagate as Status through every layer
  /// instead of crashing.
  void InjectFailureAfter(uint64_t ops) {
    util::ScopedLock lock(mu_);
    fail_after_ = ops;
    failing_ = false;
  }
  void ClearFailure() {
    util::ScopedLock lock(mu_);
    fail_after_ = UINT64_MAX;
    failing_ = false;
  }

  uint64_t num_pages() const {
    util::ScopedLock lock(mu_);
    return pages_.size();
  }
  /// Snapshot of the cumulative counters (copied under the lock).
  DiskStats stats() const {
    util::ScopedLock lock(mu_);
    return stats_;
  }
  void ResetStats() {
    util::ScopedLock lock(mu_);
    stats_ = DiskStats();
  }
  const DiskProfile& profile() const { return profile_; }

  /// The simulated on-disk footprint: every allocated page.
  uint64_t SizeBytes() const {
    util::ScopedLock lock(mu_);
    return pages_.size() * kPageSize;
  }
  /// Bytes of page buffers actually held in memory.
  uint64_t ResidentBytes() const {
    util::ScopedLock lock(mu_);
    return resident_pages_ * kPageSize;
  }

 private:
  /// How a page has been transferred so far.
  enum class PageUse : uint8_t { kNone, kBytes, kModelled };
  struct Page {
    std::unique_ptr<uint8_t[]> bytes;  // null until a write with bytes
    PageUse use = PageUse::kNone;
  };

  /// The shared prologue of a transfer: failure injection, bounds, the
  /// byte-or-modelled check, the latency charge.
  Status BeginTransfer(PageId id, bool bytes, uint64_t transfer_nanos)
      MBQ_REQUIRES(mu_);
  void Charge(PageId id, uint64_t transfer_nanos) MBQ_REQUIRES(mu_);
  Status CheckFailure() MBQ_REQUIRES(mu_);

  DiskProfile profile_;
  Clock* clock_;
  /// LockRank::kDisk, the innermost storage lock: critical sections touch
  /// only the page array, the counters, and the (thread-safe) clock.
  mutable util::RankedMutex mu_{util::LockRank::kDisk, "storage.disk"};
  std::vector<Page> pages_ MBQ_GUARDED_BY(mu_);
  uint64_t resident_pages_ MBQ_GUARDED_BY(mu_) = 0;
  PageId last_page_ MBQ_GUARDED_BY(mu_) = kInvalidPageId;
  DiskStats stats_ MBQ_GUARDED_BY(mu_);
  uint64_t fail_after_ MBQ_GUARDED_BY(mu_) = UINT64_MAX;
  bool failing_ MBQ_GUARDED_BY(mu_) = false;
};

}  // namespace mbq::storage

#endif  // MBQ_STORAGE_SIMULATED_DISK_H_
