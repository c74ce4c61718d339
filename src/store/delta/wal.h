#ifndef MBQ_STORE_DELTA_WAL_H_
#define MBQ_STORE_DELTA_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/delta/write_batch.h"
#include "util/lock_rank.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace mbq::store {

struct WalOptions {
  /// Directory holding the log (created if absent). The log itself is
  /// `<dir>/delta.wal`.
  std::string dir;
  /// How long a durability leader lingers collecting concurrent appends
  /// before issuing one fsync for all of them. 0 syncs every append.
  uint32_t group_commit_window_micros = 0;
};

/// What replay-on-open recovered from an existing log.
struct WalRecovery {
  std::vector<WriteBatch> batches;  ///< every complete, CRC-clean record
  uint64_t records = 0;             ///< batches.size(), pre-move
  uint64_t dropped_bytes = 0;       ///< torn tail truncated away
  uint64_t last_seq = 0;            ///< sequence of the last clean record
};

/// Group-commit write-ahead log for the delta store. Unlike the base
/// stores (which page against a SimulatedDisk), the WAL writes real
/// files — it is the component whose whole point is surviving a real
/// process crash, so its durability must be real too.
///
/// Record framing, little-endian (see docs/WRITES.md):
///   [u32 magic "MBWL"][u64 seq][u32 len][u32 crc32(payload)][payload]
/// where payload is an encoded WriteBatch. Replay stops at the first
/// record that is torn or fails its CRC and truncates the file back to
/// the clean prefix, so a crash mid-append costs at most the batches
/// that were never acknowledged.
///
/// Durability protocol: `Stage()` assigns the next sequence number and
/// buffers the encoded record (call it under the commit guard, so WAL
/// order always equals apply order); `WaitDurable()` blocks until a
/// leader has fsynced that sequence, batching concurrent committers
/// into one fsync per `group_commit_window_micros`.
class Wal {
 public:
  /// Opens (creating the directory if needed), replays existing records
  /// into `recovery`, truncates any torn tail, and leaves the log ready
  /// for appends.
  static Result<std::unique_ptr<Wal>> Open(const WalOptions& options,
                                           WalRecovery* recovery);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers `batch` as the next record; returns its sequence number.
  Result<uint64_t> Stage(const WriteBatch& batch);

  /// Blocks until every record up to `seq` is on disk.
  Status WaitDurable(uint64_t seq);

  const std::string& path() const { return path_; }
  uint64_t records() const;
  uint64_t bytes() const;

 private:
  explicit Wal(std::string path, int fd, uint32_t window_micros,
               uint64_t next_seq, uint64_t bytes);

  /// Writes + fsyncs everything pending; called by the flush leader with
  /// the lock held (released around the syscalls, so the analysis cannot
  /// follow it — the runtime rank checker still tracks both transitions).
  void FlushLocked(util::RankedLock* lock) MBQ_NO_THREAD_SAFETY_ANALYSIS;

  const std::string path_;
  const uint32_t window_micros_;

  /// LockRank::kWal: Stage() runs inside the exclusive commit section
  /// (below kSnapshot) and looks up its lazily created obs counters while
  /// holding mu_, which takes the registry mutex (above kObs).
  mutable util::RankedMutex mu_{util::LockRank::kWal, "store.delta.wal"};
  std::condition_variable_any cv_;
  int fd_ = -1;
  /// Encoded records not yet written.
  std::string pending_ MBQ_GUARDED_BY(mu_);
  /// Sequence for the next Stage.
  uint64_t next_seq_ MBQ_GUARDED_BY(mu_) = 1;
  /// Highest staged sequence.
  uint64_t staged_seq_ MBQ_GUARDED_BY(mu_) = 0;
  /// Highest fsynced sequence.
  uint64_t durable_seq_ MBQ_GUARDED_BY(mu_) = 0;
  /// A leader is collecting/flushing.
  bool flusher_active_ MBQ_GUARDED_BY(mu_) = false;
  /// Sticky first I/O failure.
  Status io_status_ MBQ_GUARDED_BY(mu_);
  uint64_t records_ MBQ_GUARDED_BY(mu_) = 0;
  uint64_t bytes_ MBQ_GUARDED_BY(mu_) = 0;
};

/// CRC-32 (IEEE 802.3, reflected) over `data` — the WAL record checksum.
uint32_t WalCrc32(std::string_view data);

}  // namespace mbq::store

#endif  // MBQ_STORE_DELTA_WAL_H_
