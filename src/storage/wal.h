#ifndef MBQ_STORAGE_WAL_H_
#define MBQ_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "storage/simulated_disk.h"
#include "util/result.h"

namespace mbq::storage {

/// Append-only redo log used by the record-store engine's transactions.
///
/// Records are length-prefixed byte strings packed contiguously across
/// pages of a dedicated SimulatedDisk region. The log image stays in
/// memory; Sync() makes the appended tail durable and charges its page
/// writes to the disk, which models them without holding their bytes.
/// Replay() iterates only the durable prefix, which is what a crash would
/// preserve.
class Wal {
 public:
  explicit Wal(SimulatedDisk* disk);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers a record; returns its log sequence number (0-based).
  uint64_t Append(const std::vector<uint8_t>& payload);

  /// Writes all buffered bytes to disk.
  Status Sync();

  /// Invokes `fn(lsn, payload)` for every durable record in order.
  Status Replay(
      const std::function<Status(uint64_t, const std::vector<uint8_t>&)>& fn)
      const;

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_bytes() const { return durable_bytes_; }
  /// Number of Sync() calls that reached the disk (fsync-equivalents).
  uint64_t syncs() const { return syncs_; }
  /// Log pages written across all syncs (a page rewritten by two syncs
  /// counts twice, as on a real device).
  uint64_t pages_written() const { return pages_written_; }

  /// Discards the durable tail after byte offset 0 — a fresh log. (The
  /// nodestore truncates after a checkpoint.)
  void Reset();

 private:
  SimulatedDisk* disk_;
  std::vector<PageId> pages_;       // log pages in order
  std::vector<uint8_t> buffer_;     // full log image (durable + pending)
  uint64_t durable_bytes_ = 0;
  uint64_t next_lsn_ = 0;
  uint64_t syncs_ = 0;
  uint64_t pages_written_ = 0;
  std::vector<uint64_t> record_offsets_;  // byte offset of each record
};

}  // namespace mbq::storage

#endif  // MBQ_STORAGE_WAL_H_
