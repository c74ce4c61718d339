#ifndef MBQ_NODESTORE_RECORD_FILE_H_
#define MBQ_NODESTORE_RECORD_FILE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "nodestore/records.h"
#include "storage/buffer_cache.h"
#include "util/result.h"

namespace mbq::nodestore {

/// The database's "db hits" tally, safe to bump from concurrent reader
/// threads: a relaxed atomic total plus a monotonic thread-local count.
/// The thread-local side gives the Cypher profiler exact per-operator
/// attribution on whichever thread an operator runs — deltas of
/// ThreadHits() around a call see only that thread's hits, unpolluted by
/// parallel workers or concurrent sessions.
class DbHitCounter {
 public:
  void Inc() {
    total_.fetch_add(1, std::memory_order_relaxed);
    ++tls_hits_;
  }
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  void Reset() { total_.store(0, std::memory_order_relaxed); }

  /// Hits charged by the calling thread since it started, across every
  /// database in the process (deltas, not absolute values, are meaningful).
  static uint64_t ThreadHits() { return tls_hits_; }

 private:
  std::atomic<uint64_t> total_{0};
  static thread_local uint64_t tls_hits_;
};

/// One store file of fixed-width records over the shared page cache —
/// the shape of Neo4j's neostore.*.db files. Every record access counts
/// one "db hit" toward the shared profiler counter, which is what the
/// Cypher layer's PROFILE output reports.
class RecordFile {
 public:
  /// `db_hits` is a shared counter owned by the database; may be null.
  RecordFile(std::string name, storage::BufferCache* cache,
             uint32_t record_size, DbHitCounter* db_hits);

  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;

  /// Allocates a record slot (recycling freed ids first) and returns its
  /// id. The slot's bytes are unspecified until the first Write.
  Result<RecordId> Allocate();

  /// Copies record `id` into `out` (record_size bytes).
  Status Read(RecordId id, uint8_t* out);

  /// Overwrites record `id` from `data` (record_size bytes).
  Status Write(RecordId id, const uint8_t* data);

  /// Returns `id` to the free list. The caller must already have written
  /// the record with its in_use flag cleared.
  Status Free(RecordId id);

  /// Typed convenience wrappers for the record structs in records.h.
  template <typename R>
  Result<R> Get(RecordId id) {
    uint8_t buf[128];
    MBQ_RETURN_IF_ERROR(Read(id, buf));
    return R::DecodeFrom(buf);
  }
  template <typename R>
  Status Put(RecordId id, const R& record) {
    uint8_t buf[128] = {};
    record.EncodeTo(buf);
    return Write(id, buf);
  }

  const std::string& name() const { return name_; }
  uint32_t record_size() const { return record_size_; }
  /// One past the highest id ever allocated.
  RecordId high_id() const { return high_id_; }
  /// Records currently allocated (high_id minus free-list size).
  uint64_t num_records() const { return high_id_ - free_list_.size(); }
  uint64_t pages_used() const { return pages_.size(); }

 private:
  Result<storage::PageRef> PageForRecord(RecordId id);

  std::string name_;
  storage::BufferCache* cache_;
  uint32_t record_size_;
  uint32_t records_per_page_;
  DbHitCounter* db_hits_;
  std::vector<storage::PageId> pages_;
  std::vector<RecordId> free_list_;
  RecordId high_id_ = 0;
};

}  // namespace mbq::nodestore

#endif  // MBQ_NODESTORE_RECORD_FILE_H_
