#ifndef MBQ_STORAGE_STORAGE_ACCOUNTANT_H_
#define MBQ_STORAGE_STORAGE_ACCOUNTANT_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_cache.h"
#include "storage/extent_allocator.h"
#include "util/result.h"

namespace mbq::storage {

/// Maps the engine's logical structures (value sets, adjacency files,
/// object tables) onto disk pages and charges the I/O they would incur.
///
/// The engine proper keeps its bitmaps in memory — exactly as the real
/// system does once data is cached — but every byte logically written
/// during load passes through the extent allocator and buffer cache here
/// (so cache-full flush stalls and extent fragmentation behave like the
/// paper's Figure 3), and every byte logically read during a query touches
/// its pages (so cold-cache queries pay disk latency). Its pages are
/// byteless: it only ever BufferCache::Touch()es them, so they model the
/// I/O without holding any bytes in the cache or on the disk.
class StorageAccountant {
 public:
  StorageAccountant(BufferCache* cache,
                    ExtentAllocator* extents);

  /// Registers a new logical stream (one structure). Returns its id.
  uint32_t NewStream();

  /// Appends `bytes` logical bytes to `stream`, writing any completed
  /// pages through the cache. Returns the stream offset of the first
  /// appended byte.
  Result<uint64_t> AppendBytes(uint32_t stream, uint64_t bytes);

  /// Touches the pages covering [offset, offset+bytes) of `stream` as a
  /// read; cold pages charge disk reads through the cache.
  Status TouchRead(uint32_t stream, uint64_t offset, uint64_t bytes);

  /// Touches the pages covering [offset, offset+bytes) of `stream` as a
  /// read-modify-write: cold pages charge reads, and every touched page
  /// is dirtied (written back on flush/eviction).
  Status TouchWrite(uint32_t stream, uint64_t offset, uint64_t bytes);

  /// Flushes every partially-filled tail page.
  Status Finalize();

  uint64_t StreamBytes(uint32_t stream) const;
  uint64_t TotalBytes() const;

 private:
  struct Stream {
    std::vector<PageId> pages;
    uint64_t bytes = 0;
  };

  // The page holding stream offset `off`, allocating if needed.
  Result<PageId> PageFor(uint32_t stream, uint64_t off);
  // Applies `access` to the existing pages covering the range.
  Status TouchRange(uint32_t stream, uint64_t offset, uint64_t bytes,
                    PageAccess access);

  BufferCache* cache_;
  ExtentAllocator* extents_;
  std::vector<Stream> streams_;
};

}  // namespace mbq::storage

#endif  // MBQ_STORAGE_STORAGE_ACCOUNTANT_H_
