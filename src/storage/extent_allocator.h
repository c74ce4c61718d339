#ifndef MBQ_STORAGE_EXTENT_ALLOCATOR_H_
#define MBQ_STORAGE_EXTENT_ALLOCATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/simulated_disk.h"

namespace mbq::storage {

/// Allocates disk pages to logical streams in contiguous extents.
///
/// The bitmap-store engine stores each structure (a value set, an
/// adjacency list file, ...) as a stream of pages. With a large extent
/// size, a stream's pages stay contiguous on disk, so scans are sequential
/// (no seek charge in SimulatedDisk). With a small extent size, concurrent
/// streams interleave and accesses become seek-bound as the database grows
/// — the behaviour the paper reports for Sparksee's extent-size knob
/// ("with lower extent sizes, insertions are fast initially but slow down
/// as the database size grows").
class ExtentAllocator {
 public:
  /// `extent_pages` pages per extent (e.g. 8 pages = 64 KiB, the paper's
  /// Sparksee setting).
  ExtentAllocator(SimulatedDisk* disk, uint32_t extent_pages);

  /// Returns the next page for `stream`, allocating a new extent when the
  /// stream's current extent is exhausted.
  PageId AllocatePage(uint32_t stream);

  /// All pages ever allocated to `stream`, in order.
  const std::vector<PageId>& StreamPages(uint32_t stream) const;

  uint32_t extent_pages() const { return extent_pages_; }
  uint64_t extents_allocated() const { return extents_allocated_; }

 private:
  struct StreamState {
    std::vector<PageId> pages;
    PageId next_page = kInvalidPageId;
    uint32_t remaining_in_extent = 0;
  };

  SimulatedDisk* disk_;
  uint32_t extent_pages_;
  uint64_t extents_allocated_ = 0;
  PageId directory_page_ = kInvalidPageId;  // modelled only, no bytes
  std::unordered_map<uint32_t, StreamState> streams_;
};

}  // namespace mbq::storage

#endif  // MBQ_STORAGE_EXTENT_ALLOCATOR_H_
