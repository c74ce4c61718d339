#ifndef MBQ_STORAGE_BUFFER_CACHE_H_
#define MBQ_STORAGE_BUFFER_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/simulated_disk.h"
#include "util/lock_rank.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace mbq::storage {

/// How dirty pages reach the disk.
enum class WritePolicy {
  /// Dirty pages are written on eviction or explicit flush. With
  /// `flush_all_when_full` this reproduces the Sparksee-style stall: the
  /// cache fills, then everything is flushed at once (paper Figure 3).
  kWriteBack,
  /// Every write is immediately propagated, like Neo4j's import tool that
  /// "writes continuously and concurrently to disk" (paper Figure 2).
  kWriteThrough,
};

struct BufferCacheOptions {
  /// Number of page frames held in memory.
  size_t capacity_pages = 4096;
  WritePolicy write_policy = WritePolicy::kWriteBack;
  /// Under kWriteBack: when no clean frame can be evicted, flush every
  /// dirty page in one stall instead of writing back a single victim.
  bool flush_all_when_full = false;
  /// Number of independently locked shards. 0 (the default) picks one
  /// shard per 256 pages of capacity, capped at 16 — small caches stay
  /// single-shard, so their hit/miss/eviction accounting is exactly the
  /// classic single-LRU behaviour the storage tests pin down.
  size_t shards = 0;
};

struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pages_flushed = 0;
  /// Number of whole-shard flush stalls (flush_all_when_full events).
  uint64_t flush_stalls = 0;
};

/// What an access does to a page: the cache traffic of a pin sequence.
enum class PageAccess {
  kRead,             ///< GetPage, then unpin
  kReadModifyWrite,  ///< GetPage, MarkDirty, unpin
  kInit,             ///< GetPageForInit (no disk read), MarkDirty, unpin
};

class BufferCache;

/// RAII pin on a cached page. The page cannot be evicted while a PageRef
/// to it is alive. Call MarkDirty() after modifying the data.
class PageRef {
 public:
  PageRef() = default;
  ~PageRef();

  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  uint8_t* data();
  const uint8_t* data() const;
  PageId page_id() const;
  void MarkDirty();
  bool valid() const { return cache_ != nullptr; }

 private:
  friend class BufferCache;
  /// Adopts a pin the cache already took under the shard lock.
  PageRef(BufferCache* cache, size_t shard, size_t frame)
      : cache_(cache), shard_(shard), frame_(frame) {}

  void Release();

  BufferCache* cache_ = nullptr;
  size_t shard_ = 0;
  size_t frame_ = 0;
};

/// A fixed-capacity LRU page cache over a SimulatedDisk, sharded by page
/// id so concurrent readers only contend within a shard.
///
/// A page is either a byte page, pinned through GetPage, GetPageForInit
/// or NewPage for its bytes, or a byteless one, only ever Touch()ed, whose
/// accesses are modelled without bytes. Frames start empty; a frame gets
/// its kPageSize buffer the first time a byte pin lands in it and keeps
/// it. Using one page both ways aborts naming the page.
///
/// Thread-safety: any number of threads may call GetPage concurrently
/// (the reader path the parallel executor uses). Mutations of page
/// contents follow the engines' single-writer rule — a writer is never
/// concurrent with readers — so MarkDirty and the flush/evict entry
/// points need no cross-page coordination beyond the shard locks.
class BufferCache {
 public:
  BufferCache(SimulatedDisk* disk, BufferCacheOptions options);

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Pins page `id`, reading it from disk on a miss.
  Result<PageRef> GetPage(PageId id);

  /// Allocates a fresh zeroed page on disk and pins it (no disk read).
  Result<PageRef> NewPage();

  /// Pins page `id` without reading it from disk — for pages the caller
  /// has just allocated (e.g. via an ExtentAllocator) and will fully
  /// overwrite. The frame starts zeroed.
  Result<PageRef> GetPageForInit(PageId id);

  /// Models `access` to byteless page `id`: the hits, misses, evictions,
  /// write-backs, flush stalls and write-through writes of the pin
  /// sequence it names, under one shard-lock acquisition and without
  /// holding the page's bytes.
  Status Touch(PageId id, PageAccess access);

  /// Writes all dirty pages back to disk.
  Status FlushAll();

  /// Drops every unpinned frame (dirty ones are flushed first). Simulates
  /// a cold cache / restart without re-opening the store.
  Status EvictAll();

  /// Aggregated counters across all shards (a consistent-enough snapshot
  /// for reporting; each shard is read under its lock).
  BufferCacheStats stats() const;
  void ResetStats();
  size_t capacity_pages() const { return options_.capacity_pages; }
  size_t cached_pages() const;
  /// Bytes of frame buffers held (frames a byte pin has landed in).
  uint64_t resident_bytes() const;
  size_t num_shards() const { return shards_.size(); }
  SimulatedDisk* disk() { return disk_; }

 private:
  friend class PageRef;

  struct Frame {
    PageId page_id = kInvalidPageId;
    std::unique_ptr<uint8_t[]> data;  // allocated by the first byte pin
    bool bytes = false;               // the resident page is a byte page
    bool dirty = false;
    uint32_t pins = 0;
    // Position in lru when unpinned; end() sentinel handled via flag.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  /// LockRank::kBufferCache: a miss reads the disk (LockRank::kDisk)
  /// while the shard lock is held, so the shard lock ranks above it.
  /// `frames` is deliberately unguarded: frame *contents* follow the pin
  /// protocol — a pinned frame cannot be evicted, and a buffer once
  /// allocated lives as long as the cache — so PageRef::data()/page_id()
  /// read it without the shard lock; all frame *bookkeeping* (buffer
  /// allocation, pins, dirty, lru linkage) happens under `mu`.
  struct Shard {
    mutable util::RankedMutex mu{util::LockRank::kBufferCache,
                                 "storage.buffercache.shard"};
    std::vector<Frame> frames;
    std::vector<size_t> free_frames MBQ_GUARDED_BY(mu);
    std::unordered_map<PageId, size_t> frame_of_page MBQ_GUARDED_BY(mu);
    std::list<size_t> lru MBQ_GUARDED_BY(mu);  // front = most recently used
    BufferCacheStats stats MBQ_GUARDED_BY(mu);
    size_t buffers MBQ_GUARDED_BY(mu) = 0;  // frames holding a buffer
  };

  size_t ShardOf(PageId id) const { return id % shards_.size(); }
  /// Pins page `id` for its bytes after `access` (kRead or kInit).
  Result<PageRef> Pin(PageId id, PageAccess access);
  /// Makes page `id` resident for `access` and returns its frame, out of
  /// the LRU list (the caller pins it or relinks it). A hit counts a hit;
  /// a miss claims a frame, counts a miss and reads the page unless
  /// `access` is kInit, which zero-fills it and leaves it dirty under
  /// write-back. `bytes` says whether the caller uses the page's bytes.
  Result<size_t> FixLocked(Shard& s, PageId id, PageAccess access,
                           bool bytes) MBQ_REQUIRES(s.mu);
  /// Frame with no resident page; may evict.
  Result<size_t> AcquireFrameLocked(Shard& s) MBQ_REQUIRES(s.mu);
  /// Writes the frame's page to disk (without bytes if it is byteless).
  Status WriteLocked(Shard& s, const Frame& f) MBQ_REQUIRES(s.mu);
  /// MarkDirty's effect: written now under write-through, else dirtied.
  Status DirtyLocked(Shard& s, Frame& f) MBQ_REQUIRES(s.mu);
  Status WriteBackLocked(Shard& s, size_t frame) MBQ_REQUIRES(s.mu);
  Status FlushShardLocked(Shard& s) MBQ_REQUIRES(s.mu);
  void UnlinkLocked(Shard& s, Frame& f) MBQ_REQUIRES(s.mu);
  /// Makes an unpinned frame the most recently used.
  void RelinkLocked(Shard& s, size_t frame) MBQ_REQUIRES(s.mu);
  void Unpin(size_t shard, size_t frame);

  SimulatedDisk* disk_;
  BufferCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mbq::storage

#endif  // MBQ_STORAGE_BUFFER_CACHE_H_
