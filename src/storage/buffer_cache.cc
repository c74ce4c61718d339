#include "storage/buffer_cache.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/logging.h"

namespace mbq::storage {

PageRef::~PageRef() { Release(); }

PageRef::PageRef(PageRef&& other) noexcept
    : cache_(other.cache_), shard_(other.shard_), frame_(other.frame_) {
  other.cache_ = nullptr;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    other.cache_ = nullptr;
  }
  return *this;
}

void PageRef::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(shard_, frame_);
    cache_ = nullptr;
  }
}

// A pinned frame cannot be evicted and its buffer, once allocated, is
// never freed or replaced, so data()/page_id() need no lock — concurrent
// pinned readers of the same page are plain const reads.
uint8_t* PageRef::data() {
  MBQ_CHECK(cache_ != nullptr);
  return cache_->shards_[shard_]->frames[frame_].data.get();
}

const uint8_t* PageRef::data() const {
  MBQ_CHECK(cache_ != nullptr);
  return cache_->shards_[shard_]->frames[frame_].data.get();
}

PageId PageRef::page_id() const {
  MBQ_CHECK(cache_ != nullptr);
  return cache_->shards_[shard_]->frames[frame_].page_id;
}

void PageRef::MarkDirty() {
  MBQ_CHECK(cache_ != nullptr);
  BufferCache::Shard& s = *cache_->shards_[shard_];
  util::ScopedLock lock(s.mu);
  Status st = cache_->DirtyLocked(s, s.frames[frame_]);
  MBQ_CHECK(st.ok());
}

BufferCache::BufferCache(SimulatedDisk* disk, BufferCacheOptions options)
    : disk_(disk), options_(options) {
  MBQ_CHECK(options_.capacity_pages > 0);
  size_t num_shards = options_.shards;
  if (num_shards == 0) {
    num_shards = std::clamp<size_t>(options_.capacity_pages / 256, 1, 16);
  }
  num_shards = std::min(num_shards, options_.capacity_pages);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    // First `capacity % shards` shards get one extra frame.
    size_t cap = options_.capacity_pages / num_shards +
                 (s < options_.capacity_pages % num_shards ? 1 : 0);
    auto shard = std::make_unique<Shard>();
    shard->frames.resize(cap);
    shard->free_frames.reserve(cap);
    for (size_t i = 0; i < cap; ++i) {
      shard->free_frames.push_back(cap - 1 - i);
    }
    shards_.push_back(std::move(shard));
  }
}

void BufferCache::UnlinkLocked(Shard& s, Frame& f) {
  if (f.in_lru) {
    s.lru.erase(f.lru_pos);
    f.in_lru = false;
  }
}

void BufferCache::RelinkLocked(Shard& s, size_t frame) {
  Frame& f = s.frames[frame];
  if (f.pins == 0) {
    s.lru.push_front(frame);
    f.lru_pos = s.lru.begin();
    f.in_lru = true;
  }
}

void BufferCache::Unpin(size_t shard, size_t frame) {
  Shard& s = *shards_[shard];
  util::ScopedLock lock(s.mu);
  Frame& f = s.frames[frame];
  MBQ_CHECK(f.pins > 0);
  --f.pins;
  RelinkLocked(s, frame);
}

Status BufferCache::WriteLocked(Shard& s, const Frame& f) {
  MBQ_RETURN_IF_ERROR(
      disk_->WritePage(f.page_id, f.bytes ? f.data.get() : nullptr));
  ++s.stats.pages_flushed;
  return Status::OK();
}

Status BufferCache::DirtyLocked(Shard& s, Frame& f) {
  if (options_.write_policy == WritePolicy::kWriteThrough) {
    return WriteLocked(s, f);
  }
  f.dirty = true;
  return Status::OK();
}

Status BufferCache::WriteBackLocked(Shard& s, size_t frame) {
  Frame& f = s.frames[frame];
  if (f.dirty) {
    MBQ_RETURN_IF_ERROR(WriteLocked(s, f));
    f.dirty = false;
  }
  return Status::OK();
}

Result<size_t> BufferCache::AcquireFrameLocked(Shard& s) {
  if (!s.free_frames.empty()) {
    size_t frame = s.free_frames.back();
    s.free_frames.pop_back();
    return frame;
  }
  if (s.lru.empty()) {
    return Status::FailedPrecondition(
        "buffer cache exhausted: all frames pinned");
  }
  // Prefer evicting a clean page (cheap). If none is clean and the
  // flush-all policy is on, flush the shard's entire dirty set in one
  // stall (shard-local so no cross-shard lock nesting).
  size_t victim = s.lru.back();
  if (s.frames[victim].dirty && options_.flush_all_when_full) {
    ++s.stats.flush_stalls;
    MBQ_RETURN_IF_ERROR(FlushShardLocked(s));
  }
  victim = s.lru.back();
  s.lru.pop_back();
  s.frames[victim].in_lru = false;
  MBQ_RETURN_IF_ERROR(WriteBackLocked(s, victim));
  s.frame_of_page.erase(s.frames[victim].page_id);
  s.frames[victim].page_id = kInvalidPageId;
  ++s.stats.evictions;
  return victim;
}

Result<size_t> BufferCache::FixLocked(Shard& s, PageId id, PageAccess access,
                                      bool bytes) {
  auto it = s.frame_of_page.find(id);
  if (it != s.frame_of_page.end()) {
    Frame& f = s.frames[it->second];
    MBQ_CHECK_MSG(f.bytes == bytes,
                  "page " + std::to_string(id) +
                      (bytes ? " is byteless (only touched), now pinned for "
                               "its bytes"
                             : " is a byte page (pinned), now touched "
                               "without its bytes"));
    ++s.stats.hits;
    UnlinkLocked(s, f);
    return it->second;
  }
  if (access != PageAccess::kInit) ++s.stats.misses;
  MBQ_ASSIGN_OR_RETURN(size_t frame, AcquireFrameLocked(s));
  Frame& f = s.frames[frame];
  if (bytes && f.data == nullptr) {
    f.data = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
    ++s.buffers;
  }
  uint8_t* buffer = bytes ? f.data.get() : nullptr;
  if (access == PageAccess::kInit) {
    if (buffer != nullptr) std::memset(buffer, 0, kPageSize);
  } else {
    // The disk read happens under the shard lock, so a second reader of
    // the same page waits here and then hits the freshly loaded frame.
    Status st = disk_->ReadPage(id, buffer);
    if (!st.ok()) {
      s.free_frames.push_back(frame);
      return st;
    }
  }
  f.page_id = id;
  f.bytes = bytes;
  f.dirty = access == PageAccess::kInit &&
            options_.write_policy == WritePolicy::kWriteBack;
  s.frame_of_page[id] = frame;
  return frame;
}

Result<PageRef> BufferCache::Pin(PageId id, PageAccess access) {
  size_t si = ShardOf(id);
  Shard& s = *shards_[si];
  util::ScopedLock lock(s.mu);
  MBQ_ASSIGN_OR_RETURN(size_t frame, FixLocked(s, id, access, /*bytes=*/true));
  ++s.frames[frame].pins;
  return PageRef(this, si, frame);
}

Result<PageRef> BufferCache::GetPage(PageId id) {
  return Pin(id, PageAccess::kRead);
}

Result<PageRef> BufferCache::GetPageForInit(PageId id) {
  return Pin(id, PageAccess::kInit);
}

Result<PageRef> BufferCache::NewPage() {
  return Pin(disk_->AllocatePage(), PageAccess::kInit);
}

Status BufferCache::Touch(PageId id, PageAccess access) {
  Shard& s = *shards_[ShardOf(id)];
  util::ScopedLock lock(s.mu);
  MBQ_ASSIGN_OR_RETURN(size_t frame,
                       FixLocked(s, id, access, /*bytes=*/false));
  Status st = access == PageAccess::kRead
                  ? Status::OK()
                  : DirtyLocked(s, s.frames[frame]);
  RelinkLocked(s, frame);
  return st;
}

Status BufferCache::FlushShardLocked(Shard& s) {
  // Elevator flush: write dirty pages in ascending page order so the
  // device sees one mostly-sequential sweep.
  std::vector<std::pair<PageId, size_t>> dirty;
  for (size_t i = 0; i < s.frames.size(); ++i) {
    if (s.frames[i].page_id != kInvalidPageId && s.frames[i].dirty) {
      dirty.emplace_back(s.frames[i].page_id, i);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  for (const auto& [page, frame] : dirty) {
    MBQ_RETURN_IF_ERROR(WriteBackLocked(s, frame));
  }
  return Status::OK();
}

Status BufferCache::FlushAll() {
  for (auto& shard : shards_) {
    util::ScopedLock lock(shard->mu);
    MBQ_RETURN_IF_ERROR(FlushShardLocked(*shard));
  }
  return Status::OK();
}

Status BufferCache::EvictAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    util::ScopedLock lock(s.mu);
    MBQ_RETURN_IF_ERROR(FlushShardLocked(s));
    for (size_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.page_id == kInvalidPageId || f.pins > 0) continue;
      if (f.in_lru) {
        s.lru.erase(f.lru_pos);
        f.in_lru = false;
      }
      s.frame_of_page.erase(f.page_id);
      f.page_id = kInvalidPageId;
      s.free_frames.push_back(i);
    }
  }
  return Status::OK();
}

BufferCacheStats BufferCache::stats() const {
  BufferCacheStats total;
  for (const auto& shard : shards_) {
    util::ScopedLock lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.pages_flushed += shard->stats.pages_flushed;
    total.flush_stalls += shard->stats.flush_stalls;
  }
  return total;
}

void BufferCache::ResetStats() {
  for (auto& shard : shards_) {
    util::ScopedLock lock(shard->mu);
    shard->stats = BufferCacheStats();
  }
}

size_t BufferCache::cached_pages() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    util::ScopedLock lock(shard->mu);
    total += shard->frame_of_page.size();
  }
  return total;
}

uint64_t BufferCache::resident_bytes() const {
  uint64_t buffers = 0;
  for (const auto& shard : shards_) {
    util::ScopedLock lock(shard->mu);
    buffers += shard->buffers;
  }
  return buffers * kPageSize;
}

}  // namespace mbq::storage
