#include "storage/storage_accountant.h"

#include "util/logging.h"

namespace mbq::storage {

StorageAccountant::StorageAccountant(BufferCache* cache,
                                     ExtentAllocator* extents)
    : cache_(cache), extents_(extents) {}

uint32_t StorageAccountant::NewStream() {
  streams_.emplace_back();
  return static_cast<uint32_t>(streams_.size() - 1);
}

Result<PageId> StorageAccountant::PageFor(uint32_t stream, uint64_t off) {
  Stream& s = streams_[stream];
  uint64_t page_index = off / kPageSize;
  while (s.pages.size() <= page_index) {
    s.pages.push_back(extents_->AllocatePage(stream));
  }
  return s.pages[page_index];
}

Result<uint64_t> StorageAccountant::AppendBytes(uint32_t stream,
                                                uint64_t bytes) {
  MBQ_CHECK(stream < streams_.size());
  Stream& s = streams_[stream];
  uint64_t start = s.bytes;
  uint64_t end = start + bytes;
  // Write through the cache page by page; a page is marked dirty once per
  // append that touches it (volume is what matters for the flush model).
  for (uint64_t off = start; off < end;
       off = (off / kPageSize + 1) * kPageSize) {
    MBQ_ASSIGN_OR_RETURN(PageId id, PageFor(stream, off));
    MBQ_RETURN_IF_ERROR(cache_->Touch(id, PageAccess::kInit));
  }
  s.bytes = end;
  return start;
}

Status StorageAccountant::TouchRange(uint32_t stream, uint64_t offset,
                                     uint64_t bytes, PageAccess access) {
  MBQ_CHECK(stream < streams_.size());
  Stream& s = streams_[stream];
  if (bytes == 0 || s.pages.empty()) return Status::OK();
  uint64_t first = offset / kPageSize;
  uint64_t last = (offset + bytes - 1) / kPageSize;
  if (first >= s.pages.size()) return Status::OK();
  last = std::min<uint64_t>(last, s.pages.size() - 1);
  for (uint64_t p = first; p <= last; ++p) {
    MBQ_RETURN_IF_ERROR(cache_->Touch(s.pages[p], access));
  }
  return Status::OK();
}

Status StorageAccountant::TouchRead(uint32_t stream, uint64_t offset,
                                    uint64_t bytes) {
  return TouchRange(stream, offset, bytes, PageAccess::kRead);
}

Status StorageAccountant::TouchWrite(uint32_t stream, uint64_t offset,
                                     uint64_t bytes) {
  return TouchRange(stream, offset, bytes, PageAccess::kReadModifyWrite);
}

Status StorageAccountant::Finalize() { return cache_->FlushAll(); }

uint64_t StorageAccountant::StreamBytes(uint32_t stream) const {
  MBQ_CHECK(stream < streams_.size());
  return streams_[stream].bytes;
}

uint64_t StorageAccountant::TotalBytes() const {
  uint64_t total = 0;
  for (const Stream& s : streams_) total += s.bytes;
  return total;
}

}  // namespace mbq::storage
