#include "nodestore/record_file.h"

#include "util/logging.h"

namespace mbq::nodestore {

using storage::kPageSize;
using storage::PageRef;

thread_local uint64_t DbHitCounter::tls_hits_ = 0;

RecordFile::RecordFile(std::string name, storage::BufferCache* cache,
                       uint32_t record_size, DbHitCounter* db_hits)
    : name_(std::move(name)),
      cache_(cache),
      record_size_(record_size),
      records_per_page_(kPageSize / record_size),
      db_hits_(db_hits) {
  MBQ_CHECK(record_size_ > 0 && record_size_ <= 128);
  MBQ_CHECK(records_per_page_ > 0);
}

Result<PageRef> RecordFile::PageForRecord(RecordId id) {
  uint64_t page_index = id / records_per_page_;
  while (pages_.size() <= page_index) {
    // Extend the store file by one page; the page is not read back.
    MBQ_ASSIGN_OR_RETURN(PageRef ref, cache_->NewPage());
    pages_.push_back(ref.page_id());
    ref.MarkDirty();
  }
  return cache_->GetPage(pages_[page_index]);
}

Result<RecordId> RecordFile::Allocate() {
  if (!free_list_.empty()) {
    RecordId id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  return high_id_++;
}

Status RecordFile::Read(RecordId id, uint8_t* out) {
  if (id >= high_id_) {
    return Status::OutOfRange(name_ + ": record " + std::to_string(id) +
                              " past high id " + std::to_string(high_id_));
  }
  if (db_hits_ != nullptr) db_hits_->Inc();
  MBQ_ASSIGN_OR_RETURN(PageRef ref, PageForRecord(id));
  uint64_t offset = (id % records_per_page_) * record_size_;
  std::memcpy(out, ref.data() + offset, record_size_);
  return Status::OK();
}

Status RecordFile::Write(RecordId id, const uint8_t* data) {
  if (id >= high_id_) {
    return Status::OutOfRange(name_ + ": record " + std::to_string(id) +
                              " past high id " + std::to_string(high_id_));
  }
  if (db_hits_ != nullptr) db_hits_->Inc();
  MBQ_ASSIGN_OR_RETURN(PageRef ref, PageForRecord(id));
  uint64_t offset = (id % records_per_page_) * record_size_;
  std::memcpy(ref.data() + offset, data, record_size_);
  ref.MarkDirty();
  return Status::OK();
}

Status RecordFile::Free(RecordId id) {
  if (id >= high_id_) {
    return Status::OutOfRange(name_ + ": freeing unallocated record");
  }
  free_list_.push_back(id);
  return Status::OK();
}

}  // namespace mbq::nodestore
