#include "storage/wal.h"

#include <cstring>

namespace mbq::storage {

Wal::Wal(SimulatedDisk* disk) : disk_(disk) {}

uint64_t Wal::Append(const std::vector<uint8_t>& payload) {
  record_offsets_.push_back(buffer_.size());
  uint32_t size = static_cast<uint32_t>(payload.size());
  const uint8_t* size_bytes = reinterpret_cast<const uint8_t*>(&size);
  buffer_.insert(buffer_.end(), size_bytes, size_bytes + sizeof(size));
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
  return next_lsn_++;
}

Status Wal::Sync() {
  // Write every page that holds bytes in [durable_bytes_, buffer_.size()).
  if (durable_bytes_ == buffer_.size()) return Status::OK();
  uint64_t first_page = durable_bytes_ / kPageSize;
  uint64_t last_page = (buffer_.size() + kPageSize - 1) / kPageSize;
  while (pages_.size() < last_page) {
    pages_.push_back(disk_->AllocatePage());
  }
  // The log image lives in buffer_ (Replay reads it there), so the disk
  // only models the page writes.
  for (uint64_t p = first_page; p < last_page; ++p) {
    MBQ_RETURN_IF_ERROR(disk_->WritePage(pages_[p], nullptr));
    ++pages_written_;
  }
  ++syncs_;
  durable_bytes_ = buffer_.size();
  return Status::OK();
}

Status Wal::Replay(
    const std::function<Status(uint64_t, const std::vector<uint8_t>&)>& fn)
    const {
  uint64_t lsn = 0;
  for (uint64_t offset : record_offsets_) {
    if (offset + sizeof(uint32_t) > durable_bytes_) break;
    uint32_t size = 0;
    std::memcpy(&size, buffer_.data() + offset, sizeof(size));
    if (offset + sizeof(uint32_t) + size > durable_bytes_) break;
    std::vector<uint8_t> payload(
        buffer_.begin() + offset + sizeof(uint32_t),
        buffer_.begin() + offset + sizeof(uint32_t) + size);
    MBQ_RETURN_IF_ERROR(fn(lsn, payload));
    ++lsn;
  }
  return Status::OK();
}

void Wal::Reset() {
  buffer_.clear();
  record_offsets_.clear();
  durable_bytes_ = 0;
  next_lsn_ = 0;
}

}  // namespace mbq::storage
