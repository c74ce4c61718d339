#include "storage/simulated_disk.h"

#include <string>

#include "util/logging.h"

namespace mbq::storage {

SimulatedDisk::SimulatedDisk(DiskProfile profile, Clock* clock)
    : profile_(profile), clock_(clock) {}

PageId SimulatedDisk::AllocatePage() {
  util::ScopedLock lock(mu_);
  pages_.emplace_back();
  return pages_.size() - 1;
}

void SimulatedDisk::Charge(PageId id, uint64_t transfer_nanos) {
  uint64_t nanos = transfer_nanos;
  bool sequential =
      last_page_ != kInvalidPageId &&
      (id >= last_page_ ? id - last_page_ : last_page_ - id) <=
          profile_.sequential_window;
  if (!sequential) {
    nanos += profile_.seek_nanos;
    ++stats_.seeks;
  }
  last_page_ = id;
  stats_.busy_nanos += nanos;
  clock_->AdvanceNanos(nanos);
}

Status SimulatedDisk::CheckFailure() {
  if (failing_) return Status::IoError("injected disk failure");
  if (fail_after_ == 0) {
    failing_ = true;
    return Status::IoError("injected disk failure");
  }
  if (fail_after_ != UINT64_MAX) --fail_after_;
  return Status::OK();
}

Status SimulatedDisk::BeginTransfer(PageId id, bool bytes,
                                    uint64_t transfer_nanos) {
  MBQ_RETURN_IF_ERROR(CheckFailure());
  if (id >= pages_.size()) {
    return Status::OutOfRange("transfer past end of disk: page " +
                              std::to_string(id));
  }
  PageUse use = bytes ? PageUse::kBytes : PageUse::kModelled;
  PageUse& seen = pages_[id].use;
  MBQ_CHECK_MSG(seen == PageUse::kNone || seen == use,
                "disk page " + std::to_string(id) +
                    (bytes ? " was transferred without bytes, now with them"
                           : " holds bytes, now transferred without them"));
  seen = use;
  Charge(id, transfer_nanos);
  return Status::OK();
}

Status SimulatedDisk::ReadPage(PageId id, uint8_t* out) {
  util::ScopedLock lock(mu_);
  MBQ_RETURN_IF_ERROR(
      BeginTransfer(id, out != nullptr, profile_.read_page_nanos));
  ++stats_.page_reads;
  if (out == nullptr) return Status::OK();
  const std::unique_ptr<uint8_t[]>& bytes = pages_[id].bytes;
  if (bytes != nullptr) {
    std::memcpy(out, bytes.get(), kPageSize);
  } else {
    std::memset(out, 0, kPageSize);
  }
  return Status::OK();
}

Status SimulatedDisk::WritePage(PageId id, const uint8_t* data) {
  util::ScopedLock lock(mu_);
  MBQ_RETURN_IF_ERROR(
      BeginTransfer(id, data != nullptr, profile_.write_page_nanos));
  ++stats_.page_writes;
  if (data == nullptr) return Status::OK();
  std::unique_ptr<uint8_t[]>& bytes = pages_[id].bytes;
  if (bytes == nullptr) {
    bytes = std::make_unique_for_overwrite<uint8_t[]>(kPageSize);
    ++resident_pages_;
  }
  std::memcpy(bytes.get(), data, kPageSize);
  return Status::OK();
}

}  // namespace mbq::storage
