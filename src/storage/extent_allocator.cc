#include "storage/extent_allocator.h"

#include "util/logging.h"

namespace mbq::storage {

ExtentAllocator::ExtentAllocator(SimulatedDisk* disk, uint32_t extent_pages)
    : disk_(disk), extent_pages_(extent_pages) {
  MBQ_CHECK(extent_pages_ > 0);
  // Extent directory page at the front of the device.
  directory_page_ = disk_->AllocatePage();
}

PageId ExtentAllocator::AllocatePage(uint32_t stream) {
  StreamState& state = streams_[stream];
  if (state.remaining_in_extent == 0) {
    // Claim a contiguous run from the disk tail: SimulatedDisk allocates
    // sequentially, so the run occupies consecutive page ids.
    PageId first = disk_->AllocatePage();
    for (uint32_t i = 1; i < extent_pages_; ++i) disk_->AllocatePage();
    ++extents_allocated_;
    // Record the extent in the directory — a seek back to the front of
    // the device. This is why tiny extents are fast at first but degrade
    // as the database (and the directory round trips) grow.
    Status st = disk_->WritePage(directory_page_, nullptr);
    MBQ_CHECK(st.ok());
    state.next_page = first;
    state.remaining_in_extent = extent_pages_;
  }
  PageId page = state.next_page++;
  --state.remaining_in_extent;
  state.pages.push_back(page);
  return page;
}

const std::vector<PageId>& ExtentAllocator::StreamPages(uint32_t stream) const {
  static const std::vector<PageId> kEmpty;
  auto it = streams_.find(stream);
  return it == streams_.end() ? kEmpty : it->second.pages;
}

}  // namespace mbq::storage
