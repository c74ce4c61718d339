#include <gtest/gtest.h>

#include <cstring>

#include "core/calls.h"
#include "core/engine.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "storage/buffer_cache.h"
#include "storage/extent_allocator.h"
#include "storage/simulated_disk.h"
#include "storage/storage_accountant.h"
#include "storage/wal.h"
#include "twitter/loaders.h"
#include "util/clock.h"

namespace mbq::storage {
namespace {

// ---------------------------------------------------------- SimulatedDisk

TEST(SimulatedDiskTest, RoundTripsPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  PageId p0 = disk.AllocatePage();
  PageId p1 = disk.AllocatePage();
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);

  std::vector<uint8_t> data(kPageSize, 0xAB);
  ASSERT_TRUE(disk.WritePage(p1, data.data()).ok());
  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_TRUE(disk.ReadPage(p1, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), kPageSize), 0);
  // p0 stays zeroed.
  ASSERT_TRUE(disk.ReadPage(p0, out.data()).ok());
  EXPECT_EQ(out[0], 0);
}

TEST(SimulatedDiskTest, RejectsOutOfRange) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).IsOutOfRange());
  disk.AllocatePage();
  EXPECT_TRUE(disk.ReadPage(1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk.WritePage(9, buf.data()).IsOutOfRange());
}

TEST(SimulatedDiskTest, ChargesSeekForRandomAccess) {
  VirtualClock clock;
  DiskProfile profile;  // HDD-like
  SimulatedDisk disk(profile, &clock);
  for (int i = 0; i < 1000; ++i) disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);

  // Sequential scan: one seek then transfers.
  disk.ResetStats();
  for (PageId p = 0; p < 100; ++p) ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
  uint64_t seq_seeks = disk.stats().seeks;
  uint64_t seq_nanos = disk.stats().busy_nanos;

  // Strided scan: every access seeks.
  disk.ResetStats();
  for (PageId p = 0; p < 1000; p += 100) {
    ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
  }
  EXPECT_LE(seq_seeks, 2u);
  EXPECT_EQ(disk.stats().seeks, 10u);
  EXPECT_GT(disk.stats().busy_nanos / 10, seq_nanos / 100);
}

TEST(SimulatedDiskTest, TimeFlowsToClock) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile(), &clock);
  disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(clock.NowNanos(), disk.stats().busy_nanos);
  EXPECT_GT(clock.NowNanos(), 0u);
}

TEST(SimulatedDiskTest, ByteslessTransfersAreModelledOnly) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile(), &clock);
  PageId modelled = disk.AllocatePage();
  PageId written = disk.AllocatePage();
  PageId unwritten = disk.AllocatePage();
  EXPECT_EQ(disk.SizeBytes(), 3 * kPageSize);
  EXPECT_EQ(disk.ResidentBytes(), 0u);

  // A null buffer charges and counts the transfer but copies nothing.
  ASSERT_TRUE(disk.WritePage(modelled, nullptr).ok());
  ASSERT_TRUE(disk.ReadPage(modelled, nullptr).ok());
  EXPECT_EQ(disk.stats().page_writes, 1u);
  EXPECT_EQ(disk.stats().page_reads, 1u);
  EXPECT_EQ(clock.NowNanos(), disk.stats().busy_nanos);
  EXPECT_EQ(disk.ResidentBytes(), 0u);

  // The first write with bytes gives the page its buffer.
  std::vector<uint8_t> data(kPageSize, 0x5A);
  ASSERT_TRUE(disk.WritePage(written, data.data()).ok());
  ASSERT_TRUE(disk.WritePage(written, data.data()).ok());
  EXPECT_EQ(disk.ResidentBytes(), kPageSize);
  std::vector<uint8_t> out(kPageSize, 0xFF);
  ASSERT_TRUE(disk.ReadPage(written, out.data()).ok());
  EXPECT_EQ(out, data);
  // A page never written reads as zeros and still holds nothing.
  ASSERT_TRUE(disk.ReadPage(unwritten, out.data()).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_EQ(disk.ResidentBytes(), kPageSize);
}

// ------------------------------------------------------------ BufferCache

BufferCacheOptions SmallCache(size_t pages) {
  BufferCacheOptions options;
  options.capacity_pages = pages;
  return options;
}

TEST(BufferCacheTest, CachesReads) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(4));
  PageId id;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
  }
  uint64_t misses = cache.stats().misses;
  for (int i = 0; i < 10; ++i) {
    auto ref = cache.GetPage(id);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(cache.stats().misses, misses);  // all hits
  EXPECT_GE(cache.stats().hits, 10u);
}

TEST(BufferCacheTest, WritesBackDirtyPagesOnEviction) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(2));
  PageId first;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    first = page->page_id();
    page->data()[0] = 0x7F;
    page->MarkDirty();
  }
  // Fill the cache to force eviction of `first`.
  for (int i = 0; i < 4; ++i) {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage(first, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x7F);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BufferCacheTest, PinnedPagesSurviveEviction) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(3));
  auto pinned = cache.NewPage();
  ASSERT_TRUE(pinned.ok());
  pinned->data()[1] = 0x55;
  // Churn through many pages; the pinned frame must not be reused.
  for (int i = 0; i < 10; ++i) {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
  }
  EXPECT_EQ(pinned->data()[1], 0x55);
}

TEST(BufferCacheTest, AllPinnedFails) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(2));
  auto a = cache.NewPage();
  auto b = cache.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = cache.NewPage();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsFailedPrecondition());
}

TEST(BufferCacheTest, WriteThroughPropagatesImmediately) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options = SmallCache(4);
  options.write_policy = WritePolicy::kWriteThrough;
  BufferCache cache(&disk, options);
  auto page = cache.NewPage();
  ASSERT_TRUE(page.ok());
  page->data()[5] = 0x11;
  page->MarkDirty();
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(disk.ReadPage(page->page_id(), buf.data()).ok());
  EXPECT_EQ(buf[5], 0x11);
}

TEST(BufferCacheTest, FlushAllStallCountsOnce) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options = SmallCache(4);
  options.flush_all_when_full = true;
  BufferCache cache(&disk, options);
  for (int i = 0; i < 12; ++i) {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }
  EXPECT_GT(cache.stats().flush_stalls, 0u);
}

TEST(BufferCacheTest, EvictAllColdStart) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(8));
  PageId id;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
    page->data()[0] = 9;
    page->MarkDirty();
  }
  ASSERT_TRUE(cache.EvictAll().ok());
  EXPECT_EQ(cache.cached_pages(), 0u);
  uint64_t misses = cache.stats().misses;
  auto ref = cache.GetPage(id);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(cache.stats().misses, misses + 1);  // cold read
  EXPECT_EQ(ref->data()[0], 9);                 // data survived the flush
}

// Touch() models exactly the cache and disk traffic of the pin sequence
// it names, under every write policy, while holding no page bytes.
TEST(BufferCacheTest, TouchMatchesThePinSequences) {
  struct Op {
    PageAccess access;
    PageId page;
  };
  std::vector<Op> ops;
  for (PageId p = 0; p < 12; ++p) ops.push_back({PageAccess::kInit, p});
  for (PageId p : {0, 5, 2, 7, 2, 11, 3, 0, 9, 9, 4, 1}) {
    ops.push_back({p % 3 == 0 ? PageAccess::kReadModifyWrite
                              : PageAccess::kRead,
                   p});
  }
  for (PageId p : {6, 7}) ops.push_back({PageAccess::kInit, p});

  for (int policy = 0; policy < 3; ++policy) {
    SCOPED_TRACE(policy);
    BufferCacheOptions options = SmallCache(4);
    options.flush_all_when_full = policy == 1;
    if (policy == 2) options.write_policy = WritePolicy::kWriteThrough;
    VirtualClock pin_clock;
    VirtualClock touch_clock;
    SimulatedDisk pin_disk(DiskProfile(), &pin_clock);
    SimulatedDisk touch_disk(DiskProfile(), &touch_clock);
    for (size_t i = 0; i < 12; ++i) {
      pin_disk.AllocatePage();
      touch_disk.AllocatePage();
    }
    BufferCache pinned(&pin_disk, options);
    BufferCache touched(&touch_disk, options);
    for (const Op& op : ops) {
      auto ref = op.access == PageAccess::kInit ? pinned.GetPageForInit(op.page)
                                                : pinned.GetPage(op.page);
      ASSERT_TRUE(ref.ok());
      if (op.access != PageAccess::kRead) ref->MarkDirty();
      ASSERT_TRUE(touched.Touch(op.page, op.access).ok());
    }
    ASSERT_TRUE(pinned.EvictAll().ok());
    ASSERT_TRUE(touched.EvictAll().ok());

    const BufferCacheStats a = pinned.stats();
    const BufferCacheStats b = touched.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.pages_flushed, b.pages_flushed);
    EXPECT_EQ(a.flush_stalls, b.flush_stalls);
    EXPECT_GT(a.evictions, 0u);
    EXPECT_EQ(pin_disk.stats().page_reads, touch_disk.stats().page_reads);
    EXPECT_EQ(pin_disk.stats().page_writes, touch_disk.stats().page_writes);
    EXPECT_EQ(pin_disk.stats().seeks, touch_disk.stats().seeks);
    EXPECT_EQ(pin_disk.stats().busy_nanos, touch_disk.stats().busy_nanos);
    EXPECT_EQ(pinned.resident_bytes(), 4 * kPageSize);
    EXPECT_EQ(pin_disk.ResidentBytes(), 12 * kPageSize);
    EXPECT_EQ(touched.resident_bytes(), 0u);
    EXPECT_EQ(touch_disk.ResidentBytes(), 0u);
  }
}

TEST(BufferCacheTest, FramesGetTheirBufferOnTheFirstBytePin) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(1024));
  EXPECT_EQ(cache.resident_bytes(), 0u);
  PageId byteless = disk.AllocatePage();
  ASSERT_TRUE(cache.Touch(byteless, PageAccess::kInit).ok());
  EXPECT_EQ(cache.resident_bytes(), 0u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(cache.NewPage().ok());
  EXPECT_EQ(cache.resident_bytes(), 3 * kPageSize);
  // Dropped and re-read, the pages land in frames that already hold a
  // buffer.
  ASSERT_TRUE(cache.EvictAll().ok());
  for (PageId p = 1; p <= 3; ++p) ASSERT_TRUE(cache.GetPage(p).ok());
  EXPECT_EQ(cache.resident_bytes(), 3 * kPageSize);
}

// Frames keep their buffer across pages of either kind; a byteless page
// in a frame that holds one still reaches the disk without bytes.
TEST(BufferCacheTest, ReclaimedFramesKeepEachPageItsKind) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(1));
  PageId byte_page;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    byte_page = page->page_id();
    page->data()[0] = 7;
  }
  PageId byteless = disk.AllocatePage();
  // Evicts the byte page, with its bytes, into the disk.
  ASSERT_TRUE(cache.Touch(byteless, PageAccess::kInit).ok());
  ASSERT_TRUE(cache.EvictAll().ok());
  EXPECT_EQ(disk.stats().page_writes, 2u);
  EXPECT_EQ(disk.ResidentBytes(), kPageSize);
  EXPECT_EQ(cache.resident_bytes(), kPageSize);
  ASSERT_TRUE(cache.Touch(byteless, PageAccess::kRead).ok());
  auto back = cache.GetPage(byte_page);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data()[0], 7);
  EXPECT_EQ(cache.resident_bytes(), kPageSize);
}

TEST(BufferCacheDeathTest, BytePinOnABytelessPageAbortsNamingIt) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, SmallCache(4));
  disk.AllocatePage();
  PageId page = disk.AllocatePage();
  ASSERT_TRUE(cache.Touch(page, PageAccess::kInit).ok());
  // Resident: the frame knows its page is byteless.
  EXPECT_DEATH((void)cache.GetPage(page), "page 1 is byteless");
  // Written back and dropped: the disk remembers.
  ASSERT_TRUE(cache.EvictAll().ok());
  EXPECT_DEATH((void)cache.GetPage(page),
               "disk page 1 was transferred without bytes");
  PageId pinned = disk.AllocatePage();
  ASSERT_TRUE(cache.GetPageForInit(pinned).ok());
  EXPECT_DEATH((void)cache.Touch(pinned, PageAccess::kRead),
               "page 2 is a byte page");
}

// -------------------------------------------------------------------- WAL

TEST(WalTest, AppendsAndReplaysDurableRecords) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  std::vector<uint8_t> rec1{1, 2, 3};
  std::vector<uint8_t> rec2{4, 5};
  EXPECT_EQ(wal.Append(rec1), 0u);
  EXPECT_EQ(wal.Append(rec2), 1u);
  ASSERT_TRUE(wal.Sync().ok());

  std::vector<std::vector<uint8_t>> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t lsn, const std::vector<uint8_t>& p) {
                   EXPECT_EQ(lsn, seen.size());
                   seen.push_back(p);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], rec1);
  EXPECT_EQ(seen[1], rec2);
}

TEST(WalTest, UnsyncedRecordsAreNotDurable) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  wal.Append({1});
  ASSERT_TRUE(wal.Sync().ok());
  wal.Append({2});  // not synced
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, const std::vector<uint8_t>&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST(WalTest, LargeRecordsSpanPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  std::vector<uint8_t> big(3 * kPageSize, 0xEE);
  wal.Append(big);
  ASSERT_TRUE(wal.Sync().ok());
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, const std::vector<uint8_t>& p) {
                   EXPECT_EQ(p, big);
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
  EXPECT_GE(disk.num_pages(), 3u);
}

TEST(WalTest, ResetClearsLog) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  Wal wal(&disk);
  wal.Append({1});
  ASSERT_TRUE(wal.Sync().ok());
  wal.Reset();
  EXPECT_EQ(wal.next_lsn(), 0u);
  size_t count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, const std::vector<uint8_t>&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 0u);
}

// -------------------------------------------------------- ExtentAllocator

TEST(ExtentAllocatorTest, StreamsGetContiguousRuns) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  ExtentAllocator extents(&disk, /*extent_pages=*/4);
  std::vector<PageId> a;
  for (int i = 0; i < 4; ++i) a.push_back(extents.AllocatePage(0));
  // One extent: consecutive page ids.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(a[i], a[i - 1] + 1);
  EXPECT_EQ(extents.extents_allocated(), 1u);
}

TEST(ExtentAllocatorTest, InterleavedStreamsFragmentWithSmallExtents) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  ExtentAllocator small(&disk, 1);
  // Alternate two streams: with 1-page extents their pages interleave.
  PageId s0a = small.AllocatePage(0);
  PageId s1a = small.AllocatePage(1);
  PageId s0b = small.AllocatePage(0);
  EXPECT_EQ(s1a, s0a + 1);
  EXPECT_EQ(s0b, s1a + 1);  // stream 0 is no longer contiguous

  ExtentAllocator big(&disk, 8);
  PageId b0a = big.AllocatePage(0);
  big.AllocatePage(1);
  PageId b0b = big.AllocatePage(0);
  EXPECT_EQ(b0b, b0a + 1);  // still inside stream 0's extent
}

TEST(ExtentAllocatorTest, TracksStreamPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  ExtentAllocator extents(&disk, 2);
  extents.AllocatePage(3);
  extents.AllocatePage(3);
  extents.AllocatePage(3);
  EXPECT_EQ(extents.StreamPages(3).size(), 3u);
  EXPECT_TRUE(extents.StreamPages(99).empty());
  EXPECT_EQ(extents.extents_allocated(), 2u);
}

// ------------------------------------------------------ StorageAccountant

TEST(StorageAccountantTest, AppendsAllocatePagesAndFlush) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, BufferCacheOptions{});
  ExtentAllocator extents(&disk, 8);
  StorageAccountant acct(&cache, &extents);
  uint32_t stream = acct.NewStream();
  auto off0 = acct.AppendBytes(stream, 100);
  ASSERT_TRUE(off0.ok());
  EXPECT_EQ(*off0, 0u);
  auto off1 = acct.AppendBytes(stream, kPageSize);
  ASSERT_TRUE(off1.ok());
  EXPECT_EQ(*off1, 100u);
  EXPECT_EQ(acct.StreamBytes(stream), 100 + kPageSize);
  ASSERT_TRUE(acct.Finalize().ok());
  EXPECT_GT(disk.stats().page_writes, 0u);
}

TEST(StorageAccountantTest, TouchReadChargesColdPages) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options;
  options.capacity_pages = 16;
  BufferCache cache(&disk, options);
  ExtentAllocator extents(&disk, 8);
  StorageAccountant acct(&cache, &extents);
  uint32_t stream = acct.NewStream();
  ASSERT_TRUE(acct.AppendBytes(stream, 4 * kPageSize).ok());
  ASSERT_TRUE(acct.Finalize().ok());
  ASSERT_TRUE(cache.EvictAll().ok());
  uint64_t reads = disk.stats().page_reads;
  ASSERT_TRUE(acct.TouchRead(stream, 0, 2 * kPageSize).ok());
  EXPECT_GE(disk.stats().page_reads, reads + 2);
  // Warm now: no further reads.
  reads = disk.stats().page_reads;
  ASSERT_TRUE(acct.TouchRead(stream, 0, 2 * kPageSize).ok());
  EXPECT_EQ(disk.stats().page_reads, reads);
}

TEST(StorageAccountantTest, TouchPastEndIsSafe) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, BufferCacheOptions{});
  ExtentAllocator extents(&disk, 8);
  StorageAccountant acct(&cache, &extents);
  uint32_t stream = acct.NewStream();
  EXPECT_TRUE(acct.TouchRead(stream, 0, 100).ok());  // empty stream
  ASSERT_TRUE(acct.AppendBytes(stream, 10).ok());
  EXPECT_TRUE(acct.TouchRead(stream, 5 * kPageSize, 100).ok());
}

}  // namespace
}  // namespace mbq::storage

namespace mbq::storage {
namespace {

// --------------------------------------------------------- Fault injection

TEST(FaultInjectionTest, DiskFailsAfterBudget) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  disk.AllocatePage();
  std::vector<uint8_t> buf(kPageSize);
  disk.InjectFailureAfter(2);
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).ok());
  EXPECT_TRUE(disk.WritePage(0, buf.data()).ok());
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).IsIoError());
  EXPECT_TRUE(disk.WritePage(0, buf.data()).IsIoError());
  disk.ClearFailure();
  EXPECT_TRUE(disk.ReadPage(0, buf.data()).ok());
}

TEST(FaultInjectionTest, BufferCachePropagatesReadFailure) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCacheOptions options;
  options.capacity_pages = 4;
  BufferCache cache(&disk, options);
  PageId id;
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->page_id();
    page->MarkDirty();
  }
  ASSERT_TRUE(cache.EvictAll().ok());
  disk.InjectFailureAfter(0);
  auto ref = cache.GetPage(id);
  EXPECT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsIoError());
  // The cache stays usable after the device recovers.
  disk.ClearFailure();
  auto again = cache.GetPage(id);
  EXPECT_TRUE(again.ok());
}

TEST(FaultInjectionTest, FlushSurfacesWriteFailure) {
  VirtualClock clock;
  SimulatedDisk disk(DiskProfile::Instant(), &clock);
  BufferCache cache(&disk, BufferCacheOptions{});
  {
    auto page = cache.NewPage();
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }
  disk.InjectFailureAfter(0);
  EXPECT_TRUE(cache.FlushAll().IsIoError());
  disk.ClearFailure();
  EXPECT_TRUE(cache.FlushAll().ok());
}

}  // namespace
}  // namespace mbq::storage

namespace mbq::storage {
namespace {

// ----------------------------------------------------------- StorageModel

// The modelled I/O of both stores, pinned end to end: a fixed small
// dataset loaded on the HDD profile through caches small enough to evict
// (the bitmap store stalls to flush its full cache, and one record store
// writes through), then a cold cache and one sequential run of the Table 2
// anchors. The counters are exact, so any change to how pages are
// allocated, cached, evicted, written back or charged moves them.
struct ModelledIo {
  BufferCacheStats cache;
  DiskStats disk;
  uint64_t disk_size_bytes = 0;
};

class StorageModelTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kCacheBytes = 32 * kPageSize;

  static void SetUpTestSuite() {
    twitter::DatasetSpec spec;
    spec.num_users = 300;
    spec.follows_per_user = 6;
    spec.mentions_per_tweet = 1.2;
    spec.active_user_fraction = 0.3;
    spec.tweets_per_active_user = 5;
    spec.seed = 2015;
    dataset_ = new twitter::Dataset(twitter::GenerateDataset(spec));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// One call per Table 2 query, at the anchors bench_table2 picks.
  static std::vector<core::CallSpec> Table2Anchors() {
    auto by_mentions = core::UsersByMentionCount(*dataset_);
    auto by_followees = core::UsersByFolloweeCount(*dataset_);
    auto tags = core::HashtagsByUse(*dataset_);
    const int64_t a = by_followees[by_followees.size() * 3 / 4].second;
    const int64_t b = by_followees[by_followees.size() / 3].second;
    const int64_t mentioned = by_mentions.back().second;
    std::vector<core::CallSpec> specs;
    auto add = [&specs](core::CallKind kind, int64_t uid) -> core::CallSpec& {
      core::CallSpec& spec = specs.emplace_back();
      spec.kind = kind;
      spec.a = uid;
      return spec;
    };
    add(core::CallKind::kSelectUsers, 0).threshold = 10;
    add(core::CallKind::kFollowees, a);
    add(core::CallKind::kTweetsOfFollowees, a);
    add(core::CallKind::kHashtagsOfFollowees, a);
    add(core::CallKind::kTopCoMentioned, mentioned);
    add(core::CallKind::kTopCoTags, 0).tag = tags.back().second;
    add(core::CallKind::kRecFollowees, a);
    add(core::CallKind::kRecFollowers, a);
    add(core::CallKind::kCurrentInfluence, mentioned);
    add(core::CallKind::kPotentialInfluence, mentioned);
    add(core::CallKind::kShortestPath, a).b = b;
    return specs;
  }

  /// Drops `engine`'s caches, then runs every anchor once, sequentially.
  static void RunAnchorsCold(core::MicroblogEngine& engine) {
    engine.SetThreads(1);
    ASSERT_TRUE(engine.DropCaches().ok());
    for (const core::CallSpec& spec : Table2Anchors()) {
      auto rows = core::RunCall(engine, spec);
      ASSERT_TRUE(rows.ok()) << core::CallSpecToString(spec) << ": "
                             << rows.status().ToString();
    }
  }

  static void ExpectModelledIo(const ModelledIo& got, const ModelledIo& want) {
    EXPECT_EQ(got.cache.hits, want.cache.hits);
    EXPECT_EQ(got.cache.misses, want.cache.misses);
    EXPECT_EQ(got.cache.evictions, want.cache.evictions);
    EXPECT_EQ(got.cache.pages_flushed, want.cache.pages_flushed);
    EXPECT_EQ(got.cache.flush_stalls, want.cache.flush_stalls);
    EXPECT_EQ(got.disk.page_reads, want.disk.page_reads);
    EXPECT_EQ(got.disk.page_writes, want.disk.page_writes);
    EXPECT_EQ(got.disk.seeks, want.disk.seeks);
    EXPECT_EQ(got.disk.busy_nanos, want.disk.busy_nanos);
    EXPECT_EQ(got.disk_size_bytes, want.disk_size_bytes);
  }

  static ModelledIo RecordStoreIo(bool write_through) {
    nodestore::GraphDbOptions options;
    options.cache_bytes = kCacheBytes;
    options.write_through = write_through;
    nodestore::GraphDb db(options);
    EXPECT_TRUE(twitter::LoadIntoNodestore(*dataset_, &db).ok());
    core::EngineOptions engine_options;
    engine_options.db = &db;
    auto engine = core::OpenEngine(core::EngineKind::kNodestore, engine_options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (engine.ok()) RunAnchorsCold(**engine);
    return ModelledIo{db.cache_stats(), db.disk_stats(), db.DiskSizeBytes()};
  }

  static twitter::Dataset* dataset_;
};

twitter::Dataset* StorageModelTest::dataset_ = nullptr;

TEST_F(StorageModelTest, RecordStoreWriteBack) {
  ExpectModelledIo(RecordStoreIo(/*write_through=*/false),
                   ModelledIo{{65580, 59, 39, 44, 0},
                              {59, 49, 19, 82'970'000},
                              647'168});
}

TEST_F(StorageModelTest, RecordStoreWriteThrough) {
  ExpectModelledIo(RecordStoreIo(/*write_through=*/true),
                   ModelledIo{{65580, 59, 39, 17991, 0},
                              {59, 17996, 4980, 21'183'260'000},
                              647'168});
}

TEST_F(StorageModelTest, BitmapStoreFlushesWhenFull) {
  bitmapstore::GraphOptions options;
  options.cache_bytes = kCacheBytes;
  bitmapstore::Graph graph(options);
  auto handles = twitter::LoadIntoBitmapstore(*dataset_, &graph);
  ASSERT_TRUE(handles.ok()) << handles.status().ToString();
  core::EngineOptions engine_options;
  engine_options.graph = &graph;
  engine_options.handles = &*handles;
  auto engine = core::OpenEngine(core::EngineKind::kBitmap, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunAnchorsCold(**engine);
  ExpectModelledIo(
      ModelledIo{graph.cache_stats(), graph.disk_stats(), graph.DiskSizeBytes()},
      ModelledIo{{11684, 48, 68, 88, 2},
                 {48, 111, 29, 126'650'000},
                 1'515'520});
}

// The bitmap store keeps its data in memory and only models its pages:
// after a load neither its cache nor its disk holds a page byte.
TEST_F(StorageModelTest, BitmapStoreHoldsNoPageBytes) {
  obs::MetricsRegistry registry;
  bitmapstore::GraphOptions options;
  options.metrics = &registry;
  bitmapstore::Graph graph(options);
  ASSERT_TRUE(twitter::LoadIntoBitmapstore(*dataset_, &graph).ok());
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.ValueOf("bitmapstore.page_cache.resident_bytes"), 0);
  EXPECT_EQ(snap.ValueOf("bitmapstore.disk.resident_bytes"), 0);
  EXPECT_GT(graph.DiskSizeBytes(), 0u);
}

// A cache larger than the store holds buffers only for the record pages
// pinned into it, not its configured size; the property-index pages and
// the extent directory hold no bytes on the disk either.
TEST_F(StorageModelTest, RecordStoreCacheHoldsAtMostItsPages) {
  obs::MetricsRegistry registry;
  nodestore::GraphDbOptions options;
  options.metrics = &registry;
  nodestore::GraphDb db(options);
  ASSERT_TRUE(twitter::LoadIntoNodestore(*dataset_, &db).ok());
  ASSERT_LT(db.DiskSizeBytes(), options.cache_bytes);
  core::EngineOptions engine_options;
  engine_options.db = &db;
  auto engine = core::OpenEngine(core::EngineKind::kNodestore, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunAnchorsCold(**engine);
  obs::MetricsSnapshot snap = registry.Snapshot();
  const double cached = snap.ValueOf("nodestore.page_cache.resident_bytes");
  EXPECT_GT(cached, 0);
  EXPECT_LE(cached, static_cast<double>(db.DiskSizeBytes()));
  const double on_disk = snap.ValueOf("nodestore.disk.resident_bytes");
  EXPECT_GT(on_disk, 0);
  EXPECT_LT(on_disk, static_cast<double>(db.DiskSizeBytes()));
}

}  // namespace
}  // namespace mbq::storage
