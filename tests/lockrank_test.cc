// Tests for the runtime lock-rank checker (util/lock_rank.h): in-order
// acquisition is silent, a rank inversion traps with both site names, a
// shared-mode reacquisition of a held mutex is a violation, and the
// RankedMutex/RankedSharedMutex wrappers are clean under TSan.

#include "util/lock_rank.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace mbq::util {
namespace {

// Every test runs with checking forced ON (the default can be overridden
// by the MBQ_LOCK_RANK environment variable) and abort-on-violation
// restored to its default afterwards, so test order does not matter.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override { SetLockRankChecksEnabled(true); }
  void TearDown() override {
    SetLockRankChecksEnabled(true);
    SetLockRankAbortOnViolation(true);
  }
};

TEST_F(LockRankTest, RankNamesAreSpecNames) {
  EXPECT_STREQ(LockRankName(LockRank::kRing), "kRing");
  EXPECT_STREQ(LockRankName(LockRank::kWal), "kWal");
  EXPECT_STREQ(LockRankName(LockRank::kRpc), "kRpc");
}

TEST_F(LockRankTest, DescendingAcquisitionPasses) {
  RankedMutex outer(LockRank::kRpc, "test.outer");
  RankedMutex middle(LockRank::kSession, "test.middle");
  RankedMutex inner(LockRank::kRing, "test.inner");

  uint64_t checks_before = LockRankChecks();
  uint64_t violations_before = LockRankViolations();
  EXPECT_EQ(LockRankHeldDepth(), 0u);
  {
    ScopedLock a(outer);
    EXPECT_EQ(LockRankHeldDepth(), 1u);
    ScopedLock b(middle);
    EXPECT_EQ(LockRankHeldDepth(), 2u);
    ScopedLock c(inner);
    EXPECT_EQ(LockRankHeldDepth(), 3u);
  }
  EXPECT_EQ(LockRankHeldDepth(), 0u);
  EXPECT_EQ(LockRankChecks(), checks_before + 3);
  EXPECT_EQ(LockRankViolations(), violations_before);
}

TEST_F(LockRankTest, ReleaseOrderNeedNotBeLifo) {
  // unique_lock-style guards may release out of stack order; the held
  // set must still drain to empty.
  RankedMutex outer(LockRank::kSnapshot, "test.outer");
  RankedMutex inner(LockRank::kWal, "test.inner");
  RankedLock a(outer);
  RankedLock b(inner);
  a.unlock();
  EXPECT_EQ(LockRankHeldDepth(), 1u);
  b.unlock();
  EXPECT_EQ(LockRankHeldDepth(), 0u);
}

using LockRankDeathTest = LockRankTest;

TEST_F(LockRankDeathTest, AscendingAcquisitionAborts) {
  RankedMutex inner(LockRank::kDisk, "test.disk");
  RankedMutex outer(LockRank::kWal, "test.wal");
  ASSERT_DEATH(
      {
        SetLockRankChecksEnabled(true);
        ScopedLock a(inner);
        ScopedLock b(outer);  // kWal above kDisk: inversion
      },
      "lock-rank violation: acquiring \"test.wal\".*while holding "
      "\"test.disk\"");
}

TEST_F(LockRankDeathTest, SameRankReacquisitionAborts) {
  // Two different mutexes of equal rank still deadlock pairwise; the
  // strict-descent rule forbids holding both.
  RankedMutex a(LockRank::kCache, "test.shard_a");
  RankedMutex b(LockRank::kCache, "test.shard_b");
  ASSERT_DEATH(
      {
        SetLockRankChecksEnabled(true);
        ScopedLock la(a);
        ScopedLock lb(b);
      },
      "lock-rank violation");
}

TEST_F(LockRankTest, SharedThenExclusiveReacquisitionIsAViolation) {
  // shared-then-exclusive on the same mutex self-deadlocks; count the
  // violation instead of aborting so the test can observe it. The
  // would-be relock is driven through the bookkeeping hooks directly —
  // calling mu.lock() for real would deadlock the test.
  SetLockRankAbortOnViolation(false);
  RankedSharedMutex mu(LockRank::kSnapshot, "test.snapshot");
  uint64_t before = LockRankViolations();
  mu.lock_shared();
  lockrank_internal::OnAcquire(mu.rank(), mu.name());  // would-be relock
  EXPECT_EQ(LockRankViolations(), before + 1);
  lockrank_internal::OnRelease(mu.rank(), mu.name());
  mu.unlock_shared();
  EXPECT_EQ(LockRankHeldDepth(), 0u);
}

TEST_F(LockRankTest, SharedModeStillDescends) {
  // Shared acquisitions obey the same hierarchy as exclusive ones.
  SetLockRankAbortOnViolation(false);
  RankedSharedMutex low(LockRank::kBufferCache, "test.low");
  RankedSharedMutex high(LockRank::kSnapshot, "test.high");
  uint64_t before = LockRankViolations();
  {
    SharedScopedLock a(high);
    SharedScopedLock b(low);  // descending: fine
  }
  EXPECT_EQ(LockRankViolations(), before);
  {
    SharedScopedLock a(low);
    lockrank_internal::OnAcquire(high.rank(), high.name());  // ascending
    lockrank_internal::OnRelease(high.rank(), high.name());
  }
  EXPECT_EQ(LockRankViolations(), before + 1);
}

TEST_F(LockRankTest, DisabledCheckingCountsNothing) {
  SetLockRankChecksEnabled(false);
  RankedMutex inner(LockRank::kDisk, "test.disk");
  RankedMutex outer(LockRank::kWal, "test.wal");
  uint64_t checks_before = LockRankChecks();
  uint64_t violations_before = LockRankViolations();
  {
    ScopedLock a(inner);
    ScopedLock b(outer);  // inversion, but checking is off
    EXPECT_EQ(LockRankHeldDepth(), 0u);
  }
  EXPECT_EQ(LockRankChecks(), checks_before);
  EXPECT_EQ(LockRankViolations(), violations_before);
}

TEST_F(LockRankTest, GuardMigrationAcrossThreadsIsTolerated) {
  // Snapshot/commit guards may be created on one thread and released on
  // another; the releasing thread's held set simply has no matching
  // entry and the release is ignored.
  RankedSharedMutex mu(LockRank::kSnapshot, "test.migrating");
  mu.lock_shared();
  std::thread releaser([&] {
    EXPECT_EQ(LockRankHeldDepth(), 0u);
    mu.unlock_shared();
    EXPECT_EQ(LockRankHeldDepth(), 0u);
  });
  releaser.join();
  // The acquiring thread's stale entry is cleaned up lazily; it must not
  // block a fresh acquisition after an explicit release of the record.
  lockrank_internal::OnRelease(mu.rank(), mu.name());
  EXPECT_EQ(LockRankHeldDepth(), 0u);
}

TEST_F(LockRankTest, ConcurrentlyCleanUnderContention) {
  // TSan exercise: many threads hammer a small hierarchy through every
  // wrapper type. Any data race inside the checker's bookkeeping (the
  // thread-local held stacks, the global counters) shows up here.
  RankedMutex outer(LockRank::kSession, "test.mt.outer");
  RankedSharedMutex mid(LockRank::kSnapshot, "test.mt.mid");
  RankedMutex inner(LockRank::kRing, "test.mt.inner");
  std::atomic<uint64_t> total{0};
  uint64_t violations_before = LockRankViolations();

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t local = 0;
      for (int i = 0; i < kIters; ++i) {
        switch ((t + i) % 3) {
          case 0: {
            ScopedLock a(outer);
            SharedScopedLock b(mid);
            ScopedLock c(inner);
            ++local;
            break;
          }
          case 1: {
            ExclusiveScopedLock b(mid);
            ScopedLock c(inner);
            ++local;
            break;
          }
          case 2: {
            RankedLock a(outer);
            a.unlock();
            a.lock();
            ScopedLock c(inner);
            ++local;
            break;
          }
        }
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(total.load(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(LockRankHeldDepth(), 0u);
  EXPECT_EQ(LockRankViolations(), violations_before);
}

}  // namespace
}  // namespace mbq::util
