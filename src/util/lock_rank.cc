#include "util/lock_rank.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mbq::util {
namespace {

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("MBQ_LOCK_RANK");
  if (env != nullptr && std::strcmp(env, "0") == 0) return false;
#if defined(MBQ_LOCK_RANK_DISABLE)
  return false;
#else
  return true;
#endif
}()};
std::atomic<bool> g_abort{true};
std::atomic<uint64_t> g_checks{0};
std::atomic<uint64_t> g_violations{0};

/// Per-thread stack of held ranked locks. Fixed-size: the hierarchy has
/// 11 ranks and strict descent bounds real depth at 11; a deeper stack
/// means a violation already fired in count-only mode, so overflow just
/// stops recording.
struct Held {
  LockRank rank;
  const char* name;
};
constexpr size_t kMaxHeld = 32;
thread_local Held t_held[kMaxHeld];
thread_local size_t t_depth = 0;

}  // namespace

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kRing:
      return "kRing";
    case LockRank::kDriver:
      return "kDriver";
    case LockRank::kPool:
      return "kPool";
    case LockRank::kDisk:
      return "kDisk";
    case LockRank::kBufferCache:
      return "kBufferCache";
    case LockRank::kCache:
      return "kCache";
    case LockRank::kObs:
      return "kObs";
    case LockRank::kWal:
      return "kWal";
    case LockRank::kSnapshot:
      return "kSnapshot";
    case LockRank::kSession:
      return "kSession";
    case LockRank::kRpc:
      return "kRpc";
  }
  return "?";
}

bool LockRankChecksEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void SetLockRankChecksEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void SetLockRankAbortOnViolation(bool abort_on_violation) {
  g_abort.store(abort_on_violation, std::memory_order_relaxed);
}

uint64_t LockRankChecks() { return g_checks.load(std::memory_order_relaxed); }

uint64_t LockRankViolations() {
  return g_violations.load(std::memory_order_relaxed);
}

size_t LockRankHeldDepth() { return t_depth; }

namespace lockrank_internal {

#if !defined(MBQ_LOCK_RANK_DISABLE)

void OnAcquire(LockRank rank, const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  g_checks.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < t_depth; ++i) {
    if (static_cast<int>(t_held[i].rank) > static_cast<int>(rank)) continue;
    g_violations.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(
        stderr,
        "lock-rank violation: acquiring \"%s\" (rank %d %s) while holding "
        "\"%s\" (rank %d %s); acquisition order must strictly descend the "
        "hierarchy in util/lock_rank.h\n",
        name, static_cast<int>(rank), LockRankName(rank), t_held[i].name,
        static_cast<int>(t_held[i].rank), LockRankName(t_held[i].rank));
    if (g_abort.load(std::memory_order_relaxed)) std::abort();
    break;  // count-only mode: one violation per acquisition
  }
  if (t_depth < kMaxHeld) {
    t_held[t_depth].rank = rank;
    t_held[t_depth].name = name;
    ++t_depth;
  }
}

void OnRelease(LockRank rank, const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  for (size_t i = t_depth; i > 0; --i) {
    if (t_held[i - 1].rank != rank || t_held[i - 1].name != name) continue;
    for (size_t j = i - 1; j + 1 < t_depth; ++j) t_held[j] = t_held[j + 1];
    --t_depth;
    return;
  }
  // Not held by this thread: the lock's owning guard migrated here (a
  // moved ReadSnapshot/CommitGuard) or checking was toggled mid-hold.
}

#endif  // !defined(MBQ_LOCK_RANK_DISABLE)

}  // namespace lockrank_internal
}  // namespace mbq::util
