#ifndef MBQ_CACHE_EPOCH_H_
#define MBQ_CACHE_EPOCH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace mbq::cache {

/// Epoch-based invalidation for read caches. Every write path bumps the
/// epoch of the domains it touches (a label, a relationship type, an
/// object type); cached entries record the epochs they read and are
/// dropped lazily when any recorded epoch has moved on. Domains hash into
/// a fixed slot array, so a collision can only cause a *spurious*
/// invalidation (two domains sharing a slot bump each other) — never a
/// stale hit. The single-writer / concurrent-reader model from the
/// concurrency work carries over: bumps are release stores, validations
/// acquire loads, so readers that overlap a bump see either "still valid"
/// (their data predates the write and the write has not landed for them)
/// or "invalid" — both safe.
class EpochRegistry {
 public:
  static constexpr size_t kSlots = 256;

  /// Advances the epoch of `domain` (and the global epoch). Called at the
  /// start of every mutation touching the domain.
  void Bump(uint32_t domain) {
    slots_[domain % kSlots].fetch_add(1, std::memory_order_release);
    global_.fetch_add(1, std::memory_order_release);
  }

  /// Advances every slot — for writes whose footprint cannot be
  /// attributed to specific domains. Rare, so the 256 adds are fine.
  void BumpAll() {
    for (auto& slot : slots_) slot.fetch_add(1, std::memory_order_release);
    global_.fetch_add(1, std::memory_order_release);
  }

  uint64_t SlotEpoch(uint32_t domain) const {
    return slots_[domain % kSlots].load(std::memory_order_acquire);
  }
  uint64_t GlobalEpoch() const {
    return global_.load(std::memory_order_acquire);
  }

 private:
  std::array<std::atomic<uint64_t>, kSlots> slots_{};
  std::atomic<uint64_t> global_{0};
};

/// The epochs a cached entry observed when it was produced. A stamp with
/// `use_global` set validates against the global epoch (conservative: any
/// write invalidates); otherwise each recorded (domain, epoch) pair must
/// still match.
struct EpochStamp {
  std::vector<std::pair<uint32_t, uint64_t>> slots;
  uint64_t global = 0;
  bool use_global = false;

  bool Valid(const EpochRegistry& registry) const {
    if (use_global) return registry.GlobalEpoch() == global;
    for (const auto& [domain, epoch] : slots) {
      if (registry.SlotEpoch(domain) != epoch) return false;
    }
    return true;
  }

  size_t ByteSize() const {
    return sizeof(*this) + slots.capacity() * sizeof(slots[0]);
  }
};

/// Captures the current epochs of `domains` (or the global epoch when
/// `use_global`). Capture *before* the read it protects: a write landing
/// between capture and insertion then invalidates the entry, which is the
/// conservative direction.
EpochStamp CaptureStamp(const EpochRegistry& registry,
                        const std::vector<uint32_t>& domains, bool use_global);

/// Domain encodings. The nodestore keeps labels and relationship types in
/// separate id spaces, so they are interleaved into one domain space; the
/// bitmapstore's node and edge types already share a single TypeId space.
inline uint32_t LabelDomain(uint32_t label) { return label * 2; }
inline uint32_t RelTypeDomain(uint32_t type) { return type * 2 + 1; }
inline uint32_t TypeDomain(int32_t type) { return static_cast<uint32_t>(type); }

}  // namespace mbq::cache

#endif  // MBQ_CACHE_EPOCH_H_
