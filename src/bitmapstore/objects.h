#ifndef MBQ_BITMAPSTORE_OBJECTS_H_
#define MBQ_BITMAPSTORE_OBJECTS_H_

#include <cstdint>
#include <vector>

#include "bitmapstore/bitmap.h"
#include "obs/metrics.h"

namespace mbq::bitmapstore {

/// Process-wide counters for the engine's set-algebra primitive — the
/// operation class the paper's Sparksee analysis revolves around
/// ("combining Objects sets is the cheap primitive"). Registered lazily
/// in the default metrics registry so every Combine call, from any
/// Graph instance, is counted exactly once.
namespace objects_metrics {
inline obs::Counter& Intersections() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "bitmapstore.objects.intersections", "ops",
      "Objects::CombineIntersection calls");
  return *c;
}
inline obs::Counter& Unions() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "bitmapstore.objects.unions", "ops",
      "Objects::CombineUnion / UnionInPlace calls");
  return *c;
}
inline obs::Counter& Differences() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "bitmapstore.objects.differences", "ops",
      "Objects::CombineDifference calls");
  return *c;
}
inline obs::Counter& ContainsProbes() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "bitmapstore.objects.contains_probes", "ops",
      "Objects::Contains membership probes");
  return *c;
}
}  // namespace objects_metrics

/// Object identifier: a dense 32-bit id shared by nodes and edges, as in
/// Sparksee where every graph object has an oid.
using Oid = uint32_t;
inline constexpr Oid kInvalidOid = 0xFFFFFFFFu;

/// An unordered set of unique object identifiers — the result type of the
/// engine's navigation operations (`Neighbors`, `Explode`, `Select`),
/// mirroring Sparksee's Objects class. Backed by a compressed bitmap, so
/// set combinations are the cheap primitive while ordering/limiting must
/// be done by the caller (a behaviour the paper calls out: "the entire
/// result set must be retrieved and filtered programmatically").
class Objects {
 public:
  Objects() = default;
  explicit Objects(Bitmap bitmap) : bitmap_(std::move(bitmap)) {}

  void Add(Oid oid) { bitmap_.Add(oid); }
  bool Remove(Oid oid) { return bitmap_.Remove(oid); }
  bool Contains(Oid oid) const {
    objects_metrics::ContainsProbes().Inc();
    return bitmap_.Contains(oid);
  }
  uint64_t Count() const { return bitmap_.Cardinality(); }
  bool Empty() const { return bitmap_.Empty(); }

  /// Set combinations (Sparksee: Objects::CombineIntersection etc.).
  static Objects CombineIntersection(const Objects& a, const Objects& b) {
    objects_metrics::Intersections().Inc();
    return Objects(Bitmap::And(a.bitmap_, b.bitmap_));
  }
  static Objects CombineUnion(const Objects& a, const Objects& b) {
    objects_metrics::Unions().Inc();
    return Objects(Bitmap::Or(a.bitmap_, b.bitmap_));
  }
  static Objects CombineDifference(const Objects& a, const Objects& b) {
    objects_metrics::Differences().Inc();
    return Objects(Bitmap::AndNot(a.bitmap_, b.bitmap_));
  }
  /// In-place union (the accumulation loop of multi-source Neighbors).
  void UnionInPlace(const Objects& other) {
    objects_metrics::Unions().Inc();
    bitmap_.InplaceOr(other.bitmap_);
  }

  bool operator==(const Objects& other) const {
    return bitmap_ == other.bitmap_;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    bitmap_.ForEach(std::forward<Fn>(fn));
  }

  std::vector<Oid> ToVector() const { return bitmap_.ToVector(); }

  const Bitmap& bitmap() const { return bitmap_; }
  Bitmap& bitmap() { return bitmap_; }

 private:
  Bitmap bitmap_;
};

}  // namespace mbq::bitmapstore

#endif  // MBQ_BITMAPSTORE_OBJECTS_H_
