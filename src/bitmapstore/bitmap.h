#ifndef MBQ_BITMAPSTORE_BITMAP_H_
#define MBQ_BITMAPSTORE_BITMAP_H_

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

namespace mbq::bitmapstore {

/// A compressed bitmap over uint32 keys, in the style of the structure
/// underlying Sparksee/DEX (Martinez-Bazan et al., IDEAS 2012) and of
/// Roaring bitmaps: the key space is partitioned into 2^16-element chunks,
/// each stored either as a sorted array of low 16-bit values (sparse) or
/// as a 1024-word bitset (dense). All set algebra needed by the engine's
/// Objects type is provided.
class Bitmap {
 public:
  Bitmap() = default;

  /// Builds from any iterable of uint32 values (need not be sorted).
  static Bitmap FromValues(const std::vector<uint32_t>& values);

  void Add(uint32_t value);
  /// Returns true if the value was present.
  bool Remove(uint32_t value);
  bool Contains(uint32_t value) const;

  uint64_t Cardinality() const;
  bool Empty() const { return containers_.empty(); }
  void Clear() { containers_.clear(); }

  std::optional<uint32_t> Min() const;
  std::optional<uint32_t> Max() const;

  /// Set algebra. The binary forms produce a new bitmap; the Inplace*
  /// forms mutate the receiver.
  static Bitmap And(const Bitmap& a, const Bitmap& b);
  static Bitmap Or(const Bitmap& a, const Bitmap& b);
  static Bitmap AndNot(const Bitmap& a, const Bitmap& b);
  static Bitmap Xor(const Bitmap& a, const Bitmap& b);
  void InplaceOr(const Bitmap& other);
  void InplaceAnd(const Bitmap& other);
  void InplaceAndNot(const Bitmap& other);

  /// |a AND b| without materializing the intersection.
  static uint64_t AndCardinality(const Bitmap& a, const Bitmap& b);
  /// True if the intersection is non-empty (early-exit).
  static bool Intersects(const Bitmap& a, const Bitmap& b);
  /// True if every element of `a` is in `b`.
  static bool IsSubset(const Bitmap& a, const Bitmap& b);

  bool operator==(const Bitmap& other) const;

  /// Calls `fn(value)` for each element in ascending order. `fn` may
  /// return void, or bool where returning false stops the scan.
  template <typename Fn>
  void ForEach(Fn&& fn) const;

  /// Forward iterator over elements in ascending order.
  class Iterator {
   public:
    explicit Iterator(const Bitmap& bitmap);
    bool Valid() const { return valid_; }
    uint32_t Value() const { return value_; }
    void Next();

   private:
    void LoadContainer();
    void AdvanceWithinBitset();

    const Bitmap* bitmap_;
    size_t container_index_ = 0;
    size_t array_index_ = 0;
    uint32_t bitset_word_ = 0;
    uint64_t current_word_ = 0;
    bool valid_ = false;
    uint32_t value_ = 0;
  };

  Iterator Begin() const { return Iterator(*this); }

  /// Materializes into a sorted vector.
  std::vector<uint32_t> ToVector() const;

  /// Approximate heap footprint, for the engine's cache accounting.
  size_t MemoryBytes() const;

 private:
  static constexpr size_t kArrayLimit = 4096;   // array -> bitset threshold
  static constexpr size_t kBitsetWords = 1024;  // 65536 bits

  struct Container {
    uint16_t key = 0;
    bool is_bitset = false;
    uint32_t cardinality = 0;        // maintained for both forms
    std::vector<uint16_t> array;     // sorted; used when !is_bitset
    std::vector<uint64_t> words;     // kBitsetWords; used when is_bitset

    bool Contains(uint16_t low) const;
    void ToBitset();
    void ToArrayIfSmall();
  };

  // Index of the container with `key`, or containers_.size() if absent.
  size_t FindContainer(uint16_t key) const;
  // Index where a container with `key` exists or should be inserted.
  size_t LowerBound(uint16_t key) const;

  static Container AndContainers(const Container& a, const Container& b);
  static Container OrContainers(const Container& a, const Container& b);
  static Container AndNotContainers(const Container& a, const Container& b);
  static Container XorContainers(const Container& a, const Container& b);
  static uint64_t AndCardinalityContainers(const Container& a,
                                           const Container& b);

  std::vector<Container> containers_;  // sorted by key
};

template <typename Fn>
void Bitmap::ForEach(Fn&& fn) const {
  auto invoke = [&fn](uint32_t v) -> bool {
    if constexpr (std::is_void_v<decltype(fn(v))>) {
      fn(v);
      return true;
    } else {
      return fn(v);
    }
  };
  for (const Container& c : containers_) {
    uint32_t high = static_cast<uint32_t>(c.key) << 16;
    if (c.is_bitset) {
      for (size_t w = 0; w < kBitsetWords; ++w) {
        uint64_t word = c.words[w];
        while (word != 0) {
          int bit = __builtin_ctzll(word);
          if (!invoke(high | static_cast<uint32_t>(w * 64 + bit))) return;
          word &= word - 1;
        }
      }
    } else {
      for (uint16_t low : c.array) {
        if (!invoke(high | low)) return;
      }
    }
  }
}

}  // namespace mbq::bitmapstore

#endif  // MBQ_BITMAPSTORE_BITMAP_H_
