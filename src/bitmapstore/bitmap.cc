#include "bitmapstore/bitmap.h"

#include <algorithm>

#include "util/logging.h"

namespace mbq::bitmapstore {

namespace {

uint16_t HighBits(uint32_t v) { return static_cast<uint16_t>(v >> 16); }
uint16_t LowBits(uint32_t v) { return static_cast<uint16_t>(v & 0xFFFF); }

uint64_t PopcountWords(const std::vector<uint64_t>& words) {
  uint64_t count = 0;
  for (uint64_t w : words) count += static_cast<uint64_t>(__builtin_popcountll(w));
  return count;
}

}  // namespace

// ---------------------------------------------------------------- Container

bool Bitmap::Container::Contains(uint16_t low) const {
  if (is_bitset) {
    return (words[low >> 6] >> (low & 63)) & 1;
  }
  return std::binary_search(array.begin(), array.end(), low);
}

void Bitmap::Container::ToBitset() {
  if (is_bitset) return;
  words.assign(kBitsetWords, 0);
  for (uint16_t low : array) {
    words[low >> 6] |= uint64_t{1} << (low & 63);
  }
  array.clear();
  array.shrink_to_fit();
  is_bitset = true;
}

void Bitmap::Container::ToArrayIfSmall() {
  if (!is_bitset || cardinality > kArrayLimit) return;
  array.clear();
  array.reserve(cardinality);
  for (size_t w = 0; w < kBitsetWords; ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      int bit = __builtin_ctzll(word);
      array.push_back(static_cast<uint16_t>(w * 64 + bit));
      word &= word - 1;
    }
  }
  words.clear();
  words.shrink_to_fit();
  is_bitset = false;
}

// ------------------------------------------------------------------- Basics

size_t Bitmap::LowerBound(uint16_t key) const {
  size_t lo = 0;
  size_t hi = containers_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (containers_[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t Bitmap::FindContainer(uint16_t key) const {
  size_t i = LowerBound(key);
  if (i < containers_.size() && containers_[i].key == key) return i;
  return containers_.size();
}

Bitmap Bitmap::FromValues(const std::vector<uint32_t>& values) {
  Bitmap bm;
  for (uint32_t v : values) bm.Add(v);
  return bm;
}

void Bitmap::Add(uint32_t value) {
  uint16_t key = HighBits(value);
  uint16_t low = LowBits(value);
  size_t i = LowerBound(key);
  if (i == containers_.size() || containers_[i].key != key) {
    Container c;
    c.key = key;
    c.array.push_back(low);
    c.cardinality = 1;
    containers_.insert(containers_.begin() + i, std::move(c));
    return;
  }
  Container& c = containers_[i];
  if (c.is_bitset) {
    uint64_t& word = c.words[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if ((word & mask) == 0) {
      word |= mask;
      ++c.cardinality;
    }
    return;
  }
  auto it = std::lower_bound(c.array.begin(), c.array.end(), low);
  if (it != c.array.end() && *it == low) return;
  c.array.insert(it, low);
  ++c.cardinality;
  if (c.cardinality > kArrayLimit) c.ToBitset();
}

bool Bitmap::Remove(uint32_t value) {
  uint16_t key = HighBits(value);
  uint16_t low = LowBits(value);
  size_t i = FindContainer(key);
  if (i == containers_.size()) return false;
  Container& c = containers_[i];
  if (c.is_bitset) {
    uint64_t& word = c.words[low >> 6];
    uint64_t mask = uint64_t{1} << (low & 63);
    if ((word & mask) == 0) return false;
    word &= ~mask;
    --c.cardinality;
    c.ToArrayIfSmall();
  } else {
    auto it = std::lower_bound(c.array.begin(), c.array.end(), low);
    if (it == c.array.end() || *it != low) return false;
    c.array.erase(it);
    --c.cardinality;
  }
  if (c.cardinality == 0) containers_.erase(containers_.begin() + i);
  return true;
}

bool Bitmap::Contains(uint32_t value) const {
  size_t i = FindContainer(HighBits(value));
  if (i == containers_.size()) return false;
  return containers_[i].Contains(LowBits(value));
}

uint64_t Bitmap::Cardinality() const {
  uint64_t total = 0;
  for (const Container& c : containers_) total += c.cardinality;
  return total;
}

std::optional<uint32_t> Bitmap::Min() const {
  if (containers_.empty()) return std::nullopt;
  const Container& c = containers_.front();
  uint32_t high = static_cast<uint32_t>(c.key) << 16;
  if (!c.is_bitset) return high | c.array.front();
  for (size_t w = 0; w < kBitsetWords; ++w) {
    if (c.words[w] != 0) {
      return high | static_cast<uint32_t>(w * 64 + __builtin_ctzll(c.words[w]));
    }
  }
  return std::nullopt;  // unreachable: containers are never empty
}

std::optional<uint32_t> Bitmap::Max() const {
  if (containers_.empty()) return std::nullopt;
  const Container& c = containers_.back();
  uint32_t high = static_cast<uint32_t>(c.key) << 16;
  if (!c.is_bitset) return high | c.array.back();
  for (size_t w = kBitsetWords; w-- > 0;) {
    if (c.words[w] != 0) {
      return high |
             static_cast<uint32_t>(w * 64 + 63 - __builtin_clzll(c.words[w]));
    }
  }
  return std::nullopt;  // unreachable
}

std::vector<uint32_t> Bitmap::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Cardinality());
  ForEach([&out](uint32_t v) { out.push_back(v); });
  return out;
}

bool Bitmap::operator==(const Bitmap& other) const {
  if (containers_.size() != other.containers_.size()) return false;
  for (size_t i = 0; i < containers_.size(); ++i) {
    const Container& a = containers_[i];
    const Container& b = other.containers_[i];
    if (a.key != b.key || a.cardinality != b.cardinality) return false;
    if (a.is_bitset == b.is_bitset) {
      if (a.is_bitset ? (a.words != b.words) : (a.array != b.array)) {
        return false;
      }
    } else {
      // Mixed representations can still be equal (e.g. after removals).
      const Container& bitset = a.is_bitset ? a : b;
      const Container& array = a.is_bitset ? b : a;
      for (uint16_t low : array.array) {
        if (!bitset.Contains(low)) return false;
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- Set algebra

Bitmap::Container Bitmap::AndContainers(const Container& a,
                                        const Container& b) {
  Container out;
  out.key = a.key;
  if (a.is_bitset && b.is_bitset) {
    out.is_bitset = true;
    out.words.resize(kBitsetWords);
    for (size_t w = 0; w < kBitsetWords; ++w) out.words[w] = a.words[w] & b.words[w];
    out.cardinality = static_cast<uint32_t>(PopcountWords(out.words));
    out.ToArrayIfSmall();
  } else if (!a.is_bitset && !b.is_bitset) {
    std::set_intersection(a.array.begin(), a.array.end(), b.array.begin(),
                          b.array.end(), std::back_inserter(out.array));
    out.cardinality = static_cast<uint32_t>(out.array.size());
  } else {
    const Container& arr = a.is_bitset ? b : a;
    const Container& bits = a.is_bitset ? a : b;
    for (uint16_t low : arr.array) {
      if (bits.Contains(low)) out.array.push_back(low);
    }
    out.cardinality = static_cast<uint32_t>(out.array.size());
  }
  return out;
}

Bitmap::Container Bitmap::OrContainers(const Container& a, const Container& b) {
  Container out;
  out.key = a.key;
  if (a.is_bitset || b.is_bitset ||
      a.cardinality + b.cardinality > kArrayLimit) {
    out.is_bitset = true;
    out.words.assign(kBitsetWords, 0);
    auto blend = [&out](const Container& c) {
      if (c.is_bitset) {
        for (size_t w = 0; w < kBitsetWords; ++w) out.words[w] |= c.words[w];
      } else {
        for (uint16_t low : c.array) out.words[low >> 6] |= uint64_t{1} << (low & 63);
      }
    };
    blend(a);
    blend(b);
    out.cardinality = static_cast<uint32_t>(PopcountWords(out.words));
    out.ToArrayIfSmall();
  } else {
    std::set_union(a.array.begin(), a.array.end(), b.array.begin(),
                   b.array.end(), std::back_inserter(out.array));
    out.cardinality = static_cast<uint32_t>(out.array.size());
  }
  return out;
}

Bitmap::Container Bitmap::AndNotContainers(const Container& a,
                                           const Container& b) {
  Container out;
  out.key = a.key;
  if (a.is_bitset) {
    out.is_bitset = true;
    out.words = a.words;
    if (b.is_bitset) {
      for (size_t w = 0; w < kBitsetWords; ++w) out.words[w] &= ~b.words[w];
    } else {
      for (uint16_t low : b.array) out.words[low >> 6] &= ~(uint64_t{1} << (low & 63));
    }
    out.cardinality = static_cast<uint32_t>(PopcountWords(out.words));
    out.ToArrayIfSmall();
  } else {
    for (uint16_t low : a.array) {
      if (!b.Contains(low)) out.array.push_back(low);
    }
    out.cardinality = static_cast<uint32_t>(out.array.size());
  }
  return out;
}

Bitmap::Container Bitmap::XorContainers(const Container& a, const Container& b) {
  Container out;
  out.key = a.key;
  if (a.is_bitset || b.is_bitset) {
    out.is_bitset = true;
    out.words.assign(kBitsetWords, 0);
    auto blend = [&out](const Container& c) {
      if (c.is_bitset) {
        for (size_t w = 0; w < kBitsetWords; ++w) out.words[w] ^= c.words[w];
      } else {
        for (uint16_t low : c.array) out.words[low >> 6] ^= uint64_t{1} << (low & 63);
      }
    };
    blend(a);
    blend(b);
    out.cardinality = static_cast<uint32_t>(PopcountWords(out.words));
    out.ToArrayIfSmall();
  } else {
    std::set_symmetric_difference(a.array.begin(), a.array.end(),
                                  b.array.begin(), b.array.end(),
                                  std::back_inserter(out.array));
    out.cardinality = static_cast<uint32_t>(out.array.size());
    if (out.cardinality > kArrayLimit) out.ToBitset();
  }
  return out;
}

uint64_t Bitmap::AndCardinalityContainers(const Container& a,
                                          const Container& b) {
  if (a.is_bitset && b.is_bitset) {
    uint64_t count = 0;
    for (size_t w = 0; w < kBitsetWords; ++w) {
      count += static_cast<uint64_t>(__builtin_popcountll(a.words[w] & b.words[w]));
    }
    return count;
  }
  if (!a.is_bitset && !b.is_bitset) {
    uint64_t count = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.array.size() && j < b.array.size()) {
      if (a.array[i] < b.array[j]) {
        ++i;
      } else if (a.array[i] > b.array[j]) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
    return count;
  }
  const Container& arr = a.is_bitset ? b : a;
  const Container& bits = a.is_bitset ? a : b;
  uint64_t count = 0;
  for (uint16_t low : arr.array) count += bits.Contains(low) ? 1 : 0;
  return count;
}

Bitmap Bitmap::And(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    uint16_t ka = a.containers_[i].key;
    uint16_t kb = b.containers_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      Container c = AndContainers(a.containers_[i], b.containers_[j]);
      if (c.cardinality > 0) out.containers_.push_back(std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

Bitmap Bitmap::Or(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() || j < b.containers_.size()) {
    if (j == b.containers_.size() ||
        (i < a.containers_.size() &&
         a.containers_[i].key < b.containers_[j].key)) {
      out.containers_.push_back(a.containers_[i]);
      ++i;
    } else if (i == a.containers_.size() ||
               b.containers_[j].key < a.containers_[i].key) {
      out.containers_.push_back(b.containers_[j]);
      ++j;
    } else {
      out.containers_.push_back(OrContainers(a.containers_[i], b.containers_[j]));
      ++i;
      ++j;
    }
  }
  return out;
}

Bitmap Bitmap::AndNot(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t j = 0;
  for (const Container& ca : a.containers_) {
    while (j < b.containers_.size() && b.containers_[j].key < ca.key) ++j;
    if (j < b.containers_.size() && b.containers_[j].key == ca.key) {
      Container c = AndNotContainers(ca, b.containers_[j]);
      if (c.cardinality > 0) out.containers_.push_back(std::move(c));
    } else {
      out.containers_.push_back(ca);
    }
  }
  return out;
}

Bitmap Bitmap::Xor(const Bitmap& a, const Bitmap& b) {
  Bitmap out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() || j < b.containers_.size()) {
    if (j == b.containers_.size() ||
        (i < a.containers_.size() &&
         a.containers_[i].key < b.containers_[j].key)) {
      out.containers_.push_back(a.containers_[i]);
      ++i;
    } else if (i == a.containers_.size() ||
               b.containers_[j].key < a.containers_[i].key) {
      out.containers_.push_back(b.containers_[j]);
      ++j;
    } else {
      Container c = XorContainers(a.containers_[i], b.containers_[j]);
      if (c.cardinality > 0) out.containers_.push_back(std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

void Bitmap::InplaceOr(const Bitmap& other) { *this = Or(*this, other); }
void Bitmap::InplaceAnd(const Bitmap& other) { *this = And(*this, other); }
void Bitmap::InplaceAndNot(const Bitmap& other) { *this = AndNot(*this, other); }

uint64_t Bitmap::AndCardinality(const Bitmap& a, const Bitmap& b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    uint16_t ka = a.containers_[i].key;
    uint16_t kb = b.containers_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      count += AndCardinalityContainers(a.containers_[i], b.containers_[j]);
      ++i;
      ++j;
    }
  }
  return count;
}

bool Bitmap::Intersects(const Bitmap& a, const Bitmap& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.containers_.size() && j < b.containers_.size()) {
    uint16_t ka = a.containers_[i].key;
    uint16_t kb = b.containers_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      if (AndCardinalityContainers(a.containers_[i], b.containers_[j]) > 0) {
        return true;
      }
      ++i;
      ++j;
    }
  }
  return false;
}

bool Bitmap::IsSubset(const Bitmap& a, const Bitmap& b) {
  return AndCardinality(a, b) == a.Cardinality();
}

size_t Bitmap::MemoryBytes() const {
  size_t bytes = sizeof(Bitmap) + containers_.capacity() * sizeof(Container);
  for (const Container& c : containers_) {
    bytes += c.array.capacity() * sizeof(uint16_t);
    bytes += c.words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

// ----------------------------------------------------------------- Iterator

Bitmap::Iterator::Iterator(const Bitmap& bitmap) : bitmap_(&bitmap) {
  LoadContainer();
}

void Bitmap::Iterator::LoadContainer() {
  valid_ = false;
  while (container_index_ < bitmap_->containers_.size()) {
    const Container& c = bitmap_->containers_[container_index_];
    if (c.is_bitset) {
      bitset_word_ = 0;
      current_word_ = 0;
      for (size_t w = 0; w < kBitsetWords; ++w) {
        if (c.words[w] != 0) {
          bitset_word_ = static_cast<uint32_t>(w);
          current_word_ = c.words[w];
          break;
        }
      }
      if (current_word_ != 0) {
        uint32_t high = static_cast<uint32_t>(c.key) << 16;
        int bit = __builtin_ctzll(current_word_);
        value_ = high | (bitset_word_ * 64 + static_cast<uint32_t>(bit));
        current_word_ &= current_word_ - 1;
        valid_ = true;
        return;
      }
      ++container_index_;  // empty bitset container (shouldn't occur)
    } else {
      if (!c.array.empty()) {
        array_index_ = 0;
        value_ = (static_cast<uint32_t>(c.key) << 16) | c.array[0];
        array_index_ = 1;
        valid_ = true;
        return;
      }
      ++container_index_;
    }
  }
}

void Bitmap::Iterator::AdvanceWithinBitset() {
  const Container& c = bitmap_->containers_[container_index_];
  uint32_t high = static_cast<uint32_t>(c.key) << 16;
  for (;;) {
    if (current_word_ != 0) {
      int bit = __builtin_ctzll(current_word_);
      value_ = high | (bitset_word_ * 64 + static_cast<uint32_t>(bit));
      current_word_ &= current_word_ - 1;
      valid_ = true;
      return;
    }
    ++bitset_word_;
    if (bitset_word_ >= kBitsetWords) break;
    current_word_ = c.words[bitset_word_];
  }
  ++container_index_;
  LoadContainer();
}

void Bitmap::Iterator::Next() {
  if (!valid_) return;
  const Container& c = bitmap_->containers_[container_index_];
  if (c.is_bitset) {
    AdvanceWithinBitset();
    return;
  }
  if (array_index_ < c.array.size()) {
    value_ = (static_cast<uint32_t>(c.key) << 16) | c.array[array_index_];
    ++array_index_;
    return;
  }
  ++container_index_;
  LoadContainer();
}

}  // namespace mbq::bitmapstore
