#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bitmapstore/bitmap.h"
#include "util/rng.h"

namespace mbq::bitmapstore {
namespace {

// ------------------------------------------------------------------ Basics

TEST(BitmapTest, EmptyBitmap) {
  Bitmap bm;
  EXPECT_TRUE(bm.Empty());
  EXPECT_EQ(bm.Cardinality(), 0u);
  EXPECT_FALSE(bm.Contains(0));
  EXPECT_FALSE(bm.Min().has_value());
  EXPECT_FALSE(bm.Max().has_value());
  EXPECT_TRUE(bm.ToVector().empty());
}

TEST(BitmapTest, AddContainsRemove) {
  Bitmap bm;
  bm.Add(5);
  bm.Add(70000);  // second container
  bm.Add(5);      // duplicate
  EXPECT_EQ(bm.Cardinality(), 2u);
  EXPECT_TRUE(bm.Contains(5));
  EXPECT_TRUE(bm.Contains(70000));
  EXPECT_FALSE(bm.Contains(6));
  EXPECT_TRUE(bm.Remove(5));
  EXPECT_FALSE(bm.Remove(5));
  EXPECT_EQ(bm.Cardinality(), 1u);
  EXPECT_FALSE(bm.Contains(5));
}

TEST(BitmapTest, MinMax) {
  Bitmap bm = Bitmap::FromValues({100, 3, 999999, 65536});
  EXPECT_EQ(*bm.Min(), 3u);
  EXPECT_EQ(*bm.Max(), 999999u);
}

TEST(BitmapTest, IterationAscending) {
  Bitmap bm = Bitmap::FromValues({9, 1, 70000, 65535, 65536});
  std::vector<uint32_t> seen;
  for (auto it = bm.Begin(); it.Valid(); it.Next()) seen.push_back(it.Value());
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 9, 65535, 65536, 70000}));
}

TEST(BitmapTest, ForEachEarlyStop) {
  Bitmap bm = Bitmap::FromValues({1, 2, 3, 4, 5});
  int visited = 0;
  bm.ForEach([&](uint32_t) -> bool {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3);
}

TEST(BitmapTest, DenseConversionRoundTrip) {
  // Push one container past the array limit and back.
  Bitmap bm;
  for (uint32_t i = 0; i < 5000; ++i) bm.Add(i * 2);
  EXPECT_EQ(bm.Cardinality(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(bm.Contains(i * 2)) << i;
    ASSERT_FALSE(bm.Contains(i * 2 + 1)) << i;
  }
  for (uint32_t i = 1000; i < 5000; ++i) EXPECT_TRUE(bm.Remove(i * 2));
  EXPECT_EQ(bm.Cardinality(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_TRUE(bm.Contains(i * 2));
}

TEST(BitmapTest, EqualityAcrossRepresentations) {
  // Same set reached via different mutation orders (one passes through a
  // bitset container, the other stays array).
  Bitmap a;
  for (uint32_t i = 0; i < 5000; ++i) a.Add(i);
  for (uint32_t i = 100; i < 5000; ++i) a.Remove(i);
  Bitmap b;
  for (uint32_t i = 0; i < 100; ++i) b.Add(i);
  EXPECT_TRUE(a == b);
  b.Add(100);
  EXPECT_FALSE(a == b);
}

// ------------------------------------------------------------ Serialization

TEST(BitmapTest, SerializeRoundTrip) {
  Bitmap bm;
  for (uint32_t i = 0; i < 6000; ++i) bm.Add(i * 3);  // mixed containers
  bm.Add(1u << 30);
  std::vector<uint8_t> buf;
  bm.SerializeTo(&buf);
  size_t offset = 0;
  auto parsed = Bitmap::Deserialize(buf, &offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(offset, buf.size());
  EXPECT_TRUE(*parsed == bm);
}

TEST(BitmapTest, SerializeEmpty) {
  Bitmap bm;
  std::vector<uint8_t> buf;
  bm.SerializeTo(&buf);
  size_t offset = 0;
  auto parsed = Bitmap::Deserialize(buf, &offset);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Empty());
}

TEST(BitmapTest, DeserializeRejectsTruncation) {
  Bitmap bm = Bitmap::FromValues({1, 2, 3});
  std::vector<uint8_t> buf;
  bm.SerializeTo(&buf);
  for (size_t cut = 1; cut < buf.size(); cut += 3) {
    std::vector<uint8_t> trunc(buf.begin(), buf.end() - cut);
    size_t offset = 0;
    EXPECT_FALSE(Bitmap::Deserialize(trunc, &offset).ok()) << cut;
  }
}

TEST(BitmapTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage(64, 0xFF);
  size_t offset = 0;
  EXPECT_FALSE(Bitmap::Deserialize(garbage, &offset).ok());
}

// ---------------------------------------------- Property tests vs std::set

struct AlgebraCase {
  uint64_t seed;
  uint32_t universe;  // values drawn from [0, universe)
  size_t adds_a;
  size_t adds_b;
};

/// Prints a case as, e.g., "Seed1_Universe1000_Adds100x100", which names
/// it in ctest. gtest's default printer dumps the struct's raw bytes,
/// padding included, so the names differed from build to build.
void PrintTo(const AlgebraCase& c, std::ostream* os) {
  *os << "Seed" << c.seed << "_Universe" << c.universe << "_Adds"
      << c.adds_a << "x" << c.adds_b;
}

class BitmapAlgebraTest : public ::testing::TestWithParam<AlgebraCase> {};

TEST_P(BitmapAlgebraTest, MatchesReferenceSets) {
  const AlgebraCase& c = GetParam();
  Rng rng(c.seed);
  Bitmap a;
  Bitmap b;
  std::set<uint32_t> ra;
  std::set<uint32_t> rb;
  for (size_t i = 0; i < c.adds_a; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.NextBounded(c.universe));
    a.Add(v);
    ra.insert(v);
  }
  for (size_t i = 0; i < c.adds_b; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.NextBounded(c.universe));
    b.Add(v);
    rb.insert(v);
  }
  // Random removals from a.
  for (size_t i = 0; i < c.adds_a / 4; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.NextBounded(c.universe));
    EXPECT_EQ(a.Remove(v), ra.erase(v) > 0);
  }

  auto reference = [](const std::set<uint32_t>& s) {
    return std::vector<uint32_t>(s.begin(), s.end());
  };
  auto set_and = [&] {
    std::vector<uint32_t> out;
    std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                          std::back_inserter(out));
    return out;
  }();
  auto set_or = [&] {
    std::vector<uint32_t> out;
    std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                   std::back_inserter(out));
    return out;
  }();
  auto set_andnot = [&] {
    std::vector<uint32_t> out;
    std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(out));
    return out;
  }();
  auto set_xor = [&] {
    std::vector<uint32_t> out;
    std::set_symmetric_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                                  std::back_inserter(out));
    return out;
  }();

  EXPECT_EQ(a.ToVector(), reference(ra));
  EXPECT_EQ(b.ToVector(), reference(rb));
  EXPECT_EQ(Bitmap::And(a, b).ToVector(), set_and);
  EXPECT_EQ(Bitmap::Or(a, b).ToVector(), set_or);
  EXPECT_EQ(Bitmap::AndNot(a, b).ToVector(), set_andnot);
  EXPECT_EQ(Bitmap::Xor(a, b).ToVector(), set_xor);
  EXPECT_EQ(Bitmap::AndCardinality(a, b), set_and.size());
  EXPECT_EQ(Bitmap::Intersects(a, b), !set_and.empty());
  EXPECT_EQ(Bitmap::IsSubset(a, b),
            std::includes(rb.begin(), rb.end(), ra.begin(), ra.end()));

  // In-place ops agree with the binary forms.
  Bitmap a2 = a;
  a2.InplaceOr(b);
  EXPECT_TRUE(a2 == Bitmap::Or(a, b));
  Bitmap a3 = a;
  a3.InplaceAnd(b);
  EXPECT_TRUE(a3 == Bitmap::And(a, b));
  Bitmap a4 = a;
  a4.InplaceAndNot(b);
  EXPECT_TRUE(a4 == Bitmap::AndNot(a, b));

  // Serialization round-trips the combined results too.
  std::vector<uint8_t> buf;
  Bitmap::Or(a, b).SerializeTo(&buf);
  size_t offset = 0;
  auto parsed = Bitmap::Deserialize(buf, &offset);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == Bitmap::Or(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitmapAlgebraTest,
    ::testing::Values(
        // Sparse vs sparse, small universe (array containers, collisions).
        AlgebraCase{1, 1000, 100, 100},
        // Dense vs dense in one container (bitset x bitset).
        AlgebraCase{2, 60000, 20000, 20000},
        // Dense vs sparse (bitset x array).
        AlgebraCase{3, 60000, 20000, 50},
        // Multi-container spread.
        AlgebraCase{4, 10u << 20, 5000, 5000},
        // Disjoint-ish high/low halves.
        AlgebraCase{5, 200000, 3000, 3000},
        // Tiny sets.
        AlgebraCase{6, 10, 3, 3},
        // One empty side.
        AlgebraCase{7, 1000, 0, 200},
        // Heavy overlap on container boundaries.
        AlgebraCase{8, 65537, 30000, 30000}));

TEST(BitmapTest, MemoryBytesGrowsWithContent) {
  Bitmap small = Bitmap::FromValues({1, 2, 3});
  Bitmap big;
  for (uint32_t i = 0; i < 100000; ++i) big.Add(i);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

}  // namespace
}  // namespace mbq::bitmapstore
