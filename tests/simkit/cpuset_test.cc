#include "src/simkit/cpuset.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/simkit/rng.h"

namespace wcores {
namespace {

TEST(CpuSetTest, StartsEmpty) {
  CpuSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.First(), kInvalidCpu);
}

TEST(CpuSetTest, SetTestClear) {
  CpuSet s;
  s.Set(5);
  EXPECT_TRUE(s.Test(5));
  EXPECT_FALSE(s.Test(4));
  EXPECT_EQ(s.Count(), 1);
  s.Clear(5);
  EXPECT_FALSE(s.Test(5));
  EXPECT_TRUE(s.Empty());
}

TEST(CpuSetTest, FirstN) {
  CpuSet s = CpuSet::FirstN(10);
  EXPECT_EQ(s.Count(), 10);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(9));
  EXPECT_FALSE(s.Test(10));
}

TEST(CpuSetTest, Single) {
  CpuSet s = CpuSet::Single(77);
  EXPECT_EQ(s.Count(), 1);
  EXPECT_EQ(s.First(), 77);
}

TEST(CpuSetTest, FirstAndNextCrossWordBoundaries) {
  CpuSet s;
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(200);
  EXPECT_EQ(s.First(), 0);
  EXPECT_EQ(s.Next(0), 63);
  EXPECT_EQ(s.Next(63), 64);
  EXPECT_EQ(s.Next(64), 200);
  EXPECT_EQ(s.Next(200), kInvalidCpu);
}

TEST(CpuSetTest, NextFromUnsetPosition) {
  CpuSet s;
  s.Set(100);
  EXPECT_EQ(s.Next(3), 100);
  EXPECT_EQ(s.Next(99), 100);
  EXPECT_EQ(s.Next(100), kInvalidCpu);
  EXPECT_EQ(s.Next(kMaxCpus - 1), kInvalidCpu);
}

TEST(CpuSetTest, Iteration) {
  CpuSet s;
  s.Set(3);
  s.Set(70);
  s.Set(130);
  std::vector<CpuId> seen;
  for (CpuId c : s) {
    seen.push_back(c);
  }
  EXPECT_EQ(seen, (std::vector<CpuId>{3, 70, 130}));
}

TEST(CpuSetTest, AndOrNot) {
  CpuSet a = CpuSet::FirstN(8);
  CpuSet b;
  b.Set(6);
  b.Set(7);
  b.Set(8);
  CpuSet band = a & b;
  EXPECT_EQ(band.Count(), 2);
  EXPECT_TRUE(band.Test(6));
  EXPECT_TRUE(band.Test(7));
  CpuSet bor = a | b;
  EXPECT_EQ(bor.Count(), 9);
  CpuSet nota = ~a;
  EXPECT_FALSE(nota.Test(0));
  EXPECT_TRUE(nota.Test(8));
}

TEST(CpuSetTest, IntersectsAndContainsAll) {
  CpuSet a = CpuSet::FirstN(4);
  CpuSet b;
  b.Set(3);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(a.ContainsAll(b));
  EXPECT_FALSE(b.ContainsAll(a));
  CpuSet c;
  c.Set(9);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(CpuSetTest, EqualityOperators) {
  CpuSet a = CpuSet::FirstN(5);
  CpuSet b = CpuSet::FirstN(5);
  EXPECT_EQ(a, b);
  b.Set(100);
  EXPECT_NE(a, b);
}

TEST(CpuSetTest, LessThanIsAStrictTotalOrder) {
  // Word-lexicographic: the first differing 64-bit word decides, so the
  // order is total (usable as a map key) but not numeric or subset-based.
  CpuSet empty;
  CpuSet low = CpuSet::Single(0);
  CpuSet high = CpuSet::Single(200);  // Word 0 is zero; word 3 holds the bit.
  EXPECT_TRUE(empty < low);
  EXPECT_TRUE(empty < high);
  EXPECT_TRUE(high < low);  // low's word 0 (1) exceeds high's word 0 (0).
  EXPECT_FALSE(low < low);
  EXPECT_FALSE(low < empty);
  // Distinct sets compare in exactly one direction.
  CpuSet a = CpuSet::FirstN(3);
  CpuSet b = CpuSet::Single(2);
  EXPECT_NE(a < b, b < a);
  EXPECT_TRUE((a < b) || (b < a));
}

TEST(CpuSetTest, CompoundAssignment) {
  CpuSet a = CpuSet::FirstN(4);
  CpuSet b = CpuSet::Single(10);
  a |= b;
  EXPECT_TRUE(a.Test(10));
  a &= b;
  EXPECT_EQ(a.Count(), 1);
}

TEST(CpuSetTest, ToStringRanges) {
  CpuSet s;
  for (int i = 0; i <= 3; ++i) {
    s.Set(i);
  }
  s.Set(8);
  s.Set(10);
  s.Set(11);
  EXPECT_EQ(s.ToString(), "0-3,8,10-11");
  EXPECT_EQ(CpuSet{}.ToString(), "(empty)");
}

TEST(CpuSetTest, RandomizedAgainstStdSet) {
  Rng rng(123);
  CpuSet s;
  std::set<int> mirror;
  for (int i = 0; i < 2000; ++i) {
    int cpu = static_cast<int>(rng.NextBelow(kMaxCpus));
    if (rng.NextBool(0.5)) {
      s.Set(cpu);
      mirror.insert(cpu);
    } else {
      s.Clear(cpu);
      mirror.erase(cpu);
    }
    ASSERT_EQ(s.Count(), static_cast<int>(mirror.size()));
    ASSERT_EQ(s.First(), mirror.empty() ? kInvalidCpu : *mirror.begin());
  }
  std::vector<int> iterated;
  for (CpuId c : s) {
    iterated.push_back(c);
  }
  EXPECT_EQ(iterated, std::vector<int>(mirror.begin(), mirror.end()));
}

std::vector<CpuId> RangeFor(const CpuSet& s) {
  std::vector<CpuId> out;
  for (CpuId c : s) {
    out.push_back(c);
  }
  return out;
}

std::vector<CpuId> FirstNextWalk(const CpuSet& s) {
  std::vector<CpuId> out;
  for (CpuId c = s.First(); c != kInvalidCpu; c = s.Next(c)) {
    out.push_back(c);
  }
  return out;
}

// The word-at-a-time iterator yields exactly the First()/Next() sequence.
TEST(CpuSetTest, IteratorMatchesFirstNextWalk) {
  CpuSet full;
  full.SetAll(kMaxCpus);
  CpuSet word3;  // Members only in the last word, first and last bit too.
  for (CpuId c : {192, 200, 255}) {
    word3.Set(c);
  }
  std::vector<CpuSet> sets = {CpuSet(), CpuSet::Single(255), CpuSet::Single(0), full, word3,
                              CpuSet::Single(192)};
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    CpuSet s;
    double density = rng.NextDouble();
    for (CpuId c = 0; c < kMaxCpus; ++c) {
      if (rng.NextBool(density)) {
        s.Set(c);
      }
    }
    sets.push_back(s);
  }
  for (const CpuSet& s : sets) {
    SCOPED_TRACE(s.ToString());
    std::vector<CpuId> want = FirstNextWalk(s);
    EXPECT_EQ(RangeFor(s), want);
    EXPECT_EQ(static_cast<int>(want.size()), s.Count());
  }
  EXPECT_TRUE(RangeFor(CpuSet()).empty());
  EXPECT_EQ(RangeFor(word3), (std::vector<CpuId>{192, 200, 255}));
  EXPECT_EQ(RangeFor(full).size(), static_cast<size_t>(kMaxCpus));
}

}  // namespace
}  // namespace wcores
