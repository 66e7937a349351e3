//===- tests/test_support.cpp - Support library unit tests ------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <set>

using namespace pdgc;

namespace {

TEST(BitVector, StartsCleared) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_EQ(BV.count(), 0u);
  EXPECT_TRUE(BV.none());
  EXPECT_FALSE(BV.any());
}

TEST(BitVector, SetResetTest) {
  BitVector BV(100);
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(99);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(63));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(99));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 4u);
  BV.reset(63);
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
}

TEST(BitVector, SetBitsIterationIsOrdered) {
  BitVector BV(150);
  std::set<unsigned> Expected{3, 64, 65, 127, 128, 149};
  for (unsigned I : Expected)
    BV.set(I);
  std::vector<unsigned> Got;
  for (unsigned I : BV.setBits())
    Got.push_back(I);
  EXPECT_EQ(Got, std::vector<unsigned>(Expected.begin(), Expected.end()));
}

TEST(BitVector, WholeVectorSetAndCount) {
  BitVector BV(70, true);
  EXPECT_EQ(BV.count(), 70u);
  BV.reset();
  EXPECT_EQ(BV.count(), 0u);
  BV.set();
  EXPECT_EQ(BV.count(), 70u);
  // The padding bits of the last word must not leak into count().
  EXPECT_TRUE(BV.test(69));
}

TEST(BitVector, ResizeGrowsWithValue) {
  BitVector BV(10);
  BV.set(3);
  BV.resize(100, true);
  EXPECT_TRUE(BV.test(3));
  EXPECT_FALSE(BV.test(4));
  for (unsigned I = 10; I != 100; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
  EXPECT_EQ(BV.count(), 91u);
}

TEST(BitVector, SetAlgebra) {
  BitVector A(80), B(80);
  A.set(1);
  A.set(70);
  B.set(70);
  B.set(2);

  BitVector Or = A;
  Or |= B;
  EXPECT_EQ(Or.count(), 3u);

  BitVector And = A;
  And &= B;
  EXPECT_EQ(And.count(), 1u);
  EXPECT_TRUE(And.test(70));

  BitVector Diff = A;
  Diff.resetAll(B);
  EXPECT_EQ(Diff.count(), 1u);
  EXPECT_TRUE(Diff.test(1));
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector A(10), B(10), C(11);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  A.set(9);
  EXPECT_NE(A, B);
}

TEST(UnionFind, SingletonsAtStart) {
  UnionFind UF(5);
  for (unsigned I = 0; I != 5; ++I)
    EXPECT_EQ(UF.find(I), I);
}

TEST(UnionFind, FirstArgumentStaysRepresentative) {
  // Coalescing relies on the precolored node surviving as representative.
  UnionFind UF(6);
  EXPECT_TRUE(UF.unionSets(2, 4));
  EXPECT_EQ(UF.find(4), 2u);
  EXPECT_TRUE(UF.unionSets(2, 5));
  EXPECT_EQ(UF.find(5), 2u);
  // Merging an already-merged pair reports false.
  EXPECT_FALSE(UF.unionSets(4, 5));
  EXPECT_TRUE(UF.connected(4, 5));
  EXPECT_FALSE(UF.connected(0, 4));
}

TEST(UnionFind, ChainedRepresentativeSurvival) {
  UnionFind UF(4);
  UF.unionSets(0, 1);
  UF.unionSets(2, 3);
  UF.unionSets(0, 2); // 0 absorbs the {2,3} class.
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(UF.find(I), 0u);
}

TEST(UnionFind, GrowAddsSingletons) {
  UnionFind UF(2);
  UF.unionSets(0, 1);
  UF.grow(4);
  EXPECT_EQ(UF.size(), 4u);
  EXPECT_EQ(UF.find(3), 3u);
  EXPECT_EQ(UF.find(1), 0u);
}

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng R(7);
  for (unsigned I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (unsigned I = 0; I != 2000; ++I) {
    std::int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, RollExtremes) {
  Rng R(1);
  for (unsigned I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.roll(0));
    EXPECT_TRUE(R.roll(100));
  }
}

TEST(Statistics, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  // A zero entry is clamped, not collapsing the mean to zero.
  EXPECT_GT(geomean({0.0, 100.0}), 0.0);
}

TEST(Statistics, GeomeanClampsNonPositiveEntries) {
  // Zero and negative entries clamp to 1e-9 instead of poisoning the log.
  EXPECT_NEAR(geomean({0.0}), 1e-9, 1e-15);
  EXPECT_NEAR(geomean({-5.0}), 1e-9, 1e-15);
  EXPECT_NEAR(geomean({0.0, -1.0}), 1e-9, 1e-15);
  // A clamped entry still drags the mean down without zeroing it.
  double Mixed = geomean({0.0, 4.0});
  EXPECT_GT(Mixed, 0.0);
  EXPECT_LT(Mixed, 4.0);
  // Entries exactly at the clamp floor pass through unchanged.
  EXPECT_NEAR(geomean({1e-9, 1e-9}), 1e-9, 1e-15);
}

TEST(Statistics, Formatting) {
  EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
  EXPECT_EQ(formatPercent(0.125, 1), "12.5%");
}

TEST(Statistics, FormatPercentEdgeCases) {
  EXPECT_EQ(formatPercent(0.0, 1), "0.0%");
  EXPECT_EQ(formatPercent(0.0, 0), "0%");
  EXPECT_EQ(formatPercent(-0.25, 1), "-25.0%");
  EXPECT_EQ(formatPercent(1.0, 0), "100%");
  EXPECT_EQ(formatPercent(2.5, 1), "250.0%");
  EXPECT_EQ(formatPercent(0.12345, 3), "12.345%");
}

} // namespace
