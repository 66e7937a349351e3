//===- tests/test_arena.cpp - Arena and CSR storage units ---------------------===//
//
// Part of the PDGC project.
//
// Unit tests for the memory layer under the graph hot paths: the
// monotonic bump arena (support/Arena.h), its STL allocator adapter, the
// span view (support/Span.h), and the CSR row storage the interference /
// preference / precedence graphs carve from it (support/CsrGraph.h).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/CsrGraph.h"
#include "support/Span.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

using namespace pdgc;

namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena A(/*InitialBytes=*/64); // Tiny chunks: growth paths exercise early.
  std::set<char *> Starts;
  std::vector<std::pair<char *, std::size_t>> Blocks;
  const std::size_t Sizes[] = {1, 3, 8, 24, 64, 200, 7, 1024};
  for (std::size_t S : Sizes) {
    char *P = static_cast<char *>(A.allocate(S, alignof(std::max_align_t)));
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) %
                  alignof(std::max_align_t),
              0u);
    for (const auto &[Q, QS] : Blocks)
      EXPECT_TRUE(P + S <= Q || Q + QS <= P) << "overlapping carves";
    Blocks.emplace_back(P, S);
    Starts.insert(P);
  }
  EXPECT_EQ(Starts.size(), std::size(Sizes));
  EXPECT_GE(A.bytesReserved(), 64u + 200u + 1024u);
}

TEST(Arena, ZeroSizedAllocationsAreDistinct) {
  Arena A;
  void *P = A.allocate(0, 1);
  void *Q = A.allocate(0, 1);
  EXPECT_NE(P, nullptr);
  EXPECT_NE(P, Q);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena A(/*InitialBytes=*/32);
  // Far beyond the doubling schedule's next step.
  char *P = static_cast<char *>(A.allocate(1 << 20, 8));
  ASSERT_NE(P, nullptr);
  P[0] = 1;
  P[(1 << 20) - 1] = 2; // Whole extent is writable.
  EXPECT_GE(A.bytesReserved(), std::size_t(1) << 20);
}

TEST(Arena, ResetReusesChunksWithoutNewReservation) {
  Arena A(/*InitialBytes=*/128);
  for (int I = 0; I != 6; ++I)
    (void)A.allocate(100, 8);
  const std::size_t Reserved = A.bytesReserved();
  void *FirstBefore = A.allocate(16, 8);
  A.reset();
  void *FirstAfter = A.allocate(16, 8);
  // Warm round: same storage comes back, nothing new is reserved.
  EXPECT_EQ(A.bytesReserved(), Reserved);
  (void)FirstBefore;
  (void)FirstAfter;
  for (int I = 0; I != 6; ++I)
    (void)A.allocate(100, 8);
  EXPECT_EQ(A.bytesReserved(), Reserved);
}

TEST(Arena, BytesUsedTracksCarvesAndRewindsAtReset) {
  Arena A;
  EXPECT_EQ(A.bytesUsed(), 0u);
  (void)A.allocate(40, 8);
  (void)A.allocate(24, 8);
  EXPECT_EQ(A.bytesUsed(), 64u);
  A.reset();
  EXPECT_EQ(A.bytesUsed(), 0u);
}

TEST(Arena, ZeroedArraysAreZero) {
  Arena A;
  // Dirty the chunk first so a stale read would be visible.
  unsigned *Dirty = A.allocateArray<unsigned>(256);
  for (unsigned I = 0; I != 256; ++I)
    Dirty[I] = 0xDEADBEEF;
  A.reset();
  unsigned *Z = A.allocateZeroed<unsigned>(256);
  for (unsigned I = 0; I != 256; ++I)
    ASSERT_EQ(Z[I], 0u) << "index " << I;
}

TEST(ArenaAllocator, VectorGrowsThroughTheArena) {
  Arena A;
  std::vector<unsigned, ArenaAllocator<unsigned>> V{
      ArenaAllocator<unsigned>(A)};
  for (unsigned I = 0; I != 1000; ++I)
    V.push_back(I * 3);
  ASSERT_EQ(V.size(), 1000u);
  for (unsigned I = 0; I != 1000; ++I)
    ASSERT_EQ(V[I], I * 3);
  EXPECT_GE(A.bytesUsed(), 1000 * sizeof(unsigned));
  // Rebind + equality: allocators over one arena compare equal.
  ArenaAllocator<unsigned> AU(A);
  ArenaAllocator<char> AC(AU);
  EXPECT_TRUE(AU == AC);
  Arena B;
  EXPECT_TRUE(AU != ArenaAllocator<unsigned>(B));
}

TEST(SpanView, BasicAccessors) {
  unsigned Data[] = {5, 6, 7};
  Span<unsigned> S(Data, 3);
  EXPECT_EQ(S.size(), 3u);
  EXPECT_FALSE(S.empty());
  EXPECT_EQ(S.front(), 5u);
  EXPECT_EQ(S.back(), 7u);
  EXPECT_EQ(S[1], 6u);
  unsigned Sum = 0;
  for (unsigned V : S)
    Sum += V;
  EXPECT_EQ(Sum, 18u);
  EXPECT_TRUE(Span<unsigned>().empty());
}

TEST(CsrRowsStorage, CountedInitFillsInOrder) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Counts[] = {2, 0, 3};
  R.init(A, 3, Counts, /*Slack=*/0);
  R.push(A, 0, 10);
  R.push(A, 0, 11);
  R.push(A, 2, 20);
  R.push(A, 2, 21);
  R.push(A, 2, 22);
  EXPECT_EQ(R.size(0), 2u);
  EXPECT_EQ(R.size(1), 0u);
  ASSERT_EQ(R.size(2), 3u);
  EXPECT_EQ(R.row(2)[0], 20u);
  EXPECT_EQ(R.row(2)[2], 22u);
}

TEST(CsrRowsStorage, PushBeyondSlackRelocatesAndPreservesContents) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Counts[] = {1};
  R.init(A, 1, Counts, /*Slack=*/1);
  for (unsigned I = 0; I != 50; ++I)
    R.push(A, 0, I * 7); // Several doublings past the initial cap of 2.
  ASSERT_EQ(R.size(0), 50u);
  for (unsigned I = 0; I != 50; ++I)
    ASSERT_EQ(R.row(0)[I], I * 7) << "index " << I;
}

TEST(CsrRowsStorage, LazyInitRowsStartEmptyAndGrow) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Zero[4] = {};
  R.init(A, 4, Zero, /*Slack=*/0);
  for (unsigned N = 0; N != 4; ++N)
    EXPECT_EQ(R.size(N), 0u);
  R.push(A, 3, 99);
  EXPECT_EQ(R.size(3), 1u);
  EXPECT_EQ(R.row(3)[0], 99u);
  EXPECT_EQ(R.size(0), 0u);
}

TEST(CsrRowsStorage, SwapPopMovesLastIntoGap) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Zero[1] = {};
  R.init(A, 1, Zero, /*Slack=*/0);
  for (unsigned V : {1u, 2u, 3u, 4u})
    R.push(A, 0, V);
  R.swapPop(0, 0);
  ASSERT_EQ(R.size(0), 3u);
  EXPECT_EQ(R.row(0)[0], 4u);
  EXPECT_EQ(R.row(0)[1], 2u);
  EXPECT_EQ(R.row(0)[2], 3u);
}

TEST(CsrRowsStorage, MutableRowWritesThrough) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Zero[1] = {};
  R.init(A, 1, Zero, /*Slack=*/0);
  R.push(A, 0, 7);
  R.mutableRow(0)[0] = 9;
  EXPECT_EQ(R.row(0)[0], 9u);
}

TEST(CsrArrayStorage, CompactMatchesRowsExactly) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Zero[5] = {};
  R.init(A, 5, Zero, /*Slack=*/0);
  // Irregular shape incl. trailing empty row.
  R.push(A, 0, 3);
  R.push(A, 2, 1);
  R.push(A, 2, 4);
  R.push(A, 2, 1);
  R.push(A, 3, 0);
  CsrArray<unsigned> G = CsrArray<unsigned>::compact(A, R);
  ASSERT_EQ(G.numNodes(), 5u);
  EXPECT_EQ(G.numEdges(), 5u);
  for (unsigned N = 0; N != 5; ++N) {
    Span<const unsigned> Want = R.row(N);
    Span<const unsigned> Got = G.row(N);
    ASSERT_EQ(Got.size(), Want.size()) << "node " << N;
    for (unsigned I = 0; I != Got.size(); ++I)
      EXPECT_EQ(Got[I], Want[I]) << "node " << N << " index " << I;
  }
}

TEST(CsrArrayStorage, TransposeListsSourcesInAscendingOrder) {
  Arena A;
  CsrRows<unsigned> R;
  const unsigned Counts[] = {2, 0, 3, 1};
  R.init(A, 4, Counts, /*Slack=*/0);
  R.push(A, 0, 3);
  R.push(A, 0, 1);
  R.push(A, 2, 1);
  R.push(A, 2, 0);
  R.push(A, 2, 3);
  R.push(A, 3, 1);
  CsrArray<unsigned> G = CsrArray<unsigned>::compact(A, R);
  CsrArray<unsigned> T = CsrArray<unsigned>::transpose(A, G);
  ASSERT_EQ(T.numNodes(), 4u);
  EXPECT_EQ(T.numEdges(), G.numEdges());
  const std::vector<std::vector<unsigned>> Want = {{2}, {0, 2, 3}, {}, {0, 2}};
  for (unsigned N = 0; N != 4; ++N) {
    Span<const unsigned> Got = T.row(N);
    EXPECT_EQ(std::vector<unsigned>(Got.begin(), Got.end()), Want[N])
        << "node " << N;
  }
}

TEST(CsrArrayStorage, EmptyGraphCompacts) {
  Arena A;
  CsrRows<unsigned> R;
  R.init(A, 0, nullptr, /*Slack=*/0);
  CsrArray<unsigned> G = CsrArray<unsigned>::compact(A, R);
  EXPECT_EQ(G.numNodes(), 0u);
  EXPECT_EQ(G.numEdges(), 0u);
}

} // namespace
