//===- tests/test_selectstate.cpp - Select-state and coalesced costs ------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/PhiElimination.h"
#include "regalloc/CoalescedCosts.h"
#include "regalloc/Coalescer.h"
#include "regalloc/SelectState.h"
#include "support/UnionFind.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <random>

using namespace pdgc;

namespace pdgc {
/// Prints a mask as its register list in assertion failures.
void PrintTo(const RegMask &M, std::ostream *OS) {
  *OS << "{";
  for (unsigned R : M)
    *OS << " " << R;
  *OS << " }";
}
} // namespace pdgc

namespace {

struct Fixture {
  Function F{"ss"};
  TargetDesc Target = makeTarget(16);
  VReg A, C, S;
  std::unique_ptr<InterferenceGraph> IG;

  Fixture() {
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    A = B.emitLoadImm(1);
    C = B.emitLoadImm(2);
    S = B.emitBinary(Opcode::Add, A, C);
    B.emitStore(S, A, 0);
    B.emitRet();
    Liveness LV = Liveness::compute(F);
    LoopInfo LI = LoopInfo::compute(F);
    IG = std::make_unique<InterferenceGraph>(
        InterferenceGraph::build(F, LV, LI));
  }
};

TEST(SelectState, PrecoloredNodesStartColored) {
  Function F("pins");
  IRBuilder B(F);
  VReg P = F.addParam(RegClass::GPR, 5);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  B.emitStore(P, P, 0);
  B.emitRet();
  Liveness LV = Liveness::compute(F);
  LoopInfo LI = LoopInfo::compute(F);
  InterferenceGraph IG = InterferenceGraph::build(F, LV, LI);
  TargetDesc T = makeTarget(16);
  SelectState SS(IG, T);
  EXPECT_TRUE(SS.hasColor(P.id()));
  EXPECT_EQ(SS.color(P.id()), 5);
}

TEST(SelectState, AvailabilityExcludesColoredNeighbors) {
  Fixture Fix;
  SelectState SS(*Fix.IG, Fix.Target);
  SS.setColor(Fix.A.id(), 0);
  SS.setColor(Fix.C.id(), 1);
  RegMask Avail = SS.availableFor(Fix.S.id());
  // S interferes with A (store base) but not C (dead at S's def).
  EXPECT_FALSE(Avail.test(0));
  EXPECT_TRUE(Avail.test(1));
  EXPECT_EQ(SS.firstAvailable(Fix.S.id()), 1);
}

TEST(SelectState, AvailabilityIsClassLocal) {
  Fixture Fix;
  SelectState SS(*Fix.IG, Fix.Target);
  RegMask Avail = SS.availableFor(Fix.A.id());
  // A GPR node sees only GPRs.
  for (unsigned R : Avail)
    EXPECT_EQ(Fix.Target.regClass(static_cast<PhysReg>(R)), RegClass::GPR);
  EXPECT_EQ(Avail.count(), 16u);
}

TEST(SelectState, PickAvailableHonorsNonVolatileFirst) {
  Fixture Fix;
  SelectState SS(*Fix.IG, Fix.Target);
  RegMask Avail = SS.availableFor(Fix.A.id());
  EXPECT_EQ(pickAvailable(Avail, Fix.Target, /*NonVolatileFirst=*/false),
            0);
  EXPECT_EQ(pickAvailable(Avail, Fix.Target, /*NonVolatileFirst=*/true),
            8);
  EXPECT_EQ(pickAvailable(RegMask(), Fix.Target, true), -1);
}

TEST(SelectState, RecoloringWithADifferentRegisterIsRejected) {
  Fixture Fix;
  SelectState SS(*Fix.IG, Fix.Target);
  SS.setColor(Fix.A.id(), 3);
  // The same color again stays legal: optimistic coalescing re-applies a
  // precolored representative's register to its members.
  SS.setColor(Fix.A.id(), 3);
  EXPECT_EQ(SS.color(Fix.A.id()), 3);
  {
    ScopedErrorTrap Trap;
    EXPECT_THROW(SS.setColor(Fix.A.id(), 4), FatalError);
  }
  EXPECT_EQ(SS.color(Fix.A.id()), 3);
  // The rejected color reached no neighbor's forbidden set.
  EXPECT_TRUE(SS.availableFor(Fix.S.id()).test(4));
  EXPECT_FALSE(SS.availableFor(Fix.S.id()).test(3));
}

/// Registers \p N may take, recomputed from scratch: every register of its
/// class minus the colors its colored neighbors hold now.
RegMask naiveAvailable(const InterferenceGraph &IG, const TargetDesc &T,
                       const SelectState &SS, unsigned N) {
  const RegClass RC = IG.regClass(N);
  RegMask Avail;
  for (unsigned I = 0; I != T.numRegs(RC); ++I)
    Avail.set(T.firstReg(RC) + I);
  for (unsigned M : IG.neighbors(N))
    if (SS.hasColor(M))
      Avail &= ~RegMask::single(static_cast<unsigned>(SS.color(M)));
  return Avail;
}

/// Colors the live nodes of \p IG in a random order, each with a random
/// available register (a node with none stays uncolored, as a spill
/// would), and checks every node's availability after every setColor.
void colorRandomlyAndCompare(const InterferenceGraph &IG, const TargetDesc &T,
                             std::mt19937 &Rng) {
  SelectState SS(IG, T);
  std::vector<unsigned> Live;
  for (unsigned N = 0; N != IG.numNodes(); ++N)
    if (!IG.isMerged(N))
      Live.push_back(N);
  auto ExpectAgreement = [&] {
    for (unsigned N : Live)
      ASSERT_EQ(SS.availableFor(N), naiveAvailable(IG, T, SS, N))
          << "node " << N;
  };
  ASSERT_NO_FATAL_FAILURE(ExpectAgreement());

  std::vector<unsigned> Order;
  for (unsigned N : Live)
    if (!SS.hasColor(N))
      Order.push_back(N);
  std::shuffle(Order.begin(), Order.end(), Rng);
  for (unsigned N : Order) {
    const RegMask Avail = SS.availableFor(N);
    if (Avail.none())
      continue;
    unsigned Skip = static_cast<unsigned>(Rng() % Avail.count());
    for (unsigned R : Avail)
      if (Skip-- == 0) {
        SS.setColor(N, static_cast<int>(R));
        break;
      }
    ASSERT_NO_FATAL_FAILURE(ExpectAgreement());
  }
}

TEST(SelectState, IncrementalAvailabilityMatchesNaiveRecomputation) {
  std::mt19937 Rng(20021);
  for (PairingRule Rule : {PairingRule::Adjacent, PairingRule::OddEven})
    for (unsigned Regs : {16u, 24u, 32u}) {
      TargetDesc T = makeTarget(Regs, Rule);
      for (const WorkloadSuite &Suite : specJvmLikeSuites())
        for (unsigned I = 0, E = Suite.Functions.size(); I != E; ++I) {
          SCOPED_TRACE(Suite.Name + "/" + std::to_string(I) + "/r" +
                       std::to_string(Regs));
          std::unique_ptr<Function> F = Suite.generate(I, T);
          eliminatePhis(*F);
          Liveness LV = Liveness::compute(*F);
          LoopInfo LI = LoopInfo::compute(*F);
          InterferenceGraph IG = InterferenceGraph::build(*F, LV, LI);
          ASSERT_NO_FATAL_FAILURE(colorRandomlyAndCompare(IG, T, Rng));
          // Coalesced graphs too: merged nodes leave their neighbors'
          // rows, as the Briggs-family selects rely on.
          UnionFind UF(F->numVRegs());
          aggressiveCoalesce(IG, UF);
          ASSERT_NO_FATAL_FAILURE(colorRandomlyAndCompare(IG, T, Rng));
        }
    }
}

TEST(CoalescedCosts, AggregatesOverClasses) {
  Fixture Fix;
  Liveness LV = Liveness::compute(Fix.F);
  LoopInfo LI = LoopInfo::compute(Fix.F);
  LiveRangeCosts Costs = LiveRangeCosts::compute(Fix.F, LV, LI);

  UnionFind UF(Fix.F.numVRegs());
  UF.unionSets(Fix.A.id(), Fix.C.id());
  CoalescedCosts CC(Costs, UF);

  unsigned Rep = UF.find(Fix.A.id());
  EXPECT_DOUBLE_EQ(CC.spillCost(Rep),
                   Costs.spillCost(Fix.A) + Costs.spillCost(Fix.C));
  EXPECT_DOUBLE_EQ(CC.opCost(Rep),
                   Costs.opCost(Fix.A) + Costs.opCost(Fix.C));
  EXPECT_DOUBLE_EQ(CC.memCost(Rep),
                   Costs.memCost(Fix.A) + Costs.memCost(Fix.C));
  // Unmerged nodes keep their own numbers.
  EXPECT_DOUBLE_EQ(CC.spillCost(Fix.S.id()), Costs.spillCost(Fix.S));
}

TEST(CoalescedCosts, InfinityInfectsTheWholeClass) {
  Fixture Fix;
  Fix.F.markSpillTemp(Fix.C);
  Liveness LV = Liveness::compute(Fix.F);
  LoopInfo LI = LoopInfo::compute(Fix.F);
  LiveRangeCosts Costs = LiveRangeCosts::compute(Fix.F, LV, LI);

  UnionFind UF(Fix.F.numVRegs());
  UF.unionSets(Fix.A.id(), Fix.C.id());
  CoalescedCosts CC(Costs, UF);
  EXPECT_TRUE(CC.isInfinite(UF.find(Fix.A.id())));
  EXPECT_TRUE(std::isinf(CC.spillMetric(UF.find(Fix.A.id()))));
  EXPECT_FALSE(CC.isInfinite(Fix.S.id()));
}

TEST(CoalescedCosts, CallCostMatchesVolatilityRule) {
  Fixture Fix;
  Liveness LV = Liveness::compute(Fix.F);
  LoopInfo LI = LoopInfo::compute(Fix.F);
  LiveRangeCosts Costs = LiveRangeCosts::compute(Fix.F, LV, LI);
  UnionFind UF(Fix.F.numVRegs());
  CoalescedCosts CC(Costs, UF);
  // No calls in the fixture: volatile residence is free, non-volatile
  // charges the flat callee save.
  EXPECT_DOUBLE_EQ(CC.callCost(Fix.A.id(), /*VolatileReg=*/true), 0.0);
  EXPECT_DOUBLE_EQ(CC.callCost(Fix.A.id(), /*VolatileReg=*/false), 2.0);
}

} // namespace
