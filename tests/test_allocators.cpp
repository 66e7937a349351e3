//===- tests/test_allocators.cpp - Baseline allocator behaviour ----------------===//
//
// Part of the PDGC project.
//
// Behavioural contracts of the five baseline allocators: Chaitin's
// pessimism vs. Briggs' optimism on the classic diamond graph, coalescing
// effects on copies, Park–Moon's coalescing undo, and the call-cost
// allocator's volatility decisions.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/CallCostAllocator.h"
#include "regalloc/Driver.h"
#include "regalloc/IteratedCoalescingAllocator.h"
#include "regalloc/OptimisticCoalescingAllocator.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

/// Four values forming a 4-cycle (C4): a-b, b-c, c-d, d-a interfere and
/// nothing else does. The graph is 2-colorable (a,c vs b,d) but every node
/// has degree 2, so Chaitin with K=2 must spill while Briggs' optimism
/// colors it — the canonical optimistic-coloring example. The cycle is
/// built from a four-block loop where each value is defined in one block
/// and dies in the next.
struct DiamondGraph {
  Function F{"c4"};
  VReg A, Bv, C, D;

  DiamondGraph() {
    IRBuilder B(F);
    BasicBlock *Entry = F.createBlock("entry");
    BasicBlock *B1 = F.createBlock("b1");
    BasicBlock *B2 = F.createBlock("b2");
    BasicBlock *B3 = F.createBlock("b3");
    BasicBlock *B4 = F.createBlock("b4");
    BasicBlock *Exit = F.createBlock("exit");

    B.setInsertBlock(Entry);
    B.emitBranch(B1);

    B.setInsertBlock(B1); // d is live-in here (around the backedge).
    A = B.emitLoadImm(1);
    D = F.createVReg(RegClass::GPR); // Defined in B4, used here.
    B1->append(Instruction(Opcode::Store, VReg(), {D, A}, 0)); // kills d
    B.emitBranch(B2);

    B.setInsertBlock(B2);
    Bv = B.emitLoadImm(2);
    B.emitStore(A, Bv, 0); // kills a
    B.emitBranch(B3);

    B.setInsertBlock(B3);
    C = B.emitLoadImm(3);
    B.emitStore(Bv, C, 0); // kills b
    B.emitBranch(B4);

    B.setInsertBlock(B4);
    B4->append(Instruction(Opcode::LoadImm, D, {}, 4));
    B.emitStore(C, D, 0); // kills c
    B4->append(Instruction(Opcode::CondBranch, VReg(), {D}));
    F.setEdges(B4, {B1, Exit});

    B.setInsertBlock(Exit);
    B.emitRet();
  }
};

TEST(Allocators, BriggsOptimismBeatsChaitinPessimismOnC4) {
  TargetDesc Tiny("k2", 2, 2, 1, 1, PairingRule::Adjacent);

  DiamondGraph G1;
  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  AllocationOutcome ChaitinOut = allocate(G1.F, Tiny, Chaitin);

  DiamondGraph G2;
  BriggsAllocator Briggs;
  AllocationOutcome BriggsOut = allocate(G2.F, Tiny, Briggs);

  // A and C interfere (both live at the compare) and B interferes with
  // both in its arm — every node of {A, B*, C, D} has two same-class
  // neighbors, blocking Chaitin at K=2; optimistic coloring succeeds.
  EXPECT_GT(ChaitinOut.SpilledRanges, 0u);
  EXPECT_EQ(BriggsOut.SpilledRanges, 0u);
  EXPECT_EQ(BriggsOut.Rounds, 1u);
}

TEST(Allocators, AggressiveCoalescingEliminatesCopyChains) {
  auto Build = [](Function &F) {
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    VReg A = B.emitLoadImm(1);
    VReg C = B.emitMove(A);
    VReg D = B.emitMove(C);
    VReg E = B.emitMove(D);
    B.emitStore(E, E, 0);
    B.emitRet();
  };
  TargetDesc Target = makeTarget(16);
  Function F("chain");
  Build(F);
  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  AllocationOutcome Out = allocate(F, Target, Chaitin);
  EXPECT_EQ(Out.OriginalMoves, 3u);
  EXPECT_EQ(Out.eliminatedMoves(), 3u);
  EXPECT_EQ(Out.remainingMoves(), 0u);
}

TEST(Allocators, IteratedCoalescingIsConservativeButColorsEverything) {
  TargetDesc Target = makeTarget(16);
  Function F("it");
  IRBuilder B(F);
  VReg P = F.addParam(RegClass::GPR, 0);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitMove(P);
  VReg C = B.emitMove(A);
  B.emitStore(C, C, 0);
  B.emitRet();

  IteratedCoalescingAllocator Iterated;
  AllocationOutcome Out = allocate(F, Target, Iterated);
  EXPECT_EQ(Out.SpilledRanges, 0u);
  // Low-degree copies are safe to coalesce: all copies disappear and the
  // chain lands on the parameter register.
  EXPECT_EQ(Out.remainingMoves(), 0u);
  EXPECT_EQ(Out.Assignment[C.id()], 0);
}

TEST(Allocators, OptimisticCoalescingUndoesHarmfulMerges) {
  // X is copied to Y. X interferes with a node pinned to r0, Y with a
  // node pinned to r1; on a two-register machine the aggressively merged
  // XY has no color, but the split halves do (X -> r1, Y -> r0). The
  // Park–Moon undo must find that, at the price of keeping the copy.
  TargetDesc Tiny("k2b", 2, 2, 1, 1, PairingRule::Adjacent);
  Function F("undo");
  IRBuilder B(F);
  VReg P0 = F.addParam(RegClass::GPR, 0);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg X = B.emitLoadImm(1); // Live while the r0-pinned parameter is.
  B.emitStore(X, P0, 0);     // P0's last use.
  VReg Y = B.emitMove(X);    // X dies here.
  VReg P1 = F.createPinnedVReg(RegClass::GPR, 1);
  BB->append(Instruction(Opcode::LoadImm, P1, {}, 5)); // Y-P1 overlap.
  VReg S = B.emitBinary(Opcode::Add, Y, P1);
  B.emitStore(S, S, 0);
  B.emitRet();

  OptimisticCoalescingAllocator Optimistic;
  AllocationOutcome Out = allocate(F, Tiny, Optimistic);
  EXPECT_EQ(Out.SpilledRanges, 0u);
  EXPECT_EQ(Out.Assignment[X.id()], 1);
  EXPECT_EQ(Out.Assignment[Y.id()], 0);
  // The undone coalescence leaves the copy in place.
  EXPECT_EQ(Out.remainingMoves(), 1u);
}

TEST(Allocators, CallCostPutsCrossingValuesInNonVolatileRegisters) {
  TargetDesc Target = makeTarget(16);
  Function F("cc");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  // A value used on both sides of several calls, heavily used so spilling
  // is unattractive.
  VReg X = B.emitLoadImm(42);
  for (unsigned I = 0; I != 3; ++I) {
    B.emitStore(X, X, I);
    B.emitCall(I + 1, {}, VReg());
  }
  B.emitStore(X, X, 9);
  B.emitRet();

  CallCostAllocator CallCost;
  AllocationOutcome Out = allocate(F, Target, CallCost);
  ASSERT_GE(Out.Assignment[X.id()], 0);
  EXPECT_FALSE(Target.isVolatile(static_cast<PhysReg>(Out.Assignment[X.id()])))
      << "call-crossing value should sit in a callee-saved register";
}

TEST(Allocators, CallCostActivelySpillsWhenMemoryIsCheapest) {
  // Under the Appendix constants a non-volatile register (flat cost 2)
  // always beats memory (minimum spill cost 3), so the active-spill path
  // needs an expensive callee-save convention — e.g. a machine whose
  // prologue saves cost 10 — before memory wins for a rarely-used,
  // call-crossing value.
  TargetDesc Target = makeTarget(16);
  Function F("spillme");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg X = B.emitLoadImm(42);
  for (unsigned I = 0; I != 6; ++I)
    B.emitCall(I + 1, {}, VReg());
  B.emitStore(X, X, 0);
  B.emitRet();

  CallCostAllocator CallCost;
  DriverOptions Options;
  Options.Costs.CalleeSaveCost = 10.0;
  AllocationOutcome Out = allocate(F, Target, CallCost, Options);
  EXPECT_GT(Out.SpilledRanges, 0u);
  EXPECT_GT(Out.SpillInstructions, 0u);
}

TEST(Allocators, BiasedColoringEliminatesCopiesWithoutMerging) {
  TargetDesc Target = makeTarget(16);
  Function F("bias");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  B.emitStore(A, A, 3);
  VReg C = B.emitMove(A);
  B.emitStore(C, C, 0);
  B.emitRet();

  BriggsAllocator Biased(BriggsAllocator::Variant::Biased);
  AllocationOutcome Out = allocate(F, Target, Biased);
  EXPECT_EQ(Out.remainingMoves(), 0u);
}

TEST(Allocators, EveryBaselineHandlesAnEmptyishFunction) {
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<AllocatorBase> Allocators[] = {
      std::make_unique<BriggsAllocator>(BriggsAllocator::Variant::Chaitin),
      std::make_unique<BriggsAllocator>(),
      std::make_unique<IteratedCoalescingAllocator>(),
      std::make_unique<OptimisticCoalescingAllocator>(),
      std::make_unique<CallCostAllocator>()};
  for (auto &Alloc : Allocators) {
    Function F("empty");
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    B.emitRet();
    AllocationOutcome Out = allocate(F, Target, *Alloc);
    EXPECT_EQ(Out.Rounds, 1u) << Alloc->name();
    EXPECT_EQ(Out.SpilledRanges, 0u) << Alloc->name();
  }
}

} // namespace
