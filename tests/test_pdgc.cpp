//===- tests/test_pdgc.cpp - Preference-directed select tests -------------------===//
//
// Part of the PDGC project.
//
// Behavioural contracts of the preference-directed allocator beyond the
// Figure 7 fidelity suite: dedicated-register coalescing, the step-4.3
// lookahead, active spilling, the paper's Figure 4/5/6 problem cases where
// preference-unaware coalescing goes wrong, and the option switches.
//
//===----------------------------------------------------------------------===//

#include "core/PreferenceDirectedAllocator.h"
#include "ir/IRBuilder.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/Driver.h"
#include "sim/CostSimulator.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

TEST(Pdgc, ParameterAndReturnCopiesAreEliminated) {
  // v = move(param r0); ...; ret_pinned(r0) = move v — both copies can
  // land on r0 when v's range allows it.
  TargetDesc Target = makeTarget(16);
  Function F("glue");
  IRBuilder B(F);
  VReg P = F.addParam(RegClass::GPR, 0);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg V = B.emitMove(P);
  VReg W = B.emitAddImm(V, 1);
  B.emitStore(W, V, 0);
  VReg Ret = F.createPinnedVReg(RegClass::GPR, 0);
  B.emitMoveTo(Ret, V);
  B.emitRet(Ret);

  PreferenceDirectedAllocator Alloc(pdgcFullOptions());
  AllocationOutcome Out = allocate(F, Target, Alloc);
  EXPECT_EQ(Out.Assignment[V.id()], 0);
  EXPECT_EQ(Out.remainingMoves(), 0u);
}

TEST(Pdgc, Figure4HarmfulCoalescingAvoided) {
  // The paper's Figure 4: A and B are copy-related; B (and C, D, E) want
  // non-volatile registers. Preference-unaware coalescing merges A and B,
  // and the merged range then competes for scarce non-volatile registers.
  // The preference-directed allocator may simply leave the copy when the
  // non-volatile side is oversubscribed. We only check the outcome is
  // sane: no spills and the call-crossing values in non-volatile
  // registers, with at most one surviving move.
  TargetDesc Tiny("fig4", 4, 4, /*Volatile=*/2, /*Params=*/2,
                  PairingRule::Adjacent);
  Function F("fig4");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  B.emitStore(A, A, 0);
  VReg Bv = B.emitMove(A); // A dies at the copy.
  VReg C = B.emitLoadImm(2);
  VReg D = B.emitLoadImm(3);
  B.emitCall(1, {}, VReg()); // B, C, D cross the call.
  VReg S1 = B.emitBinary(Opcode::Add, Bv, C);
  VReg S2 = B.emitBinary(Opcode::Add, S1, D);
  B.emitStore(S2, S2, 0);
  B.emitRet();

  PreferenceDirectedAllocator Alloc(pdgcFullOptions());
  AllocationOutcome Out = allocate(F, Tiny, Alloc);
  EXPECT_EQ(Out.SpilledRanges, 0u);
  unsigned NonVolCrossing = 0;
  for (VReg V : {Bv, C, D})
    if (!Tiny.isVolatile(static_cast<PhysReg>(Out.Assignment[V.id()])))
      ++NonVolCrossing;
  // Only two non-volatile registers exist; both should go to crossing
  // values.
  EXPECT_EQ(NonVolCrossing, 2u);
}

TEST(Pdgc, LookaheadPreservesPairability) {
  // Two loads forming a pair, colored while an unrelated value competes:
  // without the 4.3 lookahead the first destination grabs a register
  // whose successor is taken.
  TargetDesc Target("pair4", 4, 4, 2, 2, PairingRule::Adjacent);
  auto Build = [](Function &F) {
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    VReg Base = B.emitLoadImm(0);
    auto [First, Second] = B.emitPairedLoad(Base, 0);
    VReg S = B.emitBinary(Opcode::Add, First, Second);
    B.emitStore(S, Base, 0);
    B.emitRet();
    return std::pair{First, Second};
  };

  Function F("pair");
  auto [First, Second] = Build(F);
  PreferenceDirectedAllocator Alloc(pdgcFullOptions());
  AllocationOutcome Out = allocate(F, Target, Alloc);
  EXPECT_TRUE(Target.pairFuses(
      static_cast<PhysReg>(Out.Assignment[First.id()]),
      static_cast<PhysReg>(Out.Assignment[Second.id()])))
      << "r" << Out.Assignment[First.id()] << ", r"
      << Out.Assignment[Second.id()];
  SimulatedCost Cost = simulateCost(F, Target, Out.Assignment);
  EXPECT_EQ(Cost.FusedPairs, 1u);
}

TEST(Pdgc, ActiveSpillSendsCheapCrossingValuesToMemory) {
  // With every non-volatile register consumed by hot crossing values, a
  // cold crossing value is better off in memory than paying save/restore
  // in a volatile register — Section 5.4's active spill.
  TargetDesc Tiny("as", 4, 4, /*Volatile=*/2, /*Params=*/2,
                  PairingRule::Adjacent);
  Function F("activespill");
  IRBuilder B(F);
  BasicBlock *Entry = F.createBlock();
  BasicBlock *Loop = F.createBlock();
  BasicBlock *Done = F.createBlock();

  B.setInsertBlock(Entry);
  VReg H1 = B.emitLoadImm(1);
  VReg H2 = B.emitLoadImm(2);
  B.emitBranch(Loop);

  B.setInsertBlock(Loop);
  // Hot values used every iteration across a call: they take the two
  // non-volatile registers first (larger strength differential).
  B.emitStore(H1, H2, 0);
  B.emitCall(1, {}, VReg());
  VReg C = B.emitCompare(Opcode::CmpLT, H1, H2);
  B.emitCondBranch(C, Loop, Done);

  // A cold value crossing two rare calls while both hot values still
  // live: no non-volatile register remains, and paying save/restore in a
  // volatile one costs more than its memory cost.
  B.setInsertBlock(Done);
  VReg Cold = B.emitLoadImm(7);
  B.emitCall(2, {}, VReg());
  B.emitCall(3, {}, VReg());
  B.emitStore(Cold, H1, 1);
  B.emitStore(Cold, H2, 2);
  B.emitRet();

  PreferenceDirectedAllocator Full(pdgcFullOptions());
  AllocationOutcome Out = allocate(F, Tiny, Full);
  // The hot values take the two non-volatile registers; the cold value is
  // actively spilled rather than saved/restored around the hot call.
  EXPECT_GT(Out.SpilledRanges, 0u);

  PDGCOptions NoAS = pdgcFullOptions();
  NoAS.ActiveSpill = false;
  NoAS.Name = "no-as";
  Function F2("activespill2");
  {
    // Rebuild the same function (allocation mutates it).
    IRBuilder B2(F2);
    BasicBlock *E2 = F2.createBlock();
    BasicBlock *L2 = F2.createBlock();
    BasicBlock *D2 = F2.createBlock();
    B2.setInsertBlock(E2);
    VReg H1b = B2.emitLoadImm(1);
    VReg H2b = B2.emitLoadImm(2);
    B2.emitBranch(L2);
    B2.setInsertBlock(L2);
    B2.emitStore(H1b, H2b, 0);
    B2.emitCall(1, {}, VReg());
    VReg C2 = B2.emitCompare(Opcode::CmpLT, H1b, H2b);
    B2.emitCondBranch(C2, L2, D2);
    B2.setInsertBlock(D2);
    VReg Cold2 = B2.emitLoadImm(7);
    B2.emitCall(2, {}, VReg());
    B2.emitCall(3, {}, VReg());
    B2.emitStore(Cold2, H1b, 1);
    B2.emitStore(Cold2, H2b, 2);
    B2.emitRet();
  }
  PreferenceDirectedAllocator NoActive(NoAS);
  AllocationOutcome Out2 = allocate(F2, Tiny, NoActive);
  EXPECT_EQ(Out2.SpilledRanges, 0u); // It fits — just at a higher cost.
}

TEST(Pdgc, CoalesceOnlyStillEliminatesDedicatedCopies) {
  TargetDesc Target = makeTarget(16);
  Function F("co");
  IRBuilder B(F);
  VReg P = F.addParam(RegClass::GPR, 0);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg V = B.emitMove(P);
  B.emitStore(V, V, 0);
  B.emitRet();

  PreferenceDirectedAllocator Alloc(pdgcCoalesceOnlyOptions());
  AllocationOutcome Out = allocate(F, Target, Alloc);
  EXPECT_EQ(Out.Assignment[V.id()], 0);
  EXPECT_EQ(Out.remainingMoves(), 0u);
}

TEST(Pdgc, StackOrderVariantStillProducesValidAllocations) {
  TargetDesc Target = makeTarget(16);
  PDGCOptions O = pdgcFullOptions();
  O.UseCPG = false;
  O.Name = "stack";
  Function F("stackorder");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitMove(A);
  B.emitStore(C, C, 0);
  B.emitRet();
  PreferenceDirectedAllocator Alloc(O);
  AllocationOutcome Out = allocate(F, Target, Alloc); // Driver verifies.
  EXPECT_EQ(Out.Rounds, 1u);
}

TEST(Pdgc, VolatilitySplitFollowsCallCrossing) {
  TargetDesc Target = makeTarget(16);
  Function F("split");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg Crossing = B.emitLoadImm(1);
  VReg Local = B.emitLoadImm(2);
  B.emitStore(Local, Local, 0); // Local dies pre-call.
  B.emitCall(1, {}, VReg());
  B.emitStore(Crossing, Crossing, 1);
  B.emitRet();

  PreferenceDirectedAllocator Alloc(pdgcFullOptions());
  AllocationOutcome Out = allocate(F, Target, Alloc);
  EXPECT_FALSE(Target.isVolatile(
      static_cast<PhysReg>(Out.Assignment[Crossing.id()])));
  EXPECT_TRUE(
      Target.isVolatile(static_cast<PhysReg>(Out.Assignment[Local.id()])));
}

TEST(Pdgc, BeatsChaitinOnSimulatedCostForCallHeavyCode) {
  // A minimal end-to-end echo of Figure 11's claim.
  TargetDesc Target = makeTarget(16);
  auto Build = [](Function &F) {
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    std::vector<VReg> Vals;
    for (unsigned I = 0; I != 4; ++I)
      Vals.push_back(B.emitLoadImm(static_cast<std::int64_t>(I)));
    for (unsigned I = 0; I != 4; ++I) {
      B.emitCall(I, {}, VReg());
      B.emitStore(Vals[I], Vals[(I + 1) % 4], 0);
    }
    VReg S = B.emitBinary(Opcode::Add, Vals[2], Vals[3]);
    B.emitStore(S, Vals[0], 2);
    B.emitRet();
  };

  Function F1("a"), F2("b");
  Build(F1);
  Build(F2);
  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  PreferenceDirectedAllocator Pdgc(pdgcFullOptions());
  AllocationOutcome O1 = allocate(F1, Target, Chaitin);
  AllocationOutcome O2 = allocate(F2, Target, Pdgc);
  double CostChaitin = simulateCost(F1, Target, O1.Assignment).total();
  double CostPdgc = simulateCost(F2, Target, O2.Assignment).total();
  EXPECT_LE(CostPdgc, CostChaitin);
}

} // namespace
