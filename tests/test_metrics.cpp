//===- tests/test_metrics.cpp - Metrics, checker, rewriter, driver --------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "regalloc/AssignmentChecker.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/Driver.h"
#include "regalloc/Metrics.h"
#include "regalloc/Rewriter.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

TEST(Metrics, MoveStatsCountsEliminated) {
  Function F("m");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitMove(A); // Will share a register: eliminated.
  B.emitStore(C, C, 0);
  VReg D = B.emitMove(C); // Different register: survives.
  B.emitStore(D, C, 1);
  B.emitRet();

  std::vector<int> Assign(F.numVRegs(), 0);
  Assign[A.id()] = 3;
  Assign[C.id()] = 3;
  Assign[D.id()] = 4;
  LoopInfo LI = LoopInfo::compute(F);
  MoveStats S = moveStats(F, Assign, LI);
  EXPECT_EQ(S.Total, 2u);
  EXPECT_EQ(S.Eliminated, 1u);
  EXPECT_DOUBLE_EQ(S.WeightedTotal, 2.0);
  EXPECT_DOUBLE_EQ(S.WeightedEliminated, 1.0);
}

TEST(Metrics, SpillInstructionCounting) {
  Function F("s");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  Instruction Store(Opcode::SpillStore, VReg(), {A}, 0);
  Store.setSpillCode(true);
  BB->append(std::move(Store));
  VReg L = F.createVReg(RegClass::GPR);
  Instruction Load(Opcode::SpillLoad, L, {}, 0);
  Load.setSpillCode(true);
  BB->append(std::move(Load));
  B.emitStore(L, L, 0);
  B.emitRet();
  EXPECT_EQ(countSpillInstructions(F), 2u);
}

TEST(Rewriter, ReplacesOperandsAndDeletesSelfMoves) {
  Function F("rw");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitMove(A);
  B.emitStore(C, C, 0);
  B.emitRet();

  std::vector<unsigned> RepOf(F.numVRegs());
  for (unsigned V = 0; V != F.numVRegs(); ++V)
    RepOf[V] = V;
  RepOf[C.id()] = A.id(); // Coalesce C into A.

  unsigned Deleted = rewriteCoalesced(F, RepOf);
  EXPECT_EQ(Deleted, 1u);
  EXPECT_EQ(countMoves(F), 0u);
  // The store now references A.
  const Instruction &Store = BB->inst(1);
  ASSERT_EQ(Store.opcode(), Opcode::Store);
  EXPECT_EQ(Store.use(0), A);
  EXPECT_EQ(Store.use(1), A);
}

TEST(Checker, AcceptsValidAssignment) {
  Function F("ok");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitLoadImm(2);
  VReg S = B.emitBinary(Opcode::Add, A, C);
  B.emitStore(S, A, 0);
  B.emitRet();

  TargetDesc T = makeTarget(16);
  std::vector<int> Assign(F.numVRegs());
  Assign[A.id()] = 0;
  Assign[C.id()] = 1;
  Assign[S.id()] = 1; // C dead at S's def: legal reuse.
  EXPECT_TRUE(checkAssignment(F, T, Assign).empty());
}

TEST(Checker, DetectsClobber) {
  Function F("bad");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitLoadImm(2);
  VReg S = B.emitBinary(Opcode::Sub, A, C);
  B.emitStore(S, A, 0);
  B.emitRet();

  TargetDesc T = makeTarget(16);
  std::vector<int> Assign(F.numVRegs());
  Assign[A.id()] = 0;
  Assign[C.id()] = 0; // Clobbers A while live.
  Assign[S.id()] = 1;
  std::vector<std::string> Errors = checkAssignment(F, T, Assign);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("clobber"), std::string::npos);
}

TEST(Checker, DetectsMissingColorClassAndPinViolations) {
  Function F("bad2");
  IRBuilder B(F);
  VReg P = F.addParam(RegClass::GPR, 2);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg X = B.emitLoadImm(1, RegClass::FPR);
  B.emitStore(X, P, 0);
  B.emitRet();

  TargetDesc T = makeTarget(16);
  // Missing color.
  std::vector<int> Assign(F.numVRegs(), -1);
  EXPECT_FALSE(checkAssignment(F, T, Assign).empty());

  // Wrong class: an FPR value in a GPR.
  Assign[P.id()] = 2;
  Assign[X.id()] = 0;
  {
    std::vector<std::string> Errors = checkAssignment(F, T, Assign);
    ASSERT_FALSE(Errors.empty());
    EXPECT_NE(Errors.front().find("class"), std::string::npos);
  }

  // Pin violation.
  Assign[X.id()] = static_cast<int>(T.firstReg(RegClass::FPR));
  Assign[P.id()] = 3;
  {
    std::vector<std::string> Errors = checkAssignment(F, T, Assign);
    ASSERT_FALSE(Errors.empty());
    EXPECT_NE(Errors.front().find("pinned"), std::string::npos);
  }
}

TEST(Checker, AllowsNoOpCopySharing) {
  Function F("noop");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg S = B.emitLoadImm(1);
  VReg D = B.emitMove(S);
  VReg T = B.emitBinary(Opcode::Add, D, S); // Both live after the copy.
  B.emitStore(T, T, 0);
  B.emitRet();

  TargetDesc Tgt = makeTarget(16);
  std::vector<int> Assign(F.numVRegs());
  Assign[S.id()] = 5;
  Assign[D.id()] = 5; // Same register: the copy is a no-op, values equal.
  Assign[T.id()] = 6;
  EXPECT_TRUE(checkAssignment(F, Tgt, Assign).empty());
}

TEST(Driver, IteratesUntilSpillsSettle) {
  // Force spilling with a tiny register file; the driver must converge in
  // a bounded number of rounds with all spill fragments colored.
  TargetDesc Tiny("k2", 2, 2, 1, 1, PairingRule::Adjacent);
  Function F("pressure");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  std::vector<VReg> V;
  for (unsigned I = 0; I != 5; ++I)
    V.push_back(B.emitLoadImm(static_cast<std::int64_t>(I)));
  VReg Acc = V[0];
  for (unsigned I = 1; I != 5; ++I)
    Acc = B.emitBinary(Opcode::Add, Acc, V[I]);
  B.emitStore(Acc, V[0], 0);
  B.emitRet();

  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  AllocationOutcome Out = allocate(F, Tiny, Chaitin);
  EXPECT_GT(Out.Rounds, 1u);
  EXPECT_GT(Out.SpilledRanges, 0u);
  EXPECT_GT(Out.SpillInstructions, 0u);
  EXPECT_EQ(Out.StackSlots, Out.SpilledRanges);
  // OriginalMoves bookkeeping: no moves here at all.
  EXPECT_EQ(Out.OriginalMoves, 0u);
  EXPECT_EQ(Out.eliminatedMoves(), 0u);
}

TEST(Driver, ReportsMoveAccounting) {
  TargetDesc Target = makeTarget(16);
  Function F("acct");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitMove(A);
  VReg D = B.emitMove(C);
  B.emitStore(D, D, 0);
  B.emitRet();

  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  AllocationOutcome Out = allocate(F, Target, Chaitin);
  EXPECT_EQ(Out.OriginalMoves, 2u);
  EXPECT_EQ(Out.eliminatedMoves() + Out.remainingMoves(), 2u);
  EXPECT_EQ(Out.eliminatedMoves(), 2u);
}

} // namespace
