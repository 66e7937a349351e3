//===- tests/test_liveness.cpp - Liveness analysis tests ----------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pdgc;

namespace {

/// Registers live immediately after each instruction of \p BB, by index,
/// collected in one forEachInstReverse walk. Live-before instruction I is
/// live-after I - 1 (live-in for I = 0).
std::vector<BitVector> liveAfterEach(const Liveness &LV,
                                     const BasicBlock *BB) {
  std::vector<BitVector> After(BB->size());
  LV.forEachInstReverse(BB, [&](unsigned I, const BitVector &LiveAfter) {
    After[I] = LiveAfter;
  });
  return After;
}

TEST(Liveness, StraightLineKillAndGen) {
  Function F("sl");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitAddImm(A, 2);
  B.emitStore(C, A, 0);
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  EXPECT_TRUE(LV.liveIn(BB).none());
  EXPECT_TRUE(LV.liveOut(BB).none());

  std::vector<BitVector> After = liveAfterEach(LV, BB);
  // Before the store (after the addimm) both A and C are live.
  EXPECT_TRUE(After[1].test(A.id()));
  EXPECT_TRUE(After[1].test(C.id()));
  // Before the addimm (after the loadimm) only A is live.
  EXPECT_TRUE(After[0].test(A.id()));
  EXPECT_FALSE(After[0].test(C.id()));
  // After the store nothing is live.
  EXPECT_TRUE(After[2].none());
}

TEST(Liveness, ValueLiveAcrossBranchJoin) {
  Function F("dj");
  IRBuilder B(F);
  BasicBlock *Entry = F.createBlock();
  BasicBlock *Then = F.createBlock();
  BasicBlock *Else = F.createBlock();
  BasicBlock *Join = F.createBlock();

  B.setInsertBlock(Entry);
  VReg X = B.emitLoadImm(5);
  VReg C = B.emitLoadImm(1);
  B.emitCondBranch(C, Then, Else);

  B.setInsertBlock(Then);
  B.emitAddImm(X, 1);
  B.emitBranch(Join);

  B.setInsertBlock(Else);
  B.emitBranch(Join);

  B.setInsertBlock(Join);
  B.emitStore(X, X, 0); // X used after the join: live through both arms.
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  EXPECT_TRUE(LV.liveOut(Entry).test(X.id()));
  EXPECT_TRUE(LV.liveIn(Then).test(X.id()));
  EXPECT_TRUE(LV.liveIn(Else).test(X.id()));
  EXPECT_TRUE(LV.liveIn(Join).test(X.id()));
  EXPECT_FALSE(LV.liveOut(Join).test(X.id()));
  // The condition dies at the branch.
  EXPECT_FALSE(LV.liveIn(Then).test(C.id()));
}

TEST(Liveness, LoopCarriedValueLiveAroundBackedge) {
  Function F("loop");
  IRBuilder B(F);
  BasicBlock *Entry = F.createBlock();
  BasicBlock *Loop = F.createBlock();
  BasicBlock *Done = F.createBlock();

  B.setInsertBlock(Entry);
  VReg X = B.emitLoadImm(0);
  B.emitBranch(Loop);

  B.setInsertBlock(Loop);
  // X is redefined each iteration and tested: live around the backedge.
  VReg X2 = B.emitAddImm(X, 1);
  Loop->append(Instruction(Opcode::Move, X, {X2}));
  VReg K = B.emitLoadImm(10);
  VReg C = B.emitCompare(Opcode::CmpLT, X, K);
  B.emitCondBranch(C, Loop, Done);

  B.setInsertBlock(Done);
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  EXPECT_TRUE(LV.liveIn(Loop).test(X.id()));
  EXPECT_TRUE(LV.liveOut(Loop).test(X.id()));
  EXPECT_FALSE(LV.liveIn(Loop).test(X2.id()));
  EXPECT_FALSE(LV.liveIn(Done).test(C.id()));
}

TEST(Liveness, ParametersAreLiveInAtEntry) {
  Function F("params");
  IRBuilder B(F);
  VReg P0 = F.addParam(RegClass::GPR, 0);
  VReg P1 = F.addParam(RegClass::GPR, 1);
  BasicBlock *Entry = F.createBlock();
  B.setInsertBlock(Entry);
  VReg S = B.emitBinary(Opcode::Add, P0, P1);
  B.emitStore(S, P0, 0);
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  EXPECT_TRUE(LV.liveIn(Entry).test(P0.id()));
  EXPECT_TRUE(LV.liveIn(Entry).test(P1.id()));
}

TEST(Liveness, ForEachInstReverseMatchesQueries) {
  Function F("walk");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitAddImm(A, 1);
  B.emitStore(C, A, 0);
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  // Hand-derived live-after sets: {A}, {A, C}, {}, {}. The walk visits
  // every instruction once, from the block end down.
  BitVector OnlyA(F.numVRegs()), AAndC(F.numVRegs()), None(F.numVRegs());
  OnlyA.set(A.id());
  AAndC.set(A.id());
  AAndC.set(C.id());
  const std::vector<BitVector> Want = {OnlyA, AAndC, None, None};
  std::vector<unsigned> Order;
  LV.forEachInstReverse(BB, [&](unsigned I, const BitVector &LiveAfter) {
    Order.push_back(I);
    ASSERT_LT(I, Want.size());
    EXPECT_EQ(LiveAfter, Want[I]) << "at instruction " << I;
  });
  EXPECT_EQ(Order, (std::vector<unsigned>{3, 2, 1, 0}));
}

TEST(Liveness, RecomputeReusesStorageAndMatchesFreshCompute) {
  Function F("recompute");
  IRBuilder B(F);
  BasicBlock *Entry = F.createBlock();
  BasicBlock *Exit = F.createBlock();
  B.setInsertBlock(Entry);
  VReg X = B.emitLoadImm(3);
  B.emitBranch(Exit);
  B.setInsertBlock(Exit);
  B.emitStore(X, X, 0);
  B.emitRet();

  std::vector<unsigned> RPO = F.reversePostOrder();
  Liveness LV = Liveness::compute(F, RPO);

  // Mutate the way a spill round does: new instructions and vregs inside
  // existing blocks, no CFG change.
  VReg T = F.createVReg(RegClass::GPR);
  Exit->insertBefore(0, Instruction(Opcode::LoadImm, T, {}, 7));
  Exit->insertBefore(1, Instruction(Opcode::Store, VReg(), {T, X}, 0));
  LV.recompute(F, RPO);

  Liveness Fresh = Liveness::compute(F);
  for (unsigned I = 0, E = F.numBlocks(); I != E; ++I) {
    EXPECT_EQ(LV.liveIn(F.block(I)), Fresh.liveIn(F.block(I)));
    EXPECT_EQ(LV.liveOut(F.block(I)), Fresh.liveOut(F.block(I)));
  }
}

TEST(Liveness, DeadDefinitionIsNotLive) {
  Function F("dead");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg D = B.emitLoadImm(9); // Never used.
  B.emitRet();
  Liveness LV = Liveness::compute(F);
  EXPECT_FALSE(liveAfterEach(LV, BB)[0].test(D.id()));
  EXPECT_TRUE(LV.liveIn(BB).none());
}

} // namespace
