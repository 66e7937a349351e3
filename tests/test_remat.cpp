//===- tests/test_remat.cpp - Rematerialization tests ---------------------------===//
//
// Part of the PDGC project.
//
// Briggs-style rematerialization: a spilled live range whose every
// definition is one constant is recomputed at its uses instead of being
// stored and reloaded.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/Driver.h"
#include "regalloc/SpillCodeInserter.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

TEST(Remat, ConstantUsesAreRecomputedNotReloaded) {
  Function F("r");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg K = B.emitLoadImm(99);
  VReg A = B.emitLoadImm(1);
  B.emitStore(K, A, 0);
  B.emitStore(K, A, 1);
  B.emitRet();

  unsigned Slot = 0;
  SpillInsertStats Stats =
      insertSpillCode(F, {K.id()}, Slot, /*Rematerialize=*/true);
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_EQ(Stats.Loads, 0u);
  EXPECT_EQ(Stats.Rematerialized, 2u);
  EXPECT_EQ(Slot, 0u); // No stack slot consumed.

  // The defining loadimm of K is gone and the uses recompute 99.
  unsigned LoadImm99 = 0;
  for (const Instruction &I : BB->instructions()) {
    if (I.hasDef()) {
      EXPECT_NE(I.def(), K);
    }
    if (I.opcode() == Opcode::LoadImm && I.imm() == 99) {
      ++LoadImm99;
      EXPECT_TRUE(I.isSpillCode());
    }
  }
  EXPECT_EQ(LoadImm99, 2u);

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyFunction(F, Errors)) << Errors.front();
  ExecutionResult R = runVirtual(F, {});
  EXPECT_TRUE(R.Completed);
}

TEST(Remat, MixedDefinitionsFallBackToSlots) {
  // K is redefined with a different constant: not rematerializable.
  Function F("mix");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg K = B.emitLoadImm(5);
  B.emitStore(K, K, 0);
  BB->append(Instruction(Opcode::LoadImm, K, {}, 6));
  B.emitStore(K, K, 1);
  B.emitRet();

  unsigned Slot = 0;
  SpillInsertStats Stats =
      insertSpillCode(F, {K.id()}, Slot, /*Rematerialize=*/true);
  EXPECT_EQ(Stats.Rematerialized, 0u);
  EXPECT_EQ(Stats.Stores, 2u);
  EXPECT_GT(Stats.Loads, 0u);
  EXPECT_EQ(Slot, 1u);
}

TEST(Remat, NonConstantDefinitionsFallBackToSlots) {
  Function F("nc");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg K = B.emitAddImm(A, 2); // Computed, not a constant load.
  B.emitStore(K, A, 0);
  B.emitRet();

  unsigned Slot = 0;
  SpillInsertStats Stats =
      insertSpillCode(F, {K.id()}, Slot, /*Rematerialize=*/true);
  EXPECT_EQ(Stats.Rematerialized, 0u);
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(Stats.Loads, 1u);
}

TEST(Remat, SemanticsPreservedUnderPressureWithDriver) {
  // Force heavy spilling of constants on a tiny machine with and without
  // rematerialization; both must preserve semantics, and remat must not
  // allocate slots for constants.
  TargetDesc Tiny("k3", 3, 3, 1, 1, PairingRule::Adjacent);
  auto Build = [](Function &F) {
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    std::vector<VReg> Ks;
    for (unsigned I = 0; I != 6; ++I)
      Ks.push_back(B.emitLoadImm(static_cast<std::int64_t>(100 + I)));
    VReg Acc = Ks[0];
    for (unsigned I = 1; I != 6; ++I)
      Acc = B.emitBinary(Opcode::Add, Acc, Ks[I]);
    for (unsigned I = 0; I != 6; ++I)
      B.emitStore(Ks[I], Acc, I);
    VReg Ret = F.createPinnedVReg(RegClass::GPR, 0);
    B.emitMoveTo(Ret, Acc);
    B.emitRet(Ret);
  };

  Function F1("a"), F2("b");
  Build(F1);
  Build(F2);
  ExecutionResult Reference = runVirtual(F1, {});

  BriggsAllocator Alloc(BriggsAllocator::Variant::Chaitin);
  DriverOptions Plain;
  AllocationOutcome O1 = allocate(F1, Tiny, Alloc, Plain);
  DriverOptions WithRemat;
  WithRemat.Rematerialize = true;
  AllocationOutcome O2 = allocate(F2, Tiny, Alloc, WithRemat);

  EXPECT_EQ(runAllocated(F1, Tiny, O1.Assignment, {}).ReturnValue,
            Reference.ReturnValue);
  EXPECT_EQ(runAllocated(F2, Tiny, O2.Assignment, {}).ReturnValue,
            Reference.ReturnValue);
  EXPECT_LT(O2.StackSlots, O1.StackSlots);
}

} // namespace
