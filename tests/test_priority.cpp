//===- tests/test_priority.cpp - Priority-based coloring tests ------------------===//
//
// Part of the PDGC project.
//
// The Chow–Hennessy-style baseline: priority order protects important
// ranges, unconstrained ranges always color, and — the paper's Section 7
// point — it tends to use *more* registers than Chaitin-style packing.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/Driver.h"
#include "regalloc/PriorityAllocator.h"
#include "sim/Interpreter.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <set>

using namespace pdgc;

namespace {

TEST(Priority, ColorsSimpleFunctions) {
  TargetDesc Target = makeTarget(16);
  Function F("p");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitLoadImm(2);
  VReg S = B.emitBinary(Opcode::Add, A, C);
  B.emitStore(S, A, 0);
  B.emitRet();

  PriorityAllocator Priority;
  AllocationOutcome Out = allocate(F, Target, Priority);
  EXPECT_EQ(Out.Rounds, 1u);
  EXPECT_EQ(Out.SpilledRanges, 0u);
}

TEST(Priority, HighPriorityRangeKeepsItsRegisterUnderPressure) {
  // Two constrained ranges compete for one register: the hot one (in a
  // loop) must win; the cold one is spilled.
  TargetDesc Tiny("k1ish", 2, 2, 1, 1, PairingRule::Adjacent);
  Function F("fight");
  IRBuilder B(F);
  BasicBlock *Entry = F.createBlock();
  BasicBlock *Loop = F.createBlock();
  BasicBlock *Done = F.createBlock();

  B.setInsertBlock(Entry);
  VReg Cold = B.emitLoadImm(5);
  VReg Hot = B.emitLoadImm(6);
  VReg Third = B.emitLoadImm(7);
  B.emitBranch(Loop);

  B.setInsertBlock(Loop);
  B.emitStore(Hot, Hot, 0); // Hot use at frequency 10.
  VReg C = B.emitCompare(Opcode::CmpEQ, Hot, Third);
  B.emitCondBranch(C, Loop, Done);

  B.setInsertBlock(Done);
  B.emitStore(Cold, Third, 1); // Cold single use.
  B.emitRet();

  PriorityAllocator Priority;
  AllocationOutcome Out = allocate(F, Tiny, Priority);
  EXPECT_GT(Out.SpilledRanges, 0u);
  // The hot range must have ended in a register without being split.
  ASSERT_GE(Out.Assignment[Hot.id()], 0);
  // And the program still works.
  std::vector<std::string> Errors;
  ASSERT_TRUE(verifyFunction(F, Errors)) << Errors.front();
}

TEST(Priority, UsesMoreRegistersThanChaitin) {
  // Section 7: "priority-based coloring probably uses more registers than
  // Chaitin's approach" — check on a workload with plenty of slack.
  TargetDesc Target = makeTarget(32);
  GeneratorParams P;
  P.Seed = 424242;
  P.FragmentBudget = 24;
  P.CallPercent = 20;

  auto UsedRegs = [&](AllocatorBase &Alloc) {
    std::unique_ptr<Function> F = generateFunction(P, Target);
    AllocationOutcome Out = allocate(*F, Target, Alloc);
    std::set<int> Used;
    for (unsigned B = 0; B != F->numBlocks(); ++B)
      for (const Instruction &I : F->block(B)->instructions()) {
        if (I.hasDef())
          Used.insert(Out.Assignment[I.def().id()]);
        for (unsigned U = 0; U != I.numUses(); ++U)
          Used.insert(Out.Assignment[I.use(U).id()]);
      }
    return Used.size();
  };

  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  PriorityAllocator Priority;
  EXPECT_GE(UsedRegs(Priority), UsedRegs(Chaitin));
}

TEST(Priority, SemanticsPreservedAcrossPressure) {
  for (unsigned Regs : {24u, 8u, 4u}) {
    TargetDesc Target = makeTarget(Regs);
    GeneratorParams P;
    P.Seed = 515;
    P.FragmentBudget = 18;
    P.CallPercent = 25;
    P.FpPercent = 20;
    std::unique_ptr<Function> F = generateFunction(P, Target);
    ExecutionResult Reference = runVirtual(*F, {3, 4});
    ASSERT_TRUE(Reference.Completed);
    PriorityAllocator Priority;
    AllocationOutcome Out = allocate(*F, Target, Priority);
    ExecutionResult After = runAllocated(*F, Target, Out.Assignment, {3, 4});
    EXPECT_EQ(Reference.ReturnValue, After.ReturnValue) << Regs;
    EXPECT_EQ(Reference.StoreDigest, After.StoreDigest) << Regs;
  }
}

} // namespace
