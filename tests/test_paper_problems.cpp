//===- tests/test_paper_problems.cpp - Section 4 problem cases ------------------===//
//
// Part of the PDGC project.
//
// The paper motivates integrated preference resolution with three problem
// cases (Figures 4-6) where preference-unaware coalescing hurts. These
// tests build each scenario and check that the preference-directed
// allocator never does worse than the aggressive coalescers on the cost
// objective — and resolves the specific conflict the figure describes.
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

double costWith(AllocatorBase &Alloc, const TargetDesc &Target,
                Function &F) {
  AllocationOutcome Out = allocate(F, Target, Alloc);
  return simulateCost(F, Target, Out.Assignment).total();
}

/// Figure 5(a): a paired load feeding two call arguments. Coalescing v1
/// and v2 into the (non-pairable) argument registers destroys the fusion;
/// keeping the pair costs the two argument copies instead. The integrated
/// allocator must weigh the two and never lose to reckless coalescing.
TEST(PaperProblems, Figure5aPairedLoadVsArgumentCoalescing) {
  TargetDesc Target = makeTarget(16); // arg0 = r0, arg2 = r2: not a pair
                                      // in load order? r0,r1 pair; r0,r2
                                      // do not.
  auto Build = [&](Function &F) {
    IRBuilder B(F);
    VReg P = F.addParam(RegClass::GPR,
                        static_cast<int>(Target.paramReg(RegClass::GPR, 0)));
    BasicBlock *Entry = F.createBlock();
    BasicBlock *Loop = F.createBlock();
    BasicBlock *Done = F.createBlock();

    B.setInsertBlock(Entry);
    VReg Base = B.emitMove(P);
    B.emitBranch(Loop);

    B.setInsertBlock(Loop);
    auto [V1, V2] = B.emitPairedLoad(Base, 0);
    // farg0 = v1; farg2 = v2; call — argument registers r0 and r2.
    VReg A0 = F.createPinnedVReg(
        RegClass::GPR, static_cast<int>(Target.paramReg(RegClass::GPR, 0)));
    VReg A2 = F.createPinnedVReg(
        RegClass::GPR, static_cast<int>(Target.paramReg(RegClass::GPR, 2)));
    B.emitMoveTo(A0, V1);
    B.emitMoveTo(A2, V2);
    B.emitCall(1, {A0, A2}, VReg());
    VReg C = B.emitCompare(Opcode::CmpEQ, Base, Base);
    B.emitCondBranch(C, Loop, Done);

    B.setInsertBlock(Done);
    B.emitRet();
  };

  Function F1("f5_chaitin"), F2("f5_pdgc");
  Build(F1);
  Build(F2);
  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  PreferenceDirectedAllocator Pdgc(pdgcFullOptions());
  double CostChaitin = costWith(Chaitin, Target, F1);
  double CostPdgc = costWith(Pdgc, Target, F2);
  EXPECT_LE(CostPdgc, CostChaitin);
}

/// Figure 6(a): A = B; ...; arg0 = A, with B preferring a non-volatile
/// register (it crosses a call). Coalescing A with B first drags A toward
/// the non-volatile side and loses the argument-register coalescence; the
/// better resolution coalesces A with arg0. The integrated allocator must
/// get the cheap outcome: at most one of the two copies survives.
TEST(PaperProblems, Figure6aCoalescenceOrderMatters) {
  TargetDesc Target = makeTarget(16);
  auto Build = [&](Function &F) {
    IRBuilder B(F);
    BasicBlock *BB = F.createBlock();
    B.setInsertBlock(BB);
    VReg Bv = B.emitLoadImm(7);
    B.emitCall(1, {}, VReg()); // B crosses this call.
    VReg A = B.emitMove(Bv);   // A = B (B's last use).
    VReg Arg = F.createPinnedVReg(
        RegClass::GPR, static_cast<int>(Target.paramReg(RegClass::GPR, 0)));
    B.emitMoveTo(Arg, A); // arg0 = A.
    B.emitCall(2, {Arg}, VReg());
    B.emitRet();
  };

  Function F("f6a");
  Build(F);
  PreferenceDirectedAllocator Pdgc(pdgcFullOptions());
  AllocationOutcome Out = allocate(F, Target, Pdgc);
  // A lands on the argument register (that copy disappears); whether the
  // B->A copy also disappears depends on B's placement, but at least one
  // copy must go.
  EXPECT_GE(Out.eliminatedMoves(), 1u);
  SimulatedCost Cost = simulateCost(F, Target, Out.Assignment);

  Function F2("f6a_base");
  Build(F2);
  BriggsAllocator Chaitin(BriggsAllocator::Variant::Chaitin);
  double CostChaitin = costWith(Chaitin, Target, F2);
  EXPECT_LE(Cost.total(), CostChaitin);
}

/// Figure 6(b): a chain T = C0/C1; C2 = T; ret = C2 where C1 prefers a
/// non-volatile register. Coalescing C1 with T blocks the cheaper chain
/// C0-T-C2-ret through the return register.
TEST(PaperProblems, Figure6bChainThroughTheReturnRegister) {
  TargetDesc Target = makeTarget(16);
  auto Build = [&](Function &F) {
    IRBuilder B(F);
    BasicBlock *Entry = F.createBlock();
    BasicBlock *UseC1 = F.createBlock();
    BasicBlock *Join = F.createBlock();

    B.setInsertBlock(Entry);
    // C0 = ret of a call (lands in the return register naturally).
    VReg Ret0 = F.createPinnedVReg(
        RegClass::GPR, static_cast<int>(Target.returnReg(RegClass::GPR)));
    B.emitCall(1, {}, Ret0);
    VReg C0 = B.emitMove(Ret0);
    VReg C1 = B.emitLoadImm(9);
    VReg Cond = B.emitCompare(Opcode::CmpEQ, C0, C1);
    B.emitCondBranch(Cond, UseC1, Join);

    B.setInsertBlock(UseC1);
    B.emitCall(2, {}, VReg()); // C1 crosses a call on this arm.
    B.emitStore(C1, C1, 0);
    B.emitBranch(Join);

    B.setInsertBlock(Join);
    VReg T = B.emitPhi(RegClass::GPR, {C1, C0}); // T = C1 or C0.
    VReg C2 = B.emitMove(T);
    VReg RetV = F.createPinnedVReg(
        RegClass::GPR, static_cast<int>(Target.returnReg(RegClass::GPR)));
    B.emitMoveTo(RetV, C2);
    B.emitRet(RetV);
  };

  Function F1("f6b_pdgc"), F2("f6b_briggs");
  Build(F1);
  Build(F2);
  PreferenceDirectedAllocator Pdgc(pdgcFullOptions());
  BriggsAllocator Briggs;
  double CostPdgc = costWith(Pdgc, Target, F1);
  double CostBriggs = costWith(Briggs, Target, F2);
  EXPECT_LE(CostPdgc, CostBriggs);
}

} // namespace
