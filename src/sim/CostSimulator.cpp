//===- sim/CostSimulator.cpp - Execution-cost estimation --------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "sim/CostSimulator.h"

#include "analysis/LoopInfo.h"
#include "analysis/Liveness.h"
#include "support/BitVector.h"
#include "support/Debug.h"

using namespace pdgc;

SimulatedCost pdgc::simulateCost(const Function &F, const TargetDesc &Target,
                                 const std::vector<int> &Assignment,
                                 const CostParams &Params) {
  SimulatedCost Cost;
  LoopInfo LI = LoopInfo::compute(F, Params.LoopFreqFactor);
  Liveness LV = Liveness::compute(F);

  auto ColorOf = [&](VReg V) {
    assert(V.id() < Assignment.size() && Assignment[V.id()] >= 0 &&
           "cost simulation of an incompletely allocated function");
    return static_cast<PhysReg>(Assignment[V.id()]);
  };

  RegMask NonVolatileUsed;

  for (unsigned B = 0, E = F.numBlocks(); B != E; ++B) {
    const BasicBlock *BB = F.block(B);
    const double Freq = LI.frequency(BB);

    // Track which load indices fused away as pair seconds.
    std::vector<char> Fused(BB->size(), 0);
    for (unsigned I = 0, IE = BB->size(); I != IE; ++I) {
      const Instruction &Inst = BB->inst(I);
      if (!Inst.isPairHead())
        continue;
      assert(I + 1 < IE && "pair head without a mate");
      const Instruction &Mate = BB->inst(I + 1);
      if (Target.pairFuses(ColorOf(Inst.def()), ColorOf(Mate.def()))) {
        Fused[I + 1] = 1;
        ++Cost.FusedPairs;
      } else {
        ++Cost.MissedPairs;
      }
    }

    LV.forEachInstReverse(BB, [&](unsigned I, const BitVector &LiveAfter) {
      const Instruction &Inst = BB->inst(I);

      // Record non-volatile register usage.
      auto Note = [&](VReg V) {
        PhysReg R = ColorOf(V);
        if (!Target.isVolatile(R))
          NonVolatileUsed.set(R);
      };
      if (Inst.hasDef())
        Note(Inst.def());
      for (unsigned U = 0, UE = Inst.numUses(); U != UE; ++U)
        Note(Inst.use(U));

      // Narrow operations pay a fixup instruction when their result
      // landed outside the narrow-capable registers.
      if (Inst.isNarrowDef() && Inst.hasDef() &&
          !Target.isNarrowCapable(ColorOf(Inst.def()))) {
        Cost.NarrowFixupCost += Params.DefaultInstCost * Freq;
        ++Cost.NarrowFixups;
      }

      switch (Inst.opcode()) {
      case Opcode::Move:
        if (ColorOf(Inst.def()) != ColorOf(Inst.use(0)))
          Cost.MoveCost += Params.DefaultInstCost * Freq;
        break;
      case Opcode::SpillLoad:
        Cost.SpillCost += Params.LoadInstCost * Freq;
        break;
      case Opcode::SpillStore:
        Cost.SpillCost += Params.StoreCost * Freq;
        break;
      case Opcode::Load:
        if (!Fused[I])
          Cost.OpCost += Params.LoadInstCost * Freq;
        break;
      case Opcode::Call: {
        // Caller-side save/restore of live-across values sitting in
        // volatile registers.
        RegMask VolatileLive;
        for (unsigned L : LiveAfter.setBits()) {
          if (Inst.hasDef() && Inst.def().id() == L)
            continue;
          PhysReg R = ColorOf(VReg(L));
          if (Target.isVolatile(R))
            VolatileLive.set(R);
        }
        Cost.CallerSaveCost +=
            Params.SaveRestoreCost * Freq * VolatileLive.count();
        break;
      }
      case Opcode::Phi:
        pdgc_unreachable("cost simulation requires phi-free IR");
      default:
        Cost.OpCost += Params.DefaultInstCost * Freq;
        break;
      }
    });
  }

  Cost.CalleeSaveCost =
      Params.CalleeSaveCost * static_cast<double>(NonVolatileUsed.count());
  return Cost;
}
