//===- regalloc/CallCostAllocator.cpp - Call-cost directed -----------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "regalloc/CallCostAllocator.h"

#include "regalloc/CoalescedCosts.h"
#include "regalloc/Coalescer.h"
#include "regalloc/Rewriter.h"
#include "regalloc/SelectState.h"
#include "regalloc/Simplifier.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Tracing.h"

#include <algorithm>

using namespace pdgc;

RoundResult CallCostAllocator::allocateRound(AllocContext &Ctx) {
  const unsigned N = Ctx.F.numVRegs();
  RoundResult RR = RoundResult::make(N);

  UnionFind UF(N);
  {
    ScopedTimer Timer("callcost.coalesce", "allocator");
    PDGC_FAULT_POINT("callcost.coalesce");
    aggressiveCoalesce(Ctx.IG, UF);
  }
  CoalescedCosts CC(Ctx.Costs, UF);

  // --- Preference decision (Lueh–Gross). For each call, rank the classes
  // live across it by their non-volatile benefit; only the best R keep a
  // non-volatile preference.
  ScopedTimer PreferenceTimer("callcost.preference", "allocator");
  PDGC_FAULT_POINT("callcost.preference");
  std::vector<char> ForcedVolatile(N, 0);
  for (unsigned B = 0, E = Ctx.F.numBlocks(); B != E; ++B) {
    const BasicBlock *BB = Ctx.F.block(B);
    Ctx.LV.forEachInstReverse(BB, [&](unsigned I, const BitVector &LiveAfter) {
      const Instruction &Inst = BB->inst(I);
      if (!Inst.isCall())
        return;
      // Collect distinct live-across classes, per register class.
      for (RegClass RC : {RegClass::GPR, RegClass::FPR}) {
        std::vector<unsigned> Across;
        for (unsigned L : LiveAfter.setBits()) {
          if (Inst.hasDef() && Inst.def().id() == L)
            continue;
          if (Ctx.F.regClass(VReg(L)) != RC)
            continue;
          unsigned Rep = UF.find(L);
          if (Ctx.IG.isPrecolored(Rep))
            continue;
          if (std::find(Across.begin(), Across.end(), Rep) == Across.end())
            Across.push_back(Rep);
        }
        unsigned R = Ctx.Target.numNonVolatile(RC);
        if (Across.size() <= R)
          continue;
        std::sort(Across.begin(), Across.end(), [&](unsigned A, unsigned C) {
          return CC.registerBenefit(A, /*VolatileReg=*/false) >
                 CC.registerBenefit(C, /*VolatileReg=*/false);
        });
        for (unsigned J = R; J < Across.size(); ++J)
          ForcedVolatile[Across[J]] = 1;
      }
    });
  }
  PreferenceTimer.finish();

  // --- Benefit-driven, pessimistic simplification.
  ScopedTimer SimplifyTimer("callcost.simplify", "allocator");
  PDGC_FAULT_POINT("callcost.simplify");
  auto Benefit = [&](unsigned Node) {
    double BV = CC.registerBenefit(Node, /*VolatileReg=*/true);
    double BN = CC.registerBenefit(Node, /*VolatileReg=*/false);
    return BV > BN ? BV : BN;
  };
  SimplifyResult SR =
      simplifyGraph(Ctx.IG, Ctx.Target,
                    [&](unsigned Node) { return CC.spillMetric(Node); },
                    /*Optimistic=*/false, Benefit);
  SimplifyTimer.finish();

  auto SpillOut = [&](std::vector<unsigned> Spills) {
    std::vector<unsigned> RepOf(N);
    for (unsigned V = 0; V != N; ++V)
      RepOf[V] = UF.find(V);
    rewriteCoalesced(Ctx.F, RepOf);
    RR.Spilled = std::move(Spills);
    return RR;
  };

  if (!SR.DefiniteSpills.empty())
    return SpillOut(SR.DefiniteSpills);

  // --- Volatility-aware select with active spilling.
  ScopedTimer SelectTimer("callcost.select", "allocator");
  PDGC_FAULT_POINT("callcost.select");
  SelectState SS(Ctx.IG, Ctx.Target);
  std::vector<unsigned> ActiveSpills;
  for (unsigned I = SR.Stack.size(); I-- > 0;) {
    unsigned Node = SR.Stack[I];
    double BV = CC.registerBenefit(Node, /*VolatileReg=*/true);
    double BN = CC.registerBenefit(Node, /*VolatileReg=*/false);
    if (!CC.isInfinite(Node) && BV < 0.0 && BN < 0.0) {
      // Memory beats every register kind: spill actively.
      ActiveSpills.push_back(Node);
      continue;
    }
    // The lowest available register of the wanted volatility, else the
    // lowest of the other.
    RegMask Avail = SS.availableFor(Node);
    RegMask Volatile = Avail & Ctx.Target.volatileMask(Ctx.IG.regClass(Node));
    bool WantVolatile = ForcedVolatile[Node] || BV >= BN;
    RegMask Wanted = WantVolatile ? Volatile : Avail & ~Volatile;
    int Color = (Wanted.any() ? Wanted : Avail).findFirst();
    assert(Color >= 0 && "Chaitin-stacked node must be colorable");
    SS.setColor(Node, Color);
  }
  if (!ActiveSpills.empty())
    return SpillOut(std::move(ActiveSpills));

  RR.Color = SS.colors();
  for (unsigned V = 0; V != N; ++V)
    RR.CoalesceMap[V] = UF.find(V);
  return RR;
}
