//===- regalloc/BriggsAllocator.cpp - Chaitin/Briggs coloring --------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "regalloc/BriggsAllocator.h"

#include "regalloc/CoalescedCosts.h"
#include "regalloc/Coalescer.h"
#include "regalloc/Rewriter.h"
#include "regalloc/SelectState.h"
#include "regalloc/Simplifier.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Tracing.h"

using namespace pdgc;

RoundResult BriggsAllocator::allocateRound(AllocContext &Ctx) {
  const unsigned N = Ctx.F.numVRegs();
  RoundResult RR = RoundResult::make(N);

  UnionFind UF(N);
  {
    ScopedTimer Timer("briggs.coalesce", "allocator");
    PDGC_FAULT_POINT("briggs.coalesce");
    aggressiveCoalesce(Ctx.IG, UF);
  }
  CoalescedCosts CC(Ctx.Costs, UF);

  // Reflects the coalescing in the code (the next round restarts from the
  // shrunken graph), then reports the spills.
  auto ReportSpills = [&](std::vector<unsigned> Spills) {
    std::vector<unsigned> RepOf(N);
    for (unsigned V = 0; V != N; ++V)
      RepOf[V] = UF.find(V);
    rewriteCoalesced(Ctx.F, RepOf);
    RR.Spilled = std::move(Spills);
    return std::move(RR);
  };

  ScopedTimer SimplifyTimer("briggs.simplify", "allocator");
  PDGC_FAULT_POINT("briggs.simplify");
  SimplifyResult SR =
      simplifyGraph(Ctx.IG, Ctx.Target,
                    [&](unsigned Node) { return CC.spillMetric(Node); },
                    /*Optimistic=*/Kind != Variant::Chaitin);
  SimplifyTimer.finish();

  // Chaitin's pessimistic simplify already chose the round's spills:
  // report them without selecting.
  if (!SR.DefiniteSpills.empty())
    return ReportSpills(std::move(SR.DefiniteSpills));

  // Select with optimistic retries: uncolorable nodes become real spills.
  // After a pessimistic simplify every stacked node was low-degree at
  // removal, so each finds a color.
  ScopedTimer SelectTimer("briggs.select", "allocator");
  PDGC_FAULT_POINT("briggs.select");
  SelectState SS(Ctx.IG, Ctx.Target);
  std::vector<unsigned> ActualSpills;
  for (unsigned I = SR.Stack.size(); I-- > 0;) {
    unsigned Node = SR.Stack[I];
    RegMask Avail = SS.availableFor(Node);
    int Color = pickAvailable(Avail, Ctx.Target, NonVolatileFirst);
    if (Color < 0) {
      assert(Kind != Variant::Chaitin &&
             "Chaitin stacked node must be colorable");
      assert(!CC.isInfinite(Node) && "unspillable node found no color");
      ActualSpills.push_back(Node);
      continue;
    }
    if (Kind == Variant::Biased) {
      // Prefer a color already held by a copy-related partner so that the
      // copy is eliminated without having merged the nodes.
      for (const MoveRecord &MR : Ctx.IG.moves()) {
        unsigned A = UF.find(MR.Dst), B = UF.find(MR.Src);
        unsigned Partner;
        if (A == Node)
          Partner = B;
        else if (B == Node)
          Partner = A;
        else
          continue;
        int PC = SS.color(Partner);
        if (PC >= 0 && Avail.test(static_cast<unsigned>(PC))) {
          Color = PC;
          break;
        }
      }
    }
    SS.setColor(Node, Color);
  }

  if (!ActualSpills.empty())
    return ReportSpills(std::move(ActualSpills));

  RR.Color = SS.colors();
  for (unsigned V = 0; V != N; ++V)
    RR.CoalesceMap[V] = UF.find(V);
  return RR;
}
