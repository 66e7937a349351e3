//===- regalloc/OptimisticCoalescingAllocator.cpp - Park-Moon --------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "regalloc/OptimisticCoalescingAllocator.h"

#include "regalloc/CoalescedCosts.h"
#include "regalloc/Coalescer.h"
#include "regalloc/SelectState.h"
#include "regalloc/Simplifier.h"
#include "support/Deadline.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Tracing.h"

#include <algorithm>
#include <deque>

using namespace pdgc;

RoundResult
OptimisticCoalescingAllocator::allocateRound(AllocContext &Ctx) {
  const unsigned N = Ctx.F.numVRegs();
  RoundResult RR = RoundResult::make(N);

  // Keep the pre-coalesce graph: undoing a coalescence must consult the
  // primitives' original neighborhoods. The snapshot's rows live in the
  // round arena and die with it.
  InterferenceGraph Pristine = Ctx.IG.snapshot(Ctx.Mem);

  UnionFind UF(N);
  {
    ScopedTimer Timer("optimistic.coalesce", "allocator");
    PDGC_FAULT_POINT("optimistic.coalesce");
    aggressiveCoalesce(Ctx.IG, UF);
  }
  CoalescedCosts CC(Ctx.Costs, UF);

  // Member lists per representative.
  std::vector<std::vector<unsigned>> Members(N);
  for (unsigned V = 0; V != N; ++V)
    Members[UF.find(V)].push_back(V);

  ScopedTimer SimplifyTimer("optimistic.simplify", "allocator");
  PDGC_FAULT_POINT("optimistic.simplify");
  SimplifyResult SR =
      simplifyGraph(Ctx.IG, Ctx.Target,
                    [&](unsigned Node) { return CC.spillMetric(Node); },
                    /*Optimistic=*/true);
  SimplifyTimer.finish();

  // Colors are tracked per *primitive* node over the pristine graph, so
  // that split nodes can be colored independently.
  ScopedTimer SelectTimer("optimistic.select", "allocator");
  PDGC_FAULT_POINT("optimistic.select");
  SelectState SS(Pristine, Ctx.Target);

  // A class merged into a precolored representative occupies that register
  // as a whole; reflect it on every member up front so neighbors see it.
  for (unsigned V = 0; V != N; ++V) {
    unsigned Rep = UF.find(V);
    if (V != Rep && Pristine.isPrecolored(Rep))
      SS.setColor(V, Pristine.precolor(Rep));
  }

  // Registers a whole class may take: the intersection of what its members
  // tolerate.
  auto AvailForClass = [&](const std::vector<unsigned> &Prims) {
    assert(!Prims.empty() && "empty coalescing class");
    RegMask Avail = SS.availableFor(Prims.front());
    for (unsigned I = 1, E = Prims.size(); I != E; ++I)
      Avail &= SS.availableFor(Prims[I]);
    return Avail;
  };

  // Work queue: consumed from the back (stack order); deferred primitives
  // of an undone coalescence go to the front — "inserted at the bottom of
  // the stack" — and are processed individually.
  std::deque<unsigned> Work(SR.Stack.begin(), SR.Stack.end());
  std::vector<char> AsPrimitive(N, 0);
  std::vector<unsigned> Spills;

  while (!Work.empty()) {
    pollDeadline();
    unsigned Node = Work.back();
    Work.pop_back();

    if (AsPrimitive[Node]) {
      // A deferred primitive: color it alone or spill it.
      int Color =
          pickAvailable(SS.availableFor(Node), Ctx.Target, NonVolatileFirst);
      if (Color >= 0)
        SS.setColor(Node, Color);
      else
        Spills.push_back(Node);
      continue;
    }

    const std::vector<unsigned> &Prims = Members[Node];
    RegMask Avail = AvailForClass(Prims);
    int Color = pickAvailable(Avail, Ctx.Target, NonVolatileFirst);
    if (Color >= 0) {
      for (unsigned P : Prims)
        SS.setColor(P, Color);
      continue;
    }

    if (Prims.size() == 1) {
      assert(!Ctx.Costs.isInfinite(VReg(Node)) &&
             "unspillable primitive found no color");
      Spills.push_back(Node);
      continue;
    }

    // Undo the coalescence. Color the most valuable colorable primitive
    // now; defer the others to the bottom of the stack.
    std::vector<unsigned> Order = Prims;
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      double CA = Ctx.Costs.spillMetric(VReg(A));
      double CB = Ctx.Costs.spillMetric(VReg(B));
      if (CA != CB)
        return CA > CB;
      return A < B;
    });
    bool ColoredOne = false;
    for (unsigned P : Order) {
      if (!ColoredOne) {
        int PC = pickAvailable(SS.availableFor(P), Ctx.Target,
                               NonVolatileFirst);
        if (PC >= 0) {
          SS.setColor(P, PC);
          ColoredOne = true;
          continue;
        }
      }
      AsPrimitive[P] = 1;
      Work.push_front(P);
    }
    if (!ColoredOne) {
      // Not even one primitive fits right now; the deferred entries will
      // each retry at the bottom of the stack, so nothing else to do.
    }
  }

  if (!Spills.empty()) {
    // Spills are primitive live ranges; the next round re-coalesces from
    // scratch (no IR rewrite — the undo already invalidated this round's
    // merges).
    RR.Spilled = std::move(Spills);
    return RR;
  }

  // Success: every primitive carries its own color; the coalesce map stays
  // the identity.
  RR.Color = SS.colors();
  return RR;
}
