//===- core/PreferenceDirectedAllocator.cpp - PDGC --------------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "core/PreferenceDirectedAllocator.h"

#include "core/ColoringPrecedenceGraph.h"
#include "core/RegisterPreferenceGraph.h"
#include "regalloc/Coalescer.h"
#include "regalloc/Rewriter.h"
#include "regalloc/SelectState.h"
#include "regalloc/Simplifier.h"
#include "support/Deadline.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Tracing.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

using namespace pdgc;

PDGCOptions pdgc::pdgcFullOptions() {
  PDGCOptions O;
  O.Name = "full-preferences";
  return O;
}

PDGCOptions pdgc::pdgcCoalesceOnlyOptions() {
  PDGCOptions O;
  O.SequentialPreferences = false;
  O.VolatilityPreferences = false;
  // Without volatility preferences there is no memory-versus-register
  // benefit reasoning either: spill decisions fall back to the shared
  // graph-coloring heuristics, as in the Section 6.1 comparison.
  O.ActiveSpill = false;
  // The paper gives the coalescing-only algorithms a fixed heuristic for
  // register kinds: non-volatile first, then volatile (Section 6.2).
  O.NonVolatileFirst = true;
  O.Name = "only-coalescing";
  return O;
}

namespace {

/// One honorable preference with its screening mask.
struct ScoredPref {
  double Strength;
  RegMask Mask; ///< Registers honoring it (not yet intersected w/ avail).
};

/// Orders \p Prefs strongest first, keeping the order of equal strengths —
/// what std::stable_sort would produce, without its temporary buffer. The
/// lists hold a node's few preferences, so insertion sort is the cheap
/// choice.
void sortStrongestFirst(std::vector<ScoredPref> &Prefs) {
  for (unsigned I = 1, E = Prefs.size(); I < E; ++I) {
    const ScoredPref P = Prefs[I];
    unsigned J = I;
    for (; J > 0 && Prefs[J - 1].Strength < P.Strength; --J)
      Prefs[J] = Prefs[J - 1];
    Prefs[J] = P;
  }
}

/// Narrows \p Screened by each mask of \p Prefs in turn, skipping a mask
/// that would leave nothing (step 4.2's screening).
RegMask screen(RegMask Screened, const std::vector<ScoredPref> &Prefs) {
  for (const ScoredPref &P : Prefs) {
    const RegMask Narrowed = Screened & P.Mask;
    if (Narrowed.any())
      Screened = Narrowed;
  }
  return Screened;
}

/// The integrated select phase of Section 5.3.
class PDGCSelect {
  AllocContext &Ctx;
  const TargetDesc &Target;
  const PDGCOptions &Opt;
  RegisterPreferenceGraph RPG;
  ColoringPrecedenceGraph CPG;
  SelectState SS;
  std::vector<char> Spilled;
  std::vector<char> Done;
  std::vector<unsigned> InDeg;
  std::vector<unsigned> Queue;
  /// colorNode's preference lists, reused from node to node.
  std::vector<ScoredPref> Prefs, Pending;

public:
  std::vector<unsigned> Spills;

  PDGCSelect(AllocContext &CtxIn, const PDGCOptions &OptIn,
             const SimplifyResult &SR)
      : Ctx(CtxIn), Target(CtxIn.Target), Opt(OptIn),
        RPG([&] {
          ScopedTimer Timer("pdgc.rpg_build", "allocator");
          PDGC_FAULT_POINT("pdgc.rpg_build");
          return RegisterPreferenceGraph::build(CtxIn.F, CtxIn.LV, CtxIn.LI,
                                                CtxIn.Costs, CtxIn.Target,
                                                CtxIn.Mem);
        }()),
        CPG([&] {
          ScopedTimer Timer("pdgc.cpg_build", "allocator");
          PDGC_FAULT_POINT("pdgc.cpg_build");
          return OptIn.UseCPG
                     ? ColoringPrecedenceGraph::build(CtxIn.IG, CtxIn.Target,
                                                      SR, CtxIn.Mem)
                     : ColoringPrecedenceGraph::linearFromStack(CtxIn.IG, SR,
                                                                CtxIn.Mem);
        }()),
        SS(CtxIn.IG, CtxIn.Target), Spilled(CtxIn.IG.numNodes(), 0),
        Done(CtxIn.IG.numNodes(), 0), InDeg(CtxIn.IG.numNodes(), 0) {
    for (unsigned N = 0, E = CPG.numNodes(); N != E; ++N)
      if (CPG.contains(N))
        InDeg[N] =
            static_cast<unsigned>(CPG.predecessors(N).size());
    Queue = CPG.roots();
  }

  const SelectState &selectState() const { return SS; }

  bool prefEnabled(const Preference &P) const {
    switch (P.Kind) {
    case PrefKind::Coalesce:
      return Opt.CoalescePreferences;
    case PrefKind::SequentialPlus:
    case PrefKind::SequentialMinus:
      return Opt.SequentialPreferences;
    case PrefKind::Prefers:
      return Opt.VolatilityPreferences;
    case PrefKind::Restricted:
      return Opt.RestrictedPreferences;
    }
    pdgc_unreachable("unknown preference kind");
  }

  /// Steps 2.1–2.3: calls \p Visit(Strength, Mask) for each preference of
  /// \p Q that is honorable now, given prior selections and the available
  /// set, in the RPG's order.
  template <typename VisitFn>
  void forEachHonorablePref(unsigned Q, RegMask Avail, VisitFn Visit) const {
    const RegClass RC = Ctx.F.regClass(VReg(Q));
    for (const Preference &P : RPG.preferencesOf(VReg(Q))) {
      if (!prefEnabled(P))
        continue;
      RegMask Mask;
      double Strength = 0.0;
      switch (P.Target.Kind) {
      case PrefTarget::LiveRange: {
        unsigned B = P.Target.Value;
        if (Spilled[B] || !SS.hasColor(B))
          continue; // Dropped (2.1) or deferred to the pending set (2.2).
        PhysReg C = static_cast<PhysReg>(SS.color(B));
        if (P.Kind == PrefKind::Coalesce)
          Mask = RegMask::single(C);
        else if (P.Kind == PrefKind::SequentialPlus)
          Mask = Target.pairAfter(C);
        else
          Mask = Target.pairBefore(C);
        // Strength at the best register the mask still allows.
        Strength = -std::numeric_limits<double>::infinity();
        for (unsigned R : Mask & Avail) {
          double S = RPG.strength(P, static_cast<PhysReg>(R));
          if (S > Strength)
            Strength = S;
        }
        break;
      }
      case PrefTarget::Register:
        Mask = RegMask::single(P.Target.Value);
        Strength = RPG.strength(P, static_cast<PhysReg>(P.Target.Value));
        break;
      case PrefTarget::VolatileClass:
        Mask = Target.volatileMask(RC);
        Strength = Ctx.Costs.registerBenefit(VReg(Q), /*VolatileReg=*/true);
        break;
      case PrefTarget::NonVolatileClass:
        Mask = Target.nonVolatileMask(RC);
        Strength =
            Ctx.Costs.registerBenefit(VReg(Q), /*VolatileReg=*/false);
        break;
      case PrefTarget::NarrowRegisters:
        Mask = Target.narrowMask(RC);
        Strength = RPG.bestStrength(P);
        break;
      }
      if ((Mask & Avail).none())
        continue; // Cannot be honored any more (step 2.1).
      Visit(Strength, Mask);
    }
  }

  /// Step 3's key: the strength differential between the strongest and
  /// weakest honorable preference — how much is at stake if this node gets
  /// its worst remaining placement instead of its best.
  double differential(unsigned Q) const {
    RegMask Avail = SS.availableFor(Q);
    if (Avail.none())
      return 0.0; // Will be spilled whenever chosen.
    unsigned Honorable = 0;
    double Strongest = -std::numeric_limits<double>::infinity();
    double Weakest = std::numeric_limits<double>::infinity();
    forEachHonorablePref(Q, Avail, [&](double Strength, RegMask) {
      ++Honorable;
      Strongest = std::max(Strongest, Strength);
      Weakest = std::min(Weakest, Strength);
    });
    if (Honorable == 0)
      return 0.0;
    // A node with a single honorable preference has no weaker fallback:
    // the stake of deferring it is the preference itself.
    if (Honorable == 1)
      return Strongest > 0.0 ? Strongest : 0.0;
    return Strongest - Weakest;
  }

  /// Step 4.3: fills \p Out with the registers to keep so that
  /// still-pending preferences (of this node, or of uncolored nodes
  /// targeting it) stay honorable.
  void pendingConstraints(unsigned Q, std::vector<ScoredPref> &Out) const {
    Out.clear();

    // This node's own preferences toward uncolored partners.
    for (const Preference &P : RPG.preferencesOf(VReg(Q))) {
      if (!prefEnabled(P) || P.Target.Kind != PrefTarget::LiveRange)
        continue;
      unsigned B = P.Target.Value;
      if (Spilled[B] || SS.hasColor(B) || Ctx.IG.interferes(Q, B))
        continue;
      const RegMask PartnerAvail = SS.availableFor(B);
      RegMask Keep;
      switch (P.Kind) {
      case PrefKind::Coalesce:
        Keep = PartnerAvail; // q should take a register b can share.
        break;
      case PrefKind::SequentialPlus:
        // q is the second; b (first) will take R, q pairs after it.
        for (unsigned R : PartnerAvail)
          Keep |= Target.pairAfter(static_cast<PhysReg>(R));
        break;
      case PrefKind::SequentialMinus:
        // q is the first; b (second) will take R, q pairs before it.
        for (unsigned R : PartnerAvail)
          Keep |= Target.pairBefore(static_cast<PhysReg>(R));
        break;
      case PrefKind::Prefers:
      case PrefKind::Restricted:
        break;
      }
      if (Keep.any())
        Out.push_back(ScoredPref{RPG.bestStrength(P), Keep});
    }

    // Preferences of uncolored nodes targeting this node.
    for (const Preference &P : RPG.preferencesTargeting(VReg(Q))) {
      if (!prefEnabled(P))
        continue;
      unsigned X = P.Source;
      if (X == Q || Spilled[X] || SS.hasColor(X) ||
          Ctx.IG.interferes(Q, X))
        continue;
      const RegMask SourceAvail = SS.availableFor(X);
      RegMask Keep;
      switch (P.Kind) {
      case PrefKind::Coalesce:
        Keep = SourceAvail; // Pick a register x can copy onto.
        break;
      case PrefKind::SequentialPlus:
        // x is the second of the pair, q the first: keep q's registers R
        // such that some register pairing after R is open for x.
        for (unsigned R : SourceAvail)
          Keep |= Target.pairBefore(static_cast<PhysReg>(R));
        break;
      case PrefKind::SequentialMinus:
        for (unsigned R : SourceAvail)
          Keep |= Target.pairAfter(static_cast<PhysReg>(R));
        break;
      case PrefKind::Prefers:
      case PrefKind::Restricted:
        break;
      }
      if (Keep.any())
        Out.push_back(ScoredPref{RPG.bestStrength(P), Keep});
    }
  }

  void spill(unsigned Q) {
    pdgc_check(!Ctx.Costs.isInfinite(VReg(Q)),
               "preference-directed select had to spill an unspillable "
               "live range");
    Spilled[Q] = 1;
    Spills.push_back(Q);
  }

  /// Step 4: find a suitable register (or spill) for the chosen node.
  void colorNode(unsigned Q) {
    RegMask Avail = SS.availableFor(Q);
    if (Avail.none()) {
      spill(Q);
      return;
    }
    const RegClass RC = Ctx.F.regClass(VReg(Q));

    Prefs.clear();
    forEachHonorablePref(Q, Avail, [&](double Strength, RegMask Mask) {
      Prefs.push_back(ScoredPref{Strength, Mask});
    });
    sortStrongestFirst(Prefs);

    if (Opt.ActiveSpill && !Ctx.Costs.isInfinite(VReg(Q))) {
      // Section 5.4: when memory is the strongest preference, spill now
      // rather than hold a register at a loss. The best achievable benefit
      // is the strongest preference, or plain register residence.
      double Best = -std::numeric_limits<double>::infinity();
      for (const ScoredPref &P : Prefs)
        Best = std::max(Best, P.Strength);
      if ((Avail & Target.volatileMask(RC)).any())
        Best = std::max(
            Best, Ctx.Costs.registerBenefit(VReg(Q), /*VolatileReg=*/true));
      if ((Avail & Target.nonVolatileMask(RC)).any())
        Best = std::max(Best, Ctx.Costs.registerBenefit(
                                  VReg(Q), /*VolatileReg=*/false));
      if (Best < 0.0) {
        spill(Q);
        return;
      }
    }

    // Step 4.2: honor preferences from strongest to weakest; each honored
    // preference screens the candidate set for the weaker ones.
    RegMask Screened = screen(Avail, Prefs);

    // Step 4.3: avoid registers that would block pending preferences.
    if (Opt.PendingLookahead) {
      pendingConstraints(Q, Pending);
      sortStrongestFirst(Pending);
      Screened = screen(Screened, Pending);
    }

    // Step 4.4: allocate. Without stronger guidance fall back to the
    // configured partition order.
    int Pick = -1;
    if (Opt.NonVolatileFirst)
      Pick = (Screened & Target.nonVolatileMask(RC)).findFirst();
    if (Pick < 0)
      Pick = Screened.findFirst();
    assert(Pick >= 0 && "screened set became empty");
    SS.setColor(Q, Pick);
  }

  /// Runs the whole select phase. Differentials are cached per node and
  /// recomputed only when a decision could have changed them: a node's
  /// available set moves when a neighbor is colored, and its honorable
  /// preferences move when one of its live-range targets is decided.
  void run() {
    std::vector<double> Cached(Ctx.IG.numNodes(),
                               std::numeric_limits<double>::quiet_NaN());
    auto Invalidate = [&](unsigned N) {
      Cached[N] = std::numeric_limits<double>::quiet_NaN();
    };

    while (!Queue.empty()) {
      pollDeadline();
      // Step 3: choose the queued node with the largest differential.
      unsigned BestIdx = 0;
      double BestDiff = -std::numeric_limits<double>::infinity();
      for (unsigned I = 0, E = Queue.size(); I != E; ++I) {
        unsigned N = Queue[I];
        if (std::isnan(Cached[N]))
          Cached[N] = differential(N);
        if (Cached[N] > BestDiff) {
          BestDiff = Cached[N];
          BestIdx = I;
        }
      }
      unsigned Q = Queue[BestIdx];
      Queue.erase(Queue.begin() + BestIdx);

      colorNode(Q);
      Done[Q] = 1;

      // Invalidate what this decision may have changed.
      for (unsigned M : Ctx.IG.neighbors(Q))
        if (!Done[M])
          Invalidate(M);
      for (const Preference &P : RPG.preferencesTargeting(VReg(Q)))
        if (!Done[P.Source])
          Invalidate(P.Source);

      // Step 5: release successors whose predecessors are all processed.
      for (unsigned S : CPG.successors(Q)) {
        assert(InDeg[S] > 0 && "CPG in-degree underflow");
        if (--InDeg[S] == 0)
          Queue.push_back(S);
      }
    }
  }
};

} // namespace

RoundResult PreferenceDirectedAllocator::allocateRound(AllocContext &Ctx) {
  const unsigned N = Ctx.F.numVRegs();
  RoundResult RR = RoundResult::make(N);

  // Optional pre-coalescing (the Section 6.1 extension): merge copy pairs
  // that the conservative tests prove non-spill-causing, reflect the
  // merges in the code, and rebuild the analyses over the smaller
  // function. Deferred coalescing then only has to handle the risky
  // copies.
  AllocContext *Active = &Ctx;
  std::optional<AllocContext> Rebuilt;
  ScopedTimer CoalesceTimer("pdgc.precoalesce", "allocator");
  PDGC_FAULT_POINT("pdgc.precoalesce");
  if (Options.PreCoalesce) {
    UnionFind UF(N);
    if (conservativeCoalesce(Ctx.IG, UF, Ctx.Target) != 0) {
      std::vector<unsigned> RepOf(N);
      for (unsigned V = 0; V != N; ++V)
        RepOf[V] = UF.find(V);
      rewriteCoalesced(Ctx.F, RepOf);
      for (unsigned V = 0; V != N; ++V)
        RR.CoalesceMap[V] = RepOf[V];
      Rebuilt.emplace(Ctx.F, Ctx.Target, Ctx.Costs.params());
      Active = &*Rebuilt;
    }
  }
  CoalesceTimer.finish();

  ScopedTimer SimplifyTimer("pdgc.simplify", "allocator");
  PDGC_FAULT_POINT("pdgc.simplify");
  SimplifyResult SR = simplifyGraph(
      Active->IG, Active->Target,
      [&](unsigned Node) { return Active->Costs.spillMetric(VReg(Node)); },
      /*Optimistic=*/true);
  SimplifyTimer.finish();

  // PDGCSelect's constructor builds the RPG and CPG (timed separately as
  // pdgc.rpg_build / pdgc.cpg_build); run() is the precedence-ordered
  // select walk.
  PDGCSelect Select(*Active, Options, SR);
  {
    ScopedTimer SelectTimer("pdgc.select", "allocator");
    PDGC_FAULT_POINT("pdgc.select");
    Select.run();
  }

  if (!Select.Spills.empty()) {
    RR.Spilled = std::move(Select.Spills);
    return RR;
  }

  RR.Color = Select.selectState().colors();
  return RR;
}
