//===- analysis/Liveness.h - Live-variable analysis -------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward iterative live-variable analysis over virtual
/// registers. Runs on phi-free IR (run eliminatePhis first); the allocators
/// and the interference builder both consume it. Per-instruction live
/// sets come from one backward walk of a block (`forEachInstReverse`).
///
/// For the spill-round driver the analysis supports warm recomputation:
/// `recompute` reuses the per-block set storage (and an externally cached
/// reverse post order, which spill insertion cannot invalidate) instead of
/// reallocating everything per round.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_ANALYSIS_LIVENESS_H
#define PDGC_ANALYSIS_LIVENESS_H

#include "ir/Function.h"
#include "support/BitVector.h"

#include <vector>

namespace pdgc {

/// Per-block live-in/live-out sets over virtual-register ids.
class Liveness {
  std::vector<BitVector> LiveInSets;
  std::vector<BitVector> LiveOutSets;
  /// Gen/kill scratch sets, kept between recomputations so a warm rerun
  /// performs no per-block allocations.
  std::vector<BitVector> GenScratch;
  std::vector<BitVector> KillScratch;

  Liveness() = default;

public:
  /// Computes liveness for \p F, which must contain no phis.
  static Liveness compute(const Function &F);

  /// As above, but iterates over a caller-provided reverse post order
  /// instead of recomputing one (the CFG — and therefore its RPO — is
  /// stable across spill rounds).
  static Liveness compute(const Function &F, const std::vector<unsigned> &RPO);

  /// Recomputes liveness for (a possibly mutated) \p F in place, reusing
  /// the existing set storage. \p RPO must be a reverse post order of
  /// \p F's CFG.
  void recompute(const Function &F, const std::vector<unsigned> &RPO);

  const BitVector &liveIn(const BasicBlock *BB) const {
    assert(BB->id() < LiveInSets.size() && "unknown block");
    return LiveInSets[BB->id()];
  }

  const BitVector &liveOut(const BasicBlock *BB) const {
    assert(BB->id() < LiveOutSets.size() && "unknown block");
    return LiveOutSets[BB->id()];
  }

  /// Walks \p BB backwards maintaining the live set, invoking
  /// `Visit(InstIndex, LiveAfterInst)` for each instruction with the set of
  /// registers live immediately *after* it. The callback sees the live set
  /// before the instruction's own kill/gen are applied.
  template <typename CallbackT>
  void forEachInstReverse(const BasicBlock *BB, CallbackT Visit) const {
    BitVector Scratch;
    forEachInstReverse(BB, Scratch, Visit);
  }

  /// As above, but the working live set is built in \p Scratch, whose
  /// storage is reused across calls. Callers sweeping many blocks (the
  /// interference builder visits every block every spill round) hoist one
  /// scratch vector outside their loop and walk heap-free.
  template <typename CallbackT>
  void forEachInstReverse(const BasicBlock *BB, BitVector &Scratch,
                          CallbackT Visit) const {
    Scratch = liveOut(BB);
    for (unsigned I = BB->size(); I-- > 0;) {
      const Instruction &Inst = BB->inst(I);
      Visit(I, Scratch);
      if (Inst.hasDef())
        Scratch.reset(Inst.def().id());
      for (unsigned U = 0, E = Inst.numUses(); U != E; ++U)
        Scratch.set(Inst.use(U).id());
    }
  }
};

} // namespace pdgc

#endif // PDGC_ANALYSIS_LIVENESS_H
