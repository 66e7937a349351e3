//===- analysis/Liveness.cpp - Live-variable analysis ----------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "ir/PhiElimination.h"
#include "support/Deadline.h"
#include "support/Debug.h"

using namespace pdgc;

Liveness Liveness::compute(const Function &F) {
  return compute(F, F.reversePostOrder());
}

Liveness Liveness::compute(const Function &F,
                           const std::vector<unsigned> &RPO) {
  Liveness L;
  L.recompute(F, RPO);
  return L;
}

void Liveness::recompute(const Function &F,
                         const std::vector<unsigned> &RPO) {
  assert(!hasPhis(F) && "liveness requires phi-free IR");
  assert(RPO.size() == F.numBlocks() && "stale reverse post order");

  const unsigned NumBlocks = F.numBlocks();
  const unsigned NumRegs = F.numVRegs();

  // Reuse the vector-of-sets shells and every set's word storage; spill
  // rounds only grow the register count, so after the first round these
  // resizes are cheap no-ops on warm buffers.
  LiveInSets.resize(NumBlocks);
  LiveOutSets.resize(NumBlocks);
  GenScratch.resize(NumBlocks);
  KillScratch.resize(NumBlocks);
  for (unsigned B = 0; B != NumBlocks; ++B) {
    LiveInSets[B].clearAndResize(NumRegs);
    LiveOutSets[B].clearAndResize(NumRegs);
    GenScratch[B].clearAndResize(NumRegs);
    KillScratch[B].clearAndResize(NumRegs);
  }

  // Per-block gen (upward-exposed uses) and kill (defs) sets.
  for (unsigned B = 0; B != NumBlocks; ++B) {
    const BasicBlock *BB = F.block(B);
    for (unsigned I = BB->size(); I-- > 0;) {
      const Instruction &Inst = BB->inst(I);
      if (Inst.hasDef()) {
        GenScratch[B].reset(Inst.def().id());
        KillScratch[B].set(Inst.def().id());
      }
      for (unsigned U = 0, E = Inst.numUses(); U != E; ++U)
        GenScratch[B].set(Inst.use(U).id());
    }
  }

  // Iterate to a fixed point in post order (reverse RPO) for fast
  // convergence of this backward problem.
  BitVector Out;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned It = RPO.size(); It-- > 0;) {
      pollDeadline();
      unsigned B = RPO[It];
      const BasicBlock *BB = F.block(B);
      Out.clearAndResize(NumRegs);
      for (const BasicBlock *S : BB->successors())
        Out |= LiveInSets[S->id()];
      BitVector In = Out;
      In.resetAll(KillScratch[B]);
      In |= GenScratch[B];
      if (Out != LiveOutSets[B] || In != LiveInSets[B]) {
        LiveOutSets[B] = std::move(Out);
        LiveInSets[B] = std::move(In);
        Changed = true;
      }
    }
  }
}
