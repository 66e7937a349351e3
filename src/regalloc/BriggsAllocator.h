//===- regalloc/BriggsAllocator.h - Chaitin/Briggs coloring -----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic build–coalesce–simplify–select round of Figure 1 of the
/// paper, shared by Chaitin's and Briggs's allocators. Both coalesce
/// aggressively, reflecting each merge in the interference graph, and
/// differ in one decision: what a blocked simplification does with its
/// spill candidate.
///
///  * **Chaitin** (Figure 1(a)) is pessimistic: the candidate is spilled
///    outright, and when any node was, the round reports those spills
///    without running select, so the driver rebuilds and retries. It is
///    the *base* algorithm of Figure 9: the eliminated-move and spill
///    ratios of every other allocator are reported relative to it.
///  * **Briggs** (Figure 1(b)) is optimistic: the candidate is pushed, and
///    only the select phase, on finding no free color, turns it into a
///    real spill. This is the paper's "Briggs + aggressive" comparison
///    point in Figures 9–11.
///  * **Briggs + biased** adds biased coloring: select prefers, among the
///    available colors, one already given to a copy-related partner
///    (Briggs' deferred coalescing; Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_REGALLOC_BRIGGSALLOCATOR_H
#define PDGC_REGALLOC_BRIGGSALLOCATOR_H

#include "regalloc/AllocatorBase.h"

namespace pdgc {

/// Chaitin- or Briggs-style coloring with aggressive coalescing.
class BriggsAllocator : public AllocatorBase {
public:
  /// The three classic comparison points, one per registry name.
  enum class Variant {
    Chaitin,    ///< "chaitin": pessimistic simplify.
    Aggressive, ///< "briggs+aggressive": optimistic simplify.
    Biased,     ///< "briggs+biased": optimistic simplify, biased select.
  };

  explicit BriggsAllocator(Variant V = Variant::Aggressive,
                           bool NonVolatileFirstIn = false)
      : Kind(V), NonVolatileFirst(NonVolatileFirstIn) {}

  const char *name() const override {
    switch (Kind) {
    case Variant::Chaitin:
      return "chaitin";
    case Variant::Aggressive:
      return "briggs+aggressive";
    case Variant::Biased:
      return "briggs+biased";
    }
    return "briggs+aggressive";
  }
  RoundResult allocateRound(AllocContext &Ctx) override;

private:
  Variant Kind;
  bool NonVolatileFirst;
};

} // namespace pdgc

#endif // PDGC_REGALLOC_BRIGGSALLOCATOR_H
