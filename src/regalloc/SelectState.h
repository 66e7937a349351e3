//===- regalloc/SelectState.h - Select-phase color tracking -----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks colors during the select phase: which physical register each
/// node has received and which registers remain available for a node given
/// its already-colored neighbors. Works against any interference graph
/// (coalesced or pristine), so both the ordinary allocators and the
/// undo-coalescing path of optimistic coalescing reuse it.
///
/// Each node keeps a forbidden mask, the colors of its colored neighbors,
/// which setColor() extends as colors are decided. availableFor() is then
/// one mask operation instead of a walk over the node's neighbors. A color,
/// once set, never changes, which is what lets the masks only grow.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_REGALLOC_SELECTSTATE_H
#define PDGC_REGALLOC_SELECTSTATE_H

#include "analysis/InterferenceGraph.h"
#include "machine/RegMask.h"
#include "machine/TargetDesc.h"
#include "support/Debug.h"

namespace pdgc {

/// Color bookkeeping for one select phase.
class SelectState {
  const InterferenceGraph &IG;
  const TargetDesc &Target;
  std::vector<int> Colors;         ///< Per node id; -1 = uncolored.
  std::vector<RegMask> Forbidden;  ///< Per node id: neighbors' colors.

public:
  /// Initializes with every precolored node already holding its color.
  SelectState(const InterferenceGraph &IGIn, const TargetDesc &TargetIn)
      : IG(IGIn), Target(TargetIn), Colors(IGIn.numNodes(), -1),
        Forbidden(IGIn.numNodes()) {
    for (unsigned N = 0, E = IG.numNodes(); N != E; ++N)
      if (IG.isPrecolored(N))
        setColor(N, IG.precolor(N));
  }

  int color(unsigned N) const { return Colors[N]; }
  bool hasColor(unsigned N) const { return Colors[N] >= 0; }

  /// Gives node \p N color \p C. Setting a node's current color again is
  /// allowed; a different color fails a pdgc_check in every build, since
  /// the neighbors' forbidden masks cannot take the old color back.
  void setColor(unsigned N, int C) {
    assert(C >= 0 && static_cast<unsigned>(C) < Target.numRegs() &&
           "color out of range");
    assert(Target.regClass(static_cast<PhysReg>(C)) == IG.regClass(N) &&
           "color from the wrong register class");
    pdgc_check(Colors[N] < 0 || Colors[N] == C,
               "select re-colored a node with a different register");
    Colors[N] = C;
    const RegMask Bit = RegMask::single(static_cast<unsigned>(C));
    for (unsigned M : IG.neighbors(N))
      Forbidden[M] |= Bit;
  }

  const std::vector<int> &colors() const { return Colors; }

  /// Registers node \p N could take: the registers of N's class minus the
  /// colors of N's already-colored neighbors in the graph.
  RegMask availableFor(unsigned N) const {
    return Target.classMask(IG.regClass(N)) & ~Forbidden[N];
  }

  /// Returns the lowest-numbered available register for \p N, or -1.
  int firstAvailable(unsigned N) const {
    return availableFor(N).findFirst();
  }
};

/// Picks a register from \p Avail, a set within one register class: the
/// lowest-numbered one, or — with \p NonVolatileFirst — the lowest
/// non-volatile one when any is free (the "simple heuristic to use
/// non-volatile registers first, then volatile" the paper gives
/// preference-unaware allocators in Section 6.2). Returns -1 when \p Avail
/// is empty.
inline int pickAvailable(RegMask Avail, const TargetDesc &Target,
                         bool NonVolatileFirst) {
  const int First = Avail.findFirst();
  if (NonVolatileFirst && First >= 0) {
    const RegMask NonVolatile =
        Avail & Target.nonVolatileMask(
                    Target.regClass(static_cast<PhysReg>(First)));
    if (NonVolatile.any())
      return NonVolatile.findFirst();
  }
  return First;
}

} // namespace pdgc

#endif // PDGC_REGALLOC_SELECTSTATE_H
