//===- core/ColoringPrecedenceGraph.h - CPG ---------------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Coloring Precedence Graph (Section 5.2): a partial order over live
/// ranges, derived from the simplification result, such that *any*
/// topological order preserves the colorability that simplification
/// established. Chaitin's select phase walks the stack — one specific
/// linearization — whereas the preference-directed select phase may pick
/// any ready node, which is what creates the extra chances for honoring
/// preferences.
///
/// Construction (the paper's nine-step algorithm): nodes are examined in
/// the order simplification removed them; when node N is removed from the
/// working interference graph, any remaining neighbor that is not yet
/// "ready" (not yet of low degree) must be colored before N, yielding an
/// edge neighbor -> N. Transitive edges are dropped. Nodes the simplifier
/// pushed as optimistic potential spills start out non-ready.
///
/// Every edge therefore points from a later pop to an earlier one, so a
/// node's row is complete when the node itself pops, and every row it
/// reaches is already final. The builder links each neighbor with no
/// test and reduces a row once, at its node's pop: walking the row from
/// the latest-popped target back, it drops a target that a kept target
/// reaches. That is the unique transitive reduction, in push order, which
/// the select queue's tie-breaking depends on.
///
/// An edge A -> B means "A must be colored before B". The conventional
/// top/bottom nodes of the paper are kept implicit: the successors of
/// `top` are exactly the nodes with no incoming edge.
///
/// Storage: the builder works on mutable arena rows (support/CsrGraph.h)
/// sized by interference degree, with its scratch carved from the same
/// arena; the settled successor rows are compacted into immutable packed
/// CSR arrays that the select phase iterates, and the predecessor rows
/// are their transpose. The reduction and later reachability queries
/// share one epoch-marked DFS scratch.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_CORE_COLORINGPRECEDENCEGRAPH_H
#define PDGC_CORE_COLORINGPRECEDENCEGRAPH_H

#include "analysis/InterferenceGraph.h"
#include "machine/TargetDesc.h"
#include "regalloc/Simplifier.h"
#include "support/Arena.h"
#include "support/CsrGraph.h"
#include "support/Span.h"

#include <memory>
#include <vector>

namespace pdgc {

/// The Coloring Precedence Graph over stacked (non-precolored) nodes.
class ColoringPrecedenceGraph {
  CsrArray<unsigned> Succs; ///< A -> B: color A before B.
  CsrArray<unsigned> Preds;
  const char *InGraph = nullptr; ///< Node participates (was on the stack).
  unsigned NumNodes = 0;

  /// Epoch-marked DFS scratch, carved once at build time and shared by
  /// every subsequent reachability query (the former per-query Seen/Work
  /// heap allocations dominated query cost).
  unsigned *VisitEpoch = nullptr;
  unsigned *DfsStack = nullptr;
  mutable unsigned Epoch = 0;

  /// Private storage for the compat overloads without an arena.
  std::unique_ptr<Arena> OwnedMem;

  /// Carves the InGraph flags and the DFS scratch, shared by both
  /// construction paths.
  void initScratch(Arena &Mem, unsigned N, const SimplifyResult &SR);

public:
  /// True when a directed path \p From -> ... -> \p To exists (reflexive:
  /// a node reaches itself). Queries share the epoch-marked DFS scratch
  /// carved at build time, so repeated calls allocate nothing.
  bool reachable(unsigned From, unsigned To) const {
    if (From == To)
      return true;
    ++Epoch;
    unsigned Top = 0;
    DfsStack[Top++] = From;
    VisitEpoch[From] = Epoch;
    while (Top != 0) {
      const unsigned Cur = DfsStack[--Top];
      for (unsigned S : Succs.row(Cur)) {
        if (S == To)
          return true;
        if (VisitEpoch[S] != Epoch) {
          VisitEpoch[S] = Epoch;
          DfsStack[Top++] = S;
        }
      }
    }
    return false;
  }

  /// Builds the CPG from \p IG and the stack produced by \p SR, carving
  /// edges and builder scratch from \p Mem (which must outlive the graph).
  static ColoringPrecedenceGraph build(const InterferenceGraph &IG,
                                       const TargetDesc &Target,
                                       const SimplifyResult &SR, Arena &Mem);

  /// Convenience overload for standalone uses: the graph owns a private
  /// arena.
  static ColoringPrecedenceGraph build(const InterferenceGraph &IG,
                                       const TargetDesc &Target,
                                       const SimplifyResult &SR);

  /// Builds the degenerate total order that reproduces Chaitin's
  /// stack-driven select: each node must be colored exactly in pop order.
  /// Used by the ablation benchmark to isolate the CPG's contribution.
  static ColoringPrecedenceGraph linearFromStack(const InterferenceGraph &IG,
                                                 const SimplifyResult &SR,
                                                 Arena &Mem);

  /// Self-owned-arena overload of linearFromStack.
  static ColoringPrecedenceGraph linearFromStack(const InterferenceGraph &IG,
                                                 const SimplifyResult &SR);

  unsigned numNodes() const { return NumNodes; }

  bool contains(unsigned N) const { return InGraph[N] != 0; }

  Span<const unsigned> successors(unsigned N) const { return Succs.row(N); }
  Span<const unsigned> predecessors(unsigned N) const { return Preds.row(N); }

  /// Nodes with no predecessors: the successors of the implicit top node,
  /// i.e. the initially ready-to-color set.
  std::vector<unsigned> roots() const;

  /// True if an edge \p A -> \p B exists (for tests).
  bool hasEdge(unsigned A, unsigned B) const;

  unsigned numEdges() const { return Succs.numEdges(); }

  /// Verifies the defining property on \p IG: every topological
  /// linearization respecting this partial order keeps each node's
  /// already-colored same-class neighbor count below K when the node is
  /// reached — checked constructively for the worst case by counting, for
  /// each non-optimistic node, neighbors not ordered after it. Returns
  /// true when the property holds (used by property tests).
  bool preservesColorability(const InterferenceGraph &IG,
                             const TargetDesc &Target,
                             const SimplifyResult &SR) const;
};

} // namespace pdgc

#endif // PDGC_CORE_COLORINGPRECEDENCEGRAPH_H
