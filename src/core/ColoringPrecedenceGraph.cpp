//===- core/ColoringPrecedenceGraph.cpp - CPG --------------------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "core/ColoringPrecedenceGraph.h"

#include "support/Debug.h"

#include <cstring>

using namespace pdgc;

void ColoringPrecedenceGraph::initScratch(Arena &Mem, unsigned N,
                                          const SimplifyResult &SR) {
  NumNodes = N;
  char *Flags = Mem.allocateZeroed<char>(N);
  for (unsigned Node : SR.Stack)
    Flags[Node] = 1;
  InGraph = Flags;
  VisitEpoch = Mem.allocateZeroed<unsigned>(N);
  DfsStack = Mem.allocateArray<unsigned>(N);
  Epoch = 0;
}

ColoringPrecedenceGraph
ColoringPrecedenceGraph::build(const InterferenceGraph &IG,
                               const TargetDesc &Target,
                               const SimplifyResult &SR, Arena &Mem) {
  const unsigned N = IG.numNodes();
  ColoringPrecedenceGraph G;
  G.initScratch(Mem, N, SR);

  // Working interference graph. Precolored nodes are permanent: they keep
  // contributing to degrees (and thus to readiness) until the end, exactly
  // as they did during simplification.
  char *Removed = Mem.allocateZeroed<char>(N);
  unsigned *Deg = Mem.allocateZeroed<unsigned>(N);
  for (unsigned Node = 0; Node != N; ++Node) {
    if (IG.isMerged(Node)) {
      Removed[Node] = 1;
      continue;
    }
    Deg[Node] = IG.degree(Node);
  }

  // A node is ready once it is of low degree in the working graph; the
  // simplifier's optimistic potential spills were removed while still of
  // significant degree, so they start non-ready by construction. A node
  // gains at most one successor per neighbor, so rows sized by degree
  // never relocate.
  char *Ready = Mem.allocateZeroed<char>(N);
  unsigned *RowCap = Mem.allocateZeroed<unsigned>(N);
  auto K = [&](unsigned Node) { return Target.numRegs(IG.regClass(Node)); };
  for (unsigned Node : SR.Stack) {
    RowCap[Node] = Deg[Node];
    if (Deg[Node] < K(Node))
      Ready[Node] = 1;
  }
  CsrRows<unsigned> SuccR;
  SuccR.init(Mem, N, RowCap, /*Slack=*/0);
  unsigned *const *Rows = SuccR.rawRows();
  unsigned *Count = SuccR.rawCounts();
  unsigned *Seen = G.VisitEpoch; // Shared with later reachability queries.
  unsigned *Stack = G.DfsStack;

  // Every edge points from a node still in the working graph at a later
  // pop to the node popped earlier. So when a node pops, its row is
  // complete, it lists its targets in pop order, and every row it reaches
  // is already final: the node's row is reduced once, here, and never
  // touched again.
  for (unsigned Node : SR.Stack) {
    // Walk the row from the latest-popped target back. A later target
    // can reach an earlier one but not the reverse, so a target is
    // transitive exactly when a kept target already reaches it. Kept
    // targets collect at the row's tail, in row order.
    unsigned *Row = Rows[Node];
    const unsigned Len = Count[Node];
    unsigned Kept = Len;
    if (Len > 1) {
      const unsigned Epoch = ++G.Epoch;
      for (unsigned I = Len; I-- != 0;) {
        const unsigned X = Row[I];
        if (Seen[X] == Epoch)
          continue;
        Row[--Kept] = X;
        if (I == 0)
          break; // Nothing earlier is left to test.
        Seen[X] = Epoch;
        unsigned Top = 0;
        Stack[Top++] = X;
        while (Top != 0) {
          const unsigned Cur = Stack[--Top];
          for (unsigned S : SuccR.row(Cur))
            if (Seen[S] != Epoch) {
              Seen[S] = Epoch;
              Stack[Top++] = S;
            }
        }
      }
      if (Kept != 0)
        std::memmove(Row, Row + Kept, (Len - Kept) * sizeof(unsigned));
      Count[Node] = Len - Kept;
    }

    // Remove the node from the working graph: each remaining non-ready
    // neighbor must be colored before it, and each remaining neighbor
    // loses one degree.
    Removed[Node] = 1;
    for (unsigned M : IG.neighbors(Node)) {
      if (Removed[M])
        continue;
      if (G.InGraph[M] && !Ready[M]) {
        assert(Count[M] < RowCap[M] && "CPG row outgrew its degree");
        Rows[M][Count[M]++] = Node;
      }
      assert(Deg[M] > 0 && "degree underflow");
      --Deg[M];
      if (G.InGraph[M] && Deg[M] < K(M))
        Ready[M] = 1;
    }
  }

  // The edge set is settled: pack it for the select phase's iteration.
  G.Succs = CsrArray<unsigned>::compact(Mem, SuccR);
  G.Preds = CsrArray<unsigned>::transpose(Mem, G.Succs);
  return G;
}

ColoringPrecedenceGraph
ColoringPrecedenceGraph::build(const InterferenceGraph &IG,
                               const TargetDesc &Target,
                               const SimplifyResult &SR) {
  auto Mem = std::make_unique<Arena>();
  ColoringPrecedenceGraph G = build(IG, Target, SR, *Mem);
  G.OwnedMem = std::move(Mem);
  return G;
}

ColoringPrecedenceGraph
ColoringPrecedenceGraph::linearFromStack(const InterferenceGraph &IG,
                                         const SimplifyResult &SR,
                                         Arena &Mem) {
  const unsigned N = IG.numNodes();
  ColoringPrecedenceGraph G;
  G.initScratch(Mem, N, SR);

  // Pop order colors Stack.back() first: chain Stack[i+1] -> Stack[i].
  // Counts are exact (one successor per chain link).
  unsigned *SuccCount = Mem.allocateZeroed<unsigned>(N);
  for (unsigned I = 0; I + 1 < SR.Stack.size(); ++I)
    ++SuccCount[SR.Stack[I + 1]];
  CsrRows<unsigned> SuccR;
  SuccR.init(Mem, N, SuccCount, /*Slack=*/0);
  for (unsigned I = 0; I + 1 < SR.Stack.size(); ++I)
    SuccR.push(Mem, SR.Stack[I + 1], SR.Stack[I]);
  G.Succs = CsrArray<unsigned>::compact(Mem, SuccR);
  G.Preds = CsrArray<unsigned>::transpose(Mem, G.Succs);
  return G;
}

ColoringPrecedenceGraph
ColoringPrecedenceGraph::linearFromStack(const InterferenceGraph &IG,
                                         const SimplifyResult &SR) {
  auto Mem = std::make_unique<Arena>();
  ColoringPrecedenceGraph G = linearFromStack(IG, SR, *Mem);
  G.OwnedMem = std::move(Mem);
  return G;
}

std::vector<unsigned> ColoringPrecedenceGraph::roots() const {
  std::vector<unsigned> R;
  for (unsigned N = 0, E = numNodes(); N != E; ++N)
    if (InGraph[N] && Preds.row(N).empty())
      R.push_back(N);
  return R;
}

bool ColoringPrecedenceGraph::hasEdge(unsigned A, unsigned B) const {
  for (unsigned S : Succs.row(A))
    if (S == B)
      return true;
  return false;
}

bool ColoringPrecedenceGraph::preservesColorability(
    const InterferenceGraph &IG, const TargetDesc &Target,
    const SimplifyResult &SR) const {
  // For a non-optimistic node N, any linearization may color before N: its
  // precolored neighbors plus every stacked neighbor that is not ordered
  // strictly after N. Colorability requires that count to stay below K.
  for (unsigned N : SR.Stack) {
    if (SR.OptimisticallySpilled[N])
      continue; // No guarantee was ever made for potential spills.
    unsigned WorstBefore = 0;
    for (unsigned M : IG.neighbors(N)) {
      if (IG.isPrecolored(M)) {
        ++WorstBefore;
        continue;
      }
      if (!InGraph[M])
        continue;
      if (!reachable(N, M))
        ++WorstBefore; // Unordered or before: may precede N.
    }
    if (WorstBefore >= Target.numRegs(IG.regClass(N)))
      return false;
  }
  return true;
}
