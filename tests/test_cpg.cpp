//===- tests/test_cpg.cpp - Coloring Precedence Graph tests --------------------===//
//
// Part of the PDGC project.
//
// Structural unit tests on hand-built graphs plus the central property
// sweep: for generated functions at every pressure model, the CPG must be
// an acyclic partial order whose every linearization preserves the
// colorability established by simplification (the defining claim of
// Section 5.2), and each row must equal a slowly built reference: the
// unreduced relation minus its transitive edges, in push order.
//
//===----------------------------------------------------------------------===//

#include "core/ColoringPrecedenceGraph.h"
#include "ir/IRBuilder.h"
#include "ir/PhiElimination.h"
#include "regalloc/Simplifier.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pdgc;

namespace {

struct Analyzed {
  std::unique_ptr<Function> F;
  std::unique_ptr<InterferenceGraph> IG;
  std::unique_ptr<LiveRangeCosts> Costs;

  explicit Analyzed(std::unique_ptr<Function> Fn) : F(std::move(Fn)) {
    if (hasPhis(*F))
      eliminatePhis(*F);
    Liveness LV = Liveness::compute(*F);
    LoopInfo LI = LoopInfo::compute(*F);
    IG = std::make_unique<InterferenceGraph>(
        InterferenceGraph::build(*F, LV, LI));
    Costs = std::make_unique<LiveRangeCosts>(
        LiveRangeCosts::compute(*F, LV, LI));
  }

  SimplifyResult simplify(const TargetDesc &T) {
    return simplifyGraph(
        *IG, T, [&](unsigned N) { return Costs->spillMetric(VReg(N)); },
        /*Optimistic=*/true);
  }
};

bool isAcyclic(const ColoringPrecedenceGraph &CPG) {
  // Kahn's algorithm: all in-graph nodes must drain.
  unsigned N = CPG.numNodes();
  std::vector<unsigned> InDeg(N, 0);
  unsigned Total = 0;
  for (unsigned I = 0; I != N; ++I) {
    if (!CPG.contains(I))
      continue;
    ++Total;
    InDeg[I] = static_cast<unsigned>(CPG.predecessors(I).size());
  }
  std::vector<unsigned> Work = CPG.roots();
  unsigned Drained = 0;
  while (!Work.empty()) {
    unsigned Cur = Work.back();
    Work.pop_back();
    ++Drained;
    for (unsigned S : CPG.successors(Cur))
      if (--InDeg[S] == 0)
        Work.push_back(S);
  }
  return Drained == Total;
}

TEST(Cpg, ChainGraphDegeneratesToTotalOrder) {
  // K interfering values simultaneously live on a K-register machine:
  // every node significant — simplification's order is forced, and the
  // CPG must keep enough edges that colorability survives.
  Function F("chain");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  std::vector<VReg> V;
  for (unsigned I = 0; I != 3; ++I)
    V.push_back(B.emitLoadImm(static_cast<std::int64_t>(I)));
  VReg Acc = B.emitBinary(Opcode::Add, V[0], V[1]);
  Acc = B.emitBinary(Opcode::Add, Acc, V[2]);
  B.emitStore(Acc, V[0], 0);
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  LoopInfo LI = LoopInfo::compute(F);
  InterferenceGraph IG = InterferenceGraph::build(F, LV, LI);
  LiveRangeCosts Costs = LiveRangeCosts::compute(F, LV, LI);
  TargetDesc Target("t3", 3, 3, 1, 1, PairingRule::Adjacent);
  SimplifyResult SR = simplifyGraph(
      IG, Target, [&](unsigned N) { return Costs.spillMetric(VReg(N)); },
      true);
  ColoringPrecedenceGraph CPG = ColoringPrecedenceGraph::build(IG, Target,
                                                               SR);
  EXPECT_TRUE(isAcyclic(CPG));
  EXPECT_TRUE(CPG.preservesColorability(IG, Target, SR));
}

TEST(Cpg, LinearFromStackIsAChain) {
  Function F("lin");
  IRBuilder B(F);
  BasicBlock *BB = F.createBlock();
  B.setInsertBlock(BB);
  VReg A = B.emitLoadImm(1);
  VReg C = B.emitLoadImm(2);
  VReg S = B.emitBinary(Opcode::Add, A, C);
  B.emitStore(S, A, 0);
  B.emitRet();

  Liveness LV = Liveness::compute(F);
  LoopInfo LI = LoopInfo::compute(F);
  InterferenceGraph IG = InterferenceGraph::build(F, LV, LI);
  LiveRangeCosts Costs = LiveRangeCosts::compute(F, LV, LI);
  TargetDesc Target = makeTarget(16);
  SimplifyResult SR = simplifyGraph(
      IG, Target, [&](unsigned N) { return Costs.spillMetric(VReg(N)); },
      true);

  ColoringPrecedenceGraph Chain =
      ColoringPrecedenceGraph::linearFromStack(IG, SR);
  // Exactly one root (the stack top) and a single path through all nodes.
  EXPECT_EQ(Chain.roots().size(), 1u);
  EXPECT_EQ(Chain.roots()[0], SR.Stack.back());
  EXPECT_EQ(Chain.numEdges(), SR.Stack.size() - 1);
  EXPECT_TRUE(isAcyclic(Chain));
}

TEST(Cpg, RootsAreExactlyPredecessorFreeNodes) {
  GeneratorParams P;
  P.Seed = 77;
  P.FragmentBudget = 16;
  TargetDesc Target = makeTarget(16);
  Analyzed A(generateFunction(P, Target));
  SimplifyResult SR = A.simplify(Target);
  ColoringPrecedenceGraph CPG =
      ColoringPrecedenceGraph::build(*A.IG, Target, SR);
  for (unsigned Root : CPG.roots()) {
    EXPECT_TRUE(CPG.contains(Root));
    EXPECT_TRUE(CPG.predecessors(Root).empty());
  }
  // Edges are symmetric between Succs and Preds.
  for (unsigned N = 0; N != CPG.numNodes(); ++N)
    for (unsigned S : CPG.successors(N)) {
      const auto &Preds = CPG.predecessors(S);
      EXPECT_NE(std::find(Preds.begin(), Preds.end(), N), Preds.end());
    }
}

/// The CPG as Section 5.2 defines it, built the slow way: the unreduced
/// relation (at each pop, an edge from every non-ready neighbor still in
/// the working graph), with each edge M -> X dropped when another path
/// M -> ... -> X implies it. Rows keep push order.
std::vector<std::vector<unsigned>>
referenceSuccessors(const InterferenceGraph &IG, const TargetDesc &Target,
                    const SimplifyResult &SR) {
  const unsigned N = IG.numNodes();
  std::vector<char> InGraph(N, 0), Removed(N, 0), Ready(N, 0);
  std::vector<unsigned> Deg(N, 0);
  for (unsigned Node : SR.Stack)
    InGraph[Node] = 1;
  for (unsigned Node = 0; Node != N; ++Node) {
    if (IG.isMerged(Node))
      Removed[Node] = 1;
    else
      Deg[Node] = IG.degree(Node);
  }
  auto K = [&](unsigned Node) { return Target.numRegs(IG.regClass(Node)); };
  for (unsigned Node : SR.Stack)
    Ready[Node] = Deg[Node] < K(Node);

  std::vector<std::vector<unsigned>> Unreduced(N);
  for (unsigned Node : SR.Stack) {
    for (unsigned M : IG.neighbors(Node))
      if (!Removed[M] && InGraph[M] && !Ready[M])
        Unreduced[M].push_back(Node);
    Removed[Node] = 1;
    for (unsigned M : IG.neighbors(Node))
      if (!Removed[M] && --Deg[M] < K(M) && InGraph[M])
        Ready[M] = 1;
  }

  auto Reaches = [&](unsigned From, unsigned To) {
    std::vector<char> Seen(N, 0);
    std::vector<unsigned> Work{From};
    while (!Work.empty()) {
      const unsigned Cur = Work.back();
      Work.pop_back();
      if (Cur == To)
        return true;
      for (unsigned S : Unreduced[Cur])
        if (!Seen[S]) {
          Seen[S] = 1;
          Work.push_back(S);
        }
    }
    return false;
  };
  std::vector<std::vector<unsigned>> Reduced(N);
  for (unsigned M = 0; M != N; ++M)
    for (unsigned X : Unreduced[M]) {
      bool Implied = false;
      for (unsigned Y : Unreduced[M])
        Implied = Implied || (Y != X && Reaches(Y, X));
      if (!Implied)
        Reduced[M].push_back(X);
    }
  return Reduced;
}

struct CpgPropertyCase {
  std::uint64_t Seed;
  unsigned Regs;
};

class CpgProperty : public ::testing::TestWithParam<CpgPropertyCase> {};

TEST_P(CpgProperty, PartialOrderPreservesColorability) {
  GeneratorParams P;
  P.Seed = GetParam().Seed;
  P.FragmentBudget = 20;
  P.CallPercent = 30;
  P.PairedLoadPercent = 10;
  P.FpPercent = 30;
  P.PressureValues = 9;
  TargetDesc Target = makeTarget(GetParam().Regs);
  Analyzed A(generateFunction(P, Target));
  SimplifyResult SR = A.simplify(Target);
  ColoringPrecedenceGraph CPG =
      ColoringPrecedenceGraph::build(*A.IG, Target, SR);

  EXPECT_TRUE(isAcyclic(CPG));
  EXPECT_TRUE(CPG.preservesColorability(*A.IG, Target, SR));
  // Every stacked node is in the graph, no others.
  std::vector<char> OnStack(A.IG->numNodes(), 0);
  for (unsigned N : SR.Stack)
    OnStack[N] = 1;
  for (unsigned N = 0; N != A.IG->numNodes(); ++N)
    EXPECT_EQ(CPG.contains(N), OnStack[N] != 0) << N;

  // Every row matches the reference, entries and order (select's queue
  // breaks ties by successor order), and the predecessor rows are its
  // transpose, sources ascending.
  const std::vector<std::vector<unsigned>> Want =
      referenceSuccessors(*A.IG, Target, SR);
  std::vector<std::vector<unsigned>> WantPreds(A.IG->numNodes());
  for (unsigned N = 0; N != A.IG->numNodes(); ++N)
    for (unsigned S : Want[N])
      WantPreds[S].push_back(N);
  for (unsigned N = 0; N != A.IG->numNodes(); ++N) {
    Span<const unsigned> Succs = CPG.successors(N);
    EXPECT_EQ(std::vector<unsigned>(Succs.begin(), Succs.end()), Want[N])
        << "successors of " << N;
    Span<const unsigned> Preds = CPG.predecessors(N);
    EXPECT_EQ(std::vector<unsigned>(Preds.begin(), Preds.end()), WantPreds[N])
        << "predecessors of " << N;
  }
}

std::vector<CpgPropertyCase> cpgCases() {
  std::vector<CpgPropertyCase> Cases;
  for (unsigned Regs : {16u, 24u, 32u})
    for (std::uint64_t Seed = 500; Seed != 512; ++Seed)
      Cases.push_back({Seed, Regs});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpgProperty, ::testing::ValuesIn(cpgCases()),
                         [](const ::testing::TestParamInfo<CpgPropertyCase>
                                &Info) {
                           return "s" + std::to_string(Info.param.Seed) +
                                  "_r" + std::to_string(Info.param.Regs);
                         });

} // namespace
