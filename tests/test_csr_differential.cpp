//===- tests/test_csr_differential.cpp - CSR layout equivalence ----------------===//
//
// Part of the PDGC project.
//
// Differential oracles for the arena/CSR migration of the three graph hot
// paths (PERFORMANCE.md): the packed representation must be *behaviorally
// invisible*. Each suite here checks one face of that claim:
//
//   * the interference adjacency equals an independently reimplemented
//     reference builder (set semantics) and upholds the mirror-index
//     invariant the O(1) merge unlink relies on;
//   * repeated builds — arena-borrowing and self-owned alike — produce
//     rows identical entry-for-entry, because select-phase tie-breaking
//     reads row *order*, not just row membership;
//   * CPG reachability over compacted rows agrees with a naive BFS;
//   * the full pipeline over the fuzzer corpus and the generated suites
//     yields byte-identical assignments at --jobs=1 and --jobs=4.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisContext.h"
#include "analysis/InterferenceGraph.h"
#include "core/ColoringPrecedenceGraph.h"
#include "core/PDGCRegistration.h"
#include "core/RegisterPreferenceGraph.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/PhiElimination.h"
#include "regalloc/BatchDriver.h"
#include "regalloc/Coalescer.h"
#include "regalloc/Driver.h"
#include "regalloc/Simplifier.h"
#include "support/Arena.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

using namespace pdgc;

#ifndef PDGC_CORPUS_DIR
#error "PDGC_CORPUS_DIR must point at the corpus directory"
#endif

namespace {

[[maybe_unused]] const bool AllocatorsRegistered = [] {
  registerPDGCAllocators();
  return true;
}();

/// A healthy mix of generator profiles: branchy/call-heavy, loop/fp, and
/// copy-rich shapes stress different builder paths.
std::vector<GeneratorParams> testFunctions() {
  std::vector<GeneratorParams> Fns;
  for (std::uint64_t Seed : {7u, 42u, 99u}) {
    GeneratorParams P;
    P.Name = "diff" + std::to_string(Seed);
    P.Seed = Seed;
    P.FragmentBudget = 26;
    P.CallPercent = 30;
    P.CopyPercent = 28;
    P.PairedLoadPercent = 10;
    P.FpPercent = 20;
    P.LoopPercent = 25;
    P.PressureValues = 8;
    Fns.push_back(P);
  }
  return Fns;
}

struct Analyses {
  std::unique_ptr<Function> F;
  Liveness LV;
  LoopInfo LI;
  LiveRangeCosts Costs;

  explicit Analyses(const GeneratorParams &P, const TargetDesc &Target)
      : F([&] {
          std::unique_ptr<Function> Fn = generateFunction(P, Target);
          eliminatePhis(*Fn);
          return Fn;
        }()),
        LV(Liveness::compute(*F)), LI(LoopInfo::compute(*F)),
        Costs(LiveRangeCosts::compute(*F, LV, LI)) {}
};

/// Independent reference interference builder: same definition of
/// interference as analysis/InterferenceGraph.cpp (backward scan, copy
/// exception, same-class filter, parameter entry edges) realized with the
/// dumbest possible data structure. Set semantics only — the reference
/// makes no ordering claims.
std::vector<std::set<unsigned>> referenceInterference(const Function &F,
                                                      const Liveness &LV) {
  std::vector<std::set<unsigned>> Ref(F.numVRegs());
  const auto AddEdge = [&](unsigned A, unsigned B) {
    if (A == B || F.regClass(VReg(A)) != F.regClass(VReg(B)))
      return;
    Ref[A].insert(B);
    Ref[B].insert(A);
  };
  for (unsigned B = 0, E = F.numBlocks(); B != E; ++B) {
    const BasicBlock *BB = F.block(B);
    LV.forEachInstReverse(BB, [&](unsigned I, const BitVector &LiveAfter) {
      const Instruction &Inst = BB->inst(I);
      if (!Inst.hasDef())
        return;
      const unsigned D = Inst.def().id();
      const unsigned CopySrc = Inst.isCopy() ? Inst.use(0).id() : ~0u;
      for (unsigned L : LiveAfter.setBits())
        if (L != D && L != CopySrc)
          AddEdge(D, L);
    });
  }
  const BitVector &EntryLive = LV.liveIn(F.entry());
  const std::vector<VReg> &Params = F.params();
  for (unsigned I = 0, E = Params.size(); I != E; ++I) {
    for (unsigned J = I + 1; J != E; ++J)
      AddEdge(Params[I].id(), Params[J].id());
    for (unsigned L : EntryLive.setBits())
      AddEdge(Params[I].id(), L);
  }
  return Ref;
}

TEST(InterferenceDifferential, MatchesReferenceBuilder) {
  TargetDesc Target = makeTarget(16);
  for (const GeneratorParams &P : testFunctions()) {
    SCOPED_TRACE(P.Name);
    Analyses A(P, Target);
    InterferenceGraph IG = InterferenceGraph::build(*A.F, A.LV, A.LI);
    std::vector<std::set<unsigned>> Ref = referenceInterference(*A.F, A.LV);
    ASSERT_EQ(IG.numNodes(), Ref.size());
    for (unsigned N = 0; N != IG.numNodes(); ++N) {
      Span<const unsigned> Row = IG.neighbors(N);
      std::set<unsigned> Got(Row.begin(), Row.end());
      ASSERT_EQ(Got.size(), Row.size()) << "duplicate neighbor in row " << N;
      EXPECT_EQ(Got, Ref[N]) << "row " << N;
      for (unsigned M : Row)
        EXPECT_TRUE(IG.interferes(N, M)) << N << " ~ " << M;
    }
  }
}

/// The invariant merge() depends on: Adj[Adj[A][I]][Mir[A][I]] == A. Not
/// directly observable, but interferes() plus neighbor symmetry cover the
/// public consequences; a broken mirror shows up as rows drifting apart
/// after merges, so run a few merges and recheck symmetry.
TEST(InterferenceDifferential, RowsStaySymmetricUnderMerges) {
  TargetDesc Target = makeTarget(16);
  Analyses A(testFunctions()[1], Target);
  InterferenceGraph IG = InterferenceGraph::build(*A.F, A.LV, A.LI);

  // Merge every coalescable move endpoint pair we can (the aggressive
  // coalescer's policy, minus the frills): the pairs the coalescer's own
  // legality test accepts, with a precolored endpoint kept as the
  // survivor.
  unsigned Merges = 0;
  for (const MoveRecord &MV : IG.moves()) {
    unsigned Dst = MV.Dst, Src = MV.Src;
    if (!canMergePair(IG, Dst, Src) || IG.isPrecolored(Src))
      continue;
    IG.merge(Dst, Src);
    ++Merges;
  }
  ASSERT_GT(Merges, 0u) << "workload produced no coalescable moves";

  for (unsigned N = 0; N != IG.numNodes(); ++N) {
    if (IG.isMerged(N)) {
      EXPECT_EQ(IG.degree(N), 0u) << "merged node kept a row";
      continue;
    }
    for (unsigned M : IG.neighbors(N)) {
      EXPECT_TRUE(IG.interferes(N, M));
      Span<const unsigned> Back = IG.neighbors(M);
      EXPECT_NE(std::find(Back.begin(), Back.end(), N), Back.end())
          << "edge " << N << "->" << M << " has no mirror";
    }
  }
}

TEST(InterferenceDifferential, BuildsAreOrderDeterministic) {
  TargetDesc Target = makeTarget(16);
  for (const GeneratorParams &P : testFunctions()) {
    SCOPED_TRACE(P.Name);
    Analyses A(P, Target);
    Arena Mem;
    InterferenceGraph IG1 =
        InterferenceGraph::build(*A.F, A.LV, A.LI, Mem);
    InterferenceGraph IG2 = InterferenceGraph::build(*A.F, A.LV, A.LI);
    ASSERT_EQ(IG1.numNodes(), IG2.numNodes());
    for (unsigned N = 0; N != IG1.numNodes(); ++N) {
      Span<const unsigned> R1 = IG1.neighbors(N);
      Span<const unsigned> R2 = IG2.neighbors(N);
      ASSERT_EQ(R1.size(), R2.size()) << "row " << N;
      for (unsigned I = 0; I != R1.size(); ++I)
        ASSERT_EQ(R1[I], R2[I]) << "row " << N << " entry " << I
                                << " (order drift)";
    }
  }
}

bool samePreference(const Preference &X, const Preference &Y) {
  return X.Source == Y.Source && X.Kind == Y.Kind &&
         X.Target.Kind == Y.Target.Kind && X.Target.Value == Y.Target.Value &&
         X.Savings == Y.Savings;
}

TEST(RpgDifferential, ArenaAndOwnedBuildsAreIdentical) {
  TargetDesc Target = makeTarget(16);
  for (const GeneratorParams &P : testFunctions()) {
    SCOPED_TRACE(P.Name);
    Analyses A(P, Target);
    Arena Mem;
    RegisterPreferenceGraph G1 = RegisterPreferenceGraph::build(
        *A.F, A.LV, A.LI, A.Costs, Target, Mem);
    RegisterPreferenceGraph G2 =
        RegisterPreferenceGraph::build(*A.F, A.LV, A.LI, A.Costs, Target);
    ASSERT_EQ(G1.numPreferences(), G2.numPreferences());
    for (unsigned V = 0, E = A.F->numVRegs(); V != E; ++V) {
      Span<const Preference> R1 = G1.preferencesOf(VReg(V));
      Span<const Preference> R2 = G2.preferencesOf(VReg(V));
      ASSERT_EQ(R1.size(), R2.size()) << "vreg " << V;
      for (unsigned I = 0; I != R1.size(); ++I)
        ASSERT_TRUE(samePreference(R1[I], R2[I]))
            << "vreg " << V << " preference " << I;
      Span<const Preference> T1 = G1.preferencesTargeting(VReg(V));
      Span<const Preference> T2 = G2.preferencesTargeting(VReg(V));
      ASSERT_EQ(T1.size(), T2.size()) << "vreg " << V << " (reverse)";
      for (unsigned I = 0; I != T1.size(); ++I)
        ASSERT_TRUE(samePreference(T1[I], T2[I]))
            << "vreg " << V << " reverse preference " << I;
    }
  }
}

TEST(CpgDifferential, ReachabilityAgreesWithNaiveBfs) {
  TargetDesc Target = makeTarget(12); // Scarcer regs: more CPG structure.
  Analyses A(testFunctions()[0], Target);
  InterferenceGraph IG = InterferenceGraph::build(*A.F, A.LV, A.LI);
  SimplifyResult SR = simplifyGraph(
      IG, Target, [&](unsigned N) { return A.Costs.spillMetric(VReg(N)); },
      /*Optimistic=*/true);
  ColoringPrecedenceGraph CPG =
      ColoringPrecedenceGraph::build(IG, Target, SR);

  const auto NaiveReachable = [&](unsigned From, unsigned To) {
    std::vector<char> Seen(CPG.numNodes(), 0);
    std::vector<unsigned> Work{From};
    Seen[From] = 1;
    while (!Work.empty()) {
      unsigned Cur = Work.back();
      Work.pop_back();
      if (Cur == To)
        return true;
      for (unsigned S : CPG.successors(Cur))
        if (!Seen[S]) {
          Seen[S] = 1;
          Work.push_back(S);
        }
    }
    return false;
  };

  std::vector<unsigned> Members;
  for (unsigned N = 0; N != CPG.numNodes(); ++N)
    if (CPG.contains(N))
      Members.push_back(N);
  ASSERT_FALSE(Members.empty());
  // Exhaustive pairwise agreement, including repeated queries (the epoch
  // scratch must not leak state between calls).
  for (unsigned From : Members)
    for (unsigned To : Members) {
      const bool Want = NaiveReachable(From, To);
      EXPECT_EQ(CPG.reachable(From, To), Want) << From << " ->? " << To;
      EXPECT_EQ(CPG.reachable(From, To), Want)
          << From << " ->? " << To << " (second query)";
    }
}

TEST(CpgDifferential, BuildsAreOrderDeterministic) {
  TargetDesc Target = makeTarget(12);
  for (const GeneratorParams &P : testFunctions()) {
    SCOPED_TRACE(P.Name);
    Analyses A(P, Target);
    InterferenceGraph IG = InterferenceGraph::build(*A.F, A.LV, A.LI);
    SimplifyResult SR = simplifyGraph(
        IG, Target,
        [&](unsigned N) { return A.Costs.spillMetric(VReg(N)); },
        /*Optimistic=*/true);
    Arena Mem;
    ColoringPrecedenceGraph G1 =
        ColoringPrecedenceGraph::build(IG, Target, SR, Mem);
    ColoringPrecedenceGraph G2 =
        ColoringPrecedenceGraph::build(IG, Target, SR);
    ASSERT_EQ(G1.numEdges(), G2.numEdges());
    for (unsigned N = 0; N != G1.numNodes(); ++N) {
      Span<const unsigned> S1 = G1.successors(N);
      Span<const unsigned> S2 = G2.successors(N);
      ASSERT_EQ(S1.size(), S2.size()) << "node " << N;
      for (unsigned I = 0; I != S1.size(); ++I)
        ASSERT_EQ(S1[I], S2[I]) << "node " << N << " successor " << I
                                << " (order drift)";
    }
  }
}

/// End-to-end: the corpus (parseable files) plus a generated suite run
/// through the batch pipeline at 1 and 4 jobs; assignments must be
/// byte-identical. This is the CSR analogue of test_batch's determinism
/// check, pointed at the adversarial fuzzer corpus.
TEST(PipelineDifferential, CorpusAssignmentsIdenticalAcrossJobs) {
  const TargetDesc Target = makeTarget(16);
  std::vector<std::unique_ptr<Function>> Owned;
  const std::filesystem::path Dir(PDGC_CORPUS_DIR);
  std::vector<std::filesystem::path> Paths;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC))
    if (Entry.is_regular_file() && Entry.path().extension() == ".ir")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_FALSE(Paths.empty()) << "no corpus under " << PDGC_CORPUS_DIR;
  for (const auto &Path : Paths) {
    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string ParseError;
    // Batch items must at least parse; corpus files that exist to prove
    // parser rejection are out of scope here.
    if (std::unique_ptr<Function> F = parseFunction(SS.str(), ParseError))
      Owned.push_back(std::move(F));
  }
  for (const GeneratorParams &P : testFunctions())
    Owned.push_back(generateFunction(P, Target));
  ASSERT_GE(Owned.size(), 4u);

  const auto Run = [&](unsigned Jobs) {
    // The batch mutates functions (phi elimination, spill code); each job
    // count gets pristine clones.
    std::vector<std::unique_ptr<Function>> Clones;
    std::vector<Function *> Fns;
    for (const auto &F : Owned) {
      Clones.push_back(cloneFunction(*F));
      Fns.push_back(Clones.back().get());
    }
    BatchDriver Driver(Jobs);
    return Driver.run(Fns, Target, DriverOptions());
  };

  std::vector<BatchItemResult> Seq = Run(1);
  std::vector<BatchItemResult> Par = Run(4);
  ASSERT_EQ(Seq.size(), Par.size());
  for (unsigned I = 0; I != Seq.size(); ++I) {
    EXPECT_EQ(Seq[I].ok(), Par[I].ok()) << "item " << I;
    if (Seq[I].ok() && Par[I].ok()) {
      EXPECT_EQ(Seq[I].Out.Assignment, Par[I].Out.Assignment)
          << "item " << I;
    }
  }
}

} // namespace
