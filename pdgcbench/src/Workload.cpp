//===- pdgcbench/src/Workload.cpp - Inputs, references, oracles -----------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "analysis/AnalysisContext.h"
#include "core/ColoringPrecedenceGraph.h"
#include "core/PreferenceDirectedAllocator.h"
#include "core/RegisterPreferenceGraph.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/PhiElimination.h"
#include "ir/Verifier.h"
#include "regalloc/AssignmentChecker.h"
#include "regalloc/Metrics.h"
#include "regalloc/Simplifier.h"
#include "regalloc/SpillCodeInserter.h"
#include "server/WorkerPool.h"
#include "sim/CostSimulator.h"
#include "sim/Interpreter.h"
#include "support/Arena.h"
#include "support/Debug.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <optional>

using namespace pdgc;
using namespace pdgcbench;

namespace {

/// splitmix64's finaliser: spreads the benchmark seed over a profile seed.
std::uint64_t mix(std::uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Fixed arguments of every interpreter comparison.
std::vector<std::int64_t> interpreterArgs(const Function &F) {
  std::vector<std::int64_t> Args;
  for (unsigned I = 0; I != F.numParams(); ++I)
    Args.push_back(static_cast<std::int64_t>(I) * 7 + 3);
  return Args;
}

unsigned countInstructions(const Function &F) {
  unsigned N = 0;
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    N += F.block(B)->size();
  return N;
}

/// The checker on \p Ref, then an interpreted run of the allocated code
/// against one of \p In's unallocated function. Returns "" when both
/// agree, else what failed.
std::string runOracles(const Input &In, const Reference &Ref,
                       const TargetDesc &Target) {
  // A failed invariant inside an oracle must come back as a finding, not
  // abort the run.
  ScopedErrorTrap Trap;
  try {
    const std::vector<std::string> Errors =
        checkAssignment(*Ref.Final, Target, Ref.Out.Assignment);
    if (!Errors.empty())
      return "checker: " + Errors.front();
    std::string ParseError;
    const std::unique_ptr<Function> Original =
        parseFunction(In.Text, ParseError);
    if (!Original)
      return "parse: " + ParseError;
    InterpreterOptions Options;
    Options.MaxSteps = 50'000'000;
    Options.MaxSpillSlots =
        std::max(Options.MaxSpillSlots, Ref.Out.StackSlots + 1);
    const std::vector<std::int64_t> Args = interpreterArgs(*Original);
    const ExecutionResult Virtual = runVirtual(*Original, Args, Options);
    if (!Virtual.Completed)
      return "interpreter: the unallocated function ran out of steps";
    const ExecutionResult Allocated =
        runAllocated(*Ref.Final, Target, Ref.Out.Assignment, Args, Options);
    if (!(Allocated == Virtual))
      return "interpreter: the allocated code diverges from the "
             "unallocated function";
  } catch (const std::exception &E) {
    return std::string("oracle raised: ") + E.what();
  }
  return "";
}

/// Records a replica's root span when the replay returns, on any path.
struct RootSpan {
  SpanLog *Log;
  Clock::time_point Start = Clock::now();
  std::uint64_t Id = Log ? Log->newId() : 0;
  ~RootSpan() {
    if (Log)
      Log->add("replica.fn", Start, Clock::now(), Id, 0);
  }
};

} // namespace

std::vector<GeneratorParams> pdgcbench::committedProfiles(bool Mega) {
  std::vector<GeneratorParams> Profiles;
  if (Mega)
    Profiles.push_back(megaFunctionProfile());
  else
    for (const WorkloadSuite &S : specJvmLikeSuites())
      Profiles.insert(Profiles.end(), S.Functions.begin(), S.Functions.end());
  return Profiles;
}

std::vector<GeneratorParams> pdgcbench::workloadProfiles(bool Mega,
                                                         std::uint64_t Seed) {
  const std::vector<GeneratorParams> Base = committedProfiles(Mega);
  // One draw per profile leaves a run at the mercy of its seed: the
  // loop-weighted cost, the spill count and the slowest function (the p99)
  // move by 15-25% from seed to seed, and one mega allocation takes
  // anywhere from 1.0 to 2.1 s. Several draws average that out; with 4
  // draws specjvm's p99 still spread by 0.11 of its median over 5 seeds.
  const unsigned Draws = 8;
  std::vector<GeneratorParams> Profiles;
  for (unsigned Draw = 0; Draw != Draws; ++Draw)
    for (GeneratorParams P : Base) {
      P.Name += "_d" + std::to_string(Draw);
      if (Draw != 0)
        P.Seed = mix(P.Seed + Draw);
      if (Seed != 0)
        P.Seed = mix(P.Seed ^ mix(Seed));
      Profiles.push_back(std::move(P));
    }
  return Profiles;
}

Input pdgcbench::makeInput(const GeneratorParams &Profile,
                           const TargetDesc &Target) {
  return {Profile.Name, printFunction(*generateFunction(Profile, Target))};
}

StatusOr<AllocationOutcome>
pdgcbench::allocateText(const std::string &Text, const TargetDesc &Target,
                        std::unique_ptr<Function> *Final) {
  std::string Error;
  std::unique_ptr<Function> F = parseFunction(Text, Error);
  if (!F)
    return Status::error(ErrorCode::ParseError, Error);
  StatusOr<AllocationOutcome> Out = allocateWithFallback(*F, Target);
  if (Final)
    *Final = std::move(F);
  return Out;
}

bool pdgcbench::allocateReference(const Input &In, const TargetDesc &Target,
                                  Reference &Ref, std::string &Error) {
  StatusOr<AllocationOutcome> Out = allocateText(In.Text, Target, &Ref.Final);
  if (!Out.ok()) {
    Error = Out.status().toString();
    return false;
  }
  Ref.Out = std::move(Out.value());
  Ref.WireBody = wireBody(Ref.Out, Target);
  return true;
}

void pdgcbench::checkReference(const Input &In, Reference &Ref,
                               const TargetDesc &Target) {
  Ref.Failure = runOracles(In, Ref, Target);
  Ref.Q = measureQuality(*Ref.Final, Ref.Out, Target);
  Ref.Final.reset();
}

std::uint64_t pdgcbench::setUpDigest(const Input &In, const Reference &Ref) {
  const AllocationOutcome &Out = Ref.Out;
  std::string Key = In.Text;
  Key += '\0';
  Key += Ref.WireBody;
  for (unsigned N : {Out.Rounds, Out.SpilledRanges, Out.SpillInstructions,
                     Out.remainingMoves()}) {
    Key += ' ';
    Key += std::to_string(N);
  }
  Key += ' ';
  Key += Out.Degradation.ServedBy;
  return server::contentHash(Key);
}

std::string pdgcbench::wireBody(const AllocationOutcome &Out,
                                const TargetDesc &Target) {
  std::string Body;
  for (const std::string &Failure : Out.Degradation.FailedTiers)
    Body += "; failed-tier: " + Failure + "\n";
  for (unsigned V = 0; V != Out.Assignment.size(); ++V)
    if (Out.Assignment[V] >= 0)
      Body += "v" + std::to_string(V) + " -> " +
              Target.regName(static_cast<PhysReg>(Out.Assignment[V])) + "\n";
  return Body;
}

bool pdgcbench::sameDecisions(const AllocationOutcome &A,
                              const AllocationOutcome &B) {
  return A.Assignment == B.Assignment && A.Rounds == B.Rounds &&
         A.SpilledRanges == B.SpilledRanges &&
         A.SpillInstructions == B.SpillInstructions &&
         A.remainingMoves() == B.remainingMoves() &&
         A.Degradation.ServedBy == B.Degradation.ServedBy;
}

Quality pdgcbench::measureQuality(const Function &Final,
                                  const AllocationOutcome &Out,
                                  const TargetDesc &Target) {
  Quality Q;
  Q.SimCost = simulateCost(Final, Target, Out.Assignment).total();
  Q.SpillInsts = countSpillInstructions(Final);
  Q.MovesRemaining = Out.remainingMoves();
  return Q;
}

void pdgcbench::corruptReference(Reference &Ref, const TargetDesc &Target) {
  for (unsigned V = 0; V != Ref.Out.Assignment.size(); ++V) {
    int &Reg = Ref.Out.Assignment[V];
    if (Reg < 0 || !Ref.Final->isPinned(VReg(V)))
      continue;
    const PhysReg R = static_cast<PhysReg>(Reg);
    const RegClass RC = Target.regClass(R);
    Reg = static_cast<int>(Target.firstReg(RC) +
                           (Target.classIndex(R) + 1) % Target.numRegs(RC));
    break;
  }
  Ref.WireBody = wireBody(Ref.Out, Target);
}

ReplicaResult pdgcbench::replayAllocation(const std::string &Text,
                                          const TargetDesc &Target,
                                          SpanLog *Log) {
  ReplicaResult R;
  RootSpan Root{Log};
  const std::uint64_t Fn = Root.Id;
  ScopedErrorTrap Trap;
  try {
    std::string ParseError;
    std::unique_ptr<Function> F = timeCall(
        Log, "ir.parse", Fn, [&] { return parseFunction(Text, ParseError); });
    if (!F) {
      R.Error = "parse: " + ParseError;
      return R;
    }
    R.InstsIn = countInstructions(*F);
    std::vector<std::string> Errors;
    if (!timeCall(Log, "ir.verify", Fn,
                  [&] { return verifyFunction(*F, Errors); })) {
      R.Error = "verify: " + (Errors.empty() ? "failed" : Errors.front());
      return R;
    }
    std::unique_ptr<Function> Work =
        timeCall(Log, "ir.clone", Fn, [&] { return cloneFunction(*F); });
    if (hasPhis(*Work))
      timeCall(Log, "ir.phi_elim", Fn, [&] { eliminatePhis(*Work); });

    // The driver's loop (regalloc/Driver.cpp, tryAllocate), call for call.
    const DriverOptions Defaults;
    PreferenceDirectedAllocator Allocator(pdgcFullOptions());
    Arena Mem;
    std::optional<AnalysisContext> Analyses;
    unsigned NextSlot = 0;
    for (unsigned Round = 0; Round != Defaults.MaxRounds; ++Round) {
      RoundTrace RT;
      RT.Index = Round;
      RT.VRegs = Work->numVRegs();
      RT.Insts = countInstructions(*Work);
      const Clock::time_point A0 = Clock::now();
      if (!Analyses)
        Analyses.emplace(*Work, Defaults.Costs, &Mem);
      else
        Analyses->refresh();
      const Clock::time_point A1 = Clock::now();
      if (Log)
        Log->add(Round == 0 ? "analysis.build" : "analysis.refresh", A0, A1,
                 Log->newId(), Fn);
      RT.AnalysisUs = microsBetween(A0, A1);
      R.PerRound.push_back(RT);

      AllocContext Ctx(*Work, Target, *Analyses);
      std::uint64_t Degrees = 0;
      for (unsigned N = 0; N != Ctx.IG.numNodes(); ++N)
        Degrees += Ctx.IG.neighbors(N).size();
      R.IgEdges += Degrees / 2;

      const SimplifyResult SR = timeCall(Log, "regalloc.simplify", Fn, [&] {
        return simplifyGraph(
            Ctx.IG, Ctx.Target,
            [&](unsigned Node) { return Ctx.Costs.spillMetric(VReg(Node)); },
            /*Optimistic=*/true);
      });
      const RegisterPreferenceGraph RPG =
          timeCall(Log, "core.rpg_build", Fn, [&] {
            return RegisterPreferenceGraph::build(Ctx.F, Ctx.LV, Ctx.LI,
                                                  Ctx.Costs, Ctx.Target,
                                                  Ctx.Mem);
          });
      const ColoringPrecedenceGraph CPG =
          timeCall(Log, "core.cpg_build", Fn, [&] {
            return ColoringPrecedenceGraph::build(Ctx.IG, Ctx.Target, SR,
                                                  Ctx.Mem);
          });
      R.RpgPrefs += RPG.numPreferences();
      R.CpgEdges += CPG.numEdges();

      RoundResult RR = timeCall(Log, "core.round", Fn,
                                [&] { return Allocator.allocateRound(Ctx); });
      ++R.Rounds;
      if (RR.anySpill()) {
        R.SpilledRanges += static_cast<unsigned>(RR.Spilled.size());
        timeCall(Log, "regalloc.spill_insert", Fn, [&] {
          insertSpillCode(*Work, RR.Spilled, NextSlot, Defaults.Rematerialize,
                          Defaults.Granularity);
        });
        continue;
      }

      std::vector<int> Assignment(Work->numVRegs(), -1);
      for (unsigned V = 0; V != Work->numVRegs(); ++V)
        Assignment[V] = RR.Color[RR.CoalesceMap[V]];
      const std::vector<std::string> CheckErrors =
          timeCall(Log, "regalloc.checker", Fn,
                   [&] { return checkAssignment(*Work, Target, Assignment); });
      if (!CheckErrors.empty()) {
        R.Error = "checker: " + CheckErrors.front();
        return R;
      }
      R.Assignment = std::move(Assignment);
      R.InstsOut = countInstructions(*Work);
      R.Ok = true;
      return R;
    }
    R.Error = "did not converge within DriverOptions::MaxRounds rounds";
  } catch (const std::exception &E) {
    R.Error = std::string("replica raised: ") + E.what();
  }
  return R;
}
