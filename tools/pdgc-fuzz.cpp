//===- tools/pdgc-fuzz.cpp - Differential allocation fuzzer -------------------===//
//
// Part of the PDGC project.
//
// Differential fuzzing of the whole allocation pipeline, in the spirit of
// randomized CSP-instance stress testing: seeded random IR generation
// (reusing workloads/Generator) plus structural mutation of the textual
// form, run through every registered allocator, with three oracles:
//
//   1. the independent AssignmentChecker must accept every produced
//      assignment (the driver runs it on every tier);
//   2. observable behaviour must not change: the reference interpreter's
//      (return value, store digest) of the allocated function must equal
//      the virtual-register execution of the original;
//   3. the cost simulator must run and produce finite, non-negative costs.
//
// Mutated inputs that no longer parse or verify must be *rejected* (error
// string, nonzero status) — any crash or abort is a finding. A SIGALRM
// guard bounds each case; the case being executed is written to the corpus
// directory beforehand, so a hang or crash leaves the reproducer behind.
// Failures are greedily reduced (line removal) and persisted under the
// corpus directory, which the test suite replays via test_corpus_replay.
//
//   pdgc-fuzz [--runs=N] [--seed=S] [--corpus-dir=PATH] [--timeout=SECS]
//             [--mutate-percent=P] [--kill-tier=NAME] [--max-save=N]
//             [--jobs=N] [--quiet] [--stats] [--chaos]
//             [--reduce-file=F.pir]
//
// --reduce-file runs the greedy line-removal reduction on one saved
// reproducer instead of fuzzing — typically a crash dossier written by
// `pdgc-serve --crash-dir` (docs/ROBUSTNESS.md "Crash dossiers"). The
// dossier's `; regs:` header (2 to 32 registers per class) sets the
// target; its `; fault-plan:` header names the PDGC_FAULTS spec that killed
// the worker; export it before reducing and the crash reproduces
// in-process as a pipeline finding, which becomes the reduction
// predicate. The reduced input is written to F.pir.reduced.
//
// --chaos switches to fault-injection sweeping instead of random-input
// fuzzing: the corpus (plus a seeded generated supplement) is replayed
// through the batch pipeline while every registered fault site
// (support/FaultInjection.h) is triggered in turn — fatal, status, and
// delay actions, then whole-pipeline probability plans — asserting the
// three hard invariants on every item: the process never aborts, a total
// failure leaves the input byte-identical, and any success passes the
// independent AssignmentChecker. Each sweep's fault plan is printed in
// PDGC_FAULTS syntax, so any finding reproduces outside the fuzzer (see
// docs/ROBUSTNESS.md).
//
// --stats appends the allocator-wide "; stat" counter block to stdout.
// Counters are sums of relaxed atomic increments, so for a fixed seed and
// run count the allocator/driver/analysis counters fold to the same
// values at every --jobs value; only the "threadpool" group differs, since
// the sequential mode never touches the pool.
//
// --jobs=N (N > 1) runs cases on a worker pool in deterministic chunks:
// inputs are pre-generated sequentially (same rng stream as --jobs=1, so a
// seed reproduces the same corpus at any job count), workers run the
// case pipeline, and findings are reduced and saved in case order. The
// SIGALRM guard is per-process (siglongjmp is not thread-safe), so
// parallel mode bounds runaway cases with the driver's wall-clock budget
// instead of --timeout; write-ahead reproducers are inflight-<case>.ir.
//
// Exits 0 when no findings, 1 on findings, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "core/PDGCRegistration.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "machine/TargetDesc.h"
#include "regalloc/AllocatorRegistry.h"
#include "regalloc/AssignmentChecker.h"
#include "regalloc/BatchDriver.h"
#include "regalloc/Driver.h"
#include "sim/CostSimulator.h"
#include "sim/Interpreter.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <csetjmp>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace pdgc;

namespace {

sigjmp_buf TimeoutJmp;
volatile sig_atomic_t TimedOut = 0;

void onAlarm(int) {
  TimedOut = 1;
  siglongjmp(TimeoutJmp, 1);
}

struct FuzzConfig {
  unsigned long Runs = 1000;
  std::uint64_t Seed = 1;
  std::string CorpusDir = "tests/corpus";
  unsigned TimeoutSecs = 20;
  unsigned MutatePercent = 30;
  /// Tier dropped from the fallback chain each case exercises.
  std::string KillTier;
  unsigned long MaxSave = 16;
  unsigned Jobs = 1;
  std::string ReduceFile;
  bool Quiet = false;
  bool PrintStats = false;
  bool Chaos = false;
};

struct FuzzStats {
  unsigned long Cases = 0;
  unsigned long ParseRejects = 0;
  unsigned long VerifyRejects = 0;
  unsigned long Allocations = 0;
  unsigned long Degradations = 0;
  unsigned long BudgetStops = 0;
  unsigned long TierFailures = 0;
  unsigned long Failures = 0;
  unsigned long Timeouts = 0;

  FuzzStats &operator+=(const FuzzStats &O) {
    Cases += O.Cases;
    ParseRejects += O.ParseRejects;
    VerifyRejects += O.VerifyRejects;
    Allocations += O.Allocations;
    Degradations += O.Degradations;
    BudgetStops += O.BudgetStops;
    TierFailures += O.TierFailures;
    Failures += O.Failures;
    Timeouts += O.Timeouts;
    return *this;
  }
};

/// One detected finding, before reduction.
struct Finding {
  std::string Kind;      ///< "checker-mismatch", "behavior-divergence", ...
  std::string Allocator; ///< Allocator (or "pipeline") that produced it.
  std::string Detail;
};

bool parseNumeric(const std::string &Value, unsigned long Max,
                  unsigned long &Out) {
  if (Value.empty() || Value.size() > 10)
    return false;
  unsigned long V = 0;
  for (char C : Value) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
  }
  if (V > Max)
    return false;
  Out = V;
  return true;
}

void usage() {
  std::fprintf(stderr,
               "usage: pdgc-fuzz [--runs=N] [--seed=S] [--corpus-dir=PATH] "
               "[--timeout=SECS]\n"
               "                 [--mutate-percent=P] [--kill-tier=NAME] "
               "[--max-save=N]\n"
               "                 [--jobs=N] [--quiet] [--stats] [--chaos]\n"
               "                 [--reduce-file=F.pir]\n");
}

/// Random generator parameters: spans tiny straight-line functions up to
/// deep loop nests under heavy pressure.
GeneratorParams randomParams(Rng &R, std::uint64_t CaseSeed,
                             const TargetDesc &Target) {
  GeneratorParams P;
  P.Seed = CaseSeed;
  P.Name = "fuzz" + std::to_string(CaseSeed);
  unsigned MaxParams = Target.maxParamRegs() < 4 ? Target.maxParamRegs() : 4;
  P.NumParams = static_cast<unsigned>(R.nextBelow(MaxParams + 1));
  P.FragmentBudget = 2 + static_cast<unsigned>(R.nextBelow(36));
  P.OpsPerFragment = 1 + static_cast<unsigned>(R.nextBelow(7));
  P.LoopPercent = static_cast<unsigned>(R.nextBelow(60));
  P.MaxLoopDepth = 1 + static_cast<unsigned>(R.nextBelow(3));
  P.BranchPercent = static_cast<unsigned>(R.nextBelow(60));
  P.CallPercent = static_cast<unsigned>(R.nextBelow(50));
  P.CopyPercent = static_cast<unsigned>(R.nextBelow(60));
  P.PairedLoadPercent = static_cast<unsigned>(R.nextBelow(40));
  P.NarrowLoadPercent = static_cast<unsigned>(R.nextBelow(30));
  P.StorePercent = static_cast<unsigned>(R.nextBelow(40));
  P.FpPercent = static_cast<unsigned>(R.nextBelow(50));
  P.Accumulators = static_cast<unsigned>(R.nextBelow(4));
  P.PressureValues = static_cast<unsigned>(R.nextBelow(12));
  return P;
}

/// Structural text mutation: line-level edits plus token/byte noise. The
/// result frequently fails to parse or verify — exactly the point.
std::string mutateText(const std::string &Text, Rng &R) {
  std::vector<std::string> Lines;
  {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }
  unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned I = 0; I != Edits && !Lines.empty(); ++I) {
    switch (R.nextBelow(6)) {
    case 0: // Delete a random line.
      Lines.erase(Lines.begin() +
                  static_cast<long>(R.nextBelow(Lines.size())));
      break;
    case 1: { // Duplicate a random line.
      size_t At = R.nextBelow(Lines.size());
      Lines.insert(Lines.begin() + static_cast<long>(At), Lines[At]);
      break;
    }
    case 2: { // Swap two lines.
      size_t A = R.nextBelow(Lines.size());
      size_t B = R.nextBelow(Lines.size());
      std::swap(Lines[A], Lines[B]);
      break;
    }
    case 3: // Truncate the function.
      Lines.resize(1 + R.nextBelow(Lines.size()));
      break;
    case 4: { // Perturb one character.
      std::string &L = Lines[R.nextBelow(Lines.size())];
      if (!L.empty()) {
        static const char Alphabet[] = "v0123456789frb@(),;:= ";
        L[R.nextBelow(L.size())] =
            Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
      }
      break;
    }
    case 5: { // Blow up a number token (id/immediate out-of-range probes).
      std::string &L = Lines[R.nextBelow(Lines.size())];
      size_t Digit = L.find_first_of("0123456789");
      if (Digit != std::string::npos)
        L.insert(Digit, std::to_string(R.next()));
      break;
    }
    }
  }
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

std::vector<std::int64_t> interpreterArgs(const Function &F) {
  std::vector<std::int64_t> Args;
  for (unsigned I = 0, E = F.numParams(); I != E; ++I)
    Args.push_back(static_cast<std::int64_t>(I) * 7 + 3);
  return Args;
}

/// Runs one allocator over a clone of \p F and applies the oracles.
/// Returns a finding kind ("" = clean). Structured failures are not
/// findings on their own — BudgetExceeded and AllocatorInternal are
/// honest capitulations the fallback chain exists to absorb (the chain is
/// probed separately per case, and losing every tier IS a finding); they
/// are reported back through \p BudgetStop / \p TierFailed for the stats.
/// CheckerMismatch stays a finding: the allocator produced a *wrong*
/// assignment on verified input, which is an allocator bug regardless of
/// the checker netting it.
std::string runOneAllocator(const Function &F, const TargetDesc &Target,
                            const std::string &Name,
                            const ExecutionResult &Reference,
                            bool &BudgetStop, bool &TierFailed) {
  std::unique_ptr<AllocatorBase> Allocator = createRegisteredAllocator(Name);
  if (!Allocator)
    return "unregistered-allocator";

  std::unique_ptr<Function> Work = cloneFunction(F);
  DriverOptions Options;
  Options.MaxRounds = 64;
  Options.TimeBudgetMs = 10000;
  StatusOr<AllocationOutcome> Result =
      tryAllocate(*Work, Target, *Allocator, Options);
  if (!Result.ok()) {
    if (Result.code() == ErrorCode::BudgetExceeded) {
      BudgetStop = true;
      return "";
    }
    if (Result.code() == ErrorCode::AllocatorInternal) {
      TierFailed = true;
      return "";
    }
    // A mutant can carry pins that verify structurally but lie outside
    // this target's register file; the driver rejects those up front.
    if (Result.code() == ErrorCode::VerifyError)
      return "";
    return Result.code() == ErrorCode::CheckerMismatch ? "checker-mismatch"
                                                       : "allocator-internal";
  }

  // Oracle 2: observable behaviour is preserved by allocation.
  ExecutionResult Allocated =
      runAllocated(*Work, Target, Result->Assignment, interpreterArgs(F));
  if (Reference.Completed && !(Allocated == Reference))
    return "behavior-divergence";

  // Oracle 3: the cost model accepts the result.
  SimulatedCost Cost = simulateCost(*Work, Target, Result->Assignment);
  if (!std::isfinite(Cost.total()) || Cost.total() < 0)
    return "cost-model-anomaly";
  return "";
}

/// Runs the full per-case pipeline over IR text. Findings are appended;
/// returns false when the text was (acceptably) rejected by parser or
/// verifier. \p ChainBudgetMs bounds each fallback-chain tier's wall
/// clock (0 = unlimited); parallel mode uses it in place of the
/// process-wide SIGALRM guard.
bool runCase(const std::string &Text, const TargetDesc &Target,
             const std::vector<std::string> &Allocators,
             const std::string &KillTier, FuzzStats &Stats,
             std::vector<Finding> &Findings, unsigned ChainBudgetMs = 0) {
  std::string ParseError;
  std::unique_ptr<Function> F = parseFunction(Text, ParseError);
  if (!F) {
    ++Stats.ParseRejects;
    return false;
  }
  std::vector<std::string> VerifyErrors;
  bool Verified = false;
  try {
    ScopedErrorTrap Trap;
    Verified = verifyFunction(*F, VerifyErrors);
  } catch (const std::exception &) {
    Verified = false;
  }
  if (!Verified) {
    ++Stats.VerifyRejects;
    // The hardened pipeline must reject it too, not crash.
    DriverOptions Options;
    std::unique_ptr<Function> Copy = cloneFunction(*F);
    StatusOr<AllocationOutcome> Result =
        allocateWithFallback(*Copy, Target, Options);
    if (Result.ok() || Result.code() != ErrorCode::VerifyError)
      Findings.push_back({"verify-escape", "pipeline",
                          "unverifiable function was not rejected with "
                          "VERIFY_ERROR"});
    return false;
  }

  ExecutionResult Reference = runVirtual(*F, interpreterArgs(*F));

  for (const std::string &Name : Allocators) {
    bool BudgetStop = false, TierFailed = false;
    std::string Kind = runOneAllocator(*F, Target, Name, Reference,
                                       BudgetStop, TierFailed);
    ++Stats.Allocations;
    if (BudgetStop)
      ++Stats.BudgetStops;
    if (TierFailed)
      ++Stats.TierFailures;
    if (!Kind.empty())
      Findings.push_back({Kind, Name, "allocator " + Name + " on " +
                                          Target.name()});
  }

  // Exercise the fallback chain end to end, optionally without a killed
  // tier: the rest of the chain must still serve a checker-valid
  // assignment.
  DriverOptions ChainOptions;
  ChainOptions.TimeBudgetMs = ChainBudgetMs;
  std::erase_if(ChainOptions.FallbackChain, [&](const FallbackTier &T) {
    return T.Name == KillTier;
  });
  std::unique_ptr<Function> ChainF = cloneFunction(*F);
  StatusOr<AllocationOutcome> ChainResult =
      allocateWithFallback(*ChainF, Target, ChainOptions);
  if (!ChainResult.ok()) {
    if (ChainResult.code() == ErrorCode::VerifyError)
      ++Stats.VerifyRejects; // target-incompatible pins, rejected cleanly
    else
      Findings.push_back({"fallback-exhausted", "pipeline",
                          ChainResult.status().toString()});
  }
  else if (ChainResult->Degradation.Degraded && KillTier.empty())
    ++Stats.Degradations;
  return true;
}

/// Greedy line-removal reduction: keeps removing lines while the failure
/// (same finding kind) reproduces. The predicate re-runs the full case.
std::string reduceCase(const std::string &Text, const TargetDesc &Target,
                       const std::vector<std::string> &Allocators,
                       const std::string &KillTier,
                       const std::string &Kind) {
  auto Reproduces = [&](const std::string &Candidate) {
    // An armed PDGC_FAULTS plan (--reduce-file on a crash dossier) must
    // fire identically for every candidate, so per-site hit counters
    // restart per run; no-op when no plan is armed.
    fault::resetSiteCounters();
    FuzzStats ScratchStats;
    std::vector<Finding> ScratchFindings;
    runCase(Candidate, Target, Allocators, KillTier, ScratchStats,
            ScratchFindings);
    for (const Finding &F : ScratchFindings)
      if (F.Kind == Kind)
        return true;
    return false;
  };

  std::vector<std::string> Lines;
  {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }
  bool Shrunk = true;
  while (Shrunk && Lines.size() > 1) {
    Shrunk = false;
    for (size_t I = 0; I < Lines.size(); ++I) {
      std::vector<std::string> Candidate = Lines;
      Candidate.erase(Candidate.begin() + static_cast<long>(I));
      std::string Joined;
      for (const std::string &L : Candidate)
        Joined += L + "\n";
      if (Reproduces(Joined)) {
        Lines = std::move(Candidate);
        Shrunk = true;
        break;
      }
    }
  }
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// --reduce-file: greedy line-removal reduction of one saved reproducer,
/// typically a crash dossier written by `pdgc-serve --crash-dir`. The
/// dossier's `; regs:` header reconstructs the serving target; the crash
/// predicate is the normal case pipeline with the PDGC_FAULTS plan from
/// the environment re-armed per candidate (the dossier's `; fault-plan:`
/// header records the spec that killed the worker, and in-process a
/// fatal fault surfaces as a fallback-exhausted finding). Writes the
/// reduced input next to the original as `<file>.reduced`. Exit 0 on a
/// successful reduction, 1 when the input does not reproduce, 2 on I/O or
/// a `; regs:` header outside [MinRegsPerClass, MaxRegsPerClass].
int runReduceFile(const FuzzConfig &Config) {
  registerPDGCAllocators();
  const std::vector<std::string> Allocators = registeredAllocatorNames();

  std::ifstream In(Config.ReduceFile);
  if (!In) {
    std::fprintf(stderr, "error: cannot read '%s'\n",
                 Config.ReduceFile.c_str());
    return 2;
  }
  std::string Text;
  {
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }

  {
    std::string FaultError;
    if (!fault::installPlanFromEnv(&FaultError)) {
      std::fprintf(stderr, "error: PDGC_FAULTS: %s\n", FaultError.c_str());
      return 2;
    }
  }

  // Dossiers record the serving target's register count; default to the
  // server's default when the header is absent (hand-written inputs).
  unsigned Regs = 24;
  {
    std::istringstream Lines(Text);
    std::string Line;
    while (std::getline(Lines, Line)) {
      const std::string Prefix = "; regs: ";
      if (Line.rfind(Prefix, 0) == 0) {
        const std::string Value = Line.substr(Prefix.size());
        unsigned long V = 0;
        if (!parseNumeric(Value, MaxRegsPerClass, V) || V < MinRegsPerClass) {
          std::fprintf(stderr,
                       "error: '; regs:' header expects a number in [%u, %u], "
                       "got '%s'\n",
                       MinRegsPerClass, MaxRegsPerClass, Value.c_str());
          return 2;
        }
        Regs = static_cast<unsigned>(V);
        break;
      }
      if (Line.rfind(";", 0) != 0)
        break; // headers stop at the first non-comment line
    }
  }
  const TargetDesc Target = makeTarget(Regs, PairingRule::Adjacent);

  FuzzStats Stats;
  std::vector<Finding> Findings;
  fault::resetSiteCounters();
  runCase(Text, Target, Allocators, Config.KillTier, Stats, Findings);
  if (Findings.empty()) {
    std::fprintf(stderr,
                 "pdgc-fuzz: '%s' does not reproduce a finding (export the "
                 "dossier's fault-plan header via PDGC_FAULTS first?)\n",
                 Config.ReduceFile.c_str());
    return 1;
  }
  const std::string Kind = Findings.front().Kind;

  auto countLines = [](const std::string &S) {
    unsigned long N = 0;
    for (char C : S)
      N += C == '\n';
    return N;
  };
  const std::string Reduced =
      reduceCase(Text, Target, Allocators, Config.KillTier, Kind);

  const std::string OutPath = Config.ReduceFile + ".reduced";
  std::ofstream Out(OutPath);
  Out << Reduced;
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 2;
  }
  std::printf("pdgc-fuzz: reduced '%s' (%s, %lu -> %lu lines) -> '%s'\n",
              Config.ReduceFile.c_str(), Kind.c_str(), countLines(Text),
              countLines(Reduced), OutPath.c_str());
  return 0;
}

/// Runs \p Body under a SIGALRM guard; returns false when the alarm fired.
/// Keeping the sigsetjmp frame out of main() avoids -Wclobbered on loop
/// state. The longjmp skips destructors of whatever Body had live — fine
/// for a fuzzer's timeout path, where the case is abandoned anyway.
template <typename Fn> bool withAlarmGuard(unsigned Secs, Fn &&Body) {
  if (sigsetjmp(TimeoutJmp, 1) == 0) {
    alarm(Secs);
    Body();
    alarm(0);
    return true;
  }
  alarm(0);
  return false;
}

void saveCorpusFile(const std::string &Dir, const std::string &FileName,
                    const std::string &Header, const std::string &Text) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::ofstream Out(Dir + "/" + FileName);
  Out << "; " << Header << "\n" << Text;
}

/// One fully generated fuzz input, ready to run.
struct CaseInput {
  unsigned long Index;
  TargetDesc Target;
  std::string Text;
  std::string Header;
};

/// Draws the next case from \p Root. Consumes exactly one Root value per
/// case, so the generated corpus for a seed is identical at every job
/// count.
CaseInput makeCase(unsigned long Case, Rng &Root, const FuzzConfig &Config) {
  static const unsigned RegChoices[] = {6, 8, 16, 24, 32};
  std::uint64_t CaseSeed = Root.next();
  Rng R(CaseSeed);
  CaseInput In{Case,
               makeTarget(RegChoices[R.nextBelow(sizeof(RegChoices) /
                                                 sizeof(RegChoices[0]))],
                          R.roll(50) ? PairingRule::Adjacent
                                     : PairingRule::OddEven),
               "", ""};
  {
    GeneratorParams P = randomParams(R, CaseSeed, In.Target);
    std::unique_ptr<Function> F = generateFunction(P, In.Target);
    In.Text = printFunction(*F);
  }
  bool Mutated = R.roll(Config.MutatePercent);
  if (Mutated)
    In.Text = mutateText(In.Text, R);
  In.Header = "pdgc-fuzz case seed=" + std::to_string(Config.Seed) +
              " case=" + std::to_string(Case) + " target=" +
              In.Target.name() + (Mutated ? " mutated" : "");
  return In;
}

//===----------------------------------------------------------------------===//
// Chaos mode: fault-plan sweeping over a fixed probe set
//===----------------------------------------------------------------------===//

/// One chaos probe: a parsed master function and its pristine printed form
/// (the byte-identity baseline for the untouched-on-total-failure check).
struct ChaosProbe {
  std::string Name;
  std::unique_ptr<Function> Master;
  std::string Pristine;
};

/// One broken chaos invariant. Plan is the PDGC_FAULTS spec that was
/// installed, so the finding reproduces outside the fuzzer.
struct ChaosViolation {
  std::string Plan;
  std::string Input;
  std::string Detail;
};

/// Runs the chaos sweeps; returns the process exit code. The sweep space
/// is deterministic for a seed: the probe set, the site list (discovered
/// by a fault-free pass), the per-site plans, and the probability plans
/// are all derived from --seed and the corpus directory contents.
int runChaos(const FuzzConfig &Config) {
  if (!fault::compiledIn()) {
    std::fprintf(stderr,
                 "error: --chaos requires fault injection, but this binary "
                 "was built with -DPDGC_DISABLE_FAULTS=ON\n");
    return 2;
  }
  registerPDGCAllocators();

  // A scarce register file pushes probes through the spill rounds and
  // fallback tiers that most fault sites guard.
  const TargetDesc Target = makeTarget(8, PairingRule::Adjacent);

  // Probe set: parseable corpus files (reproducers and write-ahead
  // leftovers excluded) plus a seeded generated supplement. Unverifiable
  // corpus files stay in — their clean rejection under faults is a path
  // worth sweeping. Mutants are not generated: they rarely get past the
  // verifier, and chaos wants deep pipelines, not parser probes.
  std::vector<ChaosProbe> Probes;
  {
    std::vector<std::string> Paths;
    std::error_code EC;
    if (std::filesystem::is_directory(Config.CorpusDir, EC))
      for (const auto &Entry :
           std::filesystem::directory_iterator(Config.CorpusDir, EC)) {
        const std::string Base = Entry.path().filename().string();
        if (Entry.is_regular_file() && Entry.path().extension() == ".ir" &&
            Base.rfind("fail-", 0) != 0 && Base.rfind("chaos-", 0) != 0 &&
            Base.rfind("inflight", 0) != 0)
          Paths.push_back(Entry.path().string());
      }
    std::sort(Paths.begin(), Paths.end());
    for (const std::string &P : Paths) {
      std::ifstream In(P);
      std::ostringstream SS;
      SS << In.rdbuf();
      std::string ParseError;
      std::unique_ptr<Function> F = parseFunction(SS.str(), ParseError);
      if (!F)
        continue; // Parse rejects happen below the pipeline under test.
      std::string Pristine = printFunction(*F);
      Probes.push_back({std::filesystem::path(P).filename().string(),
                        std::move(F), std::move(Pristine)});
    }
  }
  Rng Root(Config.Seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  const unsigned long Gen = std::min<unsigned long>(Config.Runs, 12);
  for (unsigned long I = 0; I != Gen; ++I) {
    std::uint64_t CaseSeed = Root.next();
    Rng R(CaseSeed);
    GeneratorParams P = randomParams(R, CaseSeed, Target);
    std::unique_ptr<Function> F = generateFunction(P, Target);
    std::string Pristine = printFunction(*F);
    Probes.push_back(
        {"gen-" + std::to_string(I), std::move(F), std::move(Pristine)});
  }
  if (Probes.empty()) {
    std::fprintf(stderr, "error: --chaos found no probe inputs\n");
    return 2;
  }

  std::vector<ChaosViolation> Violations;
  std::map<std::string, std::uint64_t> TotalFires;
  unsigned long Saved = 0;
  unsigned long Sweeps = 0;

  auto recordViolation = [&](const std::string &Spec, long ProbeIdx,
                             const std::string &Detail) {
    const std::string Input =
        ProbeIdx < 0 ? "-" : Probes[static_cast<size_t>(ProbeIdx)].Name;
    Violations.push_back({Spec, Input, Detail});
    if (ProbeIdx >= 0 && Saved < Config.MaxSave) {
      saveCorpusFile(Config.CorpusDir,
                     "chaos-fail-" + std::to_string(Config.Seed) + "-" +
                         std::to_string(Violations.size()) + ".ir",
                     "pdgc-fuzz chaos seed=" + std::to_string(Config.Seed) +
                         " plan=" + Spec + " input=" + Input,
                     Probes[static_cast<size_t>(ProbeIdx)].Pristine);
      ++Saved;
    }
  };

  // One sweep: install the plan, run every probe through the batch
  // pipeline, and assert the three chaos invariants — no exception escapes
  // the pipeline, a served assignment passes the independent checker, and
  // a failed item is byte-identical to its pristine text. \p Lead names
  // the allocator heading the fallback chain ("" = the default chain);
  // sweeping different leads is what reaches the per-allocator sites.
  auto sweep = [&](const std::string &Spec, unsigned ItemBudgetMs,
                   const std::string &Lead) {
    ++Sweeps;
    fault::FaultPlan Plan;
    const std::string SpecError = fault::parseFaultSpec(Spec, Plan);
    if (!SpecError.empty()) {
      recordViolation(Spec, -1,
                      "internal: sweep spec did not parse: " + SpecError);
      return;
    }
    std::vector<std::unique_ptr<Function>> Clones;
    std::vector<Function *> Ptrs;
    BatchLimits Limits;
    for (const ChaosProbe &P : Probes) {
      Clones.push_back(cloneFunction(*P.Master));
      Ptrs.push_back(Clones.back().get());
      Limits.Labels.push_back(P.Name);
    }
    DriverOptions Options;
    Options.MaxRounds = 64;
    if (!Lead.empty() && Lead != "spill-everything")
      Options.FallbackChain = {
          {Lead, nullptr}, {"spill-everything", nullptr}};
    else if (Lead == "spill-everything")
      Options.FallbackChain = {{Lead, nullptr}};
    Limits.ItemBudgetMs = ItemBudgetMs != 0 ? ItemBudgetMs : 10000;

    fault::resetSiteCounters();
    fault::installPlan(Plan);
    std::vector<BatchItemResult> Results;
    bool Escaped = false;
    try {
      BatchDriver Driver(Config.Jobs);
      Results = Driver.run(Ptrs, Target, Options, Limits);
    } catch (const std::exception &E) {
      Escaped = true;
      recordViolation(Spec, -1,
                      std::string("exception escaped the batch pipeline: ") +
                          E.what());
    }
    fault::clearPlan();
    for (const fault::SiteInfo &S : fault::siteSnapshot())
      TotalFires[S.Name] += S.Fires;
    if (Escaped)
      return;

    for (size_t I = 0; I != Probes.size(); ++I) {
      if (Results[I].ok()) {
        std::vector<std::string> Errors =
            checkAssignment(*Ptrs[I], Target, Results[I].Out.Assignment);
        if (!Errors.empty())
          recordViolation(Spec, static_cast<long>(I),
                          "checker rejected a served assignment: " +
                              Errors.front());
      } else if (printFunction(*Ptrs[I]) != Probes[I].Pristine) {
        recordViolation(Spec, static_cast<long>(I),
                        "failed item was modified (" +
                            Results[I].S.toString() + ")");
      }
    }
  };

  // Discovery passes: the plan arms every site (hits are only counted
  // while armed) but its pattern matches no site, so nothing fires and
  // every reachable site self-registers with an honest hit count. One
  // pass per registered allocator as chain lead, because the default
  // chain alone never executes the other allocators' phase sites; each
  // site is mapped to the first lead whose pipeline reaches it.
  std::vector<std::string> Sites;
  std::map<std::string, std::string> SiteLead;
  for (const std::string &Lead : registeredAllocatorNames()) {
    sweep("__chaos-discovery__:status@n=1", 0, Lead);
    for (const fault::SiteInfo &S : fault::siteSnapshot())
      if (S.Hits != 0 && SiteLead.find(S.Name) == SiteLead.end()) {
        SiteLead[S.Name] = Lead;
        Sites.push_back(S.Name);
      }
  }
  std::sort(Sites.begin(), Sites.end());
  if (!Config.Quiet)
    std::fprintf(stderr,
                 "pdgc-fuzz --chaos: %zu probes, %zu sites discovered\n",
                 Probes.size(), Sites.size());

  // Targeted sweeps: each site takes a fatal and a structured failure on
  // its first hit, then a bounded stall under a tight per-item deadline
  // (the delay outlives the budget, so the stalled tier must degrade).
  for (const std::string &S : Sites) {
    sweep(S + ":fatal@n=1", 0, SiteLead[S]);
    sweep(S + ":status@n=1", 0, SiteLead[S]);
    sweep(S + ":delay=50@n=1", 20, SiteLead[S]);
  }

  // Total-failure sweeps: every fallback tier dies, so every item must
  // come back failed AND byte-identical (the untouched-on-total-failure
  // contract).
  sweep("fallback.tier:fatal@every=1", 0, "");
  sweep("fallback.tier:status@every=1", 0, "");

  // Probability chaos: plan-wide random faulting, deterministic per seed,
  // over the default chain.
  sweep("*:status@p=3,seed=" + std::to_string(Config.Seed), 0, "");
  sweep("*:fatal@p=2,seed=" + std::to_string(Config.Seed + 1), 0, "");
  sweep("*:delay=5@p=10,seed=" + std::to_string(Config.Seed + 2), 25, "");

  // Coverage gate: every discovered site fired at least once across the
  // sweeps (its own n=1 sweeps reach it on an unperturbed path, so a zero
  // here means the injection machinery itself regressed).
  unsigned long Unfired = 0;
  for (const std::string &S : Sites)
    if (TotalFires[S] == 0) {
      ++Unfired;
      recordViolation("(coverage)", -1,
                      "site " + S + " never fired in any sweep");
    }

  for (const ChaosViolation &V : Violations)
    std::fprintf(stderr, "FAIL chaos plan='%s' input=%s %s\n", V.Plan.c_str(),
                 V.Input.c_str(), V.Detail.c_str());

  std::printf("pdgc-fuzz --chaos: %zu probes, %zu sites, %lu sweeps, "
              "%lu unfired-sites, %zu violations\n",
              Probes.size(), Sites.size(), Sweeps, Unfired,
              Violations.size());
  if (Config.PrintStats)
    std::fputs(StatRegistry::get().snapshot().toText("; stat ").c_str(),
               stdout);
  return Violations.empty() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  FuzzConfig Config;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    unsigned long Value = 0;
    if (Arg.rfind("--runs=", 0) == 0 &&
        parseNumeric(Arg.substr(7), 100000000, Value)) {
      Config.Runs = Value;
    } else if (Arg.rfind("--seed=", 0) == 0 &&
               parseNumeric(Arg.substr(7), 999999999, Value)) {
      Config.Seed = Value;
    } else if (Arg.rfind("--corpus-dir=", 0) == 0) {
      Config.CorpusDir = Arg.substr(13);
    } else if (Arg.rfind("--timeout=", 0) == 0 &&
               parseNumeric(Arg.substr(10), 3600, Value)) {
      Config.TimeoutSecs = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--mutate-percent=", 0) == 0 &&
               parseNumeric(Arg.substr(17), 100, Value)) {
      Config.MutatePercent = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--kill-tier=", 0) == 0) {
      Config.KillTier = Arg.substr(12);
    } else if (Arg.rfind("--reduce-file=", 0) == 0) {
      Config.ReduceFile = Arg.substr(14);
      if (Config.ReduceFile.empty()) {
        std::fprintf(stderr, "error: --reduce-file expects a path\n");
        return 2;
      }
    } else if (Arg.rfind("--max-save=", 0) == 0 &&
               parseNumeric(Arg.substr(11), 10000, Value)) {
      Config.MaxSave = Value;
    } else if (Arg.rfind("--jobs=", 0) == 0 &&
               parseNumeric(Arg.substr(7), 1024, Value)) {
      Config.Jobs = Value == 0 ? ThreadPool::defaultJobs()
                               : static_cast<unsigned>(Value);
    } else if (Arg == "--quiet") {
      Config.Quiet = true;
    } else if (Arg == "--stats") {
      Config.PrintStats = true;
    } else if (Arg == "--chaos") {
      Config.Chaos = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: bad argument '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  if (Config.Chaos)
    return runChaos(Config);
  if (!Config.ReduceFile.empty())
    return runReduceFile(Config);

  registerPDGCAllocators();
  const std::vector<std::string> Allocators = registeredAllocatorNames();

  struct sigaction SA = {};
  SA.sa_handler = onAlarm;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGALRM, &SA, nullptr);

  FuzzStats Stats;
  unsigned long Saved = 0;
  Rng Root(Config.Seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);

  // Shared by both modes: report findings, reduce, and persist them —
  // always on the main thread, in case order.
  auto processFindings = [&](const CaseInput &In,
                             const std::vector<Finding> &Findings) {
    for (const Finding &F : Findings) {
      ++Stats.Failures;
      std::fprintf(stderr, "FAIL case=%lu kind=%s allocator=%s %s\n",
                   In.Index, F.Kind.c_str(), F.Allocator.c_str(),
                   F.Detail.c_str());
      if (Saved < Config.MaxSave && F.Kind != "timeout") {
        std::string Reduced = reduceCase(In.Text, In.Target, Allocators,
                                         Config.KillTier, F.Kind);
        saveCorpusFile(Config.CorpusDir,
                       "fail-" + std::to_string(Config.Seed) + "-" +
                           std::to_string(In.Index) + "-" + F.Kind + ".ir",
                       In.Header + " kind=" + F.Kind, Reduced);
        ++Saved;
      }
    }
  };
  auto progress = [&](unsigned long Done) {
    if (!Config.Quiet && Done % 200 == 0)
      std::fprintf(stderr,
                   "pdgc-fuzz: %lu/%lu cases, %lu allocations, "
                   "%lu parse-rejects, %lu verify-rejects, %lu failures\n",
                   Done, Config.Runs, Stats.Allocations, Stats.ParseRejects,
                   Stats.VerifyRejects, Stats.Failures);
  };

  if (Config.Jobs <= 1) {
    for (unsigned long Case = 0; Case != Config.Runs; ++Case) {
      CaseInput In = makeCase(Case, Root, Config);

      // Write-ahead: if this case hangs or crashes the process, the
      // reproducer is already on disk.
      saveCorpusFile(Config.CorpusDir, "inflight.ir", In.Header, In.Text);

      std::vector<Finding> Findings;
      bool Finished = withAlarmGuard(Config.TimeoutSecs, [&] {
        runCase(In.Text, In.Target, Allocators, Config.KillTier, Stats,
                Findings);
      });
      if (!Finished) {
        ++Stats.Timeouts;
        Findings.push_back({"timeout", "pipeline",
                            "case exceeded " +
                                std::to_string(Config.TimeoutSecs) + "s"});
      }
      ++Stats.Cases;
      processFindings(In, Findings);
      progress(Case + 1);
    }
  } else {
    // Parallel mode: deterministic chunks. Each chunk is generated
    // sequentially (one Root draw per case, same stream as --jobs=1) and
    // written ahead, then the cases run on the pool; stats are merged and
    // findings processed in case order, so output and saved corpus files
    // are reproducible. Runaway cases are bounded by the per-tier
    // wall-clock budget instead of SIGALRM.
    ThreadPool Pool(Config.Jobs);
    const unsigned ChainBudgetMs = Config.TimeoutSecs * 1000;
    const unsigned long ChunkSize = 256;
    for (unsigned long Start = 0; Start < Config.Runs; Start += ChunkSize) {
      const unsigned long N = std::min(ChunkSize, Config.Runs - Start);
      std::vector<CaseInput> Chunk;
      Chunk.reserve(N);
      for (unsigned long I = 0; I != N; ++I) {
        Chunk.push_back(makeCase(Start + I, Root, Config));
        saveCorpusFile(Config.CorpusDir,
                       "inflight-" + std::to_string(Start + I) + ".ir",
                       Chunk.back().Header, Chunk.back().Text);
      }

      std::vector<FuzzStats> CaseStats(N);
      std::vector<std::vector<Finding>> CaseFindings(N);
      Pool.parallelFor(static_cast<unsigned>(N), [&](unsigned I) {
        runCase(Chunk[I].Text, Chunk[I].Target, Allocators, Config.KillTier,
                CaseStats[I], CaseFindings[I], ChainBudgetMs);
      });

      for (unsigned long I = 0; I != N; ++I) {
        Stats += CaseStats[I];
        ++Stats.Cases;
        processFindings(Chunk[I], CaseFindings[I]);
        std::error_code EC;
        std::filesystem::remove(Config.CorpusDir + "/inflight-" +
                                    std::to_string(Chunk[I].Index) + ".ir",
                                EC);
        progress(Start + I + 1);
      }
    }
  }

  std::error_code EC;
  std::filesystem::remove(Config.CorpusDir + "/inflight.ir", EC);

  std::printf("pdgc-fuzz: %lu cases (%lu parse-rejects, %lu verify-rejects), "
              "%lu allocations, %lu budget-stops, %lu tier-failures, "
              "%lu degradations, %lu timeouts, %lu failures\n",
              Stats.Cases, Stats.ParseRejects, Stats.VerifyRejects,
              Stats.Allocations, Stats.BudgetStops, Stats.TierFailures,
              Stats.Degradations, Stats.Timeouts, Stats.Failures);
  if (Config.PrintStats)
    std::fputs(StatRegistry::get().snapshot().toText("; stat ").c_str(),
               stdout);
  return Stats.Failures == 0 ? 0 : 1;
}
