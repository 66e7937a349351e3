//===- tools/pdgc-alloc.cpp - Command-line register allocator -----------------===//
//
// Part of the PDGC project.
//
// Allocates registers for a textual IR function and prints the result.
//
//   pdgc-alloc [options] [input.ir]
//
//   --allocator=NAME   chaitin | briggs+aggressive | iterated |
//                      optimistic | aggressive+volatility |
//                      only-coalescing | full-preferences (default) | ...
//   --regs=N           registers per class, 2 to 32: 16 | 24 (default) |
//                      32 are the paper's models
//   --pairing=RULE     adjacent (default) | oddeven
//   --remat            rematerialize spilled constants
//   --emit-sample=SEED print a generated sample function and exit (useful
//                      for producing fixtures)
//   --batch=DIR        allocate every *.ir file in DIR (sorted by name)
//                      instead of a single input; prints one summary line
//                      per file plus an aggregate
//   --jobs=N           worker threads for --batch (default 1; 0 = one per
//                      hardware thread)
//   --time-budget-ms=N wall-clock budget per fallback tier (0 = unlimited);
//                      enforced cooperatively inside rounds, so a stuck
//                      phase returns BUDGET_EXCEEDED instead of hanging
//   --max-rounds=N     cap on spill rounds per tier
//   --batch-budget-ms=N  one deadline across a whole --batch run; once it
//                      passes, remaining items degrade straight to the
//                      guarantee tier (ignored outside --batch)
//   --manifest=FILE    with --batch, write a JSON manifest with one entry
//                      per input file: label, status (ok | degraded |
//                      failed), served-by tier, error detail, wall-ms.
//                      Files that fail parse/verify appear as "failed"
//   --quiet            print only the summary line(s)
//   --stats            print "; stat" counter lines (deterministic across
//                      --jobs values) and "; timer" phase wall times
//   --trace-json=FILE  write a Chrome trace-event JSON of the run (open in
//                      chrome://tracing or https://ui.perfetto.dev)
//   --report-json=FILE write a machine-readable counters+timers report
//
// Reads from stdin when no input file is given.
//
// The PDGC_FAULTS environment variable installs a deterministic fault plan
// (see support/FaultInjection.h for the grammar); a malformed spec is a
// usage error.
//
// Exit codes (docs/ROBUSTNESS.md):
//   0  every input allocated by the requested allocator
//   2  allocated, but at least one input was served by a fallback tier
//   1  total failure: parse/verify error, or some input got no allocation
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "machine/TargetDesc.h"
#include "regalloc/BatchDriver.h"
#include "regalloc/Driver.h"
#include "sim/CostSimulator.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Tracing.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <sstream>

using namespace pdgc;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: pdgc-alloc [--allocator=NAME] [--regs=2..32] "
      "[--pairing=adjacent|oddeven]\n"
      "                  [--remat] [--quiet] [--no-fallback] "
      "[--emit-sample=SEED]\n"
      "                  [--batch=DIR] [--jobs=N] [--manifest=FILE] "
      "[--stats]\n"
      "                  [--time-budget-ms=N] [--max-rounds=N] "
      "[--batch-budget-ms=N]\n"
      "                  [--trace-json=FILE] [--report-json=FILE] "
      "[input.ir]\n");
}

/// Parses a strictly numeric decimal option value into [\p Min, \p Max].
/// Returns false on garbage or overflow instead of letting std::stoul
/// throw out of main.
bool parseNumericOption(const std::string &Value, unsigned long Min,
                        unsigned long Max, unsigned long &Out) {
  if (Value.empty() || Value.size() > 10)
    return false;
  unsigned long V = 0;
  for (char C : Value) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
  }
  if (V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

/// The observability outputs requested on the command line. `finish` runs
/// on the successful exit paths: it flushes the requested files and prints
/// the stats block, forwarding (or overriding, on I/O failure) the exit
/// code.
struct ObservabilityOptions {
  bool Stats = false;
  std::string TraceJsonPath;
  std::string ReportJsonPath;

  bool any() const {
    return Stats || !TraceJsonPath.empty() || !ReportJsonPath.empty();
  }

  int finish(int ExitCode) const {
    if (!TraceJsonPath.empty()) {
      trace::stop();
      std::string Error;
      if (!trace::writeJson(TraceJsonPath, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        ExitCode = ExitCode ? ExitCode : 1;
      }
    }
    if (!ReportJsonPath.empty()) {
      std::string Error;
      if (!writeObservabilityReport(ReportJsonPath, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        ExitCode = ExitCode ? ExitCode : 1;
      }
    }
    if (Stats) {
      // Counters are sums of relaxed atomic increments, so the "; stat"
      // block is byte-identical for any --jobs value. Timer lines carry
      // wall time and are reported separately: comparable in shape, not
      // in duration.
      std::fputs(StatRegistry::get().snapshot().toText("; stat ").c_str(),
                 stdout);
      std::fputs(timersToText("; timer ").c_str(), stdout);
    }
    return ExitCode;
  }
};

} // namespace

int main(int argc, char **argv) {
  std::string AllocatorName = "full-preferences";
  unsigned Regs = 24;
  PairingRule Pairing = PairingRule::Adjacent;
  bool Remat = false;
  bool Quiet = false;
  bool NoFallback = false;
  long EmitSample = -1;
  std::string BatchDir;
  unsigned Jobs = 1;
  unsigned TimeBudgetMs = 0;
  unsigned MaxRounds = 0; // 0 = keep the DriverOptions default
  unsigned BatchBudgetMs = 0;
  std::string ManifestPath;
  ObservabilityOptions Obs;
  std::string InputPath;

  // A malformed fault plan is a usage error, caught before any work runs.
  {
    std::string FaultError;
    if (!fault::installPlanFromEnv(&FaultError)) {
      std::fprintf(stderr, "error: PDGC_FAULTS: %s\n", FaultError.c_str());
      return 1;
    }
  }

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--allocator=", 0) == 0) {
      AllocatorName = Arg.substr(12);
    } else if (Arg.rfind("--regs=", 0) == 0) {
      unsigned long Value = 0;
      if (!parseNumericOption(Arg.substr(7), MinRegsPerClass, MaxRegsPerClass,
                              Value)) {
        std::fprintf(stderr,
                     "error: --regs expects a number in [%u, %u], got '%s'\n",
                     MinRegsPerClass, MaxRegsPerClass, Arg.substr(7).c_str());
        usage();
        return 1;
      }
      Regs = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--pairing=", 0) == 0) {
      std::string Rule = Arg.substr(10);
      if (Rule == "adjacent")
        Pairing = PairingRule::Adjacent;
      else if (Rule == "oddeven")
        Pairing = PairingRule::OddEven;
      else {
        std::fprintf(stderr, "error: unknown pairing rule '%s'\n",
                     Rule.c_str());
        return 1;
      }
    } else if (Arg.rfind("--batch=", 0) == 0) {
      BatchDir = Arg.substr(8);
      if (BatchDir.empty()) {
        std::fprintf(stderr, "error: --batch expects a directory\n");
        usage();
        return 1;
      }
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      unsigned long Value = 0;
      if (!parseNumericOption(Arg.substr(7), 0, 1024, Value)) {
        std::fprintf(stderr,
                     "error: --jobs expects a number in [0, 1024], got '%s'\n",
                     Arg.substr(7).c_str());
        usage();
        return 1;
      }
      Jobs = Value == 0 ? ThreadPool::defaultJobs()
                        : static_cast<unsigned>(Value);
    } else if (Arg.rfind("--time-budget-ms=", 0) == 0) {
      unsigned long Value = 0;
      if (!parseNumericOption(Arg.substr(17), 0, 3600000, Value)) {
        std::fprintf(stderr,
                     "error: --time-budget-ms expects a number in "
                     "[0, 3600000], got '%s'\n",
                     Arg.substr(17).c_str());
        usage();
        return 1;
      }
      TimeBudgetMs = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--max-rounds=", 0) == 0) {
      unsigned long Value = 0;
      if (!parseNumericOption(Arg.substr(13), 1, 100000, Value)) {
        std::fprintf(stderr,
                     "error: --max-rounds expects a number in [1, 100000], "
                     "got '%s'\n",
                     Arg.substr(13).c_str());
        usage();
        return 1;
      }
      MaxRounds = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--batch-budget-ms=", 0) == 0) {
      unsigned long Value = 0;
      if (!parseNumericOption(Arg.substr(18), 0, 3600000, Value)) {
        std::fprintf(stderr,
                     "error: --batch-budget-ms expects a number in "
                     "[0, 3600000], got '%s'\n",
                     Arg.substr(18).c_str());
        usage();
        return 1;
      }
      BatchBudgetMs = static_cast<unsigned>(Value);
    } else if (Arg.rfind("--manifest=", 0) == 0) {
      ManifestPath = Arg.substr(11);
      if (ManifestPath.empty()) {
        std::fprintf(stderr, "error: --manifest expects a file path\n");
        usage();
        return 1;
      }
    } else if (Arg == "--remat") {
      Remat = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--stats") {
      Obs.Stats = true;
    } else if (Arg.rfind("--trace-json=", 0) == 0) {
      Obs.TraceJsonPath = Arg.substr(13);
      if (Obs.TraceJsonPath.empty()) {
        std::fprintf(stderr, "error: --trace-json expects a file path\n");
        usage();
        return 1;
      }
    } else if (Arg.rfind("--report-json=", 0) == 0) {
      Obs.ReportJsonPath = Arg.substr(14);
      if (Obs.ReportJsonPath.empty()) {
        std::fprintf(stderr, "error: --report-json expects a file path\n");
        usage();
        return 1;
      }
    } else if (Arg == "--no-fallback") {
      NoFallback = true;
    } else if (Arg.rfind("--emit-sample=", 0) == 0) {
      unsigned long Value = 0;
      if (!parseNumericOption(Arg.substr(14), 0, 999999999, Value)) {
        std::fprintf(
            stderr,
            "error: --emit-sample expects a numeric seed, got '%s'\n",
            Arg.substr(14).c_str());
        usage();
        return 1;
      }
      EmitSample = static_cast<long>(Value);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    } else {
      InputPath = Arg;
    }
  }

  if (!ManifestPath.empty() && BatchDir.empty()) {
    std::fprintf(stderr, "error: --manifest requires --batch\n");
    usage();
    return 1;
  }
  TargetDesc Target = makeTarget(Regs, Pairing);

  // Flip the observability machinery on before any allocation work so the
  // first phase is already covered. Tracing implies timers (a trace with
  // no spans would be empty).
  if (Obs.any())
    setTimersEnabled(true);
  if (!Obs.TraceJsonPath.empty())
    trace::start();

  if (!BatchDir.empty()) {
    namespace fs = std::filesystem;
    std::error_code EC;
    if (!fs::is_directory(BatchDir, EC)) {
      std::fprintf(stderr, "error: '%s' is not a directory\n",
                   BatchDir.c_str());
      return 1;
    }

    // Validate the allocator name (and seed the registries) on the main
    // thread before any worker looks them up.
    try {
      ScopedErrorTrap Trap;
      makeAllocatorByName(AllocatorName);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "error: %s\n", E.what());
      return 1;
    }

    std::vector<std::string> Paths;
    for (const fs::directory_entry &Entry : fs::directory_iterator(BatchDir))
      if (Entry.is_regular_file() && Entry.path().extension() == ".ir")
        Paths.push_back(Entry.path().string());
    std::sort(Paths.begin(), Paths.end());
    if (Paths.empty()) {
      std::fprintf(stderr, "error: no .ir files in '%s'\n", BatchDir.c_str());
      return 1;
    }

    // Parse and verify sequentially; only clean functions enter the batch.
    // The manifest keeps one slot per input path, in path order, so
    // pre-batch failures and batch results land in their own rows.
    bool AnyFailed = false;
    std::vector<BatchManifestEntry> Manifest(Paths.size());
    std::vector<std::unique_ptr<Function>> Owned;
    std::vector<Function *> Fns;
    std::vector<unsigned> FnPath; // index into Paths per batch item
    for (unsigned I = 0; I != Paths.size(); ++I) {
      std::ifstream In(Paths[I]);
      std::ostringstream SS;
      SS << In.rdbuf();
      std::string ParseError;
      std::unique_ptr<Function> F = parseFunction(SS.str(), ParseError);
      if (!F) {
        std::printf("%s: error: %s\n", Paths[I].c_str(), ParseError.c_str());
        Manifest[I] = BatchManifestEntry::failed(Paths[I], ParseError);
        AnyFailed = true;
        continue;
      }
      std::vector<std::string> VerifyErrors;
      if (!verifyFunction(*F, VerifyErrors)) {
        std::printf("%s: error: invalid IR: %s\n", Paths[I].c_str(),
                    VerifyErrors.front().c_str());
        Manifest[I] = BatchManifestEntry::failed(
            Paths[I], "invalid IR: " + VerifyErrors.front());
        AnyFailed = true;
        continue;
      }
      Owned.push_back(std::move(F));
      Fns.push_back(Owned.back().get());
      FnPath.push_back(I);
    }

    DriverOptions Options;
    Options.Rematerialize = Remat;
    Options.TimeBudgetMs = TimeBudgetMs;
    if (MaxRounds != 0)
      Options.MaxRounds = MaxRounds;
    if (NoFallback)
      Options.FallbackChain = {
          {AllocatorName, [&] { return makeAllocatorByName(AllocatorName); }}};
    else
      Options.FallbackChain = {
          {AllocatorName, [&] { return makeAllocatorByName(AllocatorName); }},
          {"briggs+aggressive", nullptr},
          {"spill-everything", nullptr}};

    // Degradation warnings come from the batch layer as each item
    // completes (serialized behind its mutex), labelled with the file.
    BatchLimits Limits;
    Limits.BatchBudgetMs = BatchBudgetMs;
    Limits.WarnDegraded = !Quiet;
    for (unsigned I = 0; I != Fns.size(); ++I)
      Limits.Labels.push_back(Paths[FnPath[I]]);

    BatchDriver Driver(Jobs);
    std::vector<BatchItemResult> Results =
        Driver.run(Fns, Target, Options, Limits);

    SimulatedCost TotalCost;
    bool AnyDegraded = false;
    unsigned Succeeded = 0, TotalSpills = 0, TotalEliminated = 0;
    for (unsigned I = 0; I != Results.size(); ++I) {
      const char *Path = Paths[FnPath[I]].c_str();
      Manifest[FnPath[I]] = BatchManifestEntry::fromResult(
          Paths[FnPath[I]], Results[I], AllocatorName);
      if (!Results[I].ok()) {
        std::printf("%s: error: %s\n", Path,
                    Results[I].S.toString().c_str());
        AnyFailed = true;
        continue;
      }
      const AllocationOutcome &Out = Results[I].Out;
      AnyDegraded |= Out.Degradation.Degraded;
      SimulatedCost Cost = simulateCost(*Fns[I], Target, Out.Assignment);
      ++Succeeded;
      TotalSpills += Out.SpillInstructions;
      TotalEliminated += Out.eliminatedMoves();
      TotalCost += Cost;
      if (!Quiet)
        std::printf("%s: served-by=%s rounds=%u spilled=%u spill-insts=%u "
                    "eliminated=%u cost=%.0f\n",
                    Path,
                    Out.Degradation.ServedBy.empty()
                        ? AllocatorName.c_str()
                        : Out.Degradation.ServedBy.c_str(),
                    Out.Rounds, Out.SpilledRanges, Out.SpillInstructions,
                    Out.eliminatedMoves(), Cost.total());
    }
    std::printf("; batch: %u/%zu allocated (jobs=%u) spill-insts=%u "
                "eliminated=%u cost=%.0f\n",
                Succeeded, Paths.size(), Jobs, TotalSpills, TotalEliminated,
                TotalCost.total());
    if (!ManifestPath.empty()) {
      std::string ManifestError;
      if (!writeBatchManifest(ManifestPath, Manifest, &ManifestError)) {
        std::fprintf(stderr, "error: %s\n", ManifestError.c_str());
        return Obs.finish(1);
      }
    }
    (void)AnyFailed;
    (void)AnyDegraded;
    return Obs.finish(batchExitCode(Manifest));
  }

  if (EmitSample >= 0) {
    GeneratorParams P;
    P.Seed = static_cast<std::uint64_t>(EmitSample);
    P.Name = "sample" + std::to_string(EmitSample);
    P.CallPercent = 30;
    P.PairedLoadPercent = 15;
    P.NarrowLoadPercent = 10;
    P.FpPercent = 25;
    std::unique_ptr<Function> F = generateFunction(P, Target);
    std::fputs(printFunction(*F).c_str(), stdout);
    return 0;
  }

  std::string Text;
  if (InputPath.empty()) {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
  } else {
    std::ifstream In(InputPath);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", InputPath.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }

  std::string ParseError;
  std::unique_ptr<Function> F = parseFunction(Text, ParseError);
  if (!F) {
    std::fprintf(stderr, "error: %s\n", ParseError.c_str());
    return 1;
  }
  std::vector<std::string> VerifyErrors;
  if (!verifyFunction(*F, VerifyErrors)) {
    std::fprintf(stderr, "error: invalid IR: %s\n",
                 VerifyErrors.front().c_str());
    return 1;
  }

  std::unique_ptr<AllocatorBase> Allocator;
  try {
    ScopedErrorTrap Trap;
    Allocator = makeAllocatorByName(AllocatorName);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }

  DriverOptions Options;
  Options.Rematerialize = Remat;
  Options.TimeBudgetMs = TimeBudgetMs;
  if (MaxRounds != 0)
    Options.MaxRounds = MaxRounds;
  AllocationOutcome Out;
  if (NoFallback) {
    StatusOr<AllocationOutcome> Result =
        tryAllocate(*F, Target, *Allocator, Options);
    if (!Result.ok()) {
      std::fprintf(stderr, "error: %s\n", Result.status().toString().c_str());
      return 1;
    }
    Out = std::move(Result.value());
  } else {
    // The requested allocator leads the chain; Briggs and the
    // spill-everything baseline stand behind it, so the tool always emits
    // a checker-valid allocation.
    Options.FallbackChain = {
        {AllocatorName, [&] { return makeAllocatorByName(AllocatorName); }},
        {"briggs+aggressive", nullptr},
        {"spill-everything", nullptr}};
    StatusOr<AllocationOutcome> Result =
        allocateWithFallback(*F, Target, Options);
    if (!Result.ok()) {
      std::fprintf(stderr, "error: %s\n", Result.status().toString().c_str());
      return 1;
    }
    Out = std::move(Result.value());
    if (Out.Degradation.Degraded) {
      std::fprintf(stderr, "warning: '%s' failed; allocation served by "
                           "fallback tier %u ('%s')\n",
                   AllocatorName.c_str(), Out.Degradation.TierIndex,
                   Out.Degradation.ServedBy.c_str());
      for (const std::string &Failure : Out.Degradation.FailedTiers)
        std::fprintf(stderr, "warning:   failed tier: %s\n", Failure.c_str());
    }
  }
  SimulatedCost Cost = simulateCost(*F, Target, Out.Assignment);

  // When a fallback tier served the request, label the output with the
  // tier that actually produced the assignment, not the requested one.
  const std::string ServedBy = Out.Degradation.ServedBy.empty()
                                   ? std::string(Allocator->name())
                                   : Out.Degradation.ServedBy;

  if (!Quiet) {
    std::printf("; allocated with %s on %s (%u regs/class)\n",
                ServedBy.c_str(), Target.name().c_str(),
                Target.numRegs(RegClass::GPR));
    std::fputs(printFunction(*F).c_str(), stdout);
    std::printf("\n; assignment:\n");
    for (unsigned V = 0, E = F->numVRegs(); V != E; ++V)
      if (Out.Assignment[V] >= 0)
        std::printf(";   v%-4u -> %s\n", V,
                    Target.regName(static_cast<PhysReg>(Out.Assignment[V]))
                        .c_str());
  }
  std::printf(
      "; %s: rounds=%u spilled=%u spill-insts=%u moves=%u eliminated=%u "
      "cost=%.0f (ops=%.0f moves=%.0f spill=%.0f caller-save=%.0f "
      "callee-save=%.0f fixups=%.0f) pairs=%u/%u\n",
      ServedBy.c_str(), Out.Rounds, Out.SpilledRanges,
      Out.SpillInstructions, Out.OriginalMoves, Out.eliminatedMoves(),
      Cost.total(), Cost.OpCost, Cost.MoveCost, Cost.SpillCost,
      Cost.CallerSaveCost, Cost.CalleeSaveCost, Cost.NarrowFixupCost,
      Cost.FusedPairs, Cost.FusedPairs + Cost.MissedPairs);
  return Obs.finish(Out.Degradation.Degraded ? 2 : 0);
}
