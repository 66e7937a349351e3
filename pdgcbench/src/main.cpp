//===- pdgcbench/src/main.cpp - End-to-end allocator benchmark ------------===//
//
// Part of the PDGC project.
//
// One run of one workload: textual IR in, checker-valid assignment out.
// The run times the workload for --seconds, checks every output against
// the reference allocation and the oracles, and prints `#` lines for
// people followed by one JSON result line (pdgcbench/README.md).
//
//   pdgc-bench --workload=specjvm|mega|serve|serve_isolated --seed=N
//              --seconds=S --trace=0|1 --serve-bin=PATH [--out-dir=DIR]
//              [--commit=ID] [--corrupt-reference]
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error or on a build that is not a Release build.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "HostSpeed.h"
#include "Serve.h"
#include "Workload.h"

#include "core/PDGCRegistration.h"
#include "server/AllocRunner.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

using namespace pdgc;
using namespace pdgcbench;

namespace {

/// The paper's middle-pressure register model, for every workload.
constexpr unsigned RegsPerClass = 24;
/// Closed-loop callers of the served workloads (one compile thread per CPU
/// of a 4-CPU host) against this many daemon workers, so about two
/// requests wait in the admission queue.
constexpr unsigned ServeConnections = 4;
constexpr unsigned ServeWorkers = 2;
/// Set-ups of an untraced run; setup_s is their median.
constexpr unsigned SetupReps = 3;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string ServeBin;
  std::string OutDir; ///< Where the stored result and the spans go.
  std::string Commit = "unknown";
  bool CorruptReference = false;

  bool mega() const { return Workload == "mega"; }
  bool served() const {
    return Workload == "serve" || Workload == "serve_isolated";
  }
};

/// Counts, verdict and metrics of one run.
struct Run {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;
  std::vector<Metric> Metrics;

  void fail(const std::string &What) {
    Correct = false;
    std::printf("# FAIL %s\n", What.c_str());
  }
  void metric(const char *Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

Clock::duration seconds(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

//===----------------------------------------------------------------------===//
// Set-up and checks shared by every workload
//===----------------------------------------------------------------------===//

/// A workload's inputs and their reference allocations.
struct Prepared {
  std::vector<Input> Inputs;
  std::vector<Reference> Refs;
};

/// Work on the benchmark's thread, timed in the thread's CPU time, which
/// leaves out the samples of the CpuSpeedTracker on its CPU (HostSpeed.h).
struct Timed {
  Clock::time_point Start, End;
  double CpuUs;
};

/// Runs \p Work and appends its timing to \p Steps.
template <typename Fn> auto timed(std::vector<Timed> &Steps, Fn &&Work) {
  const Clock::time_point Start = Clock::now();
  const double Cpu = threadCpuUs();
  auto Result = Work();
  const double CpuUs = threadCpuUs() - Cpu;
  Steps.push_back({Start, Clock::now(), CpuUs});
  return Result;
}

/// Seconds \p Steps took at the uncontended speed of the CPU \p Speed
/// tracks.
double uncontendedSeconds(const CpuSpeedTracker &Speed,
                          const std::vector<Timed> &Steps) {
  const double FastestUs = Speed.fastestUs();
  double Us = 0;
  for (const Timed &S : Steps)
    Us += S.CpuUs * Speed.speed(S.Start, S.End, FastestUs);
  return Us / 1e6;
}

/// Generates the inputs and allocates each one's reference, timing those
/// steps into \p Steps. The oracles check each reference as soon as it
/// exists and free its allocated code, so the run never holds two
/// allocated functions at once; they are the benchmark's work, not the
/// set-up's, and are not timed.
bool prepare(const Options &O, const TargetDesc &Target, Prepared &P,
             std::vector<Timed> &Steps, Run &R) {
  const std::vector<GeneratorParams> Profiles =
      workloadProfiles(O.mega(), O.Seed);
  P.Refs.resize(Profiles.size());
  for (std::size_t I = 0; I != Profiles.size(); ++I) {
    P.Inputs.push_back(
        timed(Steps, [&] { return makeInput(Profiles[I], Target); }));
    std::string Error;
    const bool Allocated = timed(Steps, [&] {
      return allocateReference(P.Inputs[I], Target, P.Refs[I], Error);
    });
    if (!Allocated) {
      R.fail("reference allocation: " + P.Inputs[I].Name + ": " + Error);
      return false;
    }
    if (I == 0 && O.CorruptReference)
      corruptReference(P.Refs[I], Target);
    checkReference(P.Inputs[I], P.Refs[I], Target);
  }
  return true;
}

/// Repeated set-ups must agree: the same inputs, allocated the same way.
/// The first set-up is freed before the next is built, so \p First keeps
/// its digests: filled by the first call, compared by the later ones.
void compareSetUp(std::vector<std::uint64_t> &First, const Prepared &P,
                  Run &R) {
  for (std::size_t I = 0; I != P.Inputs.size(); ++I) {
    const std::uint64_t Digest = setUpDigest(P.Inputs[I], P.Refs[I]);
    if (First.size() == I)
      First.push_back(Digest);
    else if (First[I] != Digest)
      R.fail(P.Inputs[I].Name + ": two set-ups disagree");
  }
}

/// What a timed window observed.
struct Window {
  /// At uncontended speed (HostSpeed.h), as is Seconds.
  std::vector<double> LatencyMs;
  std::vector<double> HostLatencyMs; ///< As measured, for people.
  /// What fn_per_s divides by: the sum of the latencies in-process, and
  /// the window's wall time when served.
  double Seconds = 0;
  double HostSeconds = 0; ///< As measured, for people.
  std::uint64_t Degraded = 0;
  std::vector<std::uint64_t> OpsOn;    ///< Timed functions per input.
  std::vector<std::uint64_t> FailedOn; ///< Failed ones per input.

  explicit Window(std::size_t Inputs)
      : OpsOn(Inputs, 0), FailedOn(Inputs, 0) {}

  std::uint64_t failed() const {
    std::uint64_t Sum = 0;
    for (std::uint64_t F : FailedOn)
      Sum += F;
    return Sum;
  }
};

/// An input whose reference failed an oracle, or whose first timed result
/// (in \p FirstTimed, where kept) differs in quality from the reference,
/// fails all its timed functions. Returns the quality summed over one pass
/// of the distinct inputs.
Quality settleWindow(const Prepared &P,
                     const std::vector<std::optional<Quality>> *FirstTimed,
                     Window &W, Run &R) {
  Quality Total;
  for (std::size_t I = 0; I != P.Inputs.size(); ++I) {
    const Reference &Ref = P.Refs[I];
    std::string Why = Ref.Failure;
    if (Why.empty() && FirstTimed && (*FirstTimed)[I] &&
        !(*(*FirstTimed)[I] == Ref.Q))
      Why = "quality differs between repetitions";
    if (!Why.empty()) {
      R.fail(P.Inputs[I].Name + ": " + Why);
      W.FailedOn[I] = W.OpsOn[I];
    }
    Total += Ref.Q;
  }
  return Total;
}

/// The quality metrics come from the workload's committed functions
/// (committedProfiles) whatever the run's seed. Summed over re-drawn
/// inputs they move by several per cent from seed to seed, and a bound
/// that wide would let a real quality loss of that size pass; on fixed
/// inputs they move only when the allocator's decisions do. With seed 0
/// those functions are the first of \p P's inputs; with another seed they
/// are allocated here, untimed, after the peak RSS was read.
Quality committedQuality(const Options &O, const TargetDesc &Target,
                         const Prepared &P, Run &R) {
  const std::vector<GeneratorParams> Profiles = committedProfiles(O.mega());
  Quality Total;
  for (std::size_t I = 0; I != Profiles.size(); ++I) {
    if (O.Seed == 0) {
      Total += P.Refs[I].Q;
      continue;
    }
    const Input In = makeInput(Profiles[I], Target);
    std::unique_ptr<Function> Final;
    const StatusOr<AllocationOutcome> Out =
        allocateText(In.Text, Target, &Final);
    if (!Out.ok()) {
      R.fail(In.Name + " (committed seed): " + Out.status().toString());
      continue;
    }
    Total += measureQuality(*Final, Out.value(), Target);
  }
  return Total;
}

void reportEndToEnd(Run &R, const Window &W, const Quality &Drawn,
                    const Quality &Q, const std::vector<double> &SetupS,
                    double RssMb) {
  const std::uint64_t Ops = W.LatencyMs.size();
  const std::uint64_t Failed = W.failed();
  R.Attempted = Ops;
  R.Failed = Failed;
  if (Failed != 0)
    R.Correct = false;
  const double Share = Ops ? 1.0 / static_cast<double>(Ops) : 0.0;
  std::printf("# window %.3f s, %llu functions, failed_share=%.6f "
              "degraded_share=%.6f, set-ups (s):",
              W.Seconds, static_cast<unsigned long long>(Ops),
              static_cast<double>(Failed) * Share,
              static_cast<double>(W.Degraded) * Share);
  for (double S : SetupS)
    std::printf(" %.3f", S);
  std::printf("\n# as measured on this host: %.1f functions/s, p50 %.4f ms, "
              "p99 %.4f ms\n",
              static_cast<double>(Ops) / W.HostSeconds,
              percentile(W.HostLatencyMs, 50), percentile(W.HostLatencyMs, 99));
  std::printf("# this seed's inputs: sim_cost=%s spill_insts=%u "
              "moves_remaining=%u (the metrics are over the committed "
              "functions)\n",
              formatNumber(Drawn.SimCost).c_str(), Drawn.SpillInsts,
              Drawn.MovesRemaining);
  R.metric("fn_per_s", static_cast<double>(Ops) / W.Seconds, "functions/s");
  R.metric("latency_ms_p50", percentile(W.LatencyMs, 50), "ms");
  R.metric("latency_ms_p99", percentile(W.LatencyMs, 99), "ms");
  R.metric("ok_share", static_cast<double>(Ops - Failed) * Share, "ratio");
  R.metric("first_tier_share", static_cast<double>(Ops - W.Degraded) * Share,
           "ratio");
  R.metric("sim_cost", Q.SimCost, "cost");
  R.metric("spill_insts", Q.SpillInsts, "count");
  R.metric("moves_remaining", Q.MovesRemaining, "count");
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", RssMb, "MB");
}

//===----------------------------------------------------------------------===//
// In-process workloads: specjvm, mega
//===----------------------------------------------------------------------===//

void runInProcess(const Options &O, const TargetDesc &Target, Run &R) {
  // The run stays on one CPU, whose speed a CpuSpeedTracker follows
  // (HostSpeed.h).
  const std::vector<int> Cpus = allowedCpus();
  std::vector<int> Cpu;
  if (!Cpus.empty())
    Cpu.push_back(Cpus.back());
  pinThread(Cpu);
  const CpuSpeedTracker Speed(Cpu);

  Prepared P;
  std::vector<std::vector<Timed>> SetupSteps(SetupReps);
  std::vector<std::uint64_t> First;
  for (std::vector<Timed> &Steps : SetupSteps) {
    P = Prepared(); // No two set-ups exist at once.
    if (!prepare(O, Target, P, Steps, R))
      return;
    compareSetUp(First, P, R);
  }

  const std::size_t N = P.Inputs.size();
  Window W(N);
  // The quality of each input's first timed result, which must equal the
  // reference's; measuring it is not timed.
  std::vector<std::optional<Quality>> FirstTimed(N);
  // Each allocation is scaled once the window is over, by the CPU's speed
  // over all of it: a mega allocation takes a second, in which that speed
  // changes many times.
  std::vector<Timed> Ops;
  const Clock::time_point End = Clock::now() + seconds(O.Seconds);
  // Whole passes only, so every input weighs the same in every metric.
  for (std::size_t I = 0; I != 0 || Clock::now() < End; I = (I + 1) % N) {
    std::unique_ptr<Function> Final;
    StatusOr<AllocationOutcome> Out = timed(
        Ops, [&] { return allocateText(P.Inputs[I].Text, Target, &Final); });
    const double HostUs = microsBetween(Ops.back().Start, Ops.back().End);
    W.HostLatencyMs.push_back(HostUs / 1000);
    W.HostSeconds += HostUs / 1e6;
    ++W.OpsOn[I];
    if (!Out.ok() || !sameDecisions(Out.value(), P.Refs[I].Out)) {
      if (W.FailedOn[I]++ == 0)
        R.fail(P.Inputs[I].Name + ": " +
               (Out.ok() ? std::string("timed allocation differs from the "
                                       "reference")
                         : Out.status().toString()));
      continue;
    }
    W.Degraded += Out.value().Degradation.Degraded;
    if (!FirstTimed[I])
      FirstTimed[I] = measureQuality(*Final, Out.value(), Target);
  }
  // Set-ups and window on one scale: the CPU's fastest over the whole run.
  const double FastestUs = Speed.fastestUs();
  for (const Timed &Op : Ops) {
    W.LatencyMs.push_back(
        Op.CpuUs * Speed.speed(Op.Start, Op.End, FastestUs) / 1000);
    W.Seconds += W.LatencyMs.back() / 1000;
  }
  std::vector<double> SetupS;
  for (const std::vector<Timed> &Steps : SetupSteps)
    SetupS.push_back(uncontendedSeconds(Speed, Steps));
  const Quality Drawn = settleWindow(P, &FirstTimed, W, R);
  const double RssMb = selfPeakRssMb();
  reportEndToEnd(R, W, Drawn, committedQuality(O, Target, P, R), SetupS,
                 RssMb);
}

/// Counts summed over the first traced pass of the distinct inputs.
struct PassCounts {
  double InstsIn = 0, InstsOut = 0, IgEdges = 0, RpgPrefs = 0, CpgEdges = 0;
  double Rounds = 0, SpilledRanges = 0;
  double FirstRoundInsts = 0, LastRoundInsts = 0;
};

/// Everything a traced run gathers.
struct Traced {
  SpanLog Replica; ///< In-process layer calls.
  SpanLog Client;  ///< Served requests as their callers saw them.
  std::vector<RoundTrace> Rounds;
  PassCounts Counts;
  bool Counted = false;
  unsigned Replays = 0;
  unsigned Matched = 0;
  std::vector<double> TracedPassUs, UntracedPassUs;
};

/// The replica over every input, checked against the references once the
/// pass is timed. With \p Log null the pass records no spans: the untraced
/// twin of a traced pass, for the tracing overhead.
void replicaPass(const Prepared &P, const TargetDesc &Target, SpanLog *Log,
                 Traced &T, Run &R) {
  std::vector<ReplicaResult> Results;
  Results.reserve(P.Inputs.size());
  const Clock::time_point Start = Clock::now();
  for (const Input &In : P.Inputs)
    Results.push_back(replayAllocation(In.Text, Target, Log));
  (Log ? T.TracedPassUs : T.UntracedPassUs)
      .push_back(microsBetween(Start, Clock::now()));

  for (std::size_t I = 0; I != Results.size(); ++I) {
    const ReplicaResult &RR = Results[I];
    const AllocationOutcome &Ref = P.Refs[I].Out;
    ++T.Replays;
    if (RR.Ok && RR.Assignment == Ref.Assignment && RR.Rounds == Ref.Rounds &&
        RR.SpilledRanges == Ref.SpilledRanges)
      ++T.Matched;
    else
      R.fail(P.Inputs[I].Name + ": replica " +
             (RR.Ok ? std::string("differs from allocateWithFallback")
                    : RR.Error));
    if (!Log)
      continue;
    T.Rounds.insert(T.Rounds.end(), RR.PerRound.begin(), RR.PerRound.end());
    if (T.Counted || RR.PerRound.empty())
      continue;
    PassCounts &C = T.Counts;
    C.InstsIn += RR.InstsIn;
    C.InstsOut += RR.InstsOut;
    C.IgEdges += static_cast<double>(RR.IgEdges);
    C.RpgPrefs += static_cast<double>(RR.RpgPrefs);
    C.CpgEdges += static_cast<double>(RR.CpgEdges);
    C.Rounds += RR.Rounds;
    C.SpilledRanges += RR.SpilledRanges;
    C.FirstRoundInsts += RR.PerRound.front().Insts;
    C.LastRoundInsts += RR.PerRound.back().Insts;
  }
  if (Log)
    T.Counted = true;
}

/// Prints each row's share of \p WallUs and the unattributed rest; returns
/// the rest's share.
double printShares(const char *Title,
                   const std::vector<std::pair<const char *, double>> &Rows,
                   double WallUs) {
  std::printf("# %s: traced wall %.3f ms\n", Title, WallUs / 1000);
  double Attributed = 0;
  for (const auto &[Name, Us] : Rows) {
    std::printf("#   %-24s %14.1f us %7.2f%%\n", Name, Us, 100 * Us / WallUs);
    Attributed += Us;
  }
  const double Rest = WallUs - Attributed;
  std::printf("#   %-24s %14.1f us %7.2f%%\n", "unattributed", Rest,
              100 * Rest / WallUs);
  return WallUs > 0 ? Rest / WallUs : 0;
}

/// Analysis cost per spill round: tells whether warm rebuilds cost more
/// per call only because later rounds work on a larger function.
void printRounds(const std::vector<RoundTrace> &Rounds) {
  std::map<unsigned, std::vector<const RoundTrace *>> ByIndex;
  for (const RoundTrace &RT : Rounds)
    ByIndex[RT.Index].push_back(&RT);
  std::printf("# round  calls   vregs   insts  analysis_us  ns/inst  "
              "(medians)\n");
  for (const auto &[Index, List] : ByIndex) {
    std::vector<double> VRegs, Insts, Us, PerInst;
    for (const RoundTrace *RT : List) {
      VRegs.push_back(RT->VRegs);
      Insts.push_back(RT->Insts);
      Us.push_back(RT->AnalysisUs);
      PerInst.push_back(RT->AnalysisUs * 1000 / RT->Insts);
    }
    std::printf("# %5u %6zu %7.0f %7.0f %12.1f %8.2f  %s\n", Index + 1,
                List.size(), median(VRegs), median(Insts), median(Us),
                median(PerInst), Index == 0 ? "cold build" : "warm refresh");
  }
}

/// The replica's layer spans, in pipeline order.
const char *const ReplicaLayers[] = {
    "ir.parse",          "ir.verify",             "ir.clone",
    "ir.phi_elim",       "analysis.build",        "analysis.refresh",
    "regalloc.simplify", "core.rpg_build",        "core.cpg_build",
    "core.round",        "regalloc.spill_insert", "regalloc.checker"};

/// The in-process layer metrics; returns the replica's unattributed share.
double reportReplicaLayers(const Traced &T, Run &R) {
  const SpanLog &Log = T.Replica;
  auto Med = [&](const char *Name) { return median(Log.durations(Name)); };
  const PassCounts &C = T.Counts;
  std::printf("# replica matches allocateWithFallback on %u of %u replays\n",
              T.Matched, T.Replays);
  R.metric("ir.parse_us", Med("ir.parse"), "us");
  R.metric("ir.verify_us", Med("ir.verify"), "us");
  R.metric("ir.clone_us", Med("ir.clone"), "us");
  R.metric("ir.phi_elim_us", Med("ir.phi_elim"), "us");
  R.metric("ir.insts_in", C.InstsIn, "count");
  R.metric("ir.insts_out", C.InstsOut, "count");
  R.metric("analysis.build_us", Med("analysis.build"), "us");
  R.metric("analysis.refresh_us", Med("analysis.refresh"), "us");
  R.metric("analysis.ig_edges", C.IgEdges, "count");
  std::vector<double> Cold, Warm;
  for (const RoundTrace &RT : T.Rounds)
    (RT.Index == 0 ? Cold : Warm).push_back(RT.AnalysisUs * 1000 / RT.Insts);
  R.metric("analysis.build_ns_per_inst", median(Cold), "ns/inst");
  R.metric("analysis.refresh_ns_per_inst", median(Warm), "ns/inst");
  R.metric("analysis.round_insts_growth",
           C.FirstRoundInsts ? C.LastRoundInsts / C.FirstRoundInsts : 0,
           "ratio");
  R.metric("regalloc.simplify_us", Med("regalloc.simplify"), "us");
  R.metric("regalloc.spill_insert_us", Med("regalloc.spill_insert"), "us");
  R.metric("regalloc.checker_us", Med("regalloc.checker"), "us");
  R.metric("regalloc.rounds", C.Rounds, "count");
  R.metric("regalloc.spilled_ranges", C.SpilledRanges, "count");
  R.metric("core.rpg_build_us", Med("core.rpg_build"), "us");
  R.metric("core.rpg_prefs", C.RpgPrefs, "count");
  R.metric("core.cpg_build_us", Med("core.cpg_build"), "us");
  R.metric("core.cpg_edges", C.CpgEdges, "count");
  R.metric("core.round_us", Med("core.round"), "us");
  // Select is what allocateRound spends beyond its own simplify, RPG and
  // CPG builds, which the replica timed just before it on the same round.
  const std::vector<double> Round = Log.durations("core.round"),
                            Simplify = Log.durations("regalloc.simplify"),
                            Rpg = Log.durations("core.rpg_build"),
                            Cpg = Log.durations("core.cpg_build");
  std::vector<double> Select;
  double SelectUs = 0;
  for (std::size_t K = 0; K != Round.size() && K != Simplify.size() &&
                          K != Rpg.size() && K != Cpg.size();
       ++K) {
    Select.push_back(Round[K] - Simplify[K] - Rpg[K] - Cpg[K]);
    SelectUs += Select.back();
  }
  R.metric("core.select_us", median(Select), "us");

  printRounds(T.Rounds);
  double WallUs = 0;
  for (double Us : T.TracedPassUs)
    WallUs += Us;
  std::vector<std::pair<const char *, double>> Rows;
  for (const char *Name : ReplicaLayers)
    Rows.push_back({Name, Log.totalUs(Name)});
  const double Unattributed = printShares("replica layers", Rows, WallUs);
  std::printf("#   (core.round holds select, %.1f us = %.2f%%, and a second "
              "simplify, RPG and CPG build)\n",
              SelectUs, 100 * SelectUs / WallUs);
  return Unattributed;
}

/// The server and worker layers do not run in-process: they report 0.
void reportBypassedServer(Run &R) {
  for (const char *Name :
       {"server.queue_us_p50", "server.queue_us_p99", "server.exec_us_p50",
        "server.alloc_us_p50", "server.transport_us_p50", "server.codec_us",
        "worker.overhead_us_p50"})
    R.metric(Name, 0, "us");
  R.metric("server.bytes_in", 0, "bytes");
  R.metric("server.bytes_out", 0, "bytes");
  for (const char *Name : {"server.shed", "server.transport_errors",
                           "worker.spawns", "worker.respawns",
                           "worker.crashes"})
    R.metric(Name, 0, "count");
}

void traceInProcess(const Options &O, const TargetDesc &Target, Run &R,
                    Traced &T) {
  Prepared P;
  std::vector<Timed> SetupSteps;
  if (!prepare(O, Target, P, SetupSteps, R))
    return;
  const Clock::time_point Start = Clock::now();
  do {
    replicaPass(P, Target, nullptr, T, R);
    replicaPass(P, Target, &T.Replica, T, R);
  } while (secondsSince(Start) < O.Seconds);
  Window W(P.Inputs.size());
  settleWindow(P, nullptr, W, R);
  R.Attempted = T.Replays;
  R.Failed = T.Replays - T.Matched;

  const double Unattributed = reportReplicaLayers(T, R);
  // Both passes make the same calls, so the difference is what recording
  // the spans costs.
  const double OverheadUs =
      (median(T.TracedPassUs) - median(T.UntracedPassUs)) /
      static_cast<double>(P.Inputs.size());
  std::printf("# tracing overhead: %.1f us per function (replica pass "
              "traced %.3f ms, untraced %.3f ms; medians of %zu)\n",
              OverheadUs, median(T.TracedPassUs) / 1000,
              median(T.UntracedPassUs) / 1000, T.TracedPassUs.size());
  R.metric("trace.overhead_us_per_fn", OverheadUs, "us");
  R.metric("trace.unattributed_share", Unattributed, "ratio");
  reportBypassedServer(R);
}

//===----------------------------------------------------------------------===//
// Served workloads: serve, serve_isolated
//===----------------------------------------------------------------------===//

/// One served request as its caller saw it.
struct Call {
  std::size_t Input = 0;
  std::size_t BytesOut = 0; ///< Request payload, to validate the join.
  Clock::time_point Sent;   ///< Before serializing.
  double RttUs = 0;         ///< Serialize to parsed response.
  double WireUs = 0;        ///< Frame written to response frame read.
  double CodecUs = 0;       ///< Client serialize plus parse.
  bool InWindow = false;
  bool Traced = false;
  bool Ok = false;
  bool Degraded = false;
};

/// A closed-loop caller: one persistent connection and what it sent.
struct Caller {
  Connection Conn;
  std::vector<Call> Calls;
  double TracedUs = 0; ///< Wall time of its traced part of the window.
};

/// A daemon, its callers, and the workload they send.
struct Service {
  Prepared P;
  std::vector<server::Request> Requests;
  std::unique_ptr<Daemon> D;
  std::vector<std::unique_ptr<Caller>> Callers;
  /// The daemon's CPUs' speed, from just before its start on.
  std::unique_ptr<CpuSpeedTracker> Speed;
};

/// Where the served workloads run. The daemon gets ServeWorkers CPUs of
/// its own, whose speed a CpuSpeedTracker follows (HostSpeed.h), since
/// the allocations run there and not on a thread of the benchmark; the
/// callers run on the other CPUs, or share the daemon's when there are
/// none, and the set-up's in-process part on the last of them.
struct CpuPlan {
  std::vector<int> Daemon, Callers, Main;

  CpuPlan() {
    const std::vector<int> All = allowedCpus();
    const std::size_t N = std::min<std::size_t>(ServeWorkers, All.size());
    Daemon.assign(All.begin(), All.begin() + N);
    Callers.assign(All.begin() + N, All.end());
    if (Callers.empty())
      Callers = Daemon;
    if (!Callers.empty())
      Main.push_back(Callers.back());
  }
};

/// Served time over [\p From, \p From + \p HostUs] at the uncontended
/// speed of the daemon's CPUs, which \p Speed tracks. Which CPU served a
/// request is unknown and each CPU's speed flips within milliseconds, so
/// the speed is averaged over both CPUs and 50 ms on either side.
double servedUncontendedUs(const CpuSpeedTracker &Speed, double FastestUs,
                           Clock::time_point From, double HostUs) {
  const Clock::duration Margin = std::chrono::milliseconds(50);
  const Clock::time_point To =
      From + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(HostUs));
  return HostUs * Speed.speed(From - Margin, To + Margin, FastestUs);
}

std::vector<std::string> daemonArgs(const Options &O) {
  // Room in the flight recorder for every request of a run at rates well
  // above today's, so /requests covers the whole window.
  const unsigned long Records =
      static_cast<unsigned long>(O.Seconds * 5000) + 4096;
  std::vector<std::string> Args = {
      "--port=0", "--workers=" + std::to_string(ServeWorkers),
      "--regs=" + std::to_string(RegsPerClass),
      "--flight-records=" + std::to_string(Records),
      // /requests must fit in one body, which the frame cap bounds.
      "--max-frame-bytes=" + std::to_string(64u << 20)};
  if (O.Workload == "serve_isolated")
    Args.push_back("--isolate-workers=" + std::to_string(ServeWorkers));
  return Args;
}

/// Sends input \p I from \p C and checks the answer against the reference.
bool issue(Caller &C, std::size_t I, const Service &S, bool InWindow,
           SpanLog *Log, unsigned Lane, std::string &Why) {
  Call K;
  K.Input = I;
  K.InWindow = InWindow;
  K.Traced = Log != nullptr;
  server::Response Resp;
  Connection::Timing T;
  const bool Sent = C.Conn.call(S.Requests[I], Resp, T);
  K.BytesOut = T.BytesOut;
  K.Sent = T.Start;
  K.RttUs = microsBetween(T.Start, T.Parsed);
  K.WireUs = microsBetween(T.Serialized, T.Received);
  K.CodecUs = microsBetween(T.Start, T.Serialized) +
              microsBetween(T.Received, T.Parsed);
  if (Log) {
    const std::uint64_t Id = Log->newId();
    Log->add("client.serialize", T.Start, T.Serialized, Log->newId(), Id,
             Lane);
    Log->add("client.wire", T.Serialized, T.Received, Log->newId(), Id, Lane);
    Log->add("client.parse", T.Received, T.Parsed, Log->newId(), Id, Lane);
    Log->add("client.request", T.Start, T.Parsed, Id, 0, Lane);
  }
  const Reference &Ref = S.P.Refs[I];
  const server::ResponseStatus Want = Ref.Out.Degradation.Degraded
                                          ? server::ResponseStatus::Degraded
                                          : server::ResponseStatus::Ok;
  if (!Sent)
    Why = "transport error";
  else if (Resp.Status != Want)
    Why = std::string("status ") + server::responseStatusName(Resp.Status) +
          ": " + Resp.Error;
  else if (Resp.Body != Ref.WireBody)
    Why = "served assignment differs from the in-process allocation";
  else if (Resp.Rounds != Ref.Out.Rounds)
    Why = "served round count differs from the in-process allocation";
  K.Ok = Why.empty();
  K.Degraded = Sent && Resp.Status == server::ResponseStatus::Degraded;
  C.Calls.push_back(K);
  return K.Ok;
}

/// Set-up of a served workload: inputs, references, daemon, connections,
/// and one warm-up pass over the inputs. A wrong warm-up answer fails the
/// run; only a lost connection ends the set-up. prepare's steps are timed
/// into \p Steps, and \p DaemonS receives the time of the rest, which runs
/// mostly in the daemon, at the uncontended speed of the daemon's CPUs.
bool setUpService(const Options &O, const TargetDesc &Target,
                  const CpuPlan &Cpus, Service &S, std::vector<Timed> &Steps,
                  double &DaemonS, Run &R) {
  if (!prepare(O, Target, S.P, Steps, R))
    return false;
  S.Speed = std::make_unique<CpuSpeedTracker>(Cpus.Daemon);
  const Clock::time_point Start = Clock::now();
  for (const Input &In : S.P.Inputs) {
    server::Request Req;
    Req.Type = server::RequestType::Alloc;
    Req.Body = In.Text;
    S.Requests.push_back(std::move(Req));
  }
  S.D = std::make_unique<Daemon>();
  std::string Error;
  pinThread(Cpus.Daemon); // The daemon and its workers inherit this.
  const bool Started = S.D->start(O.ServeBin, daemonArgs(O), Error);
  pinThread(Cpus.Main);
  if (!Started) {
    R.fail("pdgc-serve start: " + Error);
    return false;
  }
  for (unsigned C = 0; C != ServeConnections; ++C) {
    S.Callers.push_back(std::make_unique<Caller>());
    if (!S.Callers.back()->Conn.open(S.D->port())) {
      R.fail("cannot connect to pdgc-serve");
      return false;
    }
  }
  for (std::size_t I = 0; I != S.Requests.size(); ++I) {
    Caller &C = *S.Callers[I % ServeConnections];
    std::string Why;
    if (!issue(C, I, S, false, nullptr, 0, Why))
      R.fail(S.P.Inputs[I].Name + " (warm-up): " + Why);
    if (!C.Conn.connected())
      return false;
  }
  DaemonS = secondsSince(Start) * S.Speed->speed(Start, Clock::now());
  return true;
}

/// Closes the callers and drains the daemon; an unclean drain fails the
/// run.
void tearDown(Service &S, Run &R) {
  for (const std::unique_ptr<Caller> &C : S.Callers)
    C->Conn.close();
  std::string Error;
  if (S.D && !S.D->stop(Error))
    R.fail("pdgc-serve drain: " + Error);
}

/// The served layers of a traced run: each windowed call joined with the
/// daemon's flight record of it, then executeAllocRequest, the protocol
/// codec and the replica timed in-process on the same bodies.
void reportServeLayers(const Service &S, const Window &W,
                       const std::string &Metrics,
                       const std::string &RequestsJson,
                       const TargetDesc &Target, Traced &T, Run &R) {
  // Per connection, the flight records in id order are the calls in send
  // order (closed loop); aligning from the newest survives a wrapped ring.
  std::map<unsigned, std::vector<FlightRow>> ByPort;
  for (FlightRow &Row : parseFlightRows(RequestsJson))
    if (Row.Kind == "alloc")
      ByPort[Row.PeerPort].push_back(std::move(Row));
  std::vector<double> Queue, Exec, Transport, BytesIn, BytesOut, TracedRtt,
      UntracedRtt;
  double WallUs = 0, CodecUs = 0, QueueUs = 0, ExecUs = 0, TransportUs = 0;
  std::size_t Joined = 0, Mismatched = 0;
  for (const std::unique_ptr<Caller> &C : S.Callers) {
    WallUs += C->TracedUs;
    for (const Call &K : C->Calls)
      if (K.InWindow)
        (K.Traced ? TracedRtt : UntracedRtt).push_back(K.RttUs);
    std::vector<FlightRow> &Rows = ByPort[C->Conn.localPort()];
    std::sort(Rows.begin(), Rows.end(),
              [](const FlightRow &A, const FlightRow &B) {
                return A.Id < B.Id;
              });
    const std::size_t Span = std::min(Rows.size(), C->Calls.size());
    for (std::size_t J = 0; J != Span; ++J) {
      const Call &K = C->Calls[C->Calls.size() - Span + J];
      const FlightRow &Row = Rows[Rows.size() - Span + J];
      if (!K.InWindow)
        continue;
      if (Row.BytesIn != static_cast<double>(K.BytesOut)) {
        ++Mismatched;
        continue;
      }
      ++Joined;
      const double Exe = Row.WallUs - Row.QueueUs;
      const double Wire = K.WireUs - Row.WallUs;
      Queue.push_back(Row.QueueUs);
      Exec.push_back(Exe);
      Transport.push_back(Wire);
      BytesIn.push_back(Row.BytesIn);
      BytesOut.push_back(Row.BytesOut);
      if (K.Traced) {
        CodecUs += K.CodecUs;
        QueueUs += Row.QueueUs;
        ExecUs += Exe;
        TransportUs += Wire;
      }
    }
  }
  std::printf("# joined %zu of %zu windowed requests with their /requests "
              "records (%zu did not match)\n",
              Joined, W.LatencyMs.size(), Mismatched);
  if (Joined == 0)
    R.fail("no request joined with the daemon's flight recorder");

  // The same bodies in-process.
  replicaPass(S.P, Target, &T.Replica, T, R);
  server::AllocEnv Env;
  Env.Regs = RegsPerClass;
  std::vector<double> AllocUs, CodecPassUs;
  for (std::size_t I = 0; I != S.Requests.size(); ++I) {
    const server::Request &Req = S.Requests[I];
    Clock::time_point T0 = Clock::now();
    const server::Response Resp = server::executeAllocRequest(Req, Env);
    AllocUs.push_back(microsBetween(T0, Clock::now()));
    if (Resp.Body != S.P.Refs[I].WireBody)
      R.fail(S.P.Inputs[I].Name +
             ": executeAllocRequest differs from the in-process allocation");
    server::Request ReqBack;
    server::Response RespBack;
    std::string CodecError;
    T0 = Clock::now();
    const bool RoundTrip =
        server::parseRequest(server::serializeRequest(Req), ReqBack,
                             CodecError) &&
        server::parseResponse(server::serializeResponse(Resp), RespBack,
                              CodecError);
    CodecPassUs.push_back(microsBetween(T0, Clock::now()));
    if (!RoundTrip || ReqBack.Body != Req.Body || RespBack.Body != Resp.Body)
      R.fail(S.P.Inputs[I].Name + ": the codec round trip changed a message");
  }

  const double ExecP50 = median(Exec), AllocP50 = median(AllocUs);
  R.metric("server.queue_us_p50", percentile(Queue, 50), "us");
  R.metric("server.queue_us_p99", percentile(Queue, 99), "us");
  R.metric("server.exec_us_p50", ExecP50, "us");
  R.metric("server.alloc_us_p50", AllocP50, "us");
  R.metric("server.transport_us_p50", median(Transport), "us");
  R.metric("server.codec_us", median(CodecPassUs), "us");
  R.metric("server.bytes_in", median(BytesIn), "bytes");
  R.metric("server.bytes_out", median(BytesOut), "bytes");
  R.metric("server.shed", statCounter(Metrics, "server.shed"), "count");
  R.metric("server.transport_errors",
           statCounter(Metrics, "server.transport_errors"), "count");
  R.metric("worker.overhead_us_p50", ExecP50 - AllocP50, "us");
  R.metric("worker.spawns", statCounter(Metrics, "worker.spawns"), "count");
  R.metric("worker.respawns", statCounter(Metrics, "worker.respawns"),
           "count");
  R.metric("worker.crashes", statCounter(Metrics, "worker.crashes"), "count");

  const double Unattributed =
      printShares("served path, traced half of the window, all connections",
                  {{"client.codec", CodecUs},
                   {"server.queue", QueueUs},
                   {"server.exec", ExecUs},
                   {"transport", TransportUs}},
                  WallUs);
  reportReplicaLayers(T, R);
  const double OverheadUs = median(TracedRtt) - median(UntracedRtt);
  std::printf("# tracing overhead: %.1f us per request (median round trip "
              "traced %.1f us, untraced %.1f us)\n",
              OverheadUs, median(TracedRtt), median(UntracedRtt));
  R.metric("trace.overhead_us_per_fn", OverheadUs, "us");
  R.metric("trace.unattributed_share", Unattributed, "ratio");
  R.Attempted = W.LatencyMs.size() + T.Replays;
  R.Failed = W.failed() + (T.Replays - T.Matched);
}

void runServe(const Options &O, const TargetDesc &Target, Run &R,
              Traced *T) {
  Service S;
  std::vector<double> SetupS;
  std::vector<std::uint64_t> First;
  const CpuPlan Cpus;
  pinThread(Cpus.Main);
  {
    const CpuSpeedTracker MainSpeed(Cpus.Main);
    std::vector<std::vector<Timed>> Steps(T ? 1 : SetupReps);
    for (std::vector<Timed> &Prepare : Steps) {
      tearDown(S, R);
      S = Service(); // No two set-ups exist at once.
      SetupS.push_back(0);
      if (!setUpService(O, Target, Cpus, S, Prepare, SetupS.back(), R)) {
        tearDown(S, R);
        return;
      }
      compareSetUp(First, S.P, R);
    }
    // The set-ups' in-process parts on one scale: the fastest of them all.
    for (std::size_t Rep = 0; Rep != Steps.size(); ++Rep)
      SetupS[Rep] += uncontendedSeconds(MainSpeed, Steps[Rep]);
  }

  const std::size_t N = S.Requests.size();
  std::atomic<std::size_t> NextInput{0};
  std::vector<std::string> Errors(ServeConnections);
  const Clock::time_point Start = Clock::now();
  const Clock::time_point End = Start + seconds(O.Seconds);
  // A traced run traces the second half of its window; the first half is
  // the untraced twin the tracing overhead is measured against.
  const Clock::time_point TraceFrom =
      T ? Start + seconds(O.Seconds / 2) : End;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != ServeConnections; ++C)
    Threads.emplace_back([&, C] {
      pinThread(Cpus.Callers);
      Caller &Me = *S.Callers[C];
      Clock::time_point TracedSince;
      bool Tracing = false;
      while (Me.Conn.connected()) {
        const Clock::time_point Now = Clock::now();
        if (Now >= End)
          break;
        if (!Tracing && Now >= TraceFrom) {
          Tracing = true;
          TracedSince = Now;
        }
        const std::size_t I = NextInput.fetch_add(1) % N;
        std::string Why;
        if (!issue(Me, I, S, true, Tracing ? &T->Client : nullptr, C + 1,
                   Why) &&
            Errors[C].empty())
          Errors[C] = S.P.Inputs[I].Name + ": " + Why;
      }
      if (Tracing)
        Me.TracedUs = microsBetween(TracedSince, Clock::now());
    });
  for (std::thread &Th : Threads)
    Th.join();

  Window W(N);
  W.HostSeconds = secondsSince(Start);
  const double FastestUs = S.Speed->fastestUs();
  W.Seconds = W.HostSeconds * S.Speed->speed(Start, Clock::now(), FastestUs);
  for (const std::unique_ptr<Caller> &C : S.Callers)
    for (const Call &K : C->Calls)
      if (K.InWindow) {
        W.LatencyMs.push_back(
            servedUncontendedUs(*S.Speed, FastestUs, K.Sent, K.RttUs) / 1000);
        W.HostLatencyMs.push_back(K.RttUs / 1000);
        ++W.OpsOn[K.Input];
        W.FailedOn[K.Input] += !K.Ok;
        W.Degraded += K.Degraded;
      }
  for (const std::string &E : Errors)
    if (!E.empty())
      R.fail(E);

  // After the window: scrape, read memory, then drain.
  std::string Metrics, Requests;
  if (httpGet(S.D->port(), "/metrics", Metrics) != 200)
    R.fail("GET /metrics failed");
  const double Shed = statCounter(Metrics, "server.shed");
  const double Lost = statCounter(Metrics, "server.transport_errors");
  if (Shed != 0 || Lost != 0)
    R.fail("pdgc-serve shed " + formatNumber(Shed) + " requests and counted " +
           formatNumber(Lost) + " transport errors");
  if (T && httpGet(S.D->port(), "/requests?n=1000000", Requests) != 200)
    R.fail("GET /requests failed");
  const std::vector<int> Workers = childPids(S.D->pid());
  double RssMb = std::max(0.0, procPeakRssMb(S.D->pid()));
  for (int Pid : Workers)
    RssMb += std::max(0.0, procPeakRssMb(Pid));
  std::printf("# pdgc-serve with %zu worker processes: peak RSS %.1f MB\n",
              Workers.size(), RssMb);
  tearDown(S, R);
  for (int Pid : Workers) {
    for (int Tries = 0; Tries != 200 && processAlive(Pid); ++Tries)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (processAlive(Pid)) {
      R.fail("worker process " + std::to_string(Pid) +
             " outlived pdgc-serve");
      ::kill(Pid, SIGKILL);
    }
  }

  const Quality Drawn = settleWindow(S.P, nullptr, W, R);
  if (T)
    reportServeLayers(S, W, Metrics, Requests, Target, *T, R);
  else
    reportEndToEnd(R, W, Drawn, committedQuality(O, Target, S.P, R), SetupS,
                   RssMb);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const std::size_t Eq = Arg.find('=');
    const std::string Key = Arg.substr(0, Eq);
    const std::string Value =
        Eq == std::string::npos ? std::string() : Arg.substr(Eq + 1);
    if (Key == "--workload")
      O.Workload = Value;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Key == "--trace")
      O.Trace = Value == "1";
    else if (Key == "--serve-bin")
      O.ServeBin = Value;
    else if (Key == "--out-dir")
      O.OutDir = Value;
    else if (Key == "--commit")
      O.Commit = Value;
    else if (Arg == "--corrupt-reference")
      O.CorruptReference = true;
    else {
      std::fprintf(stderr, "pdgc-bench: unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  if (O.Workload != "specjvm" && !O.mega() && !O.served()) {
    std::fprintf(stderr, "pdgc-bench: --workload must be specjvm, mega, "
                         "serve or serve_isolated\n");
    return false;
  }
  if (!(O.Seconds > 0)) {
    std::fprintf(stderr, "pdgc-bench: --seconds must be positive\n");
    return false;
  }
  if (O.served() && O.ServeBin.empty()) {
    std::fprintf(stderr, "pdgc-bench: --serve-bin names pdgc-serve\n");
    return false;
  }
  return true;
}

/// \p S as a JSON string literal.
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (const char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// Where a result came from.
std::string provenanceJson(const Options &O) {
  return "{\"workload\": " + quoted(O.Workload) +
         ", \"seed\": " + std::to_string(O.Seed) +
         ", \"seconds\": " + formatNumber(O.Seconds) +
         ", \"trace\": " + (O.Trace ? "1" : "0") + ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build\": " + quoted(PDGCBENCH_BUILD_TYPE) +
         ", \"compiler\": " + quoted(PDGCBENCH_COMPILER) +
         ", \"commit\": " + quoted(O.Commit) + "}";
}

/// The result line's keys are fixed, so the stored copy of a result,
/// DIR/<workload>-seed<N>-trace<0|1>.json, carries its provenance beside
/// it.
void writeResult(const Options &O, const std::string &Line) {
  const std::string Path = O.OutDir + "/" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + "-trace" +
                           (O.Trace ? "1" : "0") + ".json";
  std::ofstream File(Path);
  File << "{\"provenance\": " << provenanceJson(O) << ", \"result\": " << Line
       << "}\n";
  std::printf(File ? "# result and provenance written to %s\n"
                   : "# could not write the result to %s\n",
              Path.c_str());
}

/// Writes the spans as Chrome trace-event JSON: pid 1 holds the replica's
/// layer calls, pid 2 the served requests (one thread per connection).
void writeTrace(const Options &O, const Traced &T) {
  const std::string Path = O.OutDir + "/" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + ".spans.json";
  std::string Out = "{\"traceEvents\":[\n";
  T.Replica.appendChromeEvents(Out, 1);
  T.Client.appendChromeEvents(Out, 2);
  if (Out.size() >= 2 && Out[Out.size() - 2] == ',')
    Out.erase(Out.size() - 2, 1);
  Out += "]}\n";
  std::ofstream File(Path);
  File << Out;
  std::printf(File ? "# spans written to %s\n"
                   : "# could not write the spans to %s\n",
              Path.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
#ifndef NDEBUG
  std::fprintf(stderr, "pdgc-bench: refusing to measure a build with "
                       "assertions enabled\n");
  return 2;
#endif
  if (std::strcmp(PDGCBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "pdgc-bench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PDGCBENCH_BUILD_TYPE);
    return 2;
  }
  // A daemon that dies mid-write must surface as a transport error, not
  // end the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  registerPDGCAllocators();
  const TargetDesc Target = makeTarget(RegsPerClass, PairingRule::Adjacent);
  std::printf("# pdgc-bench %s\n", provenanceJson(O).c_str());

  Run R;
  const auto T = std::make_unique<Traced>();
  if (O.served())
    runServe(O, Target, R, O.Trace ? T.get() : nullptr);
  else if (O.Trace)
    traceInProcess(O, Target, R, *T);
  else
    runInProcess(O, Target, R);
  if (O.Trace && !O.OutDir.empty())
    writeTrace(O, *T);

  for (const Metric &M : R.Metrics)
    std::printf("# %s = %s %s\n", M.Name.c_str(),
                formatNumber(M.Value).c_str(), M.Unit.c_str());
  const std::string Line =
      resultLine(R.Correct, R.Attempted, R.Failed, R.Metrics);
  if (!O.OutDir.empty())
    writeResult(O, Line);
  std::printf("%s\n", Line.c_str());
  return R.Correct ? 0 : 1;
}
