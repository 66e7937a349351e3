//===- pdgcbench/src/Workload.h - Inputs, references, oracles --*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark feeds the allocator and how it checks what comes
/// back. Inputs are the repository's own generator profiles (the seven
/// SPECjvm98-like suites, or the mega-function profile) drawn with the
/// benchmark seed and printed to textual IR; the allocator only ever sees
/// that text. Every input gets one in-process reference allocation
/// (`allocateWithFallback`). Timed operations, served responses and the
/// traced replica must reproduce it exactly, and the reference itself
/// must pass two oracles that share no code with the allocator's own
/// decisions: the assignment checker, and interpretation of the allocated
/// code against the unallocated function.
///
//===----------------------------------------------------------------------===//

#ifndef PDGCBENCH_WORKLOAD_H
#define PDGCBENCH_WORKLOAD_H

#include "Common.h"

#include "machine/TargetDesc.h"
#include "regalloc/Driver.h"
#include "workloads/Generator.h"

#include <memory>
#include <string>
#include <vector>

namespace pdgcbench {

/// The workload's functions with the seeds committed in
/// workloads/Suites.cpp: the 76 suite functions, or the mega function.
std::vector<pdgc::GeneratorParams> committedProfiles(bool Mega);

/// Generator profiles of a workload: 8 draws of each committed profile. With seed 0 the first draw of each is the
/// committed function, and the first draws come first; any other seed
/// re-draws every function from the same profiles.
std::vector<pdgc::GeneratorParams> workloadProfiles(bool Mega,
                                                    std::uint64_t Seed);

/// One function as the allocator receives it.
struct Input {
  std::string Name;
  std::string Text; ///< Textual IR (ir/IRPrinter.h).
};

/// Generates the function of \p Profile and prints it.
Input makeInput(const pdgc::GeneratorParams &Profile,
                const pdgc::TargetDesc &Target);

/// The timed in-process operation: parse \p Text, then allocateWithFallback
/// (which verifies, allocates and runs the checker). The allocated
/// function is moved to \p Final when it is non-null.
pdgc::StatusOr<pdgc::AllocationOutcome>
allocateText(const std::string &Text, const pdgc::TargetDesc &Target,
             std::unique_ptr<pdgc::Function> *Final = nullptr);

/// The quality the paper measures, for one allocated function or a sum.
struct Quality {
  double SimCost = 0;          ///< simulateCost(...).total().
  unsigned SpillInsts = 0;     ///< Spill loads/stores in the final code.
  unsigned MovesRemaining = 0; ///< Copies that survive allocation.

  bool operator==(const Quality &R) const {
    return SimCost == R.SimCost && SpillInsts == R.SpillInsts &&
           MovesRemaining == R.MovesRemaining;
  }
  Quality &operator+=(const Quality &R) {
    SimCost += R.SimCost;
    SpillInsts += R.SpillInsts;
    MovesRemaining += R.MovesRemaining;
    return *this;
  }
};

Quality measureQuality(const pdgc::Function &Final,
                       const pdgc::AllocationOutcome &Out,
                       const pdgc::TargetDesc &Target);

/// The reference allocation of one input.
struct Reference {
  /// Allocated code, spill code in. checkReference frees it, so that the
  /// benchmark holds at most one allocated function at a time and its
  /// peak memory is the allocator's.
  std::unique_ptr<pdgc::Function> Final;
  pdgc::AllocationOutcome Out;
  std::string WireBody; ///< The body an ALLOC response must carry.
  Quality Q;            ///< Set by checkReference.
  std::string Failure;  ///< What the oracles found; "" when they agree.
};

/// Allocates \p In once; false with \p Error when that fails.
bool allocateReference(const Input &In, const pdgc::TargetDesc &Target,
                       Reference &Ref, std::string &Error);

/// Runs the assignment checker on \p Ref and compares an interpreted run
/// of the allocated code with a run of \p In's unallocated function,
/// recording what failed in Ref.Failure; measures Ref.Q; then frees
/// Ref.Final.
void checkReference(const Input &In, Reference &Ref,
                    const pdgc::TargetDesc &Target);

/// Digest of \p In and the decisions of its reference, so that two
/// set-ups can be compared without keeping both.
std::uint64_t setUpDigest(const Input &In, const Reference &Ref);

/// \p Out rendered as pdgc-serve renders an ALLOC response body
/// (server/AllocRunner.cpp), so a served answer compares byte for byte.
std::string wireBody(const pdgc::AllocationOutcome &Out,
                     const pdgc::TargetDesc &Target);

/// True when two allocations of one input made the same decisions.
bool sameDecisions(const pdgc::AllocationOutcome &A,
                   const pdgc::AllocationOutcome &B);

/// Test hook: moves one pinned register of \p Ref to the wrong register,
/// so every check downstream of the reference must fail. Call it before
/// checkReference, which needs Ref.Final.
void corruptReference(Reference &Ref, const pdgc::TargetDesc &Target);

/// One spill round of a traced replica.
struct RoundTrace {
  unsigned Index = 0;    ///< 0 for the first round.
  unsigned VRegs = 0;    ///< Virtual registers entering the round.
  unsigned Insts = 0;    ///< Instructions entering the round.
  double AnalysisUs = 0; ///< AnalysisContext build (round 0) or refresh.
};

/// What one traced replica decided and counted.
struct ReplicaResult {
  bool Ok = false;
  std::string Error;
  std::vector<int> Assignment;
  unsigned Rounds = 0;
  unsigned SpilledRanges = 0;
  unsigned InstsIn = 0;       ///< Parsed function, before phi elimination.
  unsigned InstsOut = 0;      ///< Allocated function, spill code in.
  std::uint64_t IgEdges = 0;  ///< Interference edges, summed over rounds.
  std::uint64_t RpgPrefs = 0; ///< RPG preferences, summed over rounds.
  std::uint64_t CpgEdges = 0; ///< CPG edges, summed over rounds.
  std::vector<RoundTrace> PerRound;
};

/// Replays the first tier of allocateWithFallback (tryAllocate with the
/// full-preferences allocator) from the layers' public calls, one span per
/// call under a "replica.fn" root. Before each allocateRound it also times
/// simplifyGraph, the RPG build and the CPG build on the same round
/// context; allocateRound repeats that work internally, so subtracting
/// the three from the round leaves the select phase. With \p Log null it
/// makes the same calls and records nothing: the untraced twin that the
/// tracing overhead is measured against.
ReplicaResult replayAllocation(const std::string &Text,
                               const pdgc::TargetDesc &Target, SpanLog *Log);

} // namespace pdgcbench

#endif // PDGCBENCH_WORKLOAD_H
