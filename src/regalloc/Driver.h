//===- regalloc/Driver.h - Build-color-spill iteration ----------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared allocation driver. It lowers phis (once), then iterates the
/// Chaitin cycle: rebuild the analyses, run the allocator's round, and —
/// when live ranges were spilled — insert spill code and repeat, until a
/// round colors everything. It finally expands coalesced colors to every
/// member and gathers the quality metrics the benchmarks report.
///
/// Two entry levels exist:
///
///  * `allocate` — the classic call: aborts on allocator bugs and
///    non-convergence (tests rely on this contract);
///  * `tryAllocate` / `allocateWithFallback` — the hardened pipeline:
///    structured `Status` errors instead of aborts, round and wall-clock
///    budgets, and a fallback chain that degrades tier by tier down to the
///    spill-everything baseline, so allocation *always* terminates with a
///    checker-valid assignment. The `AllocationOutcome::Degradation`
///    record says which tier served the request and why earlier tiers
///    failed.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_REGALLOC_DRIVER_H
#define PDGC_REGALLOC_DRIVER_H

#include "regalloc/AllocatorBase.h"
#include "regalloc/Metrics.h"
#include "regalloc/SpillCodeInserter.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <functional>
#include <memory>
#include <string>

namespace pdgc {

/// Which fallback tier served an allocation and what happened to the
/// tiers before it.
struct DegradationInfo {
  /// True when a tier other than the first produced the result.
  bool Degraded = false;
  /// Name of the serving allocator ("full-preferences", ...).
  std::string ServedBy;
  /// Index of the serving tier in the fallback chain.
  unsigned TierIndex = 0;
  /// One "name: CODE: message" entry per failed tier, in chain order.
  std::vector<std::string> FailedTiers;
};

/// Final result of running an allocator to completion over a function.
struct AllocationOutcome {
  /// Physical register per virtual-register id of the *final* function
  /// (which gained spill temporaries); -1 only for registers that no
  /// longer appear in the code.
  std::vector<int> Assignment;
  unsigned Rounds = 0;          ///< Allocation rounds (1 = no spilling).
  unsigned SpilledRanges = 0;   ///< Live ranges sent to memory, cumulative.
  unsigned SpillInstructions = 0; ///< Spill loads/stores in the final code.
  MoveStats Moves;              ///< Copy elimination statistics.
  unsigned StackSlots = 0;      ///< Spill slots allocated.
  /// Moves present before the first round (after phi lowering). Moves the
  /// rounds deleted while reflecting coalescing count as eliminated:
  ///   eliminated = OriginalMoves - (Moves.Total - Moves.Eliminated).
  unsigned OriginalMoves = 0;
  /// Filled by allocateWithFallback: which tier served the request.
  DegradationInfo Degradation;

  /// Moves that survive into emitted code (operands in distinct registers).
  unsigned remainingMoves() const { return Moves.Total - Moves.Eliminated; }
  /// Moves removed by coalescing/biased selection relative to the input.
  unsigned eliminatedMoves() const {
    return OriginalMoves - remainingMoves();
  }
};

/// One tier of the fallback chain: a display name plus an optional
/// factory. A null factory resolves \p Name through the allocator
/// registry; unknown names are recorded as failed tiers and skipped, so a
/// binary that never linked an allocator still degrades gracefully.
struct FallbackTier {
  std::string Name;
  std::function<std::unique_ptr<AllocatorBase>()> Factory;
};

/// The default chain: full preferences, then Briggs optimistic coloring,
/// then the spill-everything baseline that essentially cannot fail.
std::vector<FallbackTier> defaultFallbackChain();

/// Options controlling the driver.
struct DriverOptions {
  CostParams Costs;
  /// Run the independent assignment checker on the final allocation and
  /// abort on any error. Cheap relative to allocation; on by default.
  /// (allocateWithFallback always checks, regardless of this flag.)
  bool VerifyAssignment = true;
  /// Safety bound on spill rounds; exceeding it is a BudgetExceeded error.
  unsigned MaxRounds = 64;
  /// Wall-clock budget per tier in milliseconds; 0 means unlimited.
  /// Enforced cooperatively *inside* rounds: the driver installs the
  /// budget as the thread's ambient deadline (support/Deadline.h) and the
  /// hot loops — simplify worklist, select walks, optimal search, the
  /// analysis rebuilds — poll it, so a pathological round is cancelled
  /// mid-flight with BUDGET_EXCEEDED instead of overshooting.
  unsigned TimeBudgetMs = 0;
  /// Absolute cancellation point, combined (sooner wins) with
  /// TimeBudgetMs. BatchDriver uses it to impose one wall-clock deadline
  /// across a whole batch. allocateWithFallback exempts the final
  /// (guarantee) tier so an expired batch degrades to spill-everything
  /// instead of failing outright; TimeBudgetMs, in contrast, binds every
  /// tier.
  Deadline CancelAt;
  /// Rematerialize spilled constants instead of storing/reloading them
  /// (Briggs et al.; off by default to match the paper's framework).
  bool Rematerialize = false;
  /// Fragment granularity of spilled ranges. Per-use (the default)
  /// matches the paper's framework; per-block trades fewer spill
  /// instructions for longer — still unspillable — fragments, so use it
  /// only when registers are not desperately scarce.
  SpillGranularity Granularity = SpillGranularity::PerUse;
  /// Tiers tried in order by allocateWithFallback.
  std::vector<FallbackTier> FallbackChain = defaultFallbackChain();
};

/// Allocates registers for \p F (modified in place: phis lowered, spill
/// code inserted) with \p Allocator on \p Target. Aborts on allocator
/// bugs, checker failures and non-convergence — the historical contract.
AllocationOutcome allocate(Function &F, const TargetDesc &Target,
                           AllocatorBase &Allocator,
                           const DriverOptions &Options = DriverOptions());

/// Hardened single-allocator entry: like allocate, but every failure mode
/// (allocator exception or fatal check, malformed round result, exceeded
/// round or wall-clock budget, checker mismatch) comes back as a Status
/// instead of aborting. On error \p F may be left partially rewritten;
/// use allocateWithFallback when that matters. When \p AnalysisMem is
/// non-null the attempt's AnalysisContext carves its graph storage from it
/// (resetting it first) — allocateWithFallback threads one arena through
/// every tier this way so a degraded allocation reuses warm chunks instead
/// of re-mallocing per tier.
StatusOr<AllocationOutcome> tryAllocate(Function &F, const TargetDesc &Target,
                                        AllocatorBase &Allocator,
                                        const DriverOptions &Options,
                                        Arena *AnalysisMem = nullptr);

/// Fully hardened entry: verifies \p F, then tries each tier of
/// Options.FallbackChain on a fresh clone until one produces a
/// checker-valid assignment, swapping the winning clone into \p F. \p F is
/// only modified on success. The outcome's Degradation record says which
/// tier served and why earlier tiers failed; an error is returned only
/// when the input does not verify or *every* tier failed.
StatusOr<AllocationOutcome>
allocateWithFallback(Function &F, const TargetDesc &Target,
                     const DriverOptions &Options = DriverOptions());

} // namespace pdgc

#endif // PDGC_REGALLOC_DRIVER_H
