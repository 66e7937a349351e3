//===- regalloc/Driver.cpp - Build-color-spill iteration -------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Driver.h"

#include "ir/Clone.h"
#include "ir/PhiElimination.h"
#include "ir/Verifier.h"
#include "regalloc/AllocatorRegistry.h"
#include "regalloc/AssignmentChecker.h"
#include "regalloc/Rewriter.h"
#include "regalloc/SpillCodeInserter.h"
#include "support/Deadline.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "support/Tracing.h"

#include <optional>

using namespace pdgc;

namespace {

/// Validates the shape of a round result against the allocator contract;
/// returns a non-empty message on violation.
std::string roundResultError(const RoundResult &RR, const Function &F,
                             const TargetDesc &Target) {
  const unsigned N = F.numVRegs();
  if (RR.Color.size() != N)
    return "color vector size mismatch";
  if (RR.CoalesceMap.size() != N)
    return "coalesce map size mismatch";
  for (unsigned V = 0; V != N; ++V)
    if (RR.CoalesceMap[V] >= N)
      return "coalesce representative out of range";
  for (int C : RR.Color)
    if (C >= 0 && static_cast<unsigned>(C) >= Target.numRegs())
      return "color out of range";
  for (unsigned V : RR.Spilled) {
    if (V >= N)
      return "spilled register out of range";
    if (F.isPinned(VReg(V)))
      return "spilled a pinned register";
    if (F.isSpillTemp(VReg(V)) && !F.isRespillableTemp(VReg(V)))
      return "spilled an unspillable fragment";
  }
  return "";
}

/// A pin outside the target's register file (or in the wrong class) makes
/// the instance unsatisfiable before any allocator runs — e.g. a fixture
/// generated for 24 registers per class fed to an 8-register target.
/// Catching it up front turns "every tier failed with color out of range"
/// into one actionable diagnostic.
std::string pinTargetError(const Function &F, const TargetDesc &Target) {
  for (unsigned V = 0, E = F.numVRegs(); V != E; ++V) {
    const VReg R(V);
    if (!F.isPinned(R))
      continue;
    const int Pin = F.pinnedReg(R);
    if (Pin < 0 || static_cast<unsigned>(Pin) >= Target.numRegs())
      return "v" + std::to_string(V) + " is pinned to r" +
             std::to_string(Pin) + ", outside the target's " +
             std::to_string(Target.numRegs()) + " registers";
    if (Target.regClass(static_cast<PhysReg>(Pin)) != F.regClass(R))
      return "v" + std::to_string(V) + " is pinned to r" +
             std::to_string(Pin) + " of the wrong register class";
  }
  return "";
}

} // namespace

std::vector<FallbackTier> pdgc::defaultFallbackChain() {
  return {{"full-preferences", nullptr},
          {"briggs+aggressive", nullptr},
          {"spill-everything", nullptr}};
}

StatusOr<AllocationOutcome> pdgc::tryAllocate(Function &F,
                                              const TargetDesc &Target,
                                              AllocatorBase &Allocator,
                                              const DriverOptions &Options,
                                              Arena *AnalysisMem) {
  if (std::string PinErr = pinTargetError(F, Target); !PinErr.empty())
    return Status::error(ErrorCode::VerifyError, PinErr);

  const Deadline Budget =
      Deadline::afterMs(Options.TimeBudgetMs).sooner(Options.CancelAt);

  PDGC_STAT("driver", "allocations").inc();
  AllocationOutcome Out;
  // Everything under the trap converts fatal checks into FatalError, so a
  // buggy allocator (or analysis fed garbage) surfaces as a structured
  // error instead of killing the process. The ScopedDeadline makes Budget
  // the thread's ambient deadline, which the hot loops downstream
  // (simplify, select, optimal search, analysis rebuilds) poll — a
  // DeadlineExceeded lands in the catch below as BUDGET_EXCEEDED.
  try {
    ScopedErrorTrap Trap;
    ScopedDeadline Guard(Budget);
    if (hasPhis(F)) {
      ScopedTimer PhiTimer("driver.phi_elimination", "driver");
      PDGC_FAULT_POINT("driver.phi_elim");
      eliminatePhis(F);
    }
    Out.OriginalMoves = countMoves(F);

    // Phi elimination (above) was the last CFG mutation; from here on,
    // spill rounds only insert instructions, so the CFG-derived analyses
    // (RPO, LoopInfo) are computed once and the rest is refreshed into
    // reused buffers each round.
    std::optional<AnalysisContext> Analyses;

    unsigned NextSlot = 0;
    for (unsigned Round = 0; Round != Options.MaxRounds; ++Round) {
      if (Budget.expired()) {
        PDGC_STAT("driver", "time_budget_exceeded").inc();
        return Status::error(ErrorCode::BudgetExceeded,
                             std::string(Allocator.name()) +
                                 ": wall-clock budget exhausted entering "
                                 "round " +
                                 std::to_string(Round + 1));
      }

      ScopedTimer RoundTimer("driver.round", "driver");
      PDGC_FAULT_POINT("driver.round");
      if (!Analyses)
        Analyses.emplace(F, Options.Costs, AnalysisMem);
      else
        Analyses->refresh();
      AllocContext Ctx(F, Target, *Analyses);
      RoundResult RR;
      {
        ScopedTimer AllocTimer(std::string("allocator.") + Allocator.name(),
                               "allocator");
        RR = Allocator.allocateRound(Ctx);
      }
      ++Out.Rounds;
      PDGC_STAT("driver", "rounds").inc();

      std::string Shape = roundResultError(RR, F, Target);
      if (!Shape.empty())
        return Status::error(ErrorCode::AllocatorInternal,
                             std::string(Allocator.name()) + ": " + Shape);

      if (RR.anySpill()) {
        Out.SpilledRanges += static_cast<unsigned>(RR.Spilled.size());
        PDGC_STAT("driver", "spill_rounds").inc();
        PDGC_STAT("driver", "spilled_ranges").add(RR.Spilled.size());
        trace::instant("spill-decision", "driver",
                       "{\"ranges\":" + std::to_string(RR.Spilled.size()) +
                           ",\"round\":" + std::to_string(Round + 1) + "}");
        ScopedTimer SpillTimer("driver.spill_insert", "driver");
        PDGC_FAULT_POINT("driver.spill_insert");
        insertSpillCode(F, RR.Spilled, NextSlot, Options.Rematerialize,
                        Options.Granularity);
        continue;
      }

      // Success: expand colors through the coalesce map.
      Out.Assignment.assign(F.numVRegs(), -1);
      for (unsigned V = 0, E = F.numVRegs(); V != E; ++V)
        Out.Assignment[V] = RR.Color[RR.CoalesceMap[V]];

      Out.StackSlots = NextSlot;
      Out.SpillInstructions = countSpillInstructions(F);
      Out.Moves = moveStats(F, Out.Assignment, Ctx.LI);

      if (Options.VerifyAssignment) {
        ScopedTimer CheckTimer("driver.checker", "driver");
        PDGC_FAULT_POINT("driver.checker");
        std::vector<std::string> Errors =
            checkAssignment(F, Target, Out.Assignment);
        if (!Errors.empty())
          return Status::error(ErrorCode::CheckerMismatch,
                               std::string(Allocator.name()) +
                                   " produced an invalid allocation: " +
                                   Errors.front());
      }
      return Out;
    }
  } catch (const DeadlineExceeded &) {
    // A hot loop polled the ambient deadline past its expiry: the round
    // was cancelled mid-flight rather than allowed to overshoot.
    PDGC_STAT("driver", "deadline_cancelled").inc();
    trace::instant("deadline-cancelled", "driver",
                   "{\"allocator\":\"" + trace::jsonEscape(Allocator.name()) +
                       "\"}");
    return Status::error(ErrorCode::BudgetExceeded,
                         std::string(Allocator.name()) +
                             ": cancelled mid-round by wall-clock deadline");
  } catch (const fault::InjectedFault &E) {
    // Deterministic fault injection asked this stage to fail with a
    // structured error (as opposed to a fatal invariant).
    PDGC_STAT("driver", "injected_faults_trapped").inc();
    return Status::error(ErrorCode::AllocatorInternal,
                         std::string(Allocator.name()) + ": " + E.what());
  } catch (const FatalError &E) {
    // A trapped fatal check is the observability event of record for "an
    // allocator invariant broke but the process survived".
    PDGC_STAT("driver", "fatal_checks_trapped").inc();
    trace::instant("fatal-check-trapped", "driver",
                   "{\"allocator\":\"" +
                       trace::jsonEscape(Allocator.name()) +
                       "\",\"what\":\"" + trace::jsonEscape(E.what()) +
                       "\"}");
    return Status::error(ErrorCode::AllocatorInternal,
                         std::string(Allocator.name()) +
                             ": fatal check: " + E.what());
  } catch (const std::exception &E) {
    PDGC_STAT("driver", "exceptions_trapped").inc();
    return Status::error(ErrorCode::AllocatorInternal,
                         std::string(Allocator.name()) +
                             ": uncaught exception: " + E.what());
  }
  PDGC_STAT("driver", "round_budget_exceeded").inc();
  return Status::error(ErrorCode::BudgetExceeded,
                       std::string(Allocator.name()) +
                           ": register allocation did not converge within " +
                           std::to_string(Options.MaxRounds) + " rounds");
}

AllocationOutcome pdgc::allocate(Function &F, const TargetDesc &Target,
                                 AllocatorBase &Allocator,
                                 const DriverOptions &Options) {
  StatusOr<AllocationOutcome> Result =
      tryAllocate(F, Target, Allocator, Options);
  pdgc_check(Result.ok(), Result.ok() ? "" : Result.status().toString().c_str());
  return std::move(Result.value());
}

StatusOr<AllocationOutcome>
pdgc::allocateWithFallback(Function &F, const TargetDesc &Target,
                           const DriverOptions &Options) {
  {
    std::vector<std::string> Errors;
    ScopedErrorTrap Trap;
    ScopedTimer VerifyTimer("driver.verify", "driver");
    try {
      PDGC_FAULT_POINT("driver.verify");
      if (!verifyFunction(F, Errors))
        return Status::error(ErrorCode::VerifyError,
                             Errors.empty() ? "function does not verify"
                                            : Errors.front());
    } catch (const std::exception &E) {
      return Status::error(ErrorCode::VerifyError,
                           std::string("verifier raised: ") + E.what());
    }
  }
  if (std::string PinErr = pinTargetError(F, Target); !PinErr.empty())
    return Status::error(ErrorCode::VerifyError, PinErr);
  if (Options.FallbackChain.empty())
    return Status::error(ErrorCode::AllocatorInternal,
                         "empty fallback chain");

  // The chain guarantees checker validity even when the caller opted out
  // for the raw entry points.
  DriverOptions TierOptions = Options;
  TierOptions.VerifyAssignment = true;

  PDGC_STAT("fallback", "allocations").inc();
  ScopedTimer ChainTimer("fallback.chain", "tier");

  // One graph arena for the whole chain: each tier's AnalysisContext
  // resets and re-carves it, so a degraded allocation pays the chunk
  // mallocs once instead of once per tier attempted.
  Arena ChainMem;

  DegradationInfo Degradation;
  for (unsigned Tier = 0; Tier != Options.FallbackChain.size(); ++Tier) {
    const FallbackTier &T = Options.FallbackChain[Tier];
    ScopedTimer TierTimer("tier." + T.Name, "tier");

    // The final tier is the guarantee: exempt it from the caller's
    // absolute cancellation point so an expired batch deadline degrades
    // the item to spill-everything instead of failing it outright.
    // TimeBudgetMs still binds every tier (per-tier budget semantics).
    TierOptions.CancelAt = Tier + 1 == Options.FallbackChain.size()
                               ? Deadline()
                               : Options.CancelAt;

    // The one way to fail a whole tier on purpose: a fault plan such as
    // `fallback.tier:status@n=1` fails the first tier tried. Wrapped so an
    // injected fatal here behaves like any other tier failure.
    try {
      PDGC_FAULT_POINT("fallback.tier");
    } catch (const std::exception &E) {
      PDGC_STAT("fallback", "tier_failures").inc();
      Degradation.FailedTiers.push_back(T.Name + ": ALLOCATOR_INTERNAL: " +
                                        E.what());
      continue;
    }

    std::unique_ptr<AllocatorBase> Allocator =
        T.Factory ? T.Factory() : createRegisteredAllocator(T.Name);
    if (!Allocator) {
      Degradation.FailedTiers.push_back(
          T.Name + ": ALLOCATOR_INTERNAL: allocator is not registered "
                   "in this binary");
      continue;
    }

    // Each tier works on a fresh clone; only the winner is swapped in, so
    // a failed tier never leaves F half-rewritten.
    std::unique_ptr<Function> Work;
    {
      ScopedErrorTrap Trap;
      try {
        PDGC_FAULT_POINT("driver.clone");
        Work = cloneFunction(F);
      } catch (const std::exception &E) {
        return Status::error(ErrorCode::AllocatorInternal,
                             std::string("function clone failed: ") +
                                 E.what());
      }
    }

    StatusOr<AllocationOutcome> Result =
        tryAllocate(*Work, Target, *Allocator, TierOptions, &ChainMem);
    if (Result.ok()) {
      F.swapWith(*Work);
      AllocationOutcome Out = std::move(Result.value());
      Degradation.Degraded = Tier != 0;
      Degradation.ServedBy = T.Name;
      Degradation.TierIndex = Tier;
      if (Degradation.Degraded) {
        PDGC_STAT("fallback", "degraded_allocations").inc();
        trace::instant("degraded", "tier",
                       "{\"served_by\":\"" + trace::jsonEscape(T.Name) +
                           "\",\"tier\":" + std::to_string(Tier) + "}");
      }
      Out.Degradation = std::move(Degradation);
      return Out;
    }
    PDGC_STAT("fallback", "tier_failures").inc();
    trace::instant("tier-failed", "tier",
                   "{\"tier\":\"" + trace::jsonEscape(T.Name) +
                       "\",\"error\":\"" +
                       trace::jsonEscape(Result.status().toString()) +
                       "\"}");
    Degradation.FailedTiers.push_back(T.Name + ": " +
                                      Result.status().toString());
  }

  PDGC_STAT("fallback", "exhausted_chains").inc();
  std::string Summary = "all fallback tiers failed:";
  for (const std::string &Failure : Degradation.FailedTiers)
    Summary += " [" + Failure + "]";
  return Status::error(ErrorCode::AllocatorInternal, Summary);
}
