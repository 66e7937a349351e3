//===- tests/test_fallback.cpp - Graceful-degradation pipeline tests ------------===//
//
// Part of the PDGC project.
//
// The hardened pipeline's contract: allocateWithFallback always terminates
// with a checker-valid assignment as long as at least one tier works, the
// input function is only mutated on success, and the Degradation record
// says exactly which tier served and why the earlier ones failed. The
// failing tiers here are deliberately broken mock allocators (and the
// `fallback.tier` fault site), covering each structured failure mode the
// driver can report.
//
//===----------------------------------------------------------------------===//

#include "core/PDGCRegistration.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "regalloc/AllocatorRegistry.h"
#include "regalloc/AssignmentChecker.h"
#include "regalloc/Driver.h"
#include "support/Debug.h"
#include "support/FaultInjection.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace pdgc;

namespace {

// The default chain's first tier ("full-preferences") resolves through the
// allocator registry, which only knows the core allocators after explicit
// registration.
[[maybe_unused]] const bool AllocatorsRegistered = [] {
  registerPDGCAllocators();
  return true;
}();

std::unique_ptr<Function> makeWorkload(const TargetDesc &Target,
                                       std::uint64_t Seed = 42) {
  GeneratorParams P;
  P.Seed = Seed;
  P.Name = "fallback";
  P.CallPercent = 30;
  P.PressureValues = 8;
  return generateFunction(P, Target);
}

/// A tier-1 allocator that violates its contract in a configurable way.
class BrokenAllocator : public AllocatorBase {
public:
  enum Mode {
    WrongColorSize,   ///< Returns a short color vector.
    InvalidAssignment,///< Colors every register r0: guaranteed clobbers.
    Throws,           ///< Raises an exception mid-round.
    FatalCheck,       ///< Trips a pdgc_check like a real internal bug.
  };

  explicit BrokenAllocator(Mode MIn) : M(MIn) {}
  const char *name() const override { return "broken"; }

  RoundResult allocateRound(AllocContext &Ctx) override {
    switch (M) {
    case WrongColorSize: {
      RoundResult RR = RoundResult::make(Ctx.F.numVRegs());
      RR.Color.resize(1);
      return RR;
    }
    case InvalidAssignment: {
      RoundResult RR = RoundResult::make(Ctx.F.numVRegs());
      for (int &C : RR.Color)
        C = 0;
      return RR;
    }
    case Throws:
      throw std::runtime_error("synthetic allocator explosion");
    case FatalCheck:
      pdgc_check(false, "synthetic fatal check");
    }
    pdgc_unreachable("covered above");
  }

private:
  Mode M;
};

FallbackTier brokenTier(BrokenAllocator::Mode M) {
  return {"broken", [M] { return std::make_unique<BrokenAllocator>(M); }};
}

/// Chains a broken tier before the stock briggs and spill-everything
/// tiers and asserts graceful degradation to tier 1.
void expectDegradesPast(BrokenAllocator::Mode M, ErrorCode ExpectTierCode) {
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> F = makeWorkload(Target);

  DriverOptions Options;
  Options.FallbackChain = {brokenTier(M),
                           {"briggs+aggressive", nullptr},
                           {"spill-everything", nullptr}};
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, Options);
  ASSERT_TRUE(Result.ok()) << Result.status().toString();

  const DegradationInfo &D = Result->Degradation;
  EXPECT_TRUE(D.Degraded);
  EXPECT_EQ(D.ServedBy, "briggs+aggressive");
  EXPECT_EQ(D.TierIndex, 1u);
  ASSERT_EQ(D.FailedTiers.size(), 1u);
  EXPECT_NE(D.FailedTiers[0].find("broken"), std::string::npos)
      << D.FailedTiers[0];
  EXPECT_NE(D.FailedTiers[0].find(errorCodeName(ExpectTierCode)),
            std::string::npos)
      << D.FailedTiers[0];

  // The served assignment must satisfy the independent checker on the
  // rewritten function.
  std::vector<std::string> Errors =
      checkAssignment(*F, Target, Result->Assignment);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST(Fallback, DegradesPastWrongResultShape) {
  expectDegradesPast(BrokenAllocator::WrongColorSize,
                     ErrorCode::AllocatorInternal);
}

TEST(Fallback, DegradesPastInvalidAssignment) {
  expectDegradesPast(BrokenAllocator::InvalidAssignment,
                     ErrorCode::CheckerMismatch);
}

TEST(Fallback, DegradesPastThrowingAllocator) {
  expectDegradesPast(BrokenAllocator::Throws, ErrorCode::AllocatorInternal);
}

TEST(Fallback, DegradesPastFatalCheck) {
  expectDegradesPast(BrokenAllocator::FatalCheck,
                     ErrorCode::AllocatorInternal);
}

TEST(Fallback, HealthyTierOneDoesNotDegrade) {
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> F = makeWorkload(Target);
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, DriverOptions());
  ASSERT_TRUE(Result.ok()) << Result.status().toString();
  EXPECT_FALSE(Result->Degradation.Degraded);
  EXPECT_EQ(Result->Degradation.ServedBy, "full-preferences");
  EXPECT_EQ(Result->Degradation.TierIndex, 0u);
  EXPECT_TRUE(Result->Degradation.FailedTiers.empty());
}

TEST(Fallback, FaultPlanKillsTierOne) {
  if (!fault::compiledIn())
    GTEST_SKIP() << "faults compiled out";
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> F = makeWorkload(Target);

  // The first hit of the per-tier site is the first tier tried.
  fault::FaultPlan Plan;
  ASSERT_EQ(fault::parseFaultSpec("fallback.tier:status@n=1", Plan), "");
  fault::resetSiteCounters();
  fault::installPlan(Plan);
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, DriverOptions());
  fault::clearPlan();
  ASSERT_TRUE(Result.ok()) << Result.status().toString();
  EXPECT_TRUE(Result->Degradation.Degraded);
  EXPECT_EQ(Result->Degradation.ServedBy, "briggs+aggressive");
  ASSERT_EQ(Result->Degradation.FailedTiers.size(), 1u);
  EXPECT_NE(Result->Degradation.FailedTiers[0].find(
                "full-preferences: ALLOCATOR_INTERNAL: injected fault"),
            std::string::npos)
      << Result->Degradation.FailedTiers[0];

  std::vector<std::string> Errors =
      checkAssignment(*F, Target, Result->Assignment);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
}

TEST(Fallback, InputUntouchedUntilSuccess) {
  // When every tier up to the serving one fails, the caller's function
  // must reflect exactly one allocation, not a pile-up of partial spill
  // rewrites from failed tiers.
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> Reference = makeWorkload(Target);
  std::unique_ptr<Function> F = makeWorkload(Target);

  DriverOptions Failing;
  Failing.FallbackChain = {brokenTier(BrokenAllocator::Throws),
                           brokenTier(BrokenAllocator::FatalCheck)};
  StatusOr<AllocationOutcome> Error =
      allocateWithFallback(*F, Target, Failing);
  ASSERT_FALSE(Error.ok());
  EXPECT_EQ(Error.code(), ErrorCode::AllocatorInternal);
  // Total failure: F is byte-identical to the untouched reference.
  EXPECT_EQ(printFunction(*F), printFunction(*Reference));
}

TEST(Fallback, AllTiersFailingReportsEveryTier) {
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> F = makeWorkload(Target);

  DriverOptions Options;
  Options.FallbackChain = {brokenTier(BrokenAllocator::Throws),
                           brokenTier(BrokenAllocator::InvalidAssignment),
                           {"no-such-allocator", nullptr}};
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, Options);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.code(), ErrorCode::AllocatorInternal);
  const std::string Message = Result.status().message();
  EXPECT_NE(Message.find("all fallback tiers failed"), std::string::npos)
      << Message;
  EXPECT_NE(Message.find("no-such-allocator"), std::string::npos) << Message;
}

TEST(Fallback, EmptyChainIsAnError) {
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> F = makeWorkload(Target);
  DriverOptions Options;
  Options.FallbackChain.clear();
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, Options);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.code(), ErrorCode::AllocatorInternal);
}

TEST(Fallback, UnverifiableInputIsRejected) {
  TargetDesc Target = makeTarget(16);
  // A use with no reaching definition: structurally parseable, but the
  // verifier (and therefore the pipeline) must reject it.
  std::string Error;
  std::unique_ptr<Function> F = parseFunction("func @bad()\n"
                                              "entry:\n"
                                              "  condbr v7  -> a b\n"
                                              "a:\n"
                                              "  ret\n"
                                              "b:\n"
                                              "  ret\n",
                                              Error);
  ASSERT_NE(F, nullptr) << Error;
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, DriverOptions());
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.code(), ErrorCode::VerifyError);
}

TEST(Fallback, TargetIncompatiblePinIsRejected) {
  // Pins r40, which only exists on wider targets; an 8-regs-per-class
  // target has 16 physical registers. Without the up-front check every
  // tier would fail with a misleading "color out of range".
  TargetDesc Target = makeTarget(8);
  std::string Error;
  std::unique_ptr<Function> F = parseFunction("func @wide(v0(pinned:r40))\n"
                                              "entry:\n"
                                              "  ret v0\n",
                                              Error);
  ASSERT_NE(F, nullptr) << Error;
  StatusOr<AllocationOutcome> Result =
      allocateWithFallback(*F, Target, DriverOptions());
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.code(), ErrorCode::VerifyError);
  EXPECT_NE(Result.status().toString().find("pinned to r40"),
            std::string::npos)
      << Result.status().toString();
}

TEST(Fallback, TryAllocateReportsRoundBudget) {
  TargetDesc Target = makeTarget(16);
  std::unique_ptr<Function> F = makeWorkload(Target);
  // An allocator that spills one live range per round but never finishes
  // would trip MaxRounds; simpler: give the real allocator zero rounds.
  std::unique_ptr<AllocatorBase> Allocator =
      createRegisteredAllocator("briggs+aggressive");
  ASSERT_NE(Allocator, nullptr);
  DriverOptions Options;
  Options.MaxRounds = 0;
  StatusOr<AllocationOutcome> Result =
      tryAllocate(*F, Target, *Allocator, Options);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.code(), ErrorCode::BudgetExceeded);
  EXPECT_NE(Result.status().message().find("did not converge"),
            std::string::npos)
      << Result.status().message();
}

} // namespace
