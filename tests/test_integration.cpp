//===- tests/test_integration.cpp - End-to-end allocator tests -------------===//
//
// Part of the PDGC project.
//
// Every allocator, over generated workloads at every pressure model:
//  * the driver's independent assignment checker must pass (no two live
//    ranges share a register);
//  * the allocated function must behave identically to the virtual one
//    under the reference interpreter (semantic preservation).
//
//===----------------------------------------------------------------------===//

#include "core/PreferenceDirectedAllocator.h"
#include "ir/PhiElimination.h"
#include "ir/Verifier.h"
#include "regalloc/BriggsAllocator.h"
#include "regalloc/CallCostAllocator.h"
#include "regalloc/Driver.h"
#include "regalloc/IteratedCoalescingAllocator.h"
#include "regalloc/OptimisticCoalescingAllocator.h"
#include "regalloc/PriorityAllocator.h"
#include "sim/Interpreter.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <memory>

using namespace pdgc;

namespace {

std::unique_ptr<AllocatorBase> makeAllocator(const std::string &Name) {
  if (Name == "chaitin")
    return std::make_unique<BriggsAllocator>(BriggsAllocator::Variant::Chaitin);
  if (Name == "briggs")
    return std::make_unique<BriggsAllocator>();
  if (Name == "briggs-biased")
    return std::make_unique<BriggsAllocator>(BriggsAllocator::Variant::Biased);
  if (Name == "iterated")
    return std::make_unique<IteratedCoalescingAllocator>();
  if (Name == "optimistic")
    return std::make_unique<OptimisticCoalescingAllocator>();
  if (Name == "callcost")
    return std::make_unique<CallCostAllocator>();
  if (Name == "priority")
    return std::make_unique<PriorityAllocator>();
  if (Name == "pdgc-full")
    return std::make_unique<PreferenceDirectedAllocator>(pdgcFullOptions());
  if (Name == "pdgc-coalesce")
    return std::make_unique<PreferenceDirectedAllocator>(
        pdgcCoalesceOnlyOptions());
  return nullptr;
}

struct Case {
  std::string Allocator;
  unsigned Regs;
  std::uint64_t Seed;
};

class AllAllocators : public ::testing::TestWithParam<Case> {};

TEST_P(AllAllocators, PreservesSemanticsAndValidity) {
  const Case &C = GetParam();
  TargetDesc Target = makeTarget(C.Regs);

  GeneratorParams P;
  P.Seed = C.Seed;
  P.Name = "itest";
  P.FragmentBudget = 20;
  P.CallPercent = 30;
  P.PairedLoadPercent = 15;
  P.FpPercent = 30;
  P.PressureValues = C.Regs == 16 ? 10 : 6;

  std::unique_ptr<Function> F = generateFunction(P, Target);
  std::vector<std::string> Errors;
  ASSERT_TRUE(verifyFunction(*F, Errors)) << Errors.front();

  // Reference semantics from the SSA form.
  ExecutionResult Reference = runVirtual(*F, {3, 5});
  ASSERT_TRUE(Reference.Completed) << "generated function did not finish";

  std::unique_ptr<AllocatorBase> Alloc = makeAllocator(C.Allocator);
  ASSERT_NE(Alloc, nullptr);

  // The driver aborts if its assignment checker fails.
  AllocationOutcome Out = allocate(*F, Target, *Alloc);
  ASSERT_TRUE(verifyFunction(*F, Errors)) << Errors.front();

  ExecutionResult Allocated = runAllocated(*F, Target, Out.Assignment,
                                           {3, 5});
  EXPECT_TRUE(Allocated.Completed);
  EXPECT_EQ(Reference.ReturnValue, Allocated.ReturnValue)
      << Alloc->name() << " changed the program's return value";
  EXPECT_EQ(Reference.StoreDigest, Allocated.StoreDigest)
      << Alloc->name() << " changed the program's store sequence";
}

std::vector<Case> allCases() {
  std::vector<Case> Cases;
  for (const char *Name :
       {"chaitin", "briggs", "briggs-biased", "iterated", "optimistic",
        "callcost", "priority", "pdgc-full", "pdgc-coalesce"})
    for (unsigned Regs : {16u, 24u, 32u})
      for (std::uint64_t Seed : {11ull, 22ull, 33ull})
        Cases.push_back({Name, Regs, Seed});
  return Cases;
}

std::string caseName(const ::testing::TestParamInfo<Case> &Info) {
  std::string N = Info.param.Allocator + "_r" +
                  std::to_string(Info.param.Regs) + "_s" +
                  std::to_string(Info.param.Seed);
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

INSTANTIATE_TEST_SUITE_P(Matrix, AllAllocators,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
