//===- tests/test_suite_sweep.cpp - Whole-corpus semantic sweep -----------------===//
//
// Part of the PDGC project.
//
// One function from every SPECjvm98-like suite through the full pipeline
// (optional DCE, allocation, interpretation) at the paper's three pressure
// models — the closest thing to running the benchmark harness inside the
// test suite.
//
//===----------------------------------------------------------------------===//

#include "core/PreferenceDirectedAllocator.h"
#include "ir/DeadCodeElimination.h"
#include "ir/PhiElimination.h"
#include "ir/Verifier.h"
#include "regalloc/Driver.h"
#include "sim/CostSimulator.h"
#include "sim/Interpreter.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

struct SweepCase {
  std::string Suite;
  unsigned Regs;
};

/// Names the parameter in test listings ("compress/r16"); without it
/// gtest dumps the struct's bytes, heap pointer included, and the test
/// names change from build to build.
void PrintTo(const SweepCase &C, std::ostream *OS) {
  *OS << C.Suite << "/r" << C.Regs;
}

class SuiteSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SuiteSweep, FullPipelinePreservesSemantics) {
  TargetDesc Target = makeTarget(GetParam().Regs);
  WorkloadSuite Suite = suiteByName(GetParam().Suite);

  std::unique_ptr<Function> F = Suite.generate(0, Target);
  ExecutionResult Reference = runVirtual(*F, {10, 20});
  ASSERT_TRUE(Reference.Completed);

  // The full pipeline: SSA lowering, dead-code cleanup, allocation.
  eliminatePhis(*F);
  eliminateDeadCode(*F);
  ExecutionResult AfterOpt = runVirtual(*F, {10, 20});
  ASSERT_EQ(Reference.ReturnValue, AfterOpt.ReturnValue);
  ASSERT_EQ(Reference.StoreDigest, AfterOpt.StoreDigest);

  PreferenceDirectedAllocator Alloc(pdgcFullOptions());
  AllocationOutcome Out = allocate(*F, Target, Alloc);
  std::vector<std::string> Errors;
  ASSERT_TRUE(verifyFunction(*F, Errors)) << Errors.front();

  ExecutionResult Allocated = runAllocated(*F, Target, Out.Assignment,
                                           {10, 20});
  EXPECT_EQ(Reference.ReturnValue, Allocated.ReturnValue);
  EXPECT_EQ(Reference.StoreDigest, Allocated.StoreDigest);

  // The cost simulator must accept the final code.
  SimulatedCost Cost = simulateCost(*F, Target, Out.Assignment);
  EXPECT_GT(Cost.total(), 0.0);
}

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> Cases;
  for (const char *Suite : {"compress", "jess", "db", "javac", "mpegaudio",
                            "mtrt", "jack"})
    for (unsigned Regs : {16u, 24u, 32u})
      Cases.push_back({Suite, Regs});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuiteSweep,
                         ::testing::ValuesIn(sweepCases()),
                         [](const ::testing::TestParamInfo<SweepCase> &Info) {
                           return Info.param.Suite + "_r" +
                                  std::to_string(Info.param.Regs);
                         });

} // namespace
