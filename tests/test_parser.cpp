//===- tests/test_parser.cpp - Textual IR parser tests --------------------------===//
//
// Part of the PDGC project.
//
// The parser must accept exactly what the printer produces (round-trip on
// hand-written and generated functions, flags and pins included) and give
// useful errors on malformed input.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "sim/Interpreter.h"
#include "workloads/Figure7.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

TEST(Parser, ParsesAMinimalFunction) {
  const char *Text = R"(func @tiny(v0(pinned:r0))
entry:
  v1 = move v0(pinned:r0)
  v2 = addimm v1, 5
  store v2, v1, 0
  ret
)";
  std::string Error;
  std::unique_ptr<Function> F = parseFunction(Text, Error);
  ASSERT_NE(F, nullptr) << Error;
  EXPECT_EQ(F->name(), "tiny");
  ASSERT_EQ(F->numParams(), 1u);
  EXPECT_EQ(F->pinnedReg(F->params()[0]), 0);
  EXPECT_EQ(F->numBlocks(), 1u);
  EXPECT_EQ(F->entry()->size(), 4u);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyFunction(*F, Errors)) << Errors.front();
}

TEST(Parser, RoundTripsControlFlowAndFlags) {
  const char *Text = R"(func @cfg(v0(pinned:r0))
entry:
  v1 = load v0(pinned:r0), 0
  condbr v1  -> loop out
loop:
  v2 = load v1, 0  ; pair-head
  v3 = load v1, 1
  v4 = load v1, 2  ; narrow
  v5 = add v2, v3
  condbr v5  -> loop out
out:
  ret
)";
  std::string Error;
  std::unique_ptr<Function> F = parseFunction(Text, Error);
  ASSERT_NE(F, nullptr) << Error;
  EXPECT_EQ(F->numBlocks(), 3u);
  const BasicBlock *Loop = F->block(1);
  EXPECT_TRUE(Loop->inst(0).isPairHead());
  EXPECT_TRUE(Loop->inst(2).isNarrowDef());
  EXPECT_EQ(Loop->numPredecessors(), 2u);

  // Print-parse-print must be a fixed point.
  std::string Once = printFunction(*F);
  std::unique_ptr<Function> F2 = parseFunction(Once, Error);
  ASSERT_NE(F2, nullptr) << Error;
  EXPECT_EQ(printFunction(*F2), Once);
}

TEST(Parser, RoundTripsTheFigure7Function) {
  TargetDesc Target = makeFigure7Target();
  auto F = makeFigure7Function(Target, nullptr);
  std::string Text = printFunction(*F);
  std::string Error;
  std::unique_ptr<Function> Parsed = parseFunction(Text, Error);
  ASSERT_NE(Parsed, nullptr) << Error << "\n" << Text;
  EXPECT_EQ(printFunction(*Parsed), Text);
}

TEST(Parser, RoundTripsGeneratedFunctionsWithSemantics) {
  TargetDesc Target = makeTarget(24);
  for (std::uint64_t Seed : {71ull, 72ull, 73ull, 74ull, 75ull}) {
    GeneratorParams P;
    P.Seed = Seed;
    P.FragmentBudget = 16;
    P.CallPercent = 30;
    P.PairedLoadPercent = 15;
    P.NarrowLoadPercent = 15;
    P.FpPercent = 30;
    std::unique_ptr<Function> F = generateFunction(P, Target);
    std::string Text = printFunction(*F);
    std::string Error;
    std::unique_ptr<Function> Parsed = parseFunction(Text, Error);
    ASSERT_NE(Parsed, nullptr) << "seed " << Seed << ": " << Error;
    EXPECT_EQ(printFunction(*Parsed), Text) << "seed " << Seed;
    // Same observable behaviour.
    EXPECT_EQ(runVirtual(*F, {5, 6}), runVirtual(*Parsed, {5, 6}))
        << "seed " << Seed;
  }

  // Print-parse-print is a fixed point on the benchmark's traffic: every
  // suite function and the ~10^4-vreg mega profile.
  std::vector<std::pair<std::string, std::unique_ptr<Function>>> Traffic;
  for (const WorkloadSuite &S : specJvmLikeSuites())
    for (unsigned I = 0; I != S.Functions.size(); ++I)
      Traffic.emplace_back(S.Name + "/" + std::to_string(I),
                           S.generate(I, Target));
  Traffic.emplace_back("mega",
                       generateFunction(megaFunctionProfile(), Target));
  for (const auto &[Name, F] : Traffic) {
    std::string Text = printFunction(*F);
    std::string Error;
    std::unique_ptr<Function> Parsed = parseFunction(Text, Error);
    ASSERT_NE(Parsed, nullptr) << Name << ": " << Error;
    EXPECT_EQ(printFunction(*Parsed), Text) << Name;
  }
}

TEST(Parser, PhiOperandOrderFollowsPredsAnnotation) {
  // The preds comment orders the phi operands; swapping it must swap the
  // incoming values.
  const char *Text = R"(func @phi(v0(pinned:r0))
entry:
  condbr v0(pinned:r0)  -> a b
a:
  v1 = loadimm 10
  br  -> join
b:
  v2 = loadimm 20
  br  -> join
join:    ; preds: a b
  v3 = phi v1, v2
  v4(pinned:r0) = move v3
  ret v4(pinned:r0)
)";
  std::string Error;
  std::unique_ptr<Function> F = parseFunction(Text, Error);
  ASSERT_NE(F, nullptr) << Error;
  // Taken branch (v0 != 0) goes to a: result 10.
  EXPECT_EQ(runVirtual(*F, {1}).ReturnValue, 10);
  EXPECT_EQ(runVirtual(*F, {0}).ReturnValue, 20);

  // Reversing the annotation *and* the operand list together is the same
  // function — the parser must honor the annotated order, not the CFG
  // wiring order.
  std::string Swapped(Text);
  Swapped.replace(Swapped.find("; preds: a b"), 12, "; preds: b a");
  Swapped.replace(Swapped.find("phi v1, v2"), 10, "phi v2, v1");
  std::unique_ptr<Function> G = parseFunction(Swapped, Error);
  ASSERT_NE(G, nullptr) << Error;
  EXPECT_EQ(runVirtual(*G, {1}).ReturnValue, 10);
  EXPECT_EQ(runVirtual(*G, {0}).ReturnValue, 20);
}

TEST(Parser, ReportsUsefulErrors) {
  std::string Error;
  EXPECT_EQ(parseFunction("nonsense", Error), nullptr);
  EXPECT_NE(Error.find("func"), std::string::npos);

  EXPECT_EQ(parseFunction("func @f()\nentry:\n  v0 = bogus v1\n  ret\n",
                          Error),
            nullptr);
  EXPECT_NE(Error.find("bogus"), std::string::npos);

  EXPECT_EQ(parseFunction("func @f()\nentry:\n  br  -> nowhere\n", Error),
            nullptr);
  EXPECT_NE(Error.find("nowhere"), std::string::npos);

  EXPECT_EQ(parseFunction("func @f()\nentry:\n  v0 = add v1\n  ret\n",
                          Error),
            nullptr);
  EXPECT_NE(Error.find("operand count"), std::string::npos);
}

TEST(Parser, RejectsConflictingPins) {
  const char *Text = R"(func @f()
entry:
  v0(pinned:r1) = loadimm 1
  v1 = move v0(pinned:r2)
  ret
)";
  std::string Error;
  EXPECT_EQ(parseFunction(Text, Error), nullptr);
  EXPECT_NE(Error.find("conflicting pin"), std::string::npos);
}

} // namespace
