//===- tests/test_parser_negative.cpp - Parser hardening tests ------------------===//
//
// Part of the PDGC project.
//
// The parser fronts every untrusted input path (fixtures, the command-line
// tools, the fuzzer's mutated corpus), so malformed text of any shape must
// come back as a null function plus a non-empty diagnostic — never an
// abort, an exception escaping parseFunction, or a silently wrong
// function. Each test here pins one rejection the fuzzer relies on.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include <gtest/gtest.h>

using namespace pdgc;

namespace {

/// Expects \p Text to be rejected with a diagnostic containing
/// \p ExpectSubstring.
void expectRejected(const std::string &Text,
                    const std::string &ExpectSubstring) {
  std::string Error;
  std::unique_ptr<Function> F = parseFunction(Text, Error);
  EXPECT_EQ(F, nullptr) << "parser accepted: " << Text;
  ASSERT_FALSE(Error.empty());
  EXPECT_NE(Error.find(ExpectSubstring), std::string::npos)
      << "diagnostic was: " << Error;
}

TEST(ParserNegative, EmptyInput) {
  expectRejected("", "no func header");
}

TEST(ParserNegative, TruncatedFuncHeader) {
  expectRejected("func @half(v0(pinned:r0)", "unterminated pin annotation");
  expectRejected("func @", "malformed func header");
  expectRejected("func\n", "no func header");
}

TEST(ParserNegative, DuplicateBlockLabel) {
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  br  -> entry\n"
                 "entry:\n"
                 "  ret\n",
                 "duplicate block label 'entry'");
}

TEST(ParserNegative, EmptyBlockLabel) {
  expectRejected("func @f()\n"
                 ":\n"
                 "  ret\n",
                 "empty block label");
}

TEST(ParserNegative, HugeRegisterId) {
  // Without the id cap this allocates a multi-gigabyte register table.
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v99999999999 = loadimm 1\n"
                 "  ret\n",
                 "register token");
}

TEST(ParserNegative, RegisterIdJustAboveCap) {
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v1048577 = loadimm 1\n"
                 "  ret\n",
                 "register token");
}

TEST(ParserNegative, MalformedPinAnnotation) {
  expectRejected("func @f(v0(pinned:rX))\n"
                 "entry:\n"
                 "  ret\n",
                 "malformed pin annotation");
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v1 = move v0(pinned:)\n"
                 "  ret\n",
                 "pin");
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v1 = move v0(pinned:r99999999999999)\n"
                 "  ret\n",
                 "pin");
}

TEST(ParserNegative, ConflictingPin) {
  expectRejected("func @f(v0(pinned:r0))\n"
                 "entry:\n"
                 "  v1 = move v0(pinned:r1)\n"
                 "  ret\n",
                 "conflicting pin for v0");
}

TEST(ParserNegative, ConflictingRegisterClass) {
  // v1 first appears as a GPR def, then as an FPR use (the `f` suffix).
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v1 = loadimm 7\n"
                 "  v2f = move v1f\n"
                 "  ret\n",
                 "conflicting register class for v1");
}

TEST(ParserNegative, MalformedCallee) {
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  call  @foo\n"
                 "  ret\n",
                 "callee");
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  call  @f99999999999999999999\n"
                 "  ret\n",
                 "callee");
}

TEST(ParserNegative, ImmediateOverflow) {
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v1 = loadimm 99999999999999999999999999\n"
                 "  ret\n",
                 "immediate");
}

TEST(ParserNegative, InstructionBeforeAnyLabel) {
  expectRejected("func @f()\n"
                 "  ret\n",
                 "instruction before any block label");
}

TEST(ParserNegative, MultipleFuncHeaders) {
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  ret\n"
                 "func @g()\n",
                 "multiple func headers");
}

TEST(ParserNegative, UnknownOpcode) {
  expectRejected("func @f()\n"
                 "entry:\n"
                 "  v1 = frobnicate v0\n"
                 "  ret\n",
                 "unknown opcode 'frobnicate'");
}

TEST(ParserNegative, PredecessorCommentDisagreesWithCFG) {
  expectRejected("func @f()\n"
                 "entry:    ; preds: nowhere\n"
                 "  ret\n",
                 "unknown predecessor block 'nowhere'");
}

TEST(ParserNegative, EveryInstructionDiagnosticHasItsExactText) {
  // One input per diagnostic that no case above reaches, with the full
  // text the tools print: the line, the message and the quoted token.
  const std::string Head = "func @f(v0(pinned:r0))\nentry:\n";
  const std::pair<std::string, std::string> Cases[] = {
      {Head + "  x1 = loadimm 1\n", "line 3: expected register token in 'x1'"},
      {Head + "  v1x = loadimm 1\n", "line 3: malformed definition 'v1x'"},
      {Head + "  v1 = move x\n", "line 3: unexpected operand text 'x'"},
      {Head + "  v1 = add v0 v0\n",
       "line 3: expected ',' in operand list at 'v0'"},
      {Head + "  v1 = addimm 5, v0\n",
       "line 3: register operand after immediate"},
      {Head + "  v1 = loadimm 1, 2\n", "line 3: multiple immediates"},
      {Head + "  call\n", "line 3: call without a callee"},
      {Head + "  v1 = loadimm 1 @f2\n", "line 3: callee token on a non-call"},
      {Head + "  v1 = store v0, v0, 0\n",
       "line 3: definition arity mismatch for 'store'"},
      {Head + "  ret\n  ret\n", "line 4: instruction after terminator"},
      {Head + "  br  -> entry entry\n",
       "line 3: successor count mismatch for 'br'"},
      {Head + "  br  -> nowhere\n", "unknown successor block 'nowhere'"},
      {"func @f(v0)\nentry:\n  ret\n",
       "line 1: parameters must be pinned registers"},
      {"func @f(\nentry:\n  ret\n", "line 1: malformed func header"},
  };
  for (const auto &[Text, Want] : Cases) {
    std::string Error;
    EXPECT_EQ(parseFunction(Text, Error), nullptr) << Text;
    EXPECT_EQ(Error, Want) << Text;
  }
}

TEST(ParserNegative, RejectionIsStateless) {
  // A rejected parse must not poison a following good parse.
  std::string Error;
  EXPECT_EQ(parseFunction("func @broken(", Error), nullptr);
  std::unique_ptr<Function> F = parseFunction("func @ok()\n"
                                              "entry:\n"
                                              "  ret\n",
                                              Error);
  ASSERT_NE(F, nullptr) << Error;
  EXPECT_EQ(F->name(), "ok");
}

} // namespace
