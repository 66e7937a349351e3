//===- tests/test_pinned_outputs.cpp - Allocator outputs pinned across commits -===//
//
// Part of the PDGC project.
//
// test_determinism.cpp compares two runs inside one build; these digests
// compare this build with the commits before it. Each row hashes, over the
// 76 SPECjvm98-like suite functions at one register count, every
// function's final assignment, round count, spill instructions and
// remaining moves. A change that moves any of them — a new tie-break in
// select, a reordered worklist — changes the row's digest. A deliberate
// behaviour change updates the table in the same commit and says why.
//
//===----------------------------------------------------------------------===//

#include "core/PDGCRegistration.h"
#include "regalloc/AllocatorRegistry.h"
#include "regalloc/Driver.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>

using namespace pdgc;

namespace {

[[maybe_unused]] const bool AllocatorsRegistered = [] {
  registerPDGCAllocators();
  return true;
}();

struct PinnedRow {
  const char *Allocator;
  unsigned Regs;
  std::uint64_t Digest;
};

const PinnedRow Pinned[] = {
    {"chaitin", 16, 0x4c3911be1fb29793ull},
    {"chaitin", 24, 0x9493527e727b0a51ull},
    {"chaitin", 32, 0xaa769f6a1aab3af4ull},
    {"briggs+aggressive", 16, 0x3aa17f7a90ff8c67ull},
    {"briggs+aggressive", 24, 0x25494dbd1fabb8deull},
    {"briggs+aggressive", 32, 0x9ee0ac770e8555ebull},
    {"briggs+biased", 16, 0x3aa17f7a90ff8c67ull},
    {"briggs+biased", 24, 0x25494dbd1fabb8deull},
    {"briggs+biased", 32, 0x9ee0ac770e8555ebull},
    {"full-preferences", 16, 0x9fd3a7685c0a811dull},
    {"full-preferences", 24, 0x4e2390bf13f70b90ull},
    {"full-preferences", 32, 0x030fb8b78b7995cbull},
};

/// 64-bit FNV-1a, fed one little-endian 64-bit word at a time so the
/// digest does not depend on the host's integer widths.
class Fnv1a {
  std::uint64_t H = 0xcbf29ce484222325ull;

public:
  void add(std::uint64_t V) {
    for (unsigned Byte = 0; Byte != 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return H; }
};

std::uint64_t suiteDigest(const std::string &Allocator, unsigned Regs,
                          unsigned &Functions) {
  TargetDesc Target = makeTarget(Regs);
  Fnv1a D;
  Functions = 0;
  for (const WorkloadSuite &Suite : specJvmLikeSuites())
    for (unsigned I = 0, E = Suite.Functions.size(); I != E; ++I) {
      std::unique_ptr<Function> F = Suite.generate(I, Target);
      std::unique_ptr<AllocatorBase> A = createRegisteredAllocator(Allocator);
      AllocationOutcome Out = allocate(*F, Target, *A);
      D.add(Out.Assignment.size());
      for (int R : Out.Assignment)
        D.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(R)));
      D.add(Out.Rounds);
      D.add(Out.SpillInstructions);
      D.add(Out.remainingMoves());
      ++Functions;
    }
  return D.value();
}

/// Checks every row of \p Allocator; a mismatch prints the row as it
/// would read in the table.
void expectPinned(const std::string &Allocator) {
  unsigned Rows = 0;
  for (const PinnedRow &Row : Pinned) {
    if (Allocator != Row.Allocator)
      continue;
    ++Rows;
    unsigned Functions = 0;
    const std::uint64_t Got = suiteDigest(Allocator, Row.Regs, Functions);
    EXPECT_EQ(Functions, 76u);
    std::ostringstream Actual;
    Actual << "{\"" << Allocator << "\", " << Row.Regs << ", 0x" << std::hex
           << std::setw(16) << std::setfill('0') << Got << "ull},";
    EXPECT_EQ(Got, Row.Digest) << "now " << Actual.str();
  }
  EXPECT_EQ(Rows, 3u) << Allocator;
}

TEST(PinnedOutputs, Chaitin) { expectPinned("chaitin"); }

TEST(PinnedOutputs, BriggsAggressive) { expectPinned("briggs+aggressive"); }

TEST(PinnedOutputs, BriggsBiased) { expectPinned("briggs+biased"); }

TEST(PinnedOutputs, FullPreferences) { expectPinned("full-preferences"); }

} // namespace
