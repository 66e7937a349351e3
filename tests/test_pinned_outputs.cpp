//===- tests/test_pinned_outputs.cpp - Allocator outputs pinned across commits -===//
//
// Part of the PDGC project.
//
// test_determinism.cpp compares two runs inside one build; these digests
// compare this build with the commits before it. Each row hashes, over the
// 76 SPECjvm98-like suite functions at one register count and pairing
// rule, every function's final assignment, round count, spill
// instructions and remaining moves. Every registered allocator has a row
// at 16, 24 and 32 registers. A change that moves any of them — a new
// tie-break in select, a reordered worklist — changes the row's digest. A
// deliberate behaviour change updates the table in the same commit and
// says why.
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
  PairingRule Pairing;
  std::uint64_t Digest;
};

constexpr PairingRule Adj = PairingRule::Adjacent;
constexpr PairingRule Odd = PairingRule::OddEven;

const PinnedRow Pinned[] = {
    {"chaitin", 16, Adj, 0x4c3911be1fb29793ull},
    {"chaitin", 24, Adj, 0x9493527e727b0a51ull},
    {"chaitin", 32, Adj, 0xaa769f6a1aab3af4ull},
    {"briggs+aggressive", 16, Adj, 0x3aa17f7a90ff8c67ull},
    {"briggs+aggressive", 24, Adj, 0x25494dbd1fabb8deull},
    {"briggs+aggressive", 32, Adj, 0x9ee0ac770e8555ebull},
    {"briggs+biased", 16, Adj, 0x3aa17f7a90ff8c67ull},
    {"briggs+biased", 24, Adj, 0x25494dbd1fabb8deull},
    {"briggs+biased", 32, Adj, 0x9ee0ac770e8555ebull},
    {"full-preferences", 16, Adj, 0x9fd3a7685c0a811dull},
    {"full-preferences", 24, Adj, 0x4e2390bf13f70b90ull},
    {"full-preferences", 32, Adj, 0x030fb8b78b7995cbull},
    {"full-preferences", 16, Odd, 0xe2d52e286a71df23ull},
    {"full-preferences", 24, Odd, 0x9b739ba578fb8e2cull},
    {"full-preferences", 32, Odd, 0xb641096b88dcc2aaull},
    {"iterated", 16, Adj, 0xa98f8055efb91a60ull},
    {"iterated", 24, Adj, 0x2b370dfb674b1ad9ull},
    {"iterated", 32, Adj, 0x06b318bd54cf91f2ull},
    {"priority", 16, Adj, 0x3e5766c345e77dc6ull},
    {"priority", 24, Adj, 0x1a4183280153ae37ull},
    {"priority", 32, Adj, 0x3261b97e7a05de60ull},
    {"optimistic", 16, Adj, 0x562c57e6f4eda4d7ull},
    {"optimistic", 24, Adj, 0x82879c1da795026dull},
    {"optimistic", 32, Adj, 0xfd123e59dc2627ccull},
    {"aggressive+volatility", 16, Adj, 0x19f0960bf4798cd9ull},
    {"aggressive+volatility", 24, Adj, 0xa1298885e8baa369ull},
    {"aggressive+volatility", 32, Adj, 0x5526ebeba771ffb1ull},
    {"spill-everything", 16, Adj, 0xe62b65a4c3611d80ull},
    {"spill-everything", 24, Adj, 0xbd7b5b56ce0be268ull},
    {"spill-everything", 32, Adj, 0x6f31c62ebf337730ull},
    {"only-coalescing", 16, Adj, 0xc287711f8b8b3682ull},
    {"only-coalescing", 24, Adj, 0x71070ee46c74981full},
    {"only-coalescing", 32, Adj, 0x30f2417f0390d237ull},
    {"pdgc-stack-order", 16, Adj, 0x6242ee16a66ee480ull},
    {"pdgc-stack-order", 24, Adj, 0xd4fa0e2a12af1f76ull},
    {"pdgc-stack-order", 32, Adj, 0x6d755a15f65fe4fdull},
    {"pdgc-no-lookahead", 16, Adj, 0xe5e2dc466f096253ull},
    {"pdgc-no-lookahead", 24, Adj, 0x3645df158fe3512aull},
    {"pdgc-no-lookahead", 32, Adj, 0xa1febc7d4c5e8ee7ull},
    {"pdgc-no-active-spill", 16, Adj, 0x69bbf23fb594a123ull},
    {"pdgc-no-active-spill", 24, Adj, 0x0930dd404629f5e8ull},
    {"pdgc-no-active-spill", 32, Adj, 0x4ccb9ba1e0a89113ull},
    {"pdgc-no-sequential", 16, Adj, 0xc06b69c8b6c9b89eull},
    {"pdgc-no-sequential", 24, Adj, 0x03cea1fad8d7f898ull},
    {"pdgc-no-sequential", 32, Adj, 0xf32a9201e53920b2ull},
    {"pdgc-no-volatility", 16, Adj, 0xc5b66a172e30dee9ull},
    {"pdgc-no-volatility", 24, Adj, 0x89c230902aeb9406ull},
    {"pdgc-no-volatility", 32, Adj, 0x95ae379c861da055ull},
    {"pdgc-no-restricted", 16, Adj, 0x3883f0fb2cd66d3cull},
    {"pdgc-no-restricted", 24, Adj, 0xf0c15c172ebefc33ull},
    {"pdgc-no-restricted", 32, Adj, 0x8111d37e5c5337ccull},
    {"pdgc-precoalesce", 16, Adj, 0x64912f41aaddfe40ull},
    {"pdgc-precoalesce", 24, Adj, 0xf2c1004001f4b3e8ull},
    {"pdgc-precoalesce", 32, Adj, 0x14759db8962afef3ull},
    {"only-coalescing+pre", 16, Adj, 0x2b8bcc40242726d2ull},
    {"only-coalescing+pre", 24, Adj, 0xee3f4d7b4fcfed50ull},
    {"only-coalescing+pre", 32, Adj, 0xc7a53260a900a80full},
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
                          PairingRule Pairing, unsigned &Functions) {
  TargetDesc Target = makeTarget(Regs, Pairing);
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

/// Checks the three rows of \p Allocator under \p Pairing; a mismatch
/// prints the row as it would read in the table.
void expectPinned(const std::string &Allocator,
                  PairingRule Pairing = PairingRule::Adjacent) {
  unsigned Rows = 0;
  for (const PinnedRow &Row : Pinned) {
    if (Allocator != Row.Allocator || Pairing != Row.Pairing)
      continue;
    ++Rows;
    unsigned Functions = 0;
    const std::uint64_t Got =
        suiteDigest(Allocator, Row.Regs, Pairing, Functions);
    EXPECT_EQ(Functions, 76u);
    std::ostringstream Actual;
    Actual << "{\"" << Allocator << "\", " << Row.Regs << ", "
           << (Pairing == PairingRule::Adjacent ? "Adj" : "Odd") << ", 0x"
           << std::hex << std::setw(16) << std::setfill('0') << Got
           << "ull},";
    EXPECT_EQ(Got, Row.Digest) << "now " << Actual.str();
  }
  EXPECT_EQ(Rows, 3u) << Allocator;
}

TEST(PinnedOutputs, EveryRegisteredAllocatorIsPinned) {
  for (const std::string &Name : registeredAllocatorNames()) {
    bool Found = false;
    for (const PinnedRow &Row : Pinned)
      Found |= Name == Row.Allocator;
    EXPECT_TRUE(Found) << Name << " has no pinned rows";
  }
}

TEST(PinnedOutputs, Chaitin) { expectPinned("chaitin"); }

TEST(PinnedOutputs, BriggsAggressive) { expectPinned("briggs+aggressive"); }

TEST(PinnedOutputs, BriggsBiased) { expectPinned("briggs+biased"); }

TEST(PinnedOutputs, FullPreferences) { expectPinned("full-preferences"); }

TEST(PinnedOutputs, FullPreferencesOddEven) {
  expectPinned("full-preferences", PairingRule::OddEven);
}

TEST(PinnedOutputs, Iterated) { expectPinned("iterated"); }

TEST(PinnedOutputs, Priority) { expectPinned("priority"); }

TEST(PinnedOutputs, Optimistic) { expectPinned("optimistic"); }

TEST(PinnedOutputs, AggressiveVolatility) {
  expectPinned("aggressive+volatility");
}

TEST(PinnedOutputs, SpillEverything) { expectPinned("spill-everything"); }

TEST(PinnedOutputs, OnlyCoalescing) { expectPinned("only-coalescing"); }

TEST(PinnedOutputs, OnlyCoalescingPre) { expectPinned("only-coalescing+pre"); }

TEST(PinnedOutputs, PdgcStackOrder) { expectPinned("pdgc-stack-order"); }

TEST(PinnedOutputs, PdgcNoLookahead) { expectPinned("pdgc-no-lookahead"); }

TEST(PinnedOutputs, PdgcNoActiveSpill) { expectPinned("pdgc-no-active-spill"); }

TEST(PinnedOutputs, PdgcNoSequential) { expectPinned("pdgc-no-sequential"); }

TEST(PinnedOutputs, PdgcNoVolatility) { expectPinned("pdgc-no-volatility"); }

TEST(PinnedOutputs, PdgcNoRestricted) { expectPinned("pdgc-no-restricted"); }

TEST(PinnedOutputs, PdgcPrecoalesce) { expectPinned("pdgc-precoalesce"); }

} // namespace
