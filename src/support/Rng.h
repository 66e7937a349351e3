//===- support/Rng.h - Deterministic random number generator ---*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, deterministic SplitMix64 generator. The workload generator and
/// property tests use this instead of <random> so the corpus is identical
/// across standard-library implementations.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SUPPORT_RNG_H
#define PDGC_SUPPORT_RNG_H

#include "support/Debug.h"

#include <cstdint>

namespace pdgc {

/// SplitMix64 pseudo-random generator with convenience samplers.
class Rng {
  std::uint64_t State;

public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}

  /// Returns the next raw 64-bit value.
  std::uint64_t next() {
    State += 0x9E3779B97F4A7C15ULL;
    std::uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  std::uint64_t nextBelow(std::uint64_t Bound) {
    assert(Bound != 0 && "Rng::nextBelow requires a nonzero bound");
    // Multiply-shift rejection-free mapping; bias is negligible for the
    // small bounds used by the workload generator.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// Returns a uniform value in the inclusive range [Lo, Hi].
  std::int64_t nextInRange(std::int64_t Lo, std::int64_t Hi) {
    assert(Lo <= Hi && "Rng::nextInRange requires Lo <= Hi");
    return Lo + static_cast<std::int64_t>(
                    nextBelow(static_cast<std::uint64_t>(Hi - Lo) + 1));
  }

  /// Returns true with probability \p Percent / 100.
  bool roll(unsigned Percent) { return nextBelow(100) < Percent; }
};

} // namespace pdgc

#endif // PDGC_SUPPORT_RNG_H
