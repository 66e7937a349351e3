//===- machine/RegMask.h - A register set in one machine word ---*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of physical registers held in one 64-bit word: bit R stands for
/// physical register R. TargetDesc caps each of its two register classes
/// at MaxRegsPerClass (32), so a whole register file fits and every set
/// operation of the select phase (screening, pairing, volatility) is one
/// integer instruction with no allocation. BitVector stays the type for
/// sets indexed by virtual register (liveness, the interference matrix).
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_MACHINE_REGMASK_H
#define PDGC_MACHINE_REGMASK_H

#include "support/Debug.h"

#include <bit>
#include <cstdint>

namespace pdgc {

/// Value type for a set of physical registers, iterated in ascending
/// register order.
class RegMask {
  std::uint64_t Bits = 0;

  constexpr explicit RegMask(std::uint64_t BitsIn) : Bits(BitsIn) {}

public:
  /// Number of registers a mask can hold.
  static constexpr unsigned Capacity = 64;

  constexpr RegMask() = default;

  /// The set holding only register \p R.
  static constexpr RegMask single(unsigned R) {
    assert(R < Capacity && "register outside the mask");
    return RegMask(std::uint64_t(1) << R);
  }

  /// The \p Count registers starting at \p First.
  static constexpr RegMask range(unsigned First, unsigned Count) {
    assert(First + Count <= Capacity && "register range outside the mask");
    const std::uint64_t Low =
        Count == Capacity ? ~std::uint64_t(0) : (std::uint64_t(1) << Count) - 1;
    return RegMask(Count == 0 ? 0 : Low << First);
  }

  constexpr bool test(unsigned R) const {
    assert(R < Capacity && "register outside the mask");
    return (Bits >> R) & 1;
  }
  constexpr void set(unsigned R) { *this |= single(R); }

  constexpr bool any() const { return Bits != 0; }
  constexpr bool none() const { return Bits == 0; }
  constexpr unsigned count() const {
    return static_cast<unsigned>(std::popcount(Bits));
  }

  /// Lowest register in the set, or -1 when it is empty.
  constexpr int findFirst() const {
    return Bits ? std::countr_zero(Bits) : -1;
  }

  constexpr RegMask operator&(RegMask RHS) const {
    return RegMask(Bits & RHS.Bits);
  }
  constexpr RegMask operator|(RegMask RHS) const {
    return RegMask(Bits | RHS.Bits);
  }
  constexpr RegMask operator~() const { return RegMask(~Bits); }
  constexpr RegMask &operator&=(RegMask RHS) {
    Bits &= RHS.Bits;
    return *this;
  }
  constexpr RegMask &operator|=(RegMask RHS) {
    Bits |= RHS.Bits;
    return *this;
  }
  constexpr bool operator==(const RegMask &) const = default;

  /// Forward iterator over the registers in the set, lowest first.
  class Iterator {
    std::uint64_t Remaining;

  public:
    constexpr explicit Iterator(std::uint64_t RemainingIn)
        : Remaining(RemainingIn) {}
    constexpr unsigned operator*() const {
      return static_cast<unsigned>(std::countr_zero(Remaining));
    }
    constexpr Iterator &operator++() {
      Remaining &= Remaining - 1; // Clear the lowest set bit.
      return *this;
    }
    constexpr bool operator!=(const Iterator &RHS) const {
      return Remaining != RHS.Remaining;
    }
  };

  /// `for (unsigned R : Mask)` visits the registers in ascending order.
  constexpr Iterator begin() const { return Iterator(Bits); }
  constexpr Iterator end() const { return Iterator(0); }
};

} // namespace pdgc

#endif // PDGC_MACHINE_REGMASK_H
