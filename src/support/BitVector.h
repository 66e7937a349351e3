//===- support/BitVector.h - Dense resizable bit vector --------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit vector for sets indexed by virtual register (liveness sets,
/// the interference half-matrix). Sets of physical registers are
/// machine/RegMask.h words instead. The interface follows
/// llvm::BitVector where the two overlap so the code reads familiarly to
/// compiler engineers.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SUPPORT_BITVECTOR_H
#define PDGC_SUPPORT_BITVECTOR_H

#include "support/Debug.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace pdgc {

/// Dense, resizable vector of bits with set-algebra operations.
class BitVector {
  using Word = std::uint64_t;
  static constexpr unsigned WordBits = 64;

  std::vector<Word> Words;
  unsigned NumBits = 0;

  static unsigned numWords(unsigned Bits) {
    return (Bits + WordBits - 1) / WordBits;
  }

  /// Clears any bits in the final word beyond NumBits so that whole-word
  /// operations (count, equality, any) stay exact.
  void clearUnusedBits() {
    if (NumBits % WordBits == 0 || Words.empty())
      return;
    Words.back() &= (Word(1) << (NumBits % WordBits)) - 1;
  }

public:
  BitVector() = default;

  /// Creates a vector of \p N bits, all initialized to \p Value.
  explicit BitVector(unsigned N, bool Value = false)
      : Words(numWords(N), Value ? ~Word(0) : Word(0)), NumBits(N) {
    clearUnusedBits();
  }

  unsigned size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p N bits; new bits are initialized to \p Value.
  void resize(unsigned N, bool Value = false) {
    unsigned OldBits = NumBits;
    Words.resize(numWords(N), Value ? ~Word(0) : Word(0));
    NumBits = N;
    if (Value && OldBits < N && OldBits % WordBits != 0) {
      // The partial word shared by old and new bits must get its new high
      // bits set by hand; resize() only fills whole new words.
      Words[OldBits / WordBits] |= ~((Word(1) << (OldBits % WordBits)) - 1);
    }
    clearUnusedBits();
  }

  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "BitVector::test out of range");
    return (Words[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  bool operator[](unsigned Idx) const { return test(Idx); }

  void set(unsigned Idx) {
    assert(Idx < NumBits && "BitVector::set out of range");
    Words[Idx / WordBits] |= Word(1) << (Idx % WordBits);
  }

  /// Sets every bit.
  void set() {
    for (Word &W : Words)
      W = ~Word(0);
    clearUnusedBits();
  }

  void reset(unsigned Idx) {
    assert(Idx < NumBits && "BitVector::reset out of range");
    Words[Idx / WordBits] &= ~(Word(1) << (Idx % WordBits));
  }

  /// Clears every bit.
  void reset() {
    for (Word &W : Words)
      W = 0;
  }

  /// Returns the number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (Word W : Words)
      N += static_cast<unsigned>(std::popcount(W));
    return N;
  }

  /// Returns true if any bit is set.
  bool any() const {
    for (Word W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Set union; both operands must have the same size.
  BitVector &operator|=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch in operator|=");
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      Words[I] |= RHS.Words[I];
    return *this;
  }

  /// Set intersection; both operands must have the same size.
  BitVector &operator&=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch in operator&=");
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= RHS.Words[I];
    return *this;
  }

  /// Set difference (this \ RHS); both operands must have the same size.
  BitVector &resetAll(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch in resetAll");
    for (unsigned I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= ~RHS.Words[I];
    return *this;
  }

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }

  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// Iterator over the indices of set bits, enabling range-based for loops:
  /// `for (unsigned Idx : BV.setBits())`.
  ///
  /// The iterator caches the remaining bits of the current word, so stepping
  /// clears one bit and only touches memory again at word boundaries — and
  /// whole zero words are skipped without per-bit work.
  class SetBitIterator {
    const Word *Words;
    unsigned NumWords;
    unsigned WordIdx; ///< Word the cached bits came from; NumWords at end.
    Word Remaining;   ///< Still-unvisited bits of word WordIdx.

    /// Advances WordIdx past zero words until Remaining is non-zero or the
    /// vector is exhausted.
    void skipZeroWords() {
      while (Remaining == 0) {
        if (++WordIdx >= NumWords) {
          WordIdx = NumWords;
          return;
        }
        Remaining = Words[WordIdx];
      }
    }

  public:
    /// Begin iterator over \p BV.
    explicit SetBitIterator(const BitVector &BV)
        : Words(BV.Words.data()),
          NumWords(static_cast<unsigned>(BV.Words.size())), WordIdx(0),
          Remaining(NumWords ? Words[0] : 0) {
      if (NumWords)
        skipZeroWords();
      else
        WordIdx = NumWords;
    }

    /// End iterator over \p BV.
    SetBitIterator(const BitVector &BV, unsigned EndWord)
        : Words(BV.Words.data()), NumWords(static_cast<unsigned>(EndWord)),
          WordIdx(static_cast<unsigned>(EndWord)), Remaining(0) {}

    unsigned operator*() const {
      return WordIdx * WordBits +
             static_cast<unsigned>(std::countr_zero(Remaining));
    }

    SetBitIterator &operator++() {
      Remaining &= Remaining - 1; // Clear the lowest set bit.
      skipZeroWords();
      return *this;
    }

    bool operator!=(const SetBitIterator &RHS) const {
      return WordIdx != RHS.WordIdx || Remaining != RHS.Remaining;
    }
  };

  struct SetBitRange {
    const BitVector *BV;
    SetBitIterator begin() const { return SetBitIterator(*BV); }
    SetBitIterator end() const {
      return SetBitIterator(*BV, static_cast<unsigned>(BV->Words.size()));
    }
  };

  /// Returns a range over the indices of set bits, in increasing order.
  SetBitRange setBits() const { return {this}; }

  /// Resets to \p N bits, all zero, reusing the existing word storage
  /// (capacity is never released). The rebuild-heavy analyses use this to
  /// recycle their sets across spill rounds instead of reallocating.
  void clearAndResize(unsigned N) {
    Words.assign(numWords(N), 0);
    NumBits = N;
  }
};

} // namespace pdgc

#endif // PDGC_SUPPORT_BITVECTOR_H
