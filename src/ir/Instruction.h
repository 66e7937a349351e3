//===- ir/Instruction.h - IR instruction ------------------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single register-transfer instruction: an opcode, at most one defined
/// virtual register, a use list, an immediate, and a couple of attributes
/// the allocators care about (paired-load candidacy, spill provenance).
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_IR_INSTRUCTION_H
#define PDGC_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/VReg.h"
#include "support/Debug.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace pdgc {

/// One IR instruction.
///
/// Phi instructions keep their uses parallel to the owning block's
/// predecessor list: use `i` is the incoming value from predecessor `i`.
class Instruction {
  Opcode Op;
  VReg DefReg;             ///< Invalid when the opcode defines nothing.
  std::vector<VReg> Uses;
  std::int64_t Imm = 0;    ///< LoadImm value, AddImm addend, Load/Store
                           ///< offset, Call callee id.
  bool PairHeadFlag = false; ///< First load of a paired-load candidate; the
                             ///< next instruction in the block is its mate.
  bool SpillFlag = false;    ///< Inserted by the spiller (spill load/store or
                             ///< rematerialized copy); counted by Figure 9.
  bool NarrowFlag = false;   ///< "Limited register usage" (Section 3.1,
                             ///< second preference kind): the definition
                             ///< works without fixup only in the target's
                             ///< narrow-capable registers, like x86
                             ///< quarter-word loads.

public:
  Instruction(Opcode OpIn, VReg Def, std::vector<VReg> UsesIn,
              std::int64_t ImmIn = 0)
      : Op(OpIn), DefReg(Def), Uses(std::move(UsesIn)), Imm(ImmIn) {
    assert((Def.isValid() ? opcodeMayDefine(Op) : true) &&
           "opcode cannot define a register");
    assert((opcodeNumUses(Op) < 0 ||
            static_cast<int>(this->Uses.size()) == opcodeNumUses(Op)) &&
           "wrong number of uses for opcode");
  }

  Opcode opcode() const { return Op; }

  bool hasDef() const { return DefReg.isValid(); }
  VReg def() const { return DefReg; }
  void setDef(VReg R) { DefReg = R; }

  unsigned numUses() const { return static_cast<unsigned>(Uses.size()); }
  VReg use(unsigned I) const {
    assert(I < Uses.size() && "use index out of range");
    return Uses[I];
  }
  void setUse(unsigned I, VReg R) {
    assert(I < Uses.size() && "use index out of range");
    Uses[I] = R;
  }
  const std::vector<VReg> &uses() const { return Uses; }

  std::int64_t imm() const { return Imm; }

  /// For Call instructions: the external callee id (stored in the
  /// immediate field).
  unsigned callee() const {
    assert(Op == Opcode::Call && "callee() on a non-call");
    return static_cast<unsigned>(Imm);
  }

  bool isCopy() const { return Op == Opcode::Move; }
  bool isCall() const { return Op == Opcode::Call; }
  bool isPhi() const { return Op == Opcode::Phi; }
  bool isTerminatorInst() const { return isTerminator(Op); }

  /// True for the first load of a paired-load candidate. The candidate can
  /// be fused into a single machine operation when the two destination
  /// registers satisfy the target's pairing rule (Section 3.1, "dependent
  /// register usage").
  bool isPairHead() const { return PairHeadFlag; }
  void setPairHead(bool V) { PairHeadFlag = V; }

  /// True for instructions materialized by spill-code insertion; these are
  /// the "generated spill instructions" counted in Figure 9(b)/(d).
  bool isSpillCode() const { return SpillFlag; }
  void setSpillCode(bool V) { SpillFlag = V; }

  /// True when the defined register should come from the target's
  /// narrow-capable subset; any other register costs a fixup instruction
  /// (e.g. the zero-extension after an x86 quarter-word load).
  bool isNarrowDef() const { return NarrowFlag; }
  void setNarrowDef(bool V) { NarrowFlag = V; }

  /// Removes use \p I, shifting later uses down.
  void removeUse(unsigned I) {
    assert(I < Uses.size() && "use index out of range");
    Uses.erase(Uses.begin() + I);
  }
};

} // namespace pdgc

#endif // PDGC_IR_INSTRUCTION_H
