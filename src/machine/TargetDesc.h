//===- machine/TargetDesc.h - Machine register model ------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parametric machine description: a register file split into general-
/// purpose and floating-point classes, a volatile/non-volatile partition, a
/// parameter/return convention, and a paired-load register rule. The three
/// canned models (16/24/32 registers per class) mirror the paper's high-,
/// middle- and low-pressure register usage models (Section 6), with half of
/// each class volatile, up to eight parameter registers, and register 0 of
/// each class doubling as the return register — the conventions the paper
/// describes for its IA-64 measurements, reduced to their essentials.
///
/// Register sets are RegMasks: a class holds at most MaxRegsPerClass
/// registers, so the whole file fits in one 64-bit word, and the class,
/// volatility, narrow and pairing sets below are O(1) word operations.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_MACHINE_TARGETDESC_H
#define PDGC_MACHINE_TARGETDESC_H

#include "ir/VReg.h"
#include "machine/RegMask.h"
#include "support/Debug.h"

#include <string>
#include <vector>

namespace pdgc {

/// A physical register id; GPRs occupy [0, numGPRs), FPRs follow.
using PhysReg = unsigned;

/// Registers per class the tools accept for a target (`--regs`, a crash
/// dossier's `; regs:` header). The upper bound, the paper's largest model,
/// is also TargetDesc's hard limit: two classes of 32 fill one RegMask.
constexpr unsigned MinRegsPerClass = 2;
constexpr unsigned MaxRegsPerClass = RegMask::Capacity / 2;

/// Register rule a paired load must satisfy to be fused into one machine
/// operation (Section 3.1, "dependent register usage").
enum class PairingRule {
  Adjacent, ///< Second destination register = first + 1 (S/390, Power).
  OddEven,  ///< Destinations must have different parity (IA-64 flavour).
};

/// Immutable description of a machine's register file and conventions.
class TargetDesc {
  std::string Name;
  unsigned GPRs;
  unsigned FPRs;
  unsigned VolatilePerClass; ///< Registers [0, V) of each class are volatile.
  unsigned MaxParamRegs;     ///< Parameter registers per class.
  PairingRule Pairing;
  /// Per class (indexed by RegClass): all its registers, the volatile
  /// ones, the narrow-capable ones, and those with an even class index.
  RegMask ClassRegs[2], VolatileRegs[2], NarrowRegs[2], EvenRegs[2];

  static unsigned index(RegClass RC) { return static_cast<unsigned>(RC); }

  /// Registers of \p RC whose class index has the other parity than \p Idx.
  RegMask oppositeParity(RegClass RC, unsigned Idx) const {
    const RegMask Even = EvenRegs[index(RC)];
    return (Idx & 1) ? Even : ClassRegs[index(RC)] & ~Even;
  }

public:
  /// Fails a pdgc_check (in every build) when a class exceeds
  /// MaxRegsPerClass registers: no RegMask could hold the file.
  TargetDesc(std::string NameIn, unsigned GPRsIn, unsigned FPRsIn,
             unsigned VolatilePerClassIn, unsigned MaxParamRegsIn,
             PairingRule PairingIn);

  const std::string &name() const { return Name; }

  unsigned numRegs() const { return GPRs + FPRs; }
  unsigned numRegs(RegClass RC) const {
    return RC == RegClass::GPR ? GPRs : FPRs;
  }

  /// First physical register of class \p RC.
  PhysReg firstReg(RegClass RC) const {
    return RC == RegClass::GPR ? 0 : GPRs;
  }

  RegClass regClass(PhysReg R) const {
    assert(R < numRegs() && "physical register out of range");
    return R < GPRs ? RegClass::GPR : RegClass::FPR;
  }

  /// Index of \p R within its class (0-based).
  unsigned classIndex(PhysReg R) const {
    return R < GPRs ? R : R - GPRs;
  }

  /// Registers of class \p RC.
  RegMask classMask(RegClass RC) const { return ClassRegs[index(RC)]; }

  /// Returns the register of \p R's class with class index \p Idx, or -1 if
  /// \p Idx is out of range. Used by sequential-preference lookahead.
  int regAtClassIndex(RegClass RC, int Idx) const {
    if (Idx < 0 || Idx >= static_cast<int>(numRegs(RC)))
      return -1;
    return static_cast<int>(firstReg(RC)) + Idx;
  }

  /// Volatile registers are caller-saved: a value kept in one across a call
  /// costs a save/restore at every crossing call. Non-volatile registers
  /// are callee-saved: the first use of one costs a flat prologue/epilogue
  /// save.
  bool isVolatile(PhysReg R) const {
    return classIndex(R) < VolatilePerClass;
  }

  /// Volatile and non-volatile registers of class \p RC.
  RegMask volatileMask(RegClass RC) const { return VolatileRegs[index(RC)]; }
  RegMask nonVolatileMask(RegClass RC) const {
    return ClassRegs[index(RC)] & ~VolatileRegs[index(RC)];
  }

  unsigned numVolatile(RegClass RC) const {
    (void)RC;
    return VolatilePerClass;
  }
  unsigned numNonVolatile(RegClass RC) const {
    return numRegs(RC) - VolatilePerClass;
  }

  /// Physical register carrying parameter \p Idx of class \p RC; parameters
  /// beyond maxParamRegs() would be passed in memory, which the workload
  /// generator never emits.
  PhysReg paramReg(RegClass RC, unsigned Idx) const {
    assert(Idx < MaxParamRegs && "parameter index beyond register parameters");
    return firstReg(RC) + Idx;
  }

  unsigned maxParamRegs() const { return MaxParamRegs; }

  /// Register holding a function's return value (register 0 of the class,
  /// which is also the first parameter register — as in the paper's
  /// convention "r1: arg0, return, volatile").
  PhysReg returnReg(RegClass RC) const { return firstReg(RC); }

  /// Number of narrow-capable registers per class: the low quarter of the
  /// file (at least one). Narrow operations (quarter-word loads and the
  /// like — Section 3.1's "limited register usage") execute without a
  /// fixup only in these registers.
  unsigned numNarrowRegs(RegClass RC) const {
    unsigned Quarter = numRegs(RC) / 4;
    return Quarter == 0 ? 1 : Quarter;
  }

  /// True when \p R can hold the result of a narrow operation directly.
  bool isNarrowCapable(PhysReg R) const {
    return classIndex(R) < numNarrowRegs(regClass(R));
  }

  /// Narrow-capable registers of class \p RC.
  RegMask narrowMask(RegClass RC) const { return NarrowRegs[index(RC)]; }

  /// Returns true when a paired load writing \p First then \p Second can be
  /// fused into one machine operation.
  bool pairFuses(PhysReg First, PhysReg Second) const {
    return pairAfter(First).test(Second);
  }

  /// Registers that can be the *second* of a pair whose first is \p First:
  /// the next register of its class (Adjacent), or every register of its
  /// class with the other class-index parity (OddEven).
  RegMask pairAfter(PhysReg First) const {
    const RegClass RC = regClass(First);
    const unsigned Idx = classIndex(First);
    switch (Pairing) {
    case PairingRule::Adjacent:
      return Idx + 1 < numRegs(RC) ? RegMask::single(First + 1) : RegMask();
    case PairingRule::OddEven:
      return oppositeParity(RC, Idx);
    }
    pdgc_unreachable("unknown pairing rule");
  }

  /// Registers that can be the *first* of a pair whose second is \p Second:
  /// every F with pairFuses(F, Second).
  RegMask pairBefore(PhysReg Second) const {
    const RegClass RC = regClass(Second);
    const unsigned Idx = classIndex(Second);
    switch (Pairing) {
    case PairingRule::Adjacent:
      return Idx > 0 ? RegMask::single(Second - 1) : RegMask();
    case PairingRule::OddEven:
      return oppositeParity(RC, Idx);
    }
    pdgc_unreachable("unknown pairing rule");
  }

  /// Printable name: r0..rN for GPRs, f0..fN for FPRs.
  std::string regName(PhysReg R) const {
    return (regClass(R) == RegClass::GPR ? "r" : "f") +
           std::to_string(classIndex(R));
  }
};

/// The paper's high-pressure model: 16 registers per class.
TargetDesc makeHighPressureTarget();

/// The paper's middle-pressure model: 24 registers per class.
TargetDesc makeMiddlePressureTarget();

/// The paper's low-pressure model: 32 registers per class.
TargetDesc makeLowPressureTarget();

/// A model with \p RegsPerClass registers per class, half volatile, up to
/// eight parameter registers, and the given pairing rule.
TargetDesc makeTarget(unsigned RegsPerClass,
                      PairingRule Pairing = PairingRule::Adjacent);

} // namespace pdgc

#endif // PDGC_MACHINE_TARGETDESC_H
