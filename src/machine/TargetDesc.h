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
//===----------------------------------------------------------------------===//

#ifndef PDGC_MACHINE_TARGETDESC_H
#define PDGC_MACHINE_TARGETDESC_H

#include "ir/VReg.h"
#include "support/Debug.h"

#include <string>
#include <vector>

namespace pdgc {

/// A physical register id; GPRs occupy [0, numGPRs), FPRs follow.
using PhysReg = unsigned;

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

public:
  TargetDesc(std::string NameIn, unsigned GPRsIn, unsigned FPRsIn,
             unsigned VolatilePerClassIn, unsigned MaxParamRegsIn,
             PairingRule PairingIn)
      : Name(std::move(NameIn)), GPRs(GPRsIn), FPRs(FPRsIn),
        VolatilePerClass(VolatilePerClassIn), MaxParamRegs(MaxParamRegsIn),
        Pairing(PairingIn) {
    assert(VolatilePerClass <= GPRs && VolatilePerClass <= FPRs &&
           "volatile partition exceeds class size");
    assert(MaxParamRegs <= VolatilePerClass &&
           "parameter registers must be volatile");
  }

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

  /// Returns true when a paired load writing \p First then \p Second can be
  /// fused into one machine operation.
  bool pairFuses(PhysReg First, PhysReg Second) const {
    if (regClass(First) != regClass(Second))
      return false;
    unsigned A = classIndex(First), B = classIndex(Second);
    switch (Pairing) {
    case PairingRule::Adjacent:
      return B == A + 1;
    case PairingRule::OddEven:
      return (A & 1) != (B & 1);
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
