//===- ir/VReg.h - Virtual register handle ----------------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A typed handle for virtual registers. After the renaming phase every
/// virtual register corresponds to exactly one live range, so the allocators
/// use VReg ids directly as live-range ids.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_IR_VREG_H
#define PDGC_IR_VREG_H

#include <cstdint>
#include <functional>

namespace pdgc {

/// Register class of a virtual or physical register.
enum class RegClass : std::uint8_t {
  GPR, ///< General-purpose (integer) registers.
  FPR, ///< Floating-point registers.
};

/// Lightweight handle identifying a virtual register within a Function.
class VReg {
  unsigned Id;

public:
  /// Constructs the invalid sentinel handle.
  VReg() : Id(~0u) {}
  explicit VReg(unsigned IdIn) : Id(IdIn) {}

  bool isValid() const { return Id != ~0u; }
  unsigned id() const { return Id; }

  friend bool operator==(VReg A, VReg B) { return A.Id == B.Id; }
  friend bool operator!=(VReg A, VReg B) { return A.Id != B.Id; }
  friend bool operator<(VReg A, VReg B) { return A.Id < B.Id; }
};

} // namespace pdgc

template <> struct std::hash<pdgc::VReg> {
  size_t operator()(pdgc::VReg R) const noexcept {
    return std::hash<unsigned>()(R.id());
  }
};

#endif // PDGC_IR_VREG_H
