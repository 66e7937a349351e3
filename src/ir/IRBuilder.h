//===- ir/IRBuilder.h - Convenience instruction emitter ---------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small builder that appends instructions to a current block and manages
/// CFG edges when terminators are emitted. Used by the examples, tests and
/// the workload generator.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_IR_IRBUILDER_H
#define PDGC_IR_IRBUILDER_H

#include "ir/Function.h"

namespace pdgc {

/// Appends instructions to a current insertion block.
class IRBuilder {
  Function &F;
  BasicBlock *BB = nullptr;

public:
  explicit IRBuilder(Function &Fn) : F(Fn) {}

  Function &function() { return F; }

  void setInsertBlock(BasicBlock *Block) { BB = Block; }

  /// def = imm
  VReg emitLoadImm(std::int64_t Imm, RegClass RC = RegClass::GPR);

  /// def = src; returns def.
  VReg emitMove(VReg Src);

  /// dst = src with a caller-chosen destination (calling-convention glue).
  void emitMoveTo(VReg Dst, VReg Src);

  /// def = memory[base + offset]
  VReg emitLoad(VReg Base, std::int64_t Offset, RegClass RC = RegClass::GPR);

  /// def = memory[base + offset], marked narrow: the definition avoids a
  /// fixup only in the target's narrow-capable registers (Section 3.1,
  /// limited register usage).
  VReg emitNarrowLoad(VReg Base, std::int64_t Offset,
                      RegClass RC = RegClass::GPR);

  /// Emits two loads off the same base at \p Offset and \p Offset + 1 and
  /// marks them as a paired-load candidate. Returns both defined registers.
  std::pair<VReg, VReg> emitPairedLoad(VReg Base, std::int64_t Offset,
                                       RegClass RC = RegClass::GPR);

  /// memory[base + offset] = value
  void emitStore(VReg Value, VReg Base, std::int64_t Offset);

  /// def = lhs <op> rhs for Add/Sub/Mul.
  VReg emitBinary(Opcode Op, VReg LHS, VReg RHS);

  /// def = src + imm
  VReg emitAddImm(VReg Src, std::int64_t Imm);

  /// def = (lhs < rhs) or (lhs == rhs); def is a GPR.
  VReg emitCompare(Opcode Op, VReg LHS, VReg RHS);

  /// Unconditional branch; declares the CFG edge.
  void emitBranch(BasicBlock *Target);

  /// Conditional branch; declares both CFG edges (taken first).
  void emitCondBranch(VReg Cond, BasicBlock *Taken, BasicBlock *NotTaken);

  /// call callee(args...); \p Args and \p Ret must be pinned registers (or
  /// Ret invalid for a void call).
  void emitCall(unsigned Callee, const std::vector<VReg> &Args, VReg Ret);

  /// Function return; \p Value must be a pinned register or invalid.
  void emitRet(VReg Value = VReg());

  /// def = phi(incoming...); must precede all non-phi instructions of the
  /// block; \p Incoming is parallel to the block's final predecessor list.
  VReg emitPhi(RegClass RC, const std::vector<VReg> &Incoming);
};

} // namespace pdgc

#endif // PDGC_IR_IRBUILDER_H
