//===- ir/Verifier.cpp - IR structural checks ------------------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IRPrinter.h"
#include "support/BitVector.h"
#include "support/Debug.h"

#include <algorithm>

using namespace pdgc;

namespace {

class VerifierImpl {
  const Function &F;
  std::vector<std::string> &Errors;

public:
  VerifierImpl(const Function &Fn, std::vector<std::string> &ErrorsIn)
      : F(Fn), Errors(ErrorsIn) {}

  void error(const BasicBlock *BB, const std::string &Msg) {
    Errors.push_back(F.name() + "/" + (BB ? BB->name() : "<func>") + ": " +
                     Msg);
  }

  bool checkVReg(const BasicBlock *BB, VReg R, const char *What) {
    if (R.isValid() && R.id() < F.numVRegs())
      return true;
    error(BB, std::string("invalid ") + What + " register");
    return false;
  }

  void checkBlock(const BasicBlock *BB) {
    if (BB->empty() || !BB->hasTerminator()) {
      error(BB, "block lacks a terminator");
      return;
    }
    bool SeenNonPhi = false;
    for (unsigned I = 0, E = BB->size(); I != E; ++I) {
      const Instruction &Inst = BB->inst(I);
      if (Inst.isTerminatorInst() && I + 1 != E)
        error(BB, "terminator in the middle of a block");
      if (Inst.isPhi()) {
        if (SeenNonPhi)
          error(BB, "phi after a non-phi instruction");
        if (Inst.numUses() != BB->numPredecessors())
          error(BB, "phi operand count does not match predecessors");
      } else {
        SeenNonPhi = true;
      }
      // A paired-load candidate is the head Load immediately followed by
      // its mate Load; the preference graph and the cost simulator read
      // the mate at I + 1 without re-checking, so the invariant must hold
      // for any function that reaches them (the parser accepts a
      // `pair-head` annotation anywhere).
      if (Inst.isPairHead()) {
        if (Inst.opcode() != Opcode::Load)
          error(BB, "pair-head annotation on a non-load instruction");
        else if (I + 1 == E || BB->inst(I + 1).opcode() != Opcode::Load)
          error(BB, "pair-head load is not followed by its mate load");
      }
      checkInstruction(BB, Inst);
    }

    // Successor count must match the terminator kind.
    unsigned WantSuccs = 0;
    switch (BB->terminator().opcode()) {
    case Opcode::Branch:
      WantSuccs = 1;
      break;
    case Opcode::CondBranch:
      WantSuccs = 2;
      break;
    case Opcode::Ret:
      WantSuccs = 0;
      break;
    default:
      pdgc_unreachable("non-terminator classified as terminator");
    }
    if (BB->numSuccessors() != WantSuccs)
      error(BB, "successor count does not match terminator");
    // Parallel edges would make a predecessor appear twice in a phi
    // block's list, breaking phi-operand indexing and edge splitting.
    if (BB->numSuccessors() == 2 &&
        BB->successors()[0] == BB->successors()[1])
      error(BB, "conditional branch with identical targets");

    // Edge symmetry.
    for (const BasicBlock *S : BB->successors()) {
      const auto &P = S->predecessors();
      if (std::count(P.begin(), P.end(), BB) !=
          std::count(BB->successors().begin(), BB->successors().end(), S))
        error(BB, "successor/predecessor lists disagree with " + S->name());
    }
  }

  void checkInstruction(const BasicBlock *BB, const Instruction &I) {
    if (I.hasDef())
      checkVReg(BB, I.def(), "def");
    for (unsigned U = 0, E = I.numUses(); U != E; ++U)
      checkVReg(BB, I.use(U), "use");

    switch (I.opcode()) {
    case Opcode::Move:
      if (F.regClass(I.def()) != F.regClass(I.use(0)))
        error(BB, "move across register classes: " + printInstruction(F, I));
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
      if (F.regClass(I.use(0)) != F.regClass(I.use(1)) ||
          F.regClass(I.def()) != F.regClass(I.use(0)))
        error(BB, "operand class mismatch: " + printInstruction(F, I));
      break;
    case Opcode::CmpLT:
    case Opcode::CmpEQ:
      if (F.regClass(I.def()) != RegClass::GPR)
        error(BB, "compare result must be a GPR");
      if (F.regClass(I.use(0)) != F.regClass(I.use(1)))
        error(BB, "compare operand class mismatch");
      break;
    case Opcode::CondBranch:
      if (F.regClass(I.use(0)) != RegClass::GPR)
        error(BB, "branch condition must be a GPR");
      break;
    case Opcode::Load:
      if (F.regClass(I.use(0)) != RegClass::GPR)
        error(BB, "load base must be a GPR");
      break;
    case Opcode::Store:
      if (F.regClass(I.use(1)) != RegClass::GPR)
        error(BB, "store base must be a GPR");
      break;
    case Opcode::Call:
      for (unsigned U = 0, E = I.numUses(); U != E; ++U)
        if (!F.isPinned(I.use(U)))
          error(BB, "call argument is not pinned");
      if (I.hasDef() && !F.isPinned(I.def()))
        error(BB, "call return is not pinned");
      break;
    case Opcode::Ret:
      if (I.numUses() > 1)
        error(BB, "ret takes at most one value");
      if (I.numUses() == 1 && !F.isPinned(I.use(0)))
        error(BB, "ret value is not pinned");
      break;
    default:
      break;
    }
  }

  /// Every use must be reached by a definition (or a parameter) on every
  /// path from entry. Without this, a value with no def slips through to
  /// allocation, where a pinned undefined call operand that is live across
  /// its own call produces an unsatisfiable instance no allocator can
  /// color — found by fuzzing mutated fixtures. Standard backward liveness
  /// with phi operand k treated as live out of predecessor k; anything
  /// live into entry besides the parameters is a possibly-undefined use.
  void checkDefinedUses() {
    const unsigned NumBlocks = F.numBlocks();
    const unsigned NumRegs = F.numVRegs();
    std::vector<BitVector> Gen(NumBlocks, BitVector(NumRegs));
    std::vector<BitVector> Kill(NumBlocks, BitVector(NumRegs));
    std::vector<BitVector> PhiOut(NumBlocks, BitVector(NumRegs));
    for (unsigned B = 0; B != NumBlocks; ++B) {
      const BasicBlock *BB = F.block(B);
      for (unsigned I = BB->size(); I-- > 0;) {
        const Instruction &Inst = BB->inst(I);
        if (Inst.hasDef()) {
          Gen[B].reset(Inst.def().id());
          Kill[B].set(Inst.def().id());
        }
        if (Inst.isPhi()) {
          // Operand U is consumed on the edge from predecessor U, not
          // upward-exposed here.
          for (unsigned U = 0, E = Inst.numUses(); U != E; ++U)
            PhiOut[BB->predecessors()[U]->id()].set(Inst.use(U).id());
        } else {
          for (unsigned U = 0, E = Inst.numUses(); U != E; ++U)
            Gen[B].set(Inst.use(U).id());
        }
      }
    }

    std::vector<BitVector> LiveIn(NumBlocks, BitVector(NumRegs));
    std::vector<unsigned> RPO = F.reversePostOrder();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned It = RPO.size(); It-- > 0;) {
        unsigned B = RPO[It];
        BitVector Out = PhiOut[B];
        for (const BasicBlock *S : F.block(B)->successors())
          Out |= LiveIn[S->id()];
        Out.resetAll(Kill[B]);
        Out |= Gen[B];
        if (Out != LiveIn[B]) {
          LiveIn[B] = std::move(Out);
          Changed = true;
        }
      }
    }

    BitVector Undefined = LiveIn[F.entry()->id()];
    for (VReg P : F.params())
      Undefined.reset(P.id());
    for (unsigned R : Undefined.setBits())
      error(nullptr,
            "use of undefined value v" + std::to_string(R) +
                " (no definition reaches it)");
  }

  bool run() {
    if (F.numBlocks() == 0) {
      error(nullptr, "function has no blocks");
      return false;
    }
    size_t Before = Errors.size();
    for (unsigned B = 0, E = F.numBlocks(); B != E; ++B)
      checkBlock(F.block(B));
    if (!F.entry()->predecessors().empty())
      error(F.entry(), "entry block must not have predecessors");
    for (VReg P : F.params())
      if (!F.isPinned(P))
        error(nullptr, "parameter is not pinned");
    // The dataflow check indexes phi operands by predecessor position and
    // walks the CFG; only run it on structurally sound functions.
    if (Errors.size() == Before)
      checkDefinedUses();
    return Errors.size() == Before;
  }
};

} // namespace

bool pdgc::verifyFunction(const Function &F,
                          std::vector<std::string> &Errors) {
  return VerifierImpl(F, Errors).run();
}
