//===- sim/Interpreter.cpp - Reference IR interpreter -----------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "sim/Interpreter.h"

#include "support/Debug.h"

#include <bit>

using namespace pdgc;

namespace {

/// Deterministic 64-bit mixer (SplitMix64 finalizer).
std::uint64_t mix64(std::uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ULL;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBULL;
  X ^= X >> 31;
  return X;
}

/// Integer arithmetic of the simulated machine: 64-bit two's complement
/// that wraps on overflow. Computed in std::uint64_t, because overflowing
/// std::int64_t is undefined behaviour.
std::int64_t wrapAdd(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) +
                                   static_cast<std::uint64_t>(B));
}
std::int64_t wrapSub(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) -
                                   static_cast<std::uint64_t>(B));
}
std::int64_t wrapMul(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) *
                                   static_cast<std::uint64_t>(B));
}

/// Register/slot storage for both interpretation modes.
class MachineState {
  const Function &F;
  const TargetDesc *Target; ///< Null in virtual mode.
  const std::vector<int> *Assignment;
  std::vector<std::int64_t> IntRegs;
  std::vector<double> FpRegs;
  std::vector<std::int64_t> IntSlots;
  std::vector<double> FpSlots;

  unsigned indexOf(VReg R) const {
    if (!Target)
      return R.id();
    assert(R.id() < Assignment->size() && (*Assignment)[R.id()] >= 0 &&
           "executing a register with no assignment");
    return static_cast<unsigned>((*Assignment)[R.id()]);
  }

public:
  MachineState(const Function &Fn, const TargetDesc *TargetIn,
               const std::vector<int> *AssignmentIn, unsigned MaxSlots)
      : F(Fn), Target(TargetIn), Assignment(AssignmentIn) {
    unsigned NumRegs = TargetIn ? TargetIn->numRegs() : Fn.numVRegs();
    IntRegs.assign(NumRegs, 0);
    FpRegs.assign(NumRegs, 0.0);
    IntSlots.assign(MaxSlots, 0);
    FpSlots.assign(MaxSlots, 0.0);
  }

  std::int64_t readInt(VReg R) const { return IntRegs[indexOf(R)]; }
  double readFp(VReg R) const { return FpRegs[indexOf(R)]; }

  void writeInt(VReg R, std::int64_t V) { IntRegs[indexOf(R)] = V; }
  void writeFp(VReg R, double V) { FpRegs[indexOf(R)] = V; }

  /// Reads register \p R as raw bits of its class's value.
  std::uint64_t readBits(VReg R) const {
    if (F.regClass(R) == RegClass::GPR)
      return static_cast<std::uint64_t>(readInt(R));
    return std::bit_cast<std::uint64_t>(readFp(R));
  }

  std::int64_t &intSlot(unsigned S) {
    pdgc_check(S < IntSlots.size(), "spill slot out of range");
    return IntSlots[S];
  }
  double &fpSlot(unsigned S) {
    pdgc_check(S < FpSlots.size(), "spill slot out of range");
    return FpSlots[S];
  }
};

class Interpreter {
  const Function &F;
  const InterpreterOptions &Options;
  MachineState State;
  std::vector<std::int64_t> IntHeap;
  std::vector<double> FpHeap;
  ExecutionResult Result;

  unsigned heapIndex(std::int64_t Addr) const {
    std::uint64_t U = static_cast<std::uint64_t>(Addr);
    return static_cast<unsigned>(U % Options.HeapWords);
  }

  void digestStore(unsigned Tag, unsigned Index, std::uint64_t Bits) {
    // FNV-1a over the (tag, index, value) triple.
    std::uint64_t H = Result.StoreDigest ? Result.StoreDigest
                                         : 0xCBF29CE484222325ULL;
    auto Step = [&H](std::uint64_t V) {
      for (unsigned B = 0; B != 8; ++B) {
        H ^= (V >> (8 * B)) & 0xFF;
        H *= 0x100000001B3ULL;
      }
    };
    Step(Tag);
    Step(Index);
    Step(Bits);
    Result.StoreDigest = H;
  }

public:
  Interpreter(const Function &Fn, const TargetDesc *Target,
              const std::vector<int> *Assignment,
              const InterpreterOptions &OptionsIn)
      : F(Fn), Options(OptionsIn),
        State(Fn, Target, Assignment, OptionsIn.MaxSpillSlots) {
    IntHeap.resize(Options.HeapWords);
    FpHeap.resize(Options.HeapWords);
    for (unsigned I = 0; I != Options.HeapWords; ++I) {
      IntHeap[I] = static_cast<std::int64_t>(mix64(I + 1));
      FpHeap[I] =
          static_cast<double>(static_cast<std::int64_t>(mix64(I + 101)) %
                              65536) /
          16.0;
    }
  }

  ExecutionResult run(const std::vector<std::int64_t> &Args) {
    // Materialize the arguments into the parameter registers.
    const std::vector<VReg> &Params = F.params();
    for (unsigned I = 0, E = Params.size(); I != E; ++I) {
      std::int64_t V = I < Args.size() ? Args[I] : 0;
      if (F.regClass(Params[I]) == RegClass::GPR)
        State.writeInt(Params[I], V);
      else
        State.writeFp(Params[I], static_cast<double>(V));
    }

    const BasicBlock *BB = F.entry();
    const BasicBlock *Prev = nullptr;
    while (Result.Steps < Options.MaxSteps) {
      const BasicBlock *Next = executeBlock(BB, Prev);
      if (!Next)
        return Result; // Returned (Completed set) or out of fuel.
      Prev = BB;
      BB = Next;
    }
    return Result;
  }

private:
  /// Executes \p BB (entered from \p Prev) and returns the successor, or
  /// null when the function returned or fuel ran out.
  const BasicBlock *executeBlock(const BasicBlock *BB,
                                 const BasicBlock *Prev) {
    unsigned I = 0;
    const unsigned E = BB->size();

    // Phis are a parallel assignment at block entry.
    if (E != 0 && BB->inst(0).isPhi()) {
      unsigned PredIdx = BB->predecessorIndex(Prev);
      std::vector<std::uint64_t> Incoming;
      unsigned NumPhis = 0;
      while (NumPhis < E && BB->inst(NumPhis).isPhi()) {
        Incoming.push_back(State.readBits(BB->inst(NumPhis).use(PredIdx)));
        ++NumPhis;
      }
      for (unsigned P = 0; P != NumPhis; ++P) {
        VReg D = BB->inst(P).def();
        if (F.regClass(D) == RegClass::GPR)
          State.writeInt(D, static_cast<std::int64_t>(Incoming[P]));
        else
          State.writeFp(D, std::bit_cast<double>(Incoming[P]));
        ++Result.Steps;
      }
      I = NumPhis;
    }

    for (; I != E; ++I) {
      if (Result.Steps++ >= Options.MaxSteps)
        return nullptr;
      const Instruction &Inst = BB->inst(I);
      switch (Inst.opcode()) {
      case Opcode::LoadImm:
        if (F.regClass(Inst.def()) == RegClass::GPR)
          State.writeInt(Inst.def(), Inst.imm());
        else
          State.writeFp(Inst.def(), static_cast<double>(Inst.imm()));
        break;
      case Opcode::Move:
        if (F.regClass(Inst.def()) == RegClass::GPR)
          State.writeInt(Inst.def(), State.readInt(Inst.use(0)));
        else
          State.writeFp(Inst.def(), State.readFp(Inst.use(0)));
        break;
      case Opcode::Load: {
        unsigned Idx =
            heapIndex(wrapAdd(State.readInt(Inst.use(0)), Inst.imm()));
        if (F.regClass(Inst.def()) == RegClass::GPR)
          State.writeInt(Inst.def(), IntHeap[Idx]);
        else
          State.writeFp(Inst.def(), FpHeap[Idx]);
        break;
      }
      case Opcode::Store: {
        unsigned Idx =
            heapIndex(wrapAdd(State.readInt(Inst.use(1)), Inst.imm()));
        if (F.regClass(Inst.use(0)) == RegClass::GPR) {
          IntHeap[Idx] = State.readInt(Inst.use(0));
          digestStore(1, Idx, static_cast<std::uint64_t>(IntHeap[Idx]));
        } else {
          FpHeap[Idx] = State.readFp(Inst.use(0));
          digestStore(2, Idx, std::bit_cast<std::uint64_t>(FpHeap[Idx]));
        }
        break;
      }
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
        if (F.regClass(Inst.def()) == RegClass::GPR) {
          std::int64_t A = State.readInt(Inst.use(0));
          std::int64_t B = State.readInt(Inst.use(1));
          std::int64_t R = Inst.opcode() == Opcode::Add   ? wrapAdd(A, B)
                           : Inst.opcode() == Opcode::Sub ? wrapSub(A, B)
                                                          : wrapMul(A, B);
          State.writeInt(Inst.def(), R);
        } else {
          double A = State.readFp(Inst.use(0));
          double B = State.readFp(Inst.use(1));
          double R = Inst.opcode() == Opcode::Add   ? A + B
                     : Inst.opcode() == Opcode::Sub ? A - B
                                                    : A * B;
          State.writeFp(Inst.def(), R);
        }
        break;
      case Opcode::AddImm:
        if (F.regClass(Inst.def()) == RegClass::GPR)
          State.writeInt(Inst.def(),
                         wrapAdd(State.readInt(Inst.use(0)), Inst.imm()));
        else
          State.writeFp(Inst.def(), State.readFp(Inst.use(0)) +
                                        static_cast<double>(Inst.imm()));
        break;
      case Opcode::CmpLT:
      case Opcode::CmpEQ: {
        bool R;
        if (F.regClass(Inst.use(0)) == RegClass::GPR) {
          std::int64_t A = State.readInt(Inst.use(0));
          std::int64_t B = State.readInt(Inst.use(1));
          R = Inst.opcode() == Opcode::CmpLT ? A < B : A == B;
        } else {
          double A = State.readFp(Inst.use(0));
          double B = State.readFp(Inst.use(1));
          R = Inst.opcode() == Opcode::CmpLT ? A < B : A == B;
        }
        State.writeInt(Inst.def(), R ? 1 : 0);
        break;
      }
      case Opcode::Branch:
        return BB->successors()[0];
      case Opcode::CondBranch:
        return State.readInt(Inst.use(0)) != 0 ? BB->successors()[0]
                                               : BB->successors()[1];
      case Opcode::Call: {
        // Deterministic external function of (callee, arguments).
        std::uint64_t H = mix64(0x9E3779B97F4A7C15ULL ^ Inst.callee());
        for (unsigned U = 0, UE = Inst.numUses(); U != UE; ++U)
          H = mix64(H ^ State.readBits(Inst.use(U)));
        if (Inst.hasDef()) {
          if (F.regClass(Inst.def()) == RegClass::GPR)
            State.writeInt(Inst.def(), static_cast<std::int64_t>(H));
          else
            State.writeFp(Inst.def(),
                          static_cast<double>(static_cast<std::int64_t>(
                              H % 65536)) /
                              16.0);
        }
        break;
      }
      case Opcode::Ret:
        Result.Completed = true;
        if (Inst.numUses() == 1) {
          if (F.regClass(Inst.use(0)) == RegClass::GPR)
            Result.ReturnValue = State.readInt(Inst.use(0));
          else
            Result.ReturnValue =
                std::bit_cast<std::int64_t>(State.readFp(Inst.use(0)));
        }
        return nullptr;
      case Opcode::Phi:
        pdgc_unreachable("phi past the block head");
      case Opcode::SpillLoad: {
        unsigned S = static_cast<unsigned>(Inst.imm());
        if (F.regClass(Inst.def()) == RegClass::GPR)
          State.writeInt(Inst.def(), State.intSlot(S));
        else
          State.writeFp(Inst.def(), State.fpSlot(S));
        break;
      }
      case Opcode::SpillStore: {
        unsigned S = static_cast<unsigned>(Inst.imm());
        if (F.regClass(Inst.use(0)) == RegClass::GPR)
          State.intSlot(S) = State.readInt(Inst.use(0));
        else
          State.fpSlot(S) = State.readFp(Inst.use(0));
        break;
      }
      }
    }
    pdgc_unreachable("block fell through without a terminator");
  }
};

} // namespace

ExecutionResult pdgc::runVirtual(const Function &F,
                                 const std::vector<std::int64_t> &Args,
                                 const InterpreterOptions &Options) {
  return Interpreter(F, nullptr, nullptr, Options).run(Args);
}

ExecutionResult pdgc::runAllocated(const Function &F,
                                   const TargetDesc &Target,
                                   const std::vector<int> &Assignment,
                                   const std::vector<std::int64_t> &Args,
                                   const InterpreterOptions &Options) {
  return Interpreter(F, &Target, &Assignment, Options).run(Args);
}
