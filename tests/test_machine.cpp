//===- tests/test_machine.cpp - Machine model unit tests --------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "machine/RegMask.h"
#include "machine/TargetDesc.h"
#include "support/Debug.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pdgc;

namespace {

TEST(TargetDesc, CannedModelsMatchPaperPressure) {
  // Section 6: 16 / 24 / 32 registers, half volatile, <= 8 parameter regs.
  TargetDesc High = makeHighPressureTarget();
  EXPECT_EQ(High.numRegs(RegClass::GPR), 16u);
  EXPECT_EQ(High.numRegs(RegClass::FPR), 16u);
  EXPECT_EQ(High.numVolatile(RegClass::GPR), 8u);
  EXPECT_EQ(High.numNonVolatile(RegClass::GPR), 8u);
  EXPECT_EQ(High.maxParamRegs(), 8u);

  TargetDesc Mid = makeMiddlePressureTarget();
  EXPECT_EQ(Mid.numRegs(RegClass::GPR), 24u);
  EXPECT_EQ(Mid.numVolatile(RegClass::GPR), 12u);

  TargetDesc Low = makeLowPressureTarget();
  EXPECT_EQ(Low.numRegs(RegClass::GPR), 32u);
  EXPECT_EQ(Low.numRegs(), 64u);
}

TEST(TargetDesc, ClassLayoutIsContiguous) {
  TargetDesc T = makeTarget(16);
  EXPECT_EQ(T.firstReg(RegClass::GPR), 0u);
  EXPECT_EQ(T.firstReg(RegClass::FPR), 16u);
  EXPECT_EQ(T.regClass(0), RegClass::GPR);
  EXPECT_EQ(T.regClass(15), RegClass::GPR);
  EXPECT_EQ(T.regClass(16), RegClass::FPR);
  EXPECT_EQ(T.regClass(31), RegClass::FPR);
  EXPECT_EQ(T.classIndex(16), 0u);
  EXPECT_EQ(T.classIndex(31), 15u);
}

TEST(TargetDesc, RegAtClassIndexBounds) {
  TargetDesc T = makeTarget(16);
  EXPECT_EQ(T.regAtClassIndex(RegClass::GPR, 0), 0);
  EXPECT_EQ(T.regAtClassIndex(RegClass::FPR, 0), 16);
  EXPECT_EQ(T.regAtClassIndex(RegClass::GPR, 15), 15);
  EXPECT_EQ(T.regAtClassIndex(RegClass::GPR, 16), -1);
  EXPECT_EQ(T.regAtClassIndex(RegClass::GPR, -1), -1);
}

TEST(TargetDesc, VolatilityPartition) {
  TargetDesc T = makeTarget(16);
  // Registers 0..7 of each class volatile, 8..15 non-volatile.
  for (unsigned I = 0; I != 8; ++I) {
    EXPECT_TRUE(T.isVolatile(I));
    EXPECT_TRUE(T.isVolatile(16 + I));
  }
  for (unsigned I = 8; I != 16; ++I) {
    EXPECT_FALSE(T.isVolatile(I));
    EXPECT_FALSE(T.isVolatile(16 + I));
  }
}

TEST(TargetDesc, ParamAndReturnConventions) {
  TargetDesc T = makeTarget(24);
  EXPECT_EQ(T.paramReg(RegClass::GPR, 0), 0u);
  EXPECT_EQ(T.paramReg(RegClass::GPR, 7), 7u);
  EXPECT_EQ(T.paramReg(RegClass::FPR, 0), 24u);
  // Return register doubles as the first parameter register.
  EXPECT_EQ(T.returnReg(RegClass::GPR), T.paramReg(RegClass::GPR, 0));
  // Parameter registers are always volatile (caller-owned).
  for (unsigned I = 0; I != T.maxParamRegs(); ++I)
    EXPECT_TRUE(T.isVolatile(T.paramReg(RegClass::GPR, I)));
}

TEST(TargetDesc, AdjacentPairingRule) {
  TargetDesc T = makeTarget(16, PairingRule::Adjacent);
  EXPECT_TRUE(T.pairFuses(3, 4));
  EXPECT_FALSE(T.pairFuses(4, 3));
  EXPECT_FALSE(T.pairFuses(3, 5));
  EXPECT_FALSE(T.pairFuses(3, 3));
  // Adjacency is within a class: GPR15 and FPR0 are not a pair.
  EXPECT_FALSE(T.pairFuses(15, 16));
  EXPECT_TRUE(T.pairFuses(16, 17));
}

TEST(TargetDesc, OddEvenPairingRule) {
  TargetDesc T = makeTarget(16, PairingRule::OddEven);
  EXPECT_TRUE(T.pairFuses(0, 1));
  EXPECT_TRUE(T.pairFuses(1, 0));
  EXPECT_TRUE(T.pairFuses(3, 6));
  EXPECT_FALSE(T.pairFuses(0, 2));
  EXPECT_FALSE(T.pairFuses(1, 3));
  EXPECT_FALSE(T.pairFuses(15, 16)); // Cross-class.
}

TEST(TargetDesc, RegNames) {
  TargetDesc T = makeTarget(16);
  EXPECT_EQ(T.regName(0), "r0");
  EXPECT_EQ(T.regName(15), "r15");
  EXPECT_EQ(T.regName(16), "f0");
  EXPECT_EQ(T.regName(31), "f15");
}

TEST(TargetDesc, ClassWidthIsCappedAtThirtyTwo) {
  EXPECT_EQ(MaxRegsPerClass, 32u);
  EXPECT_EQ(makeTarget(32).numRegs(), 64u);
  // The check holds in every build, not only where asserts are on.
  ScopedErrorTrap Trap;
  EXPECT_THROW(makeTarget(33), FatalError);
  EXPECT_THROW(TargetDesc("wide", 16, 33, 8, 8, PairingRule::Adjacent),
               FatalError);
}

/// The set of class-\p RC registers R for which \p Pred(R) holds, built
/// one register at a time as the reference for TargetDesc's masks.
template <typename PredFn>
RegMask naiveMask(const TargetDesc &T, RegClass RC, PredFn Pred) {
  RegMask M;
  for (unsigned I = 0; I != T.numRegs(RC); ++I)
    if (Pred(T.firstReg(RC) + I))
      M.set(T.firstReg(RC) + I);
  return M;
}

TEST(TargetDesc, MasksMatchThePerRegisterPredicates) {
  for (PairingRule Rule : {PairingRule::Adjacent, PairingRule::OddEven})
    for (unsigned Regs : {2u, 3u, 16u, 24u, 31u, 32u}) {
      SCOPED_TRACE(Regs);
      TargetDesc T = makeTarget(Regs, Rule);
      for (RegClass RC : {RegClass::GPR, RegClass::FPR}) {
        EXPECT_EQ(T.classMask(RC), naiveMask(T, RC, [](PhysReg) {
                    return true;
                  }));
        EXPECT_EQ(T.volatileMask(RC), naiveMask(T, RC, [&](PhysReg R) {
                    return T.isVolatile(R);
                  }));
        EXPECT_EQ(T.nonVolatileMask(RC), naiveMask(T, RC, [&](PhysReg R) {
                    return !T.isVolatile(R);
                  }));
        EXPECT_EQ(T.narrowMask(RC), naiveMask(T, RC, [&](PhysReg R) {
                    return T.isNarrowCapable(R);
                  }));
      }
      // The pairing rule as Section 3.1 states it.
      auto Fuses = [&](PhysReg F, PhysReg S) {
        if (T.regClass(F) != T.regClass(S))
          return false;
        const unsigned A = T.classIndex(F), B = T.classIndex(S);
        return Rule == PairingRule::Adjacent ? B == A + 1
                                             : (A & 1) != (B & 1);
      };
      for (PhysReg R = 0; R != T.numRegs(); ++R) {
        const RegClass RC = T.regClass(R);
        EXPECT_EQ(T.pairAfter(R), naiveMask(T, RC, [&](PhysReg S) {
                    return Fuses(R, S);
                  })) << R;
        EXPECT_EQ(T.pairBefore(R), naiveMask(T, RC, [&](PhysReg F) {
                    return Fuses(F, R);
                  })) << R;
        for (PhysReg S = 0; S != T.numRegs(); ++S)
          EXPECT_EQ(T.pairFuses(R, S), Fuses(R, S)) << R << "," << S;
      }
    }
}

TEST(RegMask, IteratesInAscendingOrder) {
  RegMask M;
  for (unsigned R : {40u, 3u, 63u, 0u, 17u})
    M.set(R);
  std::vector<unsigned> Seen;
  for (unsigned R : M)
    Seen.push_back(R);
  EXPECT_EQ(Seen, (std::vector<unsigned>{0, 3, 17, 40, 63}));
  EXPECT_EQ(M.count(), 5u);
}

TEST(RegMask, EmptyMask) {
  RegMask M;
  EXPECT_TRUE(M.none());
  EXPECT_FALSE(M.any());
  EXPECT_EQ(M.count(), 0u);
  EXPECT_EQ(M.findFirst(), -1);
  unsigned Visited = 0;
  for (unsigned R : M) {
    (void)R;
    ++Visited;
  }
  EXPECT_EQ(Visited, 0u);
  EXPECT_EQ(RegMask::range(5, 0), RegMask());
}

TEST(RegMask, TopBit) {
  RegMask M = RegMask::single(63);
  EXPECT_TRUE(M.test(63));
  EXPECT_FALSE(M.test(62));
  EXPECT_EQ(M.findFirst(), 63);
  EXPECT_EQ(M.count(), 1u);
  EXPECT_EQ(RegMask::range(32, 32).count(), 32u);
  EXPECT_TRUE(RegMask::range(32, 32).test(63));
  EXPECT_EQ(RegMask::range(0, 64).count(), 64u);
}

TEST(RegMask, SetAlgebraStaysWithinAClassMask) {
  // The FPR class of a 32-per-class target: registers 32..63.
  const RegMask Class = RegMask::range(32, 32);
  RegMask Taken;
  Taken.set(32);
  Taken.set(63);
  Taken.set(5); // A GPR: outside the class.
  const RegMask Free = Class & ~Taken;
  EXPECT_EQ(Free.count(), 30u);
  EXPECT_FALSE(Free.test(32));
  EXPECT_FALSE(Free.test(63));
  EXPECT_FALSE(Free.test(5));
  EXPECT_EQ(Free.findFirst(), 33);
  EXPECT_EQ(Free | (Taken & Class), Class);
  EXPECT_EQ(Free & Taken, RegMask());
  RegMask Acc = Free;
  Acc &= RegMask::range(40, 4);
  EXPECT_EQ(Acc, RegMask::range(40, 4));
  Acc |= RegMask::single(33);
  EXPECT_EQ(Acc.findFirst(), 33);
}

} // namespace
