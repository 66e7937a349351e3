//===- machine/TargetDesc.cpp - Machine register model ---------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "machine/TargetDesc.h"

using namespace pdgc;

TargetDesc::TargetDesc(std::string NameIn, unsigned GPRsIn, unsigned FPRsIn,
                       unsigned VolatilePerClassIn, unsigned MaxParamRegsIn,
                       PairingRule PairingIn)
    : Name(std::move(NameIn)), GPRs(GPRsIn), FPRs(FPRsIn),
      VolatilePerClass(VolatilePerClassIn), MaxParamRegs(MaxParamRegsIn),
      Pairing(PairingIn) {
  pdgc_check(GPRs <= MaxRegsPerClass && FPRs <= MaxRegsPerClass,
             "a register class holds at most MaxRegsPerClass (32) "
             "registers");
  assert(VolatilePerClass <= GPRs && VolatilePerClass <= FPRs &&
         "volatile partition exceeds class size");
  assert(MaxParamRegs <= VolatilePerClass &&
         "parameter registers must be volatile");
  for (RegClass RC : {RegClass::GPR, RegClass::FPR}) {
    const unsigned First = firstReg(RC), N = numRegs(RC);
    ClassRegs[index(RC)] = RegMask::range(First, N);
    VolatileRegs[index(RC)] = RegMask::range(First, VolatilePerClass);
    NarrowRegs[index(RC)] =
        RegMask::range(First, numNarrowRegs(RC)) & ClassRegs[index(RC)];
    for (unsigned I = 0; I < N; I += 2)
      EvenRegs[index(RC)].set(First + I);
  }
}

TargetDesc pdgc::makeTarget(unsigned RegsPerClass, PairingRule Pairing) {
  unsigned Volatile = RegsPerClass / 2;
  unsigned Params = Volatile < 8 ? Volatile : 8;
  return TargetDesc("target" + std::to_string(RegsPerClass), RegsPerClass,
                    RegsPerClass, Volatile, Params, Pairing);
}

TargetDesc pdgc::makeHighPressureTarget() { return makeTarget(16); }

TargetDesc pdgc::makeMiddlePressureTarget() { return makeTarget(24); }

TargetDesc pdgc::makeLowPressureTarget() { return makeTarget(32); }
