//===- ir/Verifier.h - IR structural checks ---------------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural well-formedness checks for IR functions. The verifier runs in
/// tests after every transformation (phi elimination, spill insertion,
/// rewriting) to catch malformed IR early.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_IR_VERIFIER_H
#define PDGC_IR_VERIFIER_H

#include "ir/Function.h"

#include <string>
#include <vector>

namespace pdgc {

/// Checks \p F for structural errors and appends human-readable messages to
/// \p Errors. Returns true when no errors were found.
///
/// Checked invariants:
///  * every block ends with exactly one terminator, and no terminator
///    appears earlier;
///  * Branch/CondBranch successor counts match the edge lists, Ret has none;
///  * predecessor/successor lists are mutually consistent;
///  * phis appear only at the start of a block and have one incoming value
///    per predecessor;
///  * every use refers to a created virtual register of a compatible class
///    (compares/conditions are GPRs, operand classes agree);
///  * call arguments / returns and Ret values are pinned registers;
///  * two pinned registers mapped to the same physical register are never
///    simultaneously live (checked structurally: no block defines one while
///    the other is live — left to the interference builder, which asserts).
bool verifyFunction(const Function &F, std::vector<std::string> &Errors);

} // namespace pdgc

#endif // PDGC_IR_VERIFIER_H
