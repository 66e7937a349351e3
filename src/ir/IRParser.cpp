//===- ir/IRParser.cpp - Textual IR parser -----------------------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
//
// One lexer over std::string_views into the input buffer: lines, tokens
// and names are views, and a diagnostic string is built only on failure.
// A label scan runs first, so block ids follow label order and a label
// error is reported ahead of any instruction error; the second scan
// parses the parameters and the instructions.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/Debug.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace pdgc;

namespace {

/// A parsed operand: a register token or an integer immediate.
struct Operand {
  bool IsReg = false;
  VReg Reg;
  std::int64_t Imm = 0;
};

/// Largest register id the parser accepts. Malformed or adversarial input
/// (the fuzzer's bread and butter) must not be able to request a
/// multi-gigabyte register table via `v99999999999`.
constexpr unsigned MaxVRegId = 1u << 20;

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// The blanks the printer's layout can leave around a line or a token:
/// spaces, tabs and a Windows line end's carriage return.
bool isBlank(char C) { return C == ' ' || C == '\t' || C == '\r'; }

/// Whitespace in the C locale: what separates successor and predecessor
/// names.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

std::string_view trim(std::string_view S) {
  while (!S.empty() && isBlank(S.front()))
    S.remove_prefix(1);
  while (!S.empty() && isBlank(S.back()))
    S.remove_suffix(1);
  return S;
}

/// Takes the next line off \p Rest: up to the next '\n', with no empty
/// line after a final '\n'.
bool nextLine(std::string_view &Rest, std::string_view &Line) {
  if (Rest.empty())
    return false;
  const size_t End = std::min(Rest.find('\n'), Rest.size());
  Line = Rest.substr(0, End);
  Rest.remove_prefix(std::min(End + 1, Rest.size()));
  return true;
}

/// Takes the next whitespace-separated word off \p Rest.
bool nextWord(std::string_view &Rest, std::string_view &Word) {
  size_t Start = 0;
  while (Start != Rest.size() && isSpace(Rest[Start]))
    ++Start;
  size_t End = Start;
  while (End != Rest.size() && !isSpace(Rest[End]))
    ++End;
  Word = Rest.substr(Start, End - Start);
  Rest.remove_prefix(End);
  return !Word.empty();
}

/// Parses the decimal digits starting at \p Pos into \p Out without ever
/// throwing; advances \p Pos past them. Fails on no digits or overflow of
/// \p Max.
bool parseDigits(std::string_view S, size_t &Pos, std::uint64_t Max,
                 std::uint64_t &Out) {
  size_t Start = Pos;
  std::uint64_t V = 0;
  while (Pos < S.size() && isDigit(S[Pos])) {
    unsigned D = static_cast<unsigned>(S[Pos] - '0');
    if (V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
    ++Pos;
  }
  if (Pos == Start)
    return false;
  Out = V;
  return true;
}

/// The opcode a mnemonic names, from a table built once out of
/// opcodeName(), so the printer and the parser spell each mnemonic alike.
std::optional<Opcode> opcodeByName(std::string_view Name) {
  static const std::vector<std::pair<std::string_view, Opcode>> Table = [] {
    std::vector<std::pair<std::string_view, Opcode>> T;
    // SpillStore is the last enumerator.
    for (unsigned I = 0; I <= static_cast<unsigned>(Opcode::SpillStore); ++I)
      T.emplace_back(opcodeName(static_cast<Opcode>(I)),
                     static_cast<Opcode>(I));
    return T;
  }();
  for (const auto &[Key, Op] : Table)
    if (Key == Name)
      return Op;
  return std::nullopt;
}

class Parser {
  std::string_view Text;
  std::unique_ptr<Function> F;
  std::unordered_map<std::string_view, BasicBlock *> BlocksByName;
  /// Per block id: the successor names of its br/condbr (one or two; the
  /// count is zero for a block without one) and the text after its
  /// label's `preds:`, which restores the phi-relevant ordering.
  struct BlockRefs {
    std::string_view Succs[2];
    unsigned NumSuccs = 0;
    std::string_view Preds;
  };
  std::vector<BlockRefs> Refs;
  std::vector<Operand> Ops; ///< Operand scratch, reused per line.
  std::string Error;
  unsigned LineNo = 0;
  /// Register ids whose class annotation has been seen; a later token
  /// naming a different class is a conflict, not a silent overwrite.
  std::vector<char> SeenClass;

  /// Records the first diagnostic, prefixed with the current line.
  bool fail(std::string_view Msg, std::string_view Quoted = {},
            std::string_view Close = {}) {
    if (Error.empty()) {
      Error = "line " + std::to_string(LineNo) + ": ";
      Error.append(Msg).append(Quoted).append(Close);
    }
    return false;
  }

  BasicBlock *findBlock(std::string_view Name) const {
    auto It = BlocksByName.find(Name);
    return It == BlocksByName.end() ? nullptr : It->second;
  }

  /// Ensures register id \p Id exists with the given class (and optional
  /// pin). Conflicting annotations are an error.
  bool ensureVReg(unsigned Id, RegClass RC, int Pin) {
    while (F->numVRegs() <= Id) {
      F->createVReg(RegClass::GPR);
      SeenClass.push_back(0);
    }
    VRegInfo &Info = F->vregInfo(VReg(Id));
    if (SeenClass[Id] && Info.Class != RC)
      return fail("conflicting register class for v", std::to_string(Id));
    SeenClass[Id] = 1;
    Info.Class = RC;
    if (Pin >= 0) {
      if (Info.PinnedReg >= 0 && Info.PinnedReg != Pin)
        return fail("conflicting pin for v", std::to_string(Id));
      Info.PinnedReg = Pin;
    }
    return true;
  }

  /// Parses a register token `v<id>[(pinned:r<k>)][f]` starting at \p Pos
  /// of \p S; advances \p Pos past it.
  bool parseVReg(std::string_view S, size_t &Pos, VReg &Out) {
    if (Pos >= S.size() || S[Pos] != 'v')
      return fail("expected register token in '", S, "'");
    size_t P = Pos + 1;
    std::uint64_t Id64 = 0;
    if (!parseDigits(S, P, MaxVRegId, Id64))
      return fail("malformed or out-of-range register token in '", S, "'");
    unsigned Id = static_cast<unsigned>(Id64);
    int Pin = -1;
    if (S.compare(P, 9, "(pinned:r") == 0) {
      size_t Close = S.find(')', P);
      if (Close == std::string_view::npos)
        return fail("unterminated pin annotation");
      size_t PinPos = P + 9;
      std::uint64_t Pin64 = 0;
      if (!parseDigits(S, PinPos, 100000, Pin64) || PinPos != Close)
        return fail("malformed pin annotation in '", S, "'");
      Pin = static_cast<int>(Pin64);
      P = Close + 1;
    }
    RegClass RC = RegClass::GPR;
    if (P < S.size() && S[P] == 'f') {
      RC = RegClass::FPR;
      ++P;
    }
    if (!ensureVReg(Id, RC, Pin))
      return false;
    Out = VReg(Id);
    Pos = P;
    return true;
  }

  /// Splits a comma-separated operand list (registers and integers) into
  /// Ops.
  bool parseOperands(std::string_view S, int &Callee) {
    Ops.clear();
    std::string_view Rest = trim(S);
    while (!Rest.empty()) {
      if (Rest[0] == '@') {
        if (!Rest.starts_with("@f"))
          return fail("malformed callee token '", Rest, "'");
        size_t Pos = 2;
        std::uint64_t Callee64 = 0;
        if (!parseDigits(Rest, Pos, 1u << 30, Callee64) ||
            (Pos < Rest.size() && Rest[Pos] != ',' && Rest[Pos] != ' '))
          return fail("malformed callee token '", Rest, "'");
        Callee = static_cast<int>(Callee64);
        size_t Comma = Rest.find(',');
        Rest = Comma == std::string_view::npos ? std::string_view()
                                               : trim(Rest.substr(Comma + 1));
        continue;
      }
      Operand Op;
      size_t Pos = 0;
      if (Rest[0] == 'v') {
        Op.IsReg = true;
        if (!parseVReg(Rest, Pos, Op.Reg))
          return false;
      } else if (Rest[0] == '-' || isDigit(Rest[0])) {
        const bool Negative = Rest[0] == '-';
        Pos = Negative ? 1 : 0;
        std::uint64_t Mag = 0;
        if (!parseDigits(Rest, Pos,
                         static_cast<std::uint64_t>(
                             std::numeric_limits<std::int64_t>::max()),
                         Mag))
          return fail("malformed or out-of-range immediate in '", Rest, "'");
        Op.Imm = Negative ? -static_cast<std::int64_t>(Mag)
                          : static_cast<std::int64_t>(Mag);
      } else {
        return fail("unexpected operand text '", Rest, "'");
      }
      Ops.push_back(Op);
      Rest = trim(Rest.substr(Pos));
      if (!Rest.empty()) {
        if (Rest[0] == ',')
          Rest = trim(Rest.substr(1));
        else if (Rest[0] != '@') // The callee token follows a space.
          return fail("expected ',' in operand list at '", Rest, "'");
      }
    }
    return true;
  }

  bool parseInstruction(BasicBlock *BB, std::string_view Body) {
    // Flags ride in the comment tail.
    bool PairHead = false, Spill = false, Narrow = false;
    if (size_t C = Body.find("  ;"); C != std::string_view::npos) {
      std::string_view Comment = Body.substr(C);
      PairHead = Comment.find("pair-head") != std::string_view::npos;
      Spill = Comment.find("; spill") != std::string_view::npos;
      Narrow = Comment.find("narrow") != std::string_view::npos;
      Body = trim(Body.substr(0, C));
    }

    // Successor names after "->".
    std::string_view SuccText;
    if (size_t Arrow = Body.find("->"); Arrow != std::string_view::npos) {
      SuccText = Body.substr(Arrow + 2);
      Body = trim(Body.substr(0, Arrow));
    }

    // Optional "def = ".
    VReg Def;
    if (size_t Eq = Body.find(" = "); Eq != std::string_view::npos) {
      size_t Pos = 0;
      std::string_view DefTok = trim(Body.substr(0, Eq));
      if (!parseVReg(DefTok, Pos, Def) || Pos != DefTok.size())
        return fail("malformed definition '", DefTok, "'");
      Body = trim(Body.substr(Eq + 3));
    }

    size_t Space = 0;
    while (Space != Body.size() && Body[Space] != ' ' && Body[Space] != '\t')
      ++Space;
    std::string_view OpName = Body.substr(0, Space);
    std::string_view Tail = trim(Body.substr(Space));
    std::optional<Opcode> Op = opcodeByName(OpName);
    if (!Op)
      return fail("unknown opcode '", OpName, "'");

    int Callee = -1;
    if (!parseOperands(Tail, Callee))
      return false;

    // Assemble: registers become uses, a trailing integer the immediate.
    std::vector<VReg> Uses;
    std::int64_t Imm = 0;
    bool SawImm = false;
    for (const Operand &O : Ops) {
      if (O.IsReg) {
        if (SawImm)
          return fail("register operand after immediate");
        Uses.push_back(O.Reg);
      } else {
        if (SawImm)
          return fail("multiple immediates");
        SawImm = true;
        Imm = O.Imm;
      }
    }
    if (*Op == Opcode::Call) {
      if (Callee < 0)
        return fail("call without a callee");
      Imm = Callee;
    } else if (Callee >= 0) {
      return fail("callee token on a non-call");
    }

    if (Def.isValid() != opcodeMayDefine(*Op) &&
        !(*Op == Opcode::Call && !Def.isValid()))
      return fail("definition arity mismatch for '", OpName, "'");
    int WantUses = opcodeNumUses(*Op);
    if (WantUses >= 0 && static_cast<int>(Uses.size()) != WantUses)
      return fail("operand count mismatch for '", OpName, "'");

    if (!BB->empty() && BB->instructions().back().isTerminatorInst())
      return fail("instruction after terminator");
    Instruction I(*Op, Def, std::move(Uses), Imm);
    I.setPairHead(PairHead);
    I.setSpillCode(Spill);
    I.setNarrowDef(Narrow);
    BB->append(std::move(I));

    if (isTerminator(*Op) && *Op != Opcode::Ret) {
      BlockRefs &R = Refs[BB->id()];
      const unsigned Want = *Op == Opcode::Branch ? 1 : 2;
      unsigned Words = 0;
      for (std::string_view Name; nextWord(SuccText, Name); ++Words)
        if (Words < Want)
          R.Succs[Words] = Name;
      if (Words != Want)
        return fail("successor count mismatch for '", OpName, "'");
      R.NumSuccs = Want;
    }
    return true;
  }

  /// The label scan: the function header and the block labels, in order.
  bool scanLabels() {
    std::string_view Rest = Text, Raw;
    for (LineNo = 1; nextLine(Rest, Raw); ++LineNo) {
      std::string_view L = trim(Raw);
      if (L.empty())
        continue;
      if (L.starts_with("func @")) {
        if (F)
          return fail("multiple func headers");
        size_t Paren = L.find('(');
        if (Paren == std::string_view::npos)
          return fail("malformed func header");
        F = std::make_unique<Function>(std::string(L.substr(6, Paren - 6)));
        continue;
      }
      // Block label: "name:" optionally followed by a preds comment.
      if (!F || Raw.starts_with("  "))
        continue;
      size_t Colon = L.find(':');
      if (Colon == std::string_view::npos)
        continue;
      std::string_view Name = L.substr(0, Colon);
      if (Name.empty())
        return fail("empty block label");
      auto [It, Fresh] = BlocksByName.try_emplace(Name, nullptr);
      if (!Fresh)
        return fail("duplicate block label '", Name, "'");
      It->second = F->createBlock(std::string(Name));
      Refs.emplace_back();
      if (size_t P = L.find("preds:"); P != std::string_view::npos)
        Refs.back().Preds = L.substr(P + 6);
    }
    if (!F)
      return fail("no func header found");
    return true;
  }

  /// The parameters of the header line \p L.
  bool parseParams(std::string_view L) {
    size_t Paren = L.find('(');
    size_t Close = L.rfind(')');
    if (Close == std::string_view::npos || Close < Paren)
      return fail("malformed func header");
    int Callee = -1;
    if (!parseOperands(L.substr(Paren + 1, Close - Paren - 1), Callee))
      return false;
    for (const Operand &P : Ops) {
      if (!P.IsReg || !F->isPinned(P.Reg)) {
        // Recorded, but the scan goes on: the first diagnostic stands.
        fail("parameters must be pinned registers");
        break;
      }
      F->registerParam(P.Reg);
    }
    return true;
  }

  /// The second scan: parameters and instructions.
  bool parseBody() {
    std::string_view Rest = Text, Raw;
    BasicBlock *Current = nullptr;
    for (LineNo = 1; nextLine(Rest, Raw); ++LineNo) {
      std::string_view L = trim(Raw);
      if (L.empty())
        continue;
      if (L.starts_with("func @")) {
        if (!parseParams(L))
          return false;
        continue;
      }
      if (!Raw.starts_with("  ")) {
        // Block label line.
        if (size_t Colon = L.find(':'); Colon != std::string_view::npos)
          if (BasicBlock *BB = findBlock(L.substr(0, Colon)))
            Current = BB;
        continue;
      }
      if (!Current)
        return fail("instruction before any block label");
      if (!parseInstruction(Current, L))
        return false;
    }
    return Error.empty();
  }

  /// Wires the CFG in block-id order, then restores the annotated
  /// predecessor order (phis index into it). Unknown names get no line.
  bool wireEdges(std::string &Err) {
    std::vector<BasicBlock *> Order;
    for (unsigned Id = 0; Id != Refs.size(); ++Id) {
      const BlockRefs &R = Refs[Id];
      if (R.NumSuccs == 0)
        continue;
      Order.clear();
      for (unsigned I = 0; I != R.NumSuccs; ++I) {
        BasicBlock *S = findBlock(R.Succs[I]);
        if (!S) {
          Err = "unknown successor block '";
          Err.append(R.Succs[I]).append("'");
          return false;
        }
        Order.push_back(S);
      }
      F->setEdges(F->block(Id), Order);
    }
    for (unsigned Id = 0; Id != Refs.size(); ++Id) {
      Order.clear();
      std::string_view Rest = Refs[Id].Preds, Name;
      while (nextWord(Rest, Name)) {
        BasicBlock *P = findBlock(Name);
        if (!P) {
          Err = "unknown predecessor block '";
          Err.append(Name).append("'");
          return false;
        }
        Order.push_back(P);
      }
      if (Order.empty())
        continue;
      BasicBlock *BB = F->block(Id);
      const std::vector<BasicBlock *> &Existing = BB->predecessors();
      if (!std::is_permutation(Order.begin(), Order.end(), Existing.begin(),
                               Existing.end())) {
        Err = "preds annotation of '" + BB->name() +
              "' disagrees with the CFG";
        return false;
      }
      F->reorderPredecessors(BB, Order);
    }
    return true;
  }

public:
  std::unique_ptr<Function> run(const std::string &TextIn, std::string &Err) {
    Text = TextIn;
    if (!scanLabels() || !parseBody()) {
      Err = Error;
      return nullptr;
    }
    if (!wireEdges(Err))
      return nullptr;
    return std::move(F);
  }
};

} // namespace

std::unique_ptr<Function> pdgc::parseFunction(const std::string &Text,
                                              std::string &Error) {
  Error.clear();
  // The parser validates before it converts, so it should never throw; the
  // guard turns any residual exception (and fatal checks fired while an
  // error trap is active) into the documented error-string contract
  // instead of tearing down the process on adversarial input.
  try {
    ScopedErrorTrap Trap;
    return Parser().run(Text, Error);
  } catch (const std::exception &E) {
    Error = std::string("internal parser error: ") + E.what();
    return nullptr;
  }
}
