//===- server/Protocol.cpp - pdgc-serve wire protocol ----------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include <cctype>

using namespace pdgc;
using namespace pdgc::server;

const char *server::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "OK";
  case ResponseStatus::Degraded:
    return "DEGRADED";
  case ResponseStatus::Rejected:
    return "REJECTED";
  case ResponseStatus::Timeout:
    return "TIMEOUT";
  case ResponseStatus::Malformed:
    return "MALFORMED";
  case ResponseStatus::Internal:
    return "INTERNAL";
  case ResponseStatus::Crashed:
    return "CRASHED";
  }
  return "INTERNAL";
}

namespace {

/// Splits the header section of \p Payload into first line + key/value
/// pairs, leaving everything after the first empty line in \p Body.
/// Returns false when there is no first line or a header lacks a colon.
struct ParsedMessage {
  std::string FirstLine;
  std::vector<std::pair<std::string, std::string>> Headers;
  std::string Body;
};

std::string trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B != E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E != B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

bool splitMessage(const std::string &Payload, ParsedMessage &Out,
                  std::string &Error) {
  size_t Pos = 0;
  bool First = true;
  while (Pos <= Payload.size()) {
    size_t Nl = Payload.find('\n', Pos);
    std::string Line = Nl == std::string::npos
                           ? Payload.substr(Pos)
                           : Payload.substr(Pos, Nl - Pos);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    Pos = Nl == std::string::npos ? Payload.size() + 1 : Nl + 1;
    if (First) {
      if (Line.empty()) {
        Error = "empty message";
        return false;
      }
      Out.FirstLine = Line;
      First = false;
      continue;
    }
    if (Line.empty()) {
      // End of headers; the rest is the body, verbatim.
      if (Pos <= Payload.size())
        Out.Body = Payload.substr(Pos);
      return true;
    }
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos) {
      Error = "header line without ':': " + Line;
      return false;
    }
    Out.Headers.emplace_back(trim(Line.substr(0, Colon)),
                             trim(Line.substr(Colon + 1)));
  }
  return true; // Headers ran to EOF; empty body.
}

/// Strict bounded decimal parse for header values; rejects garbage
/// instead of wrapping or throwing.
bool parseHeaderNumber(const std::string &Value, unsigned long Max,
                       unsigned &Out) {
  if (Value.empty() || Value.size() > 9)
    return false;
  unsigned long V = 0;
  for (char C : Value) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
  }
  if (V > Max)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// "PDGC/1 VERB" -> VERB; empty on mismatch.
std::string verbOf(const std::string &FirstLine, std::string &Error) {
  const std::string Magic = std::string(ProtocolMagic) + " ";
  if (FirstLine.rfind(Magic, 0) != 0) {
    Error = "bad magic: expected '" + std::string(ProtocolMagic) +
            " <verb>', got '" + FirstLine + "'";
    return "";
  }
  return trim(FirstLine.substr(Magic.size()));
}

} // namespace

std::string server::serializeRequest(const Request &R) {
  std::string Out = std::string(ProtocolMagic) + " ALLOC\n";
  if (R.BudgetMs != 0)
    Out += "budget-ms: " + std::to_string(R.BudgetMs) + "\n";
  if (R.MaxRounds != 0)
    Out += "max-rounds: " + std::to_string(R.MaxRounds) + "\n";
  if (!R.Allocator.empty())
    Out += "allocator: " + R.Allocator + "\n";
  Out += "\n";
  Out += R.Body;
  return Out;
}

bool server::parseRequest(const std::string &Payload, Request &Out,
                          std::string &Error) {
  ParsedMessage M;
  if (!splitMessage(Payload, M, Error))
    return false;
  std::string Verb = verbOf(M.FirstLine, Error);
  if (Verb.empty())
    return false;
  if (Verb != "ALLOC") {
    Error = "unknown request verb '" + Verb + "'";
    return false;
  }
  Out.Type = RequestType::Alloc;
  for (const auto &[Key, Value] : M.Headers) {
    if (Key == "budget-ms") {
      if (!parseHeaderNumber(Value, 3600000, Out.BudgetMs)) {
        Error = "bad budget-ms value '" + Value + "'";
        return false;
      }
    } else if (Key == "max-rounds") {
      if (!parseHeaderNumber(Value, 100000, Out.MaxRounds)) {
        Error = "bad max-rounds value '" + Value + "'";
        return false;
      }
    } else if (Key == "allocator") {
      if (Value.empty() || Value.size() > 128) {
        Error = "bad allocator value";
        return false;
      }
      Out.Allocator = Value;
    }
    // Unknown headers are ignored so the protocol can grow.
  }
  Out.Body = std::move(M.Body);
  return true;
}

std::string server::serializeResponse(const Response &R) {
  std::string Out = std::string(ProtocolMagic) + " " +
                    responseStatusName(R.Status) + "\n";
  if (R.RetryAfterMs != 0)
    Out += "retry-after-ms: " + std::to_string(R.RetryAfterMs) + "\n";
  if (!R.ServedBy.empty())
    Out += "served-by: " + R.ServedBy + "\n";
  if (R.Rounds != 0)
    Out += "rounds: " + std::to_string(R.Rounds) + "\n";
  Out += "wall-ms: " + std::to_string(R.WallMs) + "\n";
  if (!R.Error.empty()) {
    // Keep the diagnostic one header line long.
    std::string OneLine = R.Error;
    for (char &C : OneLine)
      if (C == '\n' || C == '\r')
        C = ' ';
    Out += "error: " + OneLine + "\n";
  }
  Out += "\n";
  Out += R.Body;
  return Out;
}

bool server::parseResponse(const std::string &Payload, Response &Out,
                           std::string &Error) {
  ParsedMessage M;
  if (!splitMessage(Payload, M, Error))
    return false;
  std::string Word = verbOf(M.FirstLine, Error);
  if (Word.empty())
    return false;
  bool Known = false;
  for (ResponseStatus S :
       {ResponseStatus::Ok, ResponseStatus::Degraded, ResponseStatus::Rejected,
        ResponseStatus::Timeout, ResponseStatus::Malformed,
        ResponseStatus::Internal, ResponseStatus::Crashed})
    if (Word == responseStatusName(S)) {
      Out.Status = S;
      Known = true;
      break;
    }
  if (!Known) {
    Error = "unknown response status '" + Word + "'";
    return false;
  }
  for (const auto &[Key, Value] : M.Headers) {
    if (Key == "retry-after-ms") {
      if (!parseHeaderNumber(Value, 3600000, Out.RetryAfterMs)) {
        Error = "bad retry-after-ms value '" + Value + "'";
        return false;
      }
    } else if (Key == "served-by") {
      Out.ServedBy = Value;
    } else if (Key == "rounds") {
      if (!parseHeaderNumber(Value, 1000000, Out.Rounds)) {
        Error = "bad rounds value '" + Value + "'";
        return false;
      }
    } else if (Key == "wall-ms") {
      if (!parseHeaderNumber(Value, 3600000, Out.WallMs)) {
        Error = "bad wall-ms value '" + Value + "'";
        return false;
      }
    } else if (Key == "error") {
      Out.Error = Value;
    }
  }
  Out.Body = std::move(M.Body);
  return true;
}
