//===- support/Status.h - Structured error propagation ----------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight `Status` / `StatusOr<T>` pair used by the hardened
/// allocation pipeline. Public entry points that face external input (the
/// textual parser, the allocation driver, the command-line tools) return
/// these instead of asserting or aborting, so a malformed function, a
/// buggy allocator round, or an exhausted budget degrades gracefully
/// instead of killing the process.
///
/// The error codes mirror the pipeline stages: ParseError (textual IR),
/// VerifyError (structural IR invariants), BudgetExceeded (spill-round or
/// wall-clock budgets), AllocatorInternal (an allocator violated its
/// contract or raised a fatal check), and CheckerMismatch (the independent
/// assignment checker rejected the result).
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SUPPORT_STATUS_H
#define PDGC_SUPPORT_STATUS_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace pdgc {

/// Failure category of a pipeline stage.
enum class ErrorCode {
  Ok = 0,
  ParseError,        ///< Textual IR could not be parsed.
  VerifyError,       ///< Parsed IR violates structural invariants.
  BudgetExceeded,    ///< Round or wall-clock budget ran out.
  AllocatorInternal, ///< An allocator broke its contract (bad result
                     ///< shape, fatal check, uncaught exception).
  CheckerMismatch,   ///< The independent checker rejected the assignment.
};

/// Stable printable name of \p Code ("OK", "PARSE_ERROR", ...).
inline const char *errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return "OK";
  case ErrorCode::ParseError:
    return "PARSE_ERROR";
  case ErrorCode::VerifyError:
    return "VERIFY_ERROR";
  case ErrorCode::BudgetExceeded:
    return "BUDGET_EXCEEDED";
  case ErrorCode::AllocatorInternal:
    return "ALLOCATOR_INTERNAL";
  case ErrorCode::CheckerMismatch:
    return "CHECKER_MISMATCH";
  }
  return "UNKNOWN";
}

/// An error code plus a human-readable message; `Ok` means success.
class Status {
  ErrorCode Code = ErrorCode::Ok;
  std::string Message;

public:
  Status() = default;
  Status(ErrorCode CodeIn, std::string MessageIn)
      : Code(CodeIn), Message(std::move(MessageIn)) {
    assert(Code != ErrorCode::Ok && "error status requires a non-Ok code");
  }

  static Status error(ErrorCode Code, std::string Message) {
    return Status(Code, std::move(Message));
  }

  bool ok() const { return Code == ErrorCode::Ok; }
  ErrorCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// "BUDGET_EXCEEDED: register allocation did not converge..."
  std::string toString() const {
    if (ok())
      return "OK";
    return std::string(errorCodeName(Code)) + ": " + Message;
  }
};

/// Either a value of type \p T or an error Status. Accessing the value of
/// an errored StatusOr is a programming error (asserted).
template <typename T> class StatusOr {
  Status S;
  std::optional<T> Val;

public:
  /*implicit*/ StatusOr(T Value) : Val(std::move(Value)) {}
  /*implicit*/ StatusOr(Status Error) : S(std::move(Error)) {
    assert(!S.ok() && "StatusOr built from a non-error status");
  }

  bool ok() const { return S.ok(); }
  const Status &status() const { return S; }
  ErrorCode code() const { return S.code(); }

  T &value() {
    assert(ok() && "value() on an errored StatusOr");
    return *Val;
  }
  const T &value() const {
    assert(ok() && "value() on an errored StatusOr");
    return *Val;
  }

  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }
};

} // namespace pdgc

#endif // PDGC_SUPPORT_STATUS_H
