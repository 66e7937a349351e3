//===- server/Protocol.h - pdgc-serve wire protocol -------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response message layer of the allocation service. Messages
/// travel inside length-prefixed frames (server/FrameCodec.h); the payload
/// itself is line-oriented text so a wedged request can be read straight
/// out of a packet capture:
///
/// \code
///   PDGC/1 ALLOC
///   budget-ms: 200
///   allocator: full-preferences
///
///   func f() { ... }          <- textual IR, verbatim
/// \endcode
///
/// The first line is the magic plus the verb ALLOC, the only one: health
/// and introspection are served over HTTP on the same port
/// (server/Server.h). Header lines are `key: value` pairs; an empty line
/// ends the headers and everything after it is the body. Responses have
/// the same shape with a status word instead of a verb:
///
///   OK        allocation served by the requested tier
///   DEGRADED  served, but by a fallback tier (details in headers/body)
///   REJECTED  shed by admission control or refused while draining; the
///             `retry-after-ms` header is the client's backoff hint
///   TIMEOUT   the per-request deadline expired before any tier finished
///   MALFORMED the frame, message, or IR failed to parse/verify
///   INTERNAL  an invariant broke (or a fault was injected) server-side;
///             the request died, the server did not
///   CRASHED   the isolated worker process executing the request died
///             (signal, rlimit overrun, or watchdog kill); the request
///             is gone, the server — and every other request — survived
///
/// Parsing is strict about the first line and permissive about unknown
/// headers (ignored), so the protocol can grow fields without breaking
/// old peers. Everything here is pure in-memory transformation — no I/O,
/// no sockets — which is what makes it unit-testable byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_PROTOCOL_H
#define PDGC_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace pdgc {
namespace server {

/// Protocol magic of every message's first line.
inline constexpr const char *ProtocolMagic = "PDGC/1";

/// What the client asked the server to do. ALLOC is the only verb; the
/// type stays so that clients which set it (pdgcbench) still compile.
enum class RequestType {
  Alloc, ///< Run an allocation over the body's textual IR.
};

/// Terminal status of one request. Order matters: higher values are
/// "worse", and worstOf() folds a batch to its most severe member.
enum class ResponseStatus {
  Ok = 0,
  Degraded,
  Rejected,
  Timeout,
  Malformed,
  Internal,
  /// An isolated worker died executing the request (signal, rlimit
  /// overrun, watchdog kill). Worst severity: the input provably took a
  /// process down, which INTERNAL does not imply.
  Crashed,
};

const char *responseStatusName(ResponseStatus S);

/// worstOf(OK, DEGRADED) == DEGRADED, etc.
inline ResponseStatus worstOf(ResponseStatus A, ResponseStatus B) {
  return static_cast<int>(A) >= static_cast<int>(B) ? A : B;
}

/// One parsed request message.
struct Request {
  RequestType Type = RequestType::Alloc;
  /// Wall-clock budget for the whole request (queue wait included);
  /// 0 means "use the server default".
  unsigned BudgetMs = 0;
  /// Spill-round cap per tier; 0 keeps the driver default.
  unsigned MaxRounds = 0;
  /// Leading allocator tier; empty keeps the server default chain.
  std::string Allocator;
  /// Textual IR to allocate.
  std::string Body;
};

/// One response message. Optional numeric fields use 0 / empty string as
/// "absent" and are serialized only when set.
struct Response {
  ResponseStatus Status = ResponseStatus::Ok;
  /// Client backoff hint, REJECTED only.
  unsigned RetryAfterMs = 0;
  /// Name of the serving tier (ALLOC successes).
  std::string ServedBy;
  /// Spill rounds the serving tier ran.
  unsigned Rounds = 0;
  /// Wall time the server spent on the request, queue wait included.
  unsigned WallMs = 0;
  /// Diagnostic for REJECTED/TIMEOUT/MALFORMED/INTERNAL.
  std::string Error;
  /// Assignment text or degradation records.
  std::string Body;
};

/// Serializes \p R into a frame payload.
std::string serializeRequest(const Request &R);

/// Parses a frame payload into \p Out. Returns true on success; on
/// failure \p Error gets a one-line diagnostic and \p Out is unspecified.
bool parseRequest(const std::string &Payload, Request &Out,
                  std::string &Error);

std::string serializeResponse(const Response &R);

bool parseResponse(const std::string &Payload, Response &Out,
                   std::string &Error);

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_PROTOCOL_H
