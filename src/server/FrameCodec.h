//===- server/FrameCodec.h - Length-prefixed frame transport ----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte layer under server/Protocol.h: every message travels as a
/// 4-byte big-endian length followed by exactly that many payload bytes.
/// The codec is deliberately paranoid about the length header, because it
/// is the only field an attacker fully controls before any validation
/// runs:
///
///  * a header larger than the configured cap fails with `Oversized`
///    *before* any payload buffer is allocated — a hostile 0xFFFFFFFF
///    header costs the server four bytes of reads, not 4 GiB of heap;
///  * a connection that ends mid-header or mid-payload fails with
///    `Truncated` (distinct from `ClosedClean`, the EOF exactly on a
///    frame boundary that marks a polite hang-up);
///  * zero-length frames are valid *frames* (the payload is empty) — it
///    is the message layer's job to call an empty message malformed.
///
/// Reads and writes retry on EINTR and loop over short transfers, so the
/// callers see whole frames or a typed error, never a partial. Everything
/// works on plain file descriptors (sockets, socketpairs, pipes), which
/// is how the unit tests drive the edge cases without a network.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_FRAMECODEC_H
#define PDGC_SERVER_FRAMECODEC_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace pdgc {
namespace server {

/// Default cap on one frame's payload (4 MiB) — far above any plausible
/// function text, far below anything that could wedge the host.
inline constexpr std::uint32_t DefaultMaxFrameBytes = 4u << 20;

/// Why a frame read ended.
enum class FrameResult {
  Ok = 0,      ///< A whole frame was read into the payload buffer.
  ClosedClean, ///< EOF exactly on a frame boundary (no bytes of a frame).
  Truncated,   ///< EOF mid-header or mid-payload.
  Oversized,   ///< Length header exceeds the cap; nothing was allocated.
  IoError,     ///< read()/write() failed (errno-level problem).
};

/// Reads one frame from \p Fd into \p Payload (replaced, not appended).
/// \p MaxBytes bounds the allocation; an oversized header leaves the
/// stream positioned after the header (the connection should be closed —
/// the payload length can no longer be trusted for resync).
FrameResult readFrame(int Fd, std::string &Payload,
                      std::uint32_t MaxBytes = DefaultMaxFrameBytes);

/// Writes \p Payload as one frame. Returns false on any write failure
/// (including a payload larger than 2^32 - 1 bytes).
bool writeFrame(int Fd, const std::string &Payload);

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_FRAMECODEC_H
