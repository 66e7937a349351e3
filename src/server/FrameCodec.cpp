//===- server/FrameCodec.cpp - Length-prefixed frame transport -------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "server/FrameCodec.h"

#include <cerrno>
#include <limits>
#include <unistd.h>

using namespace pdgc;
using namespace pdgc::server;

namespace {

/// Reads exactly \p Len bytes. Returns Ok, or ClosedClean when EOF hits
/// before the *first* byte, Truncated when it hits later, IoError on a
/// failing read.
FrameResult readFull(int Fd, unsigned char *Buf, size_t Len) {
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::read(Fd, Buf + Got, Len - Got);
    if (N > 0) {
      Got += static_cast<size_t>(N);
      continue;
    }
    if (N == 0)
      return Got == 0 ? FrameResult::ClosedClean : FrameResult::Truncated;
    if (errno == EINTR)
      continue;
    return FrameResult::IoError;
  }
  return FrameResult::Ok;
}

bool writeFull(int Fd, const unsigned char *Buf, size_t Len) {
  size_t Sent = 0;
  while (Sent < Len) {
    ssize_t N = ::write(Fd, Buf + Sent, Len - Sent);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

} // namespace

FrameResult server::readFrame(int Fd, std::string &Payload,
                              std::uint32_t MaxBytes) {
  unsigned char Header[4];
  FrameResult R = readFull(Fd, Header, sizeof Header);
  if (R != FrameResult::Ok)
    // Mid-header EOF is Truncated already; a clean EOF stays clean.
    return R;
  std::uint32_t Len = (static_cast<std::uint32_t>(Header[0]) << 24) |
                      (static_cast<std::uint32_t>(Header[1]) << 16) |
                      (static_cast<std::uint32_t>(Header[2]) << 8) |
                      static_cast<std::uint32_t>(Header[3]);
  // The cap check runs before the allocation — the whole point.
  if (Len > MaxBytes)
    return FrameResult::Oversized;
  Payload.resize(Len);
  if (Len == 0)
    return FrameResult::Ok;
  R = readFull(Fd, reinterpret_cast<unsigned char *>(Payload.data()), Len);
  // EOF anywhere inside a promised payload is truncation, even at byte 0.
  if (R == FrameResult::ClosedClean)
    return FrameResult::Truncated;
  return R;
}

bool server::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > std::numeric_limits<std::uint32_t>::max())
    return false;
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  unsigned char Header[4] = {static_cast<unsigned char>(Len >> 24),
                             static_cast<unsigned char>(Len >> 16),
                             static_cast<unsigned char>(Len >> 8),
                             static_cast<unsigned char>(Len)};
  // One buffer, one write: a separate 4-byte header write makes every
  // frame eat a Nagle + delayed-ACK round trip (~40-200ms) on real TCP.
  std::string Wire;
  Wire.reserve(sizeof Header + Payload.size());
  Wire.append(reinterpret_cast<const char *>(Header), sizeof Header);
  Wire.append(Payload);
  return writeFull(Fd,
                   reinterpret_cast<const unsigned char *>(Wire.data()),
                   Wire.size());
}
