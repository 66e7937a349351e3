//===- tests/test_protocol.cpp - Wire protocol and frame codec tests ----------===//
//
// Part of the PDGC project.
//
// Byte-level coverage of the pdgc-serve transport: frame codec edge cases
// over real pipe fds (zero-length frames, hostile length headers, payloads
// truncated at EOF) and request/response message round-trips, including
// the strictness/permissiveness split the protocol promises (strict first
// line and numeric headers, unknown headers ignored).
//
//===----------------------------------------------------------------------===//

#include "server/FrameCodec.h"
#include "server/Protocol.h"

#include <gtest/gtest.h>

#include <string>

#include <unistd.h>

using namespace pdgc;
using namespace pdgc::server;

namespace {

/// A unidirectional pipe whose fds close themselves; tests write wire
/// bytes into W and run the codec against R.
struct Pipe {
  int R = -1, W = -1;

  Pipe() {
    int Fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(Fds), 0);
    R = Fds[0];
    W = Fds[1];
  }
  ~Pipe() {
    closeWrite();
    if (R >= 0)
      ::close(R);
  }
  void closeWrite() {
    if (W >= 0) {
      ::close(W);
      W = -1;
    }
  }
  void writeRaw(const void *Buf, size_t Len) {
    ASSERT_EQ(::write(W, Buf, Len), static_cast<ssize_t>(Len));
  }
};

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

TEST(FrameCodec, RoundTripsAPayload) {
  Pipe P;
  const std::string Sent = "func f() {\n  ret\n}\n";
  ASSERT_TRUE(writeFrame(P.W, Sent));
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Ok);
  EXPECT_EQ(Got, Sent);
}

TEST(FrameCodec, ZeroLengthFrameIsAValidEmptyPayload) {
  Pipe P;
  ASSERT_TRUE(writeFrame(P.W, ""));
  // Prime the output with garbage: a zero-length frame must clear it.
  std::string Got = "stale";
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Ok);
  EXPECT_TRUE(Got.empty());

  // The stream is still usable: a second frame follows the empty one.
  ASSERT_TRUE(writeFrame(P.W, "next"));
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Ok);
  EXPECT_EQ(Got, "next");
}

TEST(FrameCodec, OversizedLengthHeaderIsRejectedBeforeAllocation) {
  Pipe P;
  // A hostile peer promises 0xFFFFFFFF bytes. The codec must refuse from
  // the header alone — no 4 GiB resize, no attempt to read the payload.
  const unsigned char Header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  P.writeRaw(Header, sizeof Header);
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got, /*MaxBytes=*/1024), FrameResult::Oversized);
  // The payload buffer was never resized toward the claimed length.
  EXPECT_LE(Got.size(), 1024u);
}

TEST(FrameCodec, MaxBytesBoundaryIsInclusive) {
  Pipe P;
  const std::string AtCap(16, 'x');
  ASSERT_TRUE(writeFrame(P.W, AtCap));
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got, /*MaxBytes=*/16), FrameResult::Ok);
  EXPECT_EQ(Got, AtCap);

  const std::string OverCap(17, 'x');
  ASSERT_TRUE(writeFrame(P.W, OverCap));
  EXPECT_EQ(readFrame(P.R, Got, /*MaxBytes=*/16), FrameResult::Oversized);
}

TEST(FrameCodec, TruncatedPayloadAtEofIsTruncated) {
  Pipe P;
  // Header promises 100 bytes; only 10 arrive before the peer vanishes.
  const unsigned char Header[4] = {0, 0, 0, 100};
  P.writeRaw(Header, sizeof Header);
  P.writeRaw("0123456789", 10);
  P.closeWrite();
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Truncated);
}

TEST(FrameCodec, EofAtPayloadByteZeroIsStillTruncated) {
  Pipe P;
  // The header fully arrived, so the payload was *promised*: EOF before
  // its first byte is a broken frame, not a clean close.
  const unsigned char Header[4] = {0, 0, 0, 5};
  P.writeRaw(Header, sizeof Header);
  P.closeWrite();
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Truncated);
}

TEST(FrameCodec, EofBeforeAnyByteIsCleanClose) {
  Pipe P;
  P.closeWrite();
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::ClosedClean);
}

TEST(FrameCodec, EofMidHeaderIsTruncated) {
  Pipe P;
  const unsigned char Half[2] = {0, 0};
  P.writeRaw(Half, sizeof Half);
  P.closeWrite();
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Truncated);
}

TEST(FrameCodec, ReadsBackToBackFrames) {
  Pipe P;
  ASSERT_TRUE(writeFrame(P.W, "one"));
  ASSERT_TRUE(writeFrame(P.W, "two"));
  P.closeWrite();
  std::string Got;
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Ok);
  EXPECT_EQ(Got, "one");
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::Ok);
  EXPECT_EQ(Got, "two");
  EXPECT_EQ(readFrame(P.R, Got), FrameResult::ClosedClean);
}

//===----------------------------------------------------------------------===//
// Request messages
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTripsEveryField) {
  Request In;
  In.Type = RequestType::Alloc;
  In.BudgetMs = 250;
  In.MaxRounds = 12;
  In.Allocator = "briggs+aggressive";
  In.Body = "func f() {\n  ret\n}\n";

  Request Out;
  std::string Error;
  ASSERT_TRUE(parseRequest(serializeRequest(In), Out, Error)) << Error;
  EXPECT_EQ(Out.Type, RequestType::Alloc);
  EXPECT_EQ(Out.BudgetMs, 250u);
  EXPECT_EQ(Out.MaxRounds, 12u);
  EXPECT_EQ(Out.Allocator, "briggs+aggressive");
  EXPECT_EQ(Out.Body, In.Body);
}

TEST(Protocol, RequestDefaultsSurviveTheWire) {
  Request In;
  EXPECT_EQ(serializeRequest(In), "PDGC/1 ALLOC\n\n");
  Request Out;
  std::string Error;
  ASSERT_TRUE(parseRequest(serializeRequest(In), Out, Error)) << Error;
  EXPECT_EQ(Out.Type, RequestType::Alloc);
  EXPECT_EQ(Out.BudgetMs, 0u);
  EXPECT_EQ(Out.MaxRounds, 0u);
  EXPECT_TRUE(Out.Allocator.empty());
  EXPECT_TRUE(Out.Body.empty());
}

TEST(Protocol, RequestRejectsBadMagicVerbAndNumbers) {
  Request Out;
  std::string Error;
  EXPECT_FALSE(parseRequest("", Out, Error));
  EXPECT_FALSE(parseRequest("HTTP/1.1 GET\n\n", Out, Error));
  EXPECT_FALSE(parseRequest("PDGC/1 FROBNICATE\n\n", Out, Error));
  EXPECT_FALSE(parseRequest("PDGC/1 ALLOC\nbudget-ms: soon\n\n", Out, Error));
  EXPECT_FALSE(parseRequest("PDGC/1 ALLOC\nbudget-ms: -5\n\n", Out, Error));
  // Past the header cap (3600000): strict parses reject, never wrap.
  EXPECT_FALSE(
      parseRequest("PDGC/1 ALLOC\nbudget-ms: 999999999\n\n", Out, Error));
  EXPECT_FALSE(
      parseRequest("PDGC/1 ALLOC\nheader without colon\n\n", Out, Error));
}

TEST(Protocol, PingStatusStatsAreUnknownVerbs) {
  // ALLOC is the only verb; the server answers these MALFORMED and points
  // health and introspection at the HTTP plane.
  for (const char *Verb : {"PING", "STATUS", "STATS"}) {
    Request Out;
    std::string Error;
    EXPECT_FALSE(
        parseRequest(std::string("PDGC/1 ") + Verb + "\n\n", Out, Error));
    EXPECT_EQ(Error, std::string("unknown request verb '") + Verb + "'");
  }
}

TEST(Protocol, RequestIgnoresUnknownHeaders) {
  Request Out;
  std::string Error;
  ASSERT_TRUE(parseRequest("PDGC/1 ALLOC\nx-future-field: yes\n"
                           "budget-ms: 7\n\nbody",
                           Out, Error))
      << Error;
  EXPECT_EQ(Out.BudgetMs, 7u);
  EXPECT_EQ(Out.Body, "body");
}

//===----------------------------------------------------------------------===//
// Response messages
//===----------------------------------------------------------------------===//

TEST(Protocol, ResponseRoundTripsEveryStatus) {
  for (ResponseStatus S :
       {ResponseStatus::Ok, ResponseStatus::Degraded, ResponseStatus::Rejected,
        ResponseStatus::Timeout, ResponseStatus::Malformed,
        ResponseStatus::Internal, ResponseStatus::Crashed}) {
    Response In;
    In.Status = S;
    In.WallMs = 42;
    In.Error = S == ResponseStatus::Ok ? "" : "detail";
    Response Out;
    std::string Error;
    ASSERT_TRUE(parseResponse(serializeResponse(In), Out, Error))
        << responseStatusName(S) << ": " << Error;
    EXPECT_EQ(Out.Status, S);
    EXPECT_EQ(Out.WallMs, 42u);
    EXPECT_EQ(Out.Error, In.Error);
  }
}

TEST(Protocol, ResponseCarriesRetryHintAndServingTier) {
  Response In;
  In.Status = ResponseStatus::Rejected;
  In.RetryAfterMs = 75;
  In.Error = "queue full";
  Response Out;
  std::string Error;
  ASSERT_TRUE(parseResponse(serializeResponse(In), Out, Error)) << Error;
  EXPECT_EQ(Out.Status, ResponseStatus::Rejected);
  EXPECT_EQ(Out.RetryAfterMs, 75u);
  EXPECT_EQ(Out.Error, "queue full");

  In = Response();
  In.Status = ResponseStatus::Degraded;
  In.ServedBy = "spill-everything";
  In.Rounds = 3;
  In.Body = "v0 -> r1\n";
  ASSERT_TRUE(parseResponse(serializeResponse(In), Out, Error)) << Error;
  EXPECT_EQ(Out.ServedBy, "spill-everything");
  EXPECT_EQ(Out.Rounds, 3u);
  EXPECT_EQ(Out.Body, "v0 -> r1\n");
}

TEST(Protocol, MultiLineErrorsAreFlattenedToOneHeaderLine) {
  Response In;
  In.Status = ResponseStatus::Malformed;
  In.Error = "line one\nline two\r\nline three";
  Response Out;
  std::string Error;
  ASSERT_TRUE(parseResponse(serializeResponse(In), Out, Error)) << Error;
  // Newlines inside the diagnostic must not smuggle extra header lines
  // (or a premature end-of-headers) into the message.
  EXPECT_EQ(Out.Status, ResponseStatus::Malformed);
  EXPECT_EQ(Out.Error.find('\n'), std::string::npos);
  EXPECT_NE(Out.Error.find("line one"), std::string::npos);
  EXPECT_NE(Out.Error.find("line three"), std::string::npos);
}

TEST(Protocol, WorstOfFoldsBySeverity) {
  EXPECT_EQ(worstOf(ResponseStatus::Ok, ResponseStatus::Ok),
            ResponseStatus::Ok);
  EXPECT_EQ(worstOf(ResponseStatus::Ok, ResponseStatus::Degraded),
            ResponseStatus::Degraded);
  EXPECT_EQ(worstOf(ResponseStatus::Internal, ResponseStatus::Timeout),
            ResponseStatus::Internal);
  EXPECT_EQ(worstOf(ResponseStatus::Malformed, ResponseStatus::Rejected),
            ResponseStatus::Malformed);
  // CRASHED outranks everything: a dead worker is the worst thing a
  // batch of statuses can contain.
  EXPECT_EQ(worstOf(ResponseStatus::Crashed, ResponseStatus::Internal),
            ResponseStatus::Crashed);
  EXPECT_EQ(worstOf(ResponseStatus::Ok, ResponseStatus::Crashed),
            ResponseStatus::Crashed);
}

TEST(Protocol, CrashedStatusNameAndParse) {
  EXPECT_STREQ(responseStatusName(ResponseStatus::Crashed), "CRASHED");
  Response In;
  In.Status = ResponseStatus::Crashed;
  In.Error = "worker crashed (signal 11 (SIGSEGV))";
  Response Out;
  std::string Error;
  ASSERT_TRUE(parseResponse(serializeResponse(In), Out, Error)) << Error;
  EXPECT_EQ(Out.Status, ResponseStatus::Crashed);
  EXPECT_NE(Out.Error.find("SIGSEGV"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Frame + message, composed
//===----------------------------------------------------------------------===//

TEST(Protocol, MessagesSurviveTheFrameLayer) {
  Pipe P;
  Request Req;
  Req.Type = RequestType::Alloc;
  Req.BudgetMs = 100;
  Req.Body = "func f() { ret }";
  ASSERT_TRUE(writeFrame(P.W, serializeRequest(Req)));

  std::string Payload;
  ASSERT_EQ(readFrame(P.R, Payload), FrameResult::Ok);
  Request Got;
  std::string Error;
  ASSERT_TRUE(parseRequest(Payload, Got, Error)) << Error;
  EXPECT_EQ(Got.BudgetMs, 100u);
  EXPECT_EQ(Got.Body, Req.Body);
}

} // namespace
