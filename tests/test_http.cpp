//===- tests/test_http.cpp - HTTP plane unit tests -------------------------===//
//
// Part of the PDGC project.
//
// Pure in-memory coverage of the observability plane's building blocks:
// the HTTP/1.1 head parser (caps, malformed heads, pipelining offsets),
// plane sniffing (including the "binary frame whose length bytes spell
// ASCII" ambiguity the design proves away), response rendering, the
// flight-recorder ring (wraparound, torn-slot skipping, JSON), and
// LatencyHistogram::quantile interpolation. The socket-level end-to-end
// paths live in test_server.cpp.
//
//===----------------------------------------------------------------------===//

#include "server/FlightRecorder.h"
#include "server/Http.h"
#include "server/LatencyHistogram.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace pdgc;
using namespace pdgc::server;

namespace {

HttpRequest parseOk(const std::string &Wire) {
  HttpRequest Req;
  std::string Error;
  EXPECT_EQ(parseHttpRequest(Wire, Req, Error), HttpParse::Ok) << Error;
  return Req;
}

//===----------------------------------------------------------------------===//
// Plane sniffing
//===----------------------------------------------------------------------===//

TEST(SniffPlane, EveryMethodVerbByteIsHttp) {
  for (unsigned char C = 'A'; C <= 'Z'; ++C)
    EXPECT_EQ(sniffPlane(C), Plane::Http) << C;
}

TEST(SniffPlane, ValidFrameLengthBytesAreBinary) {
  // A frame's first byte is the high byte of a big-endian length capped
  // at 1 GiB = 0x40000000, so 0x00..0x40 must all sniff binary.
  for (unsigned C = 0; C <= 0x40; ++C)
    EXPECT_EQ(sniffPlane(static_cast<unsigned char>(C)), Plane::Binary) << C;
  // Lowercase and high-bit bytes are not HTTP methods either.
  EXPECT_EQ(sniffPlane('g'), Plane::Binary);
  EXPECT_EQ(sniffPlane(0xFF), Plane::Binary);
}

TEST(SniffPlane, AsciiLengthFrameIsAnImpossibleFrameAndParsesAsHttp) {
  // The advertised ambiguity: a client that sends the four bytes
  // "GET " as a *binary frame length* claims 0x47455420 = ~1.19 GiB —
  // above the hard 1 GiB cap, so no valid frame starts with 'G'. The
  // sniffer therefore may (and does) route it to the HTTP parser, where
  // a non-HTTP payload dies as a typed 400 instead of a 1 GiB read.
  EXPECT_EQ(sniffPlane('G'), Plane::Http);

  HttpRequest Req;
  std::string Error;
  const std::string Garbage = "GET@binary#gibberish\r\n\r\n";
  EXPECT_EQ(parseHttpRequest(Garbage, Req, Error), HttpParse::Bad);
}

//===----------------------------------------------------------------------===//
// Request-head parsing
//===----------------------------------------------------------------------===//

TEST(HttpParser, MinimalGet) {
  HttpRequest Req = parseOk("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(Req.Method, "GET");
  EXPECT_EQ(Req.Path, "/healthz");
  EXPECT_EQ(Req.Query, "");
  EXPECT_EQ(Req.Version, "HTTP/1.1");
  EXPECT_TRUE(Req.KeepAlive);
  EXPECT_EQ(Req.HeadBytes, 25u);
}

TEST(HttpParser, QueryStringAndHeaders) {
  HttpRequest Req = parseOk("GET /requests?n=7&x=1 HTTP/1.1\r\n"
                            "Host: localhost:8080\r\n"
                            "User-Agent:  curl/8.0 \r\n\r\n");
  EXPECT_EQ(Req.Path, "/requests");
  EXPECT_EQ(Req.Query, "n=7&x=1");
  EXPECT_EQ(queryParam(Req.Query, "n"), "7");
  EXPECT_EQ(queryParam(Req.Query, "x"), "1");
  EXPECT_EQ(queryParam(Req.Query, "absent"), "");
  // Names are case-insensitive; values are trimmed.
  EXPECT_EQ(Req.header("HOST"), "localhost:8080");
  EXPECT_EQ(Req.header("user-agent"), "curl/8.0");
}

TEST(HttpParser, TruncatedRequestLineWantsMoreBytes) {
  HttpRequest Req;
  std::string Error;
  // Every prefix of a valid head must come back NeedMore, never Bad —
  // TCP delivers heads in arbitrary fragments.
  const std::string Full = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  for (std::size_t Cut = 0; Cut < Full.size(); ++Cut)
    EXPECT_EQ(parseHttpRequest(Full.substr(0, Cut), Req, Error),
              HttpParse::NeedMore)
        << "cut at " << Cut;
}

TEST(HttpParser, RequestLineOverCapIsTooLargeEvenUnfinished) {
  HttpLimits Limits;
  Limits.MaxRequestLine = 64;
  HttpRequest Req;
  std::string Error;
  // No CRLF yet, but already past the cap: the parser must refuse now
  // rather than buffer a line that can never finish legally.
  const std::string Endless = "GET /" + std::string(100, 'a');
  EXPECT_EQ(parseHttpRequest(Endless, Req, Error, Limits),
            HttpParse::TooLarge);
  // Same verdict once the head completes.
  const std::string Complete = Endless + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(parseHttpRequest(Complete, Req, Error, Limits),
            HttpParse::TooLarge);
}

TEST(HttpParser, HeaderBlockOverCapIsTooLarge) {
  HttpLimits Limits;
  Limits.MaxHeadBytes = 128;
  HttpRequest Req;
  std::string Error;
  const std::string Head = "GET / HTTP/1.1\r\nX-Pad: " +
                           std::string(200, 'p') + "\r\n\r\n";
  EXPECT_EQ(parseHttpRequest(Head, Req, Error, Limits), HttpParse::TooLarge);
  // An unfinished head already past the cap fails the same way.
  EXPECT_EQ(parseHttpRequest(Head.substr(0, 150), Req, Error, Limits),
            HttpParse::TooLarge);
}

TEST(HttpParser, TooManyHeadersIsTooLarge) {
  HttpLimits Limits;
  Limits.MaxHeaders = 4;
  std::string Head = "GET / HTTP/1.1\r\n";
  for (int I = 0; I != 5; ++I)
    Head += "H" + std::to_string(I) + ": v\r\n";
  Head += "\r\n";
  HttpRequest Req;
  std::string Error;
  EXPECT_EQ(parseHttpRequest(Head, Req, Error, Limits), HttpParse::TooLarge);
}

TEST(HttpParser, MalformedHeadsAreBad) {
  HttpRequest Req;
  std::string Error;
  const char *Bad[] = {
      "GET/healthz HTTP/1.1\r\n\r\n",        // no spaces
      "get /healthz HTTP/1.1\r\n\r\n",       // lowercase method token
      "GET /healthz HTTP/2\r\n\r\n",         // unsupported version
      "GET healthz HTTP/1.1\r\n\r\n",        // target missing leading '/'
      "GET /a /b HTTP/1.1\r\n\r\n",          // space inside target
      "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", // header without ':'
      "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n", // space in field name
  };
  for (const char *Head : Bad)
    EXPECT_EQ(parseHttpRequest(Head, Req, Error), HttpParse::Bad) << Head;
}

TEST(HttpParser, UnknownMethodTokenParsesForA405) {
  // DELETE is grammatical — the parser accepts it so the server can
  // answer a typed 405 (rejecting it here would produce a 400 instead).
  HttpRequest Req = parseOk("DELETE /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(Req.Method, "DELETE");
}

TEST(HttpParser, KeepAliveDefaultsPerVersion) {
  EXPECT_TRUE(parseOk("GET / HTTP/1.1\r\n\r\n").KeepAlive);
  EXPECT_FALSE(
      parseOk("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").KeepAlive);
  EXPECT_FALSE(parseOk("GET / HTTP/1.0\r\n\r\n").KeepAlive);
  EXPECT_TRUE(
      parseOk("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").KeepAlive);
}

TEST(HttpParser, PipelinedHeadsParseInOrderViaHeadBytes) {
  std::string Buf = "GET /healthz HTTP/1.1\r\n\r\n"
                    "GET /readyz HTTP/1.1\r\n\r\n"
                    "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
  std::vector<std::string> Paths;
  HttpRequest Req;
  std::string Error;
  while (parseHttpRequest(Buf, Req, Error) == HttpParse::Ok) {
    Paths.push_back(Req.Path);
    Buf.erase(0, Req.HeadBytes);
  }
  ASSERT_EQ(Paths.size(), 3u);
  EXPECT_EQ(Paths[0], "/healthz");
  EXPECT_EQ(Paths[1], "/readyz");
  EXPECT_EQ(Paths[2], "/metrics");
  EXPECT_TRUE(Buf.empty());
}

//===----------------------------------------------------------------------===//
// Response rendering
//===----------------------------------------------------------------------===//

TEST(HttpRender, StatusLineHeadersAndBody) {
  const std::string R =
      renderHttpResponse(200, "text/plain; charset=utf-8", "ok\n", true);
  EXPECT_EQ(R.substr(0, 17), "HTTP/1.1 200 OK\r\n");
  EXPECT_NE(R.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(R.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(R.substr(R.size() - 7), "\r\n\r\nok\n");
}

TEST(HttpRender, HeadOmitsBodyButKeepsLength) {
  const std::string R =
      renderHttpResponse(200, "text/plain", "body!", false, /*HeadOnly=*/true);
  EXPECT_NE(R.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(R.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(R.substr(R.size() - 4), "\r\n\r\n"); // ends at the blank line
}

TEST(HttpRender, ExtraHeadersAndStatusText) {
  const std::string R = renderHttpResponse(405, "text/plain", "no\n", true,
                                           false, {"Allow: GET, HEAD"});
  EXPECT_EQ(R.substr(0, 37), "HTTP/1.1 405 Method Not Allowed\r\nCont");
  EXPECT_NE(R.find("Allow: GET, HEAD\r\n"), std::string::npos);
  EXPECT_STREQ(httpStatusText(431), "Request Header Fields Too Large");
  EXPECT_STREQ(httpStatusText(418), "Internal Server Error"); // fallback
}

TEST(HttpRender, PrometheusEscaping) {
  EXPECT_EQ(prometheusEscape("plain.name"), "plain.name");
  EXPECT_EQ(prometheusEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

FlightRecord makeRecord(std::uint64_t Id) {
  FlightRecord R;
  R.Id = Id;
  R.WallMicros = Id * 10;
  setFlightField(R.Status, "ok");
  setFlightField(R.Kind, "alloc");
  setFlightField(R.Peer, "127.0.0.1:1234");
  setFlightField(R.Target, "full-preferences");
  return R;
}

TEST(FlightRecorderTest, LastNNewestFirstAndWraparound) {
  FlightRecorder FR(4);
  for (std::uint64_t Id = 1; Id <= 10; ++Id)
    FR.record(makeRecord(Id));
  EXPECT_EQ(FR.recordedCount(), 10u);
  EXPECT_EQ(FR.capacity(), 4u);

  const std::vector<FlightRecord> Last = FR.lastN(99);
  ASSERT_EQ(Last.size(), 4u); // capacity bounds the answer
  EXPECT_EQ(Last[0].Id, 10u); // newest first
  EXPECT_EQ(Last[1].Id, 9u);
  EXPECT_EQ(Last[3].Id, 7u);

  const std::vector<FlightRecord> Two = FR.lastN(2);
  ASSERT_EQ(Two.size(), 2u);
  EXPECT_EQ(Two[0].Id, 10u);
}

TEST(FlightRecorderTest, FieldTruncationIsNulTerminated) {
  FlightRecord R;
  setFlightField(R.Detail, std::string(500, 'x'));
  EXPECT_EQ(std::string(R.Detail).size(), sizeof(R.Detail) - 1);
}

TEST(FlightRecorderTest, JsonCarriesEveryField) {
  FlightRecorder FR(8);
  FlightRecord R = makeRecord(42);
  R.QueueMicros = 7;
  R.BytesIn = 100;
  R.BytesOut = 200;
  setFlightField(R.Detail, "said \"hi\"");
  FR.record(R);

  const std::string J = FR.toJson(8);
  EXPECT_NE(J.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(J.find("\"id\":42"), std::string::npos);
  EXPECT_NE(J.find("\"queue-us\":7"), std::string::npos);
  EXPECT_NE(J.find("\"bytes-in\":100"), std::string::npos);
  EXPECT_NE(J.find("\"bytes-out\":200"), std::string::npos);
  EXPECT_NE(J.find("\"target\":\"full-preferences\""), std::string::npos);
  // Quotes inside Detail must arrive JSON-escaped.
  EXPECT_NE(J.find("said \\\"hi\\\""), std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentWritersLoseNothingButContendedSlots) {
  FlightRecorder FR(64);
  constexpr int Writers = 4, PerWriter = 500;
  std::vector<std::thread> Threads;
  for (int W = 0; W != Writers; ++W)
    Threads.emplace_back([&FR, W] {
      for (int I = 0; I != PerWriter; ++I)
        FR.record(makeRecord(static_cast<std::uint64_t>(W * PerWriter + I)));
    });
  for (std::thread &T : Threads)
    T.join();
  // Every record claimed a unique index (publish count is exact) and a
  // quiescent ring is fully readable.
  EXPECT_EQ(FR.recordedCount(), Writers * PerWriter);
  EXPECT_EQ(FR.lastN(64).size(), 64u);
}

TEST(FlightRecorderTest, RenderTextListsNewestFirst) {
  FlightRecorder FR(8);
  FR.record(makeRecord(1));
  FR.record(makeRecord(2));
  const std::string Text = FR.renderText(8);
  const std::size_t P2 = Text.find(" 2 ");
  const std::size_t P1 = Text.find(" 1 ");
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  EXPECT_LT(P2, P1);
}

//===----------------------------------------------------------------------===//
// LatencyHistogram::quantile
//===----------------------------------------------------------------------===//

TEST(LatencyQuantile, EmptyAndSingleSample) {
  LatencyHistogram H;
  EXPECT_EQ(H.quantile(0.5), 0u);
  H.record(5); // exact bucket: values < 8 have width-1 buckets
  EXPECT_EQ(H.quantile(0.0), 5u);
  EXPECT_EQ(H.quantile(0.5), 5u);
  EXPECT_EQ(H.quantile(1.0), 5u);
}

TEST(LatencyQuantile, InterpolatesInsideBucketAndStaysWithinIt) {
  LatencyHistogram H;
  // 1000 samples of 1000µs land in one sub-bucket ([1024, 1279] decade
  // 2^10 would hold 1024.. — 1000 is in [896, 1023] of decade 2^9).
  for (int I = 0; I != 1000; ++I)
    H.record(1000);
  const std::uint64_t Q10 = H.quantile(0.10);
  const std::uint64_t Q99 = H.quantile(0.99);
  // All mass in one bucket: every quantile interpolates inside it, so
  // low quantiles sit near the lower bound and high near the upper.
  EXPECT_LE(Q10, Q99);
  EXPECT_GE(Q10, 896u);
  EXPECT_LE(Q99, 1023u);
  // percentileMicros stays the conservative bucket ceiling.
  EXPECT_EQ(H.percentileMicros(50), 1023u);
}

TEST(LatencyQuantile, SplitsMassAcrossBuckets) {
  LatencyHistogram H;
  for (int I = 0; I != 90; ++I)
    H.record(10); // bucket [10, 11]
  for (int I = 0; I != 10; ++I)
    H.record(5000); // far higher bucket
  // p50 must report the low bucket, p99 the high one.
  EXPECT_LE(H.quantile(0.5), 11u);
  EXPECT_GE(H.quantile(0.99), 4096u);
}

TEST(LatencyQuantile, AgreesWithPercentileWithinOneBucket) {
  // The acceptance criterion's "within one bucket's resolution": the
  // interpolated quantile never exceeds the nearest-rank bucket ceiling
  // and never undershoots that bucket's lower bound. Exercise a spread
  // of magnitudes.
  LatencyHistogram H;
  std::uint64_t Sample = 1;
  for (int I = 0; I != 2000; ++I) {
    H.record(Sample % 100000);
    Sample = Sample * 1103515245 + 12345; // deterministic LCG
  }
  for (double Q : {0.5, 0.9, 0.99}) {
    const std::uint64_t Interp = H.quantile(Q);
    const std::uint64_t Ceiling = H.percentileMicros(Q * 100.0);
    EXPECT_LE(Interp, Ceiling);
    // One bucket is at most 12.5% + 1 wide below its ceiling.
    EXPECT_GE(Interp * 8, Ceiling * 7 - 8);
  }
}

TEST(LatencyQuantile, SumAndMeanExposed) {
  LatencyHistogram H;
  H.record(10);
  H.record(30);
  EXPECT_EQ(H.sumMicros(), 40u);
  EXPECT_EQ(H.count(), 2u);
}

} // namespace
