//===- tests/test_server.cpp - Allocation service end-to-end tests ------------===//
//
// Part of the PDGC project.
//
// In-process end-to-end coverage of pdgc-serve's core: real loopback
// sockets, real worker threads. Covers the ALLOC life cycle (any other
// verb, PING / STATUS / STATS included, answers MALFORMED), request
// isolation (malformed input answers typed and leaves the connection
// usable), admission-control hysteresis and deterministic shedding under
// a stalled worker, graceful drain, the HTTP observability plane sharing
// the port (sniffing, endpoints, pipelining, /readyz during drain,
// request-id correlation against the trace buffer), and — the acceptance
// criterion — chaos sweeps over every server.* and server.http.* fault
// site crossed with every fault action, asserting the server never
// crashes and every answered request carries a correct typed status.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "machine/TargetDesc.h"
#include "server/AdmissionQueue.h"
#include "server/Client.h"
#include "server/FrameCodec.h"
#include "server/Server.h"
#include "support/FaultInjection.h"
#include "support/Tracing.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pdgc;
using namespace pdgc::server;

namespace {

/// Clears any installed plan on both ends of a test, so a failing test
/// cannot leak an armed plan into its neighbors.
struct PlanGuard {
  PlanGuard() { fault::clearPlan(); }
  ~PlanGuard() { fault::clearPlan(); }
};

void installSpec(const std::string &Spec) {
  fault::FaultPlan Plan;
  std::string Error = fault::parseFaultSpec(Spec, Plan);
  ASSERT_TRUE(Error.empty()) << Error;
  fault::resetSiteCounters();
  fault::installPlan(Plan);
}

std::string sampleBody(std::uint64_t Seed = 7) {
  TargetDesc Target = makeTarget(24, PairingRule::Adjacent);
  GeneratorParams P;
  P.Seed = Seed;
  P.Name = "serve" + std::to_string(Seed);
  P.CallPercent = 30;
  return printFunction(*generateFunction(P, Target));
}

Request allocRequest(const std::string &Body, unsigned BudgetMs = 0) {
  Request R;
  R.BudgetMs = BudgetMs;
  R.Body = Body;
  return R;
}

//===----------------------------------------------------------------------===//
// Admission queue (watermark hysteresis)
//===----------------------------------------------------------------------===//

TEST(AdmissionQueue, ShedsAtCapacityUntilLowWatermark) {
  AdmissionQueue<int> Q(/*Capacity=*/4, /*Low=*/2);
  EXPECT_EQ(Q.tryPush(1), Admission::Admitted);
  EXPECT_EQ(Q.tryPush(2), Admission::Admitted);
  EXPECT_EQ(Q.tryPush(3), Admission::Admitted);
  EXPECT_EQ(Q.tryPush(4), Admission::Admitted);
  // Depth hit the high watermark: shed, and stay shedding.
  EXPECT_EQ(Q.tryPush(5), Admission::Shed);
  EXPECT_TRUE(Q.shedding());

  // One free slot is NOT recovery — a single threshold would flap here.
  int V = 0;
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(Q.tryPush(6), Admission::Shed);

  // Down to the low watermark: admissions resume.
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(Q.depth(), 2u);
  EXPECT_EQ(Q.tryPush(7), Admission::Admitted);
  EXPECT_FALSE(Q.shedding());
}

TEST(AdmissionQueue, CloseDrainsBacklogThenStopsConsumers) {
  AdmissionQueue<int> Q(8, 4);
  EXPECT_EQ(Q.tryPush(1), Admission::Admitted);
  EXPECT_EQ(Q.tryPush(2), Admission::Admitted);
  Q.close();
  // Producers are refused immediately...
  EXPECT_EQ(Q.tryPush(3), Admission::Closed);
  // ...but the promised backlog still drains, in order.
  int V = 0;
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 1);
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 2);
  EXPECT_FALSE(Q.pop(V));
}

TEST(AdmissionQueue, CloseWakesABlockedConsumer) {
  AdmissionQueue<int> Q(4, 2);
  std::thread Consumer([&] {
    int V = 0;
    EXPECT_FALSE(Q.pop(V)); // Blocks until close(), then exits false.
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  Consumer.join();
}

//===----------------------------------------------------------------------===//
// Request life cycle
//===----------------------------------------------------------------------===//

TEST(ServerEndToEnd, AllocAnswersOkWithAssignmentBody) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Conn.call(allocRequest(sampleBody()), Resp),
            TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  EXPECT_EQ(Resp.ServedBy, "full-preferences");
  EXPECT_NE(Resp.Body.find(" -> "), std::string::npos) << Resp.Body;

  Conn.close();
  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.Ok, 1u);
  EXPECT_TRUE(Sum.DrainedInBudget);
}

TEST(ServerEndToEnd, MalformedIrAnswersTypedAndConnectionSurvives) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.port()));

  // Hostile body: the request dies typed...
  Response Resp;
  ASSERT_EQ(Conn.call(allocRequest("this is not IR {{{"), Resp),
            TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Malformed);
  EXPECT_FALSE(Resp.Error.empty());

  // ...while the connection keeps serving the next request.
  ASSERT_EQ(Conn.call(allocRequest(sampleBody()), Resp),
            TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;

  Conn.close();
  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.Malformed, 1u);
  EXPECT_EQ(Sum.Ok, 1u);
}

TEST(ServerEndToEnd, RequestBudgetExpiryAnswersTimeout) {
  if (!fault::compiledIn())
    GTEST_SKIP() << "faults compiled out (delay injection drives the stall)";
  PlanGuard Guard;
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // Every spill round stalls 100ms against a 5ms budget: every tier —
  // including the guarantee tier, which TimeBudgetMs binds — comes back
  // BUDGET_EXCEEDED, and the request answers TIMEOUT, not a hang.
  installSpec("driver.round:delay=100@every=1");
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Conn.call(allocRequest(sampleBody(), /*BudgetMs=*/5), Resp),
            TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Timeout) << Resp.Error;
  EXPECT_FALSE(Resp.Error.empty());
  fault::clearPlan();

  Conn.close();
  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.Timeout, 1u);
}

//===----------------------------------------------------------------------===//
// Admission control under a stalled worker
//===----------------------------------------------------------------------===//

TEST(ServerEndToEnd, OverloadShedsWithRetryAfterHint) {
  if (!fault::compiledIn())
    GTEST_SKIP() << "faults compiled out (delay injection drives the stall)";
  PlanGuard Guard;
  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCapacity = 1;
  Opts.QueueLowWatermark = 0;
  Opts.DefaultBudgetMs = 200;
  Opts.RetryAfterMs = 35;
  Server S(Opts);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // The lone worker stalls ~200ms/tier on the first request; the second
  // fills the only queue slot; the third must shed deterministically.
  installSpec("driver.round:delay=200@every=1");
  const std::string Body = sampleBody();

  Response RespA, RespB, RespC;
  ClientConnection A, B, C;
  ASSERT_TRUE(A.connect(S.port()));
  ASSERT_TRUE(B.connect(S.port()));
  ASSERT_TRUE(C.connect(S.port()));

  std::thread TA([&] { A.call(allocRequest(Body), RespA); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The worker is now stalled inside request A; the queue is empty.
  std::thread TB([&] { B.call(allocRequest(Body), RespB); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Request B holds the only queue slot; C must be rejected *now*.
  auto Start = std::chrono::steady_clock::now();
  ASSERT_EQ(C.call(allocRequest(Body), RespC), TransportError::None);
  auto ShedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  EXPECT_EQ(RespC.Status, ResponseStatus::Rejected) << RespC.Error;
  EXPECT_EQ(RespC.RetryAfterMs, 35u);
  EXPECT_NE(RespC.Error.find("queue full"), std::string::npos)
      << RespC.Error;
  // Shedding answers fast — that is its whole point. Generous bound for
  // a loaded 1-CPU CI box; the stalled path above takes 600ms+.
  EXPECT_LT(ShedMs, 150);

  TA.join();
  TB.join();
  fault::clearPlan();
  // A and B ran out of budget against the injected stall: typed TIMEOUT.
  EXPECT_EQ(RespA.Status, ResponseStatus::Timeout) << RespA.Error;
  EXPECT_EQ(RespB.Status, ResponseStatus::Timeout) << RespB.Error;

  A.close();
  B.close();
  C.close();
  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.Rejected, 1u);
  EXPECT_EQ(Sum.Timeout, 2u);
  EXPECT_TRUE(Sum.DrainedInBudget);
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(ServerEndToEnd, DrainFinishesBacklogAndReportsSummary) {
  ServerOptions Opts;
  Opts.DrainBudgetMs = 5000;
  Server S(Opts);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Conn.call(allocRequest(sampleBody(1)), Resp),
            TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  ASSERT_EQ(Conn.call(allocRequest(sampleBody(2)), Resp),
            TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;

  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_TRUE(S.draining());
  EXPECT_TRUE(Sum.DrainedInBudget);
  EXPECT_EQ(Sum.Ok, 2u);
  EXPECT_EQ(Sum.Accepted, 1u);
  EXPECT_EQ(Sum.TransportErrors, 0u);

  // The listener is gone: new connections are refused.
  ClientConnection After;
  EXPECT_FALSE(After.connect(S.port()));
}

TEST(ServerEndToEnd, DoubleStopAndRunAreIdempotent) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  S.requestStop();
  S.requestStop();
  ServerSummary First = S.run();
  ServerSummary Second = S.run();
  EXPECT_EQ(First.Accepted, Second.Accepted);
  EXPECT_TRUE(First.DrainedInBudget);
}

//===----------------------------------------------------------------------===//
// Chaos sweep: every server.* fault site x every action
//===----------------------------------------------------------------------===//

TEST(ServerChaos, EveryServerFaultSiteStaysUpAndAnswersTyped) {
  if (!fault::compiledIn())
    GTEST_SKIP() << "faults compiled out";
  PlanGuard Guard;

  const char *Sites[] = {"server.accept", "server.frame", "server.parse",
                         "server.enqueue", "server.respond"};
  const char *Actions[] = {"status", "fatal", "delay=10"};
  const std::string Body = sampleBody();
  const unsigned RequestsPerCombo = 6;

  for (const char *Site : Sites) {
    for (const char *Action : Actions) {
      const std::string Spec =
          std::string(Site) + ":" + Action + "@every=2,seed=42";
      SCOPED_TRACE(Spec);

      ServerOptions Opts;
      Opts.Workers = 2;
      Server S(Opts);
      std::string Error;
      ASSERT_TRUE(S.start(&Error)) << Error;
      installSpec(Spec);

      unsigned Answered = 0, Dropped = 0;
      ClientConnection Conn;
      for (unsigned I = 0; I != RequestsPerCombo; ++I) {
        Response Resp;
        // Chaos mode: reconnect-and-retry through injected connection
        // drops, exactly like pdgc-loadgen --chaos.
        TransportError E = Conn.callWithRetry(
            allocRequest(Body), Resp, S.port(), /*MaxAttempts=*/8,
            /*RetryTransport=*/true, /*Seed=*/I, nullptr);
        if (E != TransportError::None) {
          ++Dropped;
          continue;
        }
        ++Answered;
        // Status correctness: success carries a tier, failure carries a
        // diagnostic — under every fault plan.
        if (Resp.Status == ResponseStatus::Ok ||
            Resp.Status == ResponseStatus::Degraded)
          EXPECT_FALSE(Resp.ServedBy.empty()) << "request " << I;
        else
          EXPECT_FALSE(Resp.Error.empty())
              << "request " << I << ": "
              << responseStatusName(Resp.Status);
      }
      // The server may drop injected-fault connections, but with 8
      // retry attempts against an every=2 trigger the vast majority of
      // requests must come back answered.
      EXPECT_GE(Answered, RequestsPerCombo - 1) << "dropped=" << Dropped;

      fault::clearPlan();
      Conn.close();
      S.requestStop();
      ServerSummary Sum = S.run();
      // The process survived (we are still here) and drained cleanly.
      EXPECT_TRUE(Sum.DrainedInBudget);
      // Every answered request was counted under a typed status.
      EXPECT_GE(Sum.Ok + Sum.Degraded + Sum.Rejected + Sum.Timeout +
                    Sum.Malformed + Sum.Internal,
                static_cast<std::uint64_t>(Answered));
    }
  }
}

//===----------------------------------------------------------------------===//
// HTTP observability plane (same port, sniffed per connection)
//===----------------------------------------------------------------------===//

/// Raw TCP client for speaking HTTP at the server without any client
/// library in the way — the tests below exercise exact wire bytes
/// (pipelining, oversized heads, deliberately ambiguous first bytes).
struct RawConn {
  int Fd = -1;

  ~RawConn() { close(); }

  bool connect(std::uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      close();
      return false;
    }
    return true;
  }

  bool send(const std::string &Bytes) {
    std::size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, 0);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<std::size_t>(N);
    }
    return true;
  }

  /// Reads until the peer closes. For Connection: close exchanges.
  std::string recvUntilClosed() {
    std::string Out;
    char Chunk[4096];
    for (;;) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Out.append(Chunk, static_cast<std::size_t>(N));
    }
    return Out;
  }

  /// Reads exactly one HTTP response (head + Content-Length body) off a
  /// keep-alive connection. Empty string on EOF/parse trouble.
  std::string recvOneResponse() {
    std::string Buf;
    char Chunk[4096];
    std::size_t HeadEnd = std::string::npos;
    while ((HeadEnd = Buf.find("\r\n\r\n")) == std::string::npos) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return std::string();
      Buf.append(Chunk, static_cast<std::size_t>(N));
    }
    const char *Key = "content-length:";
    std::size_t BodyLen = 0;
    std::string Lower;
    Lower.reserve(HeadEnd);
    for (std::size_t I = 0; I < HeadEnd; ++I)
      Lower.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(Buf[I]))));
    std::size_t Pos = Lower.find(Key);
    if (Pos != std::string::npos)
      BodyLen = std::strtoul(Buf.c_str() + Pos + std::strlen(Key), nullptr, 10);
    const std::size_t Want = HeadEnd + 4 + BodyLen;
    while (Buf.size() < Want) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return std::string();
      Buf.append(Chunk, static_cast<std::size_t>(N));
    }
    return Buf.substr(0, Want);
  }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
};

std::string httpGet(const std::string &Path, bool KeepAlive = true) {
  std::string Req = "GET " + Path + " HTTP/1.1\r\nHost: t\r\n";
  if (!KeepAlive)
    Req += "Connection: close\r\n";
  return Req + "\r\n";
}

TEST(ServerEndToEnd, PingStatusStatsAnswerMalformed) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // ALLOC is the only binary verb; health and introspection live on the
  // HTTP plane. These verbs die typed and the connection keeps serving.
  RawConn Conn;
  ASSERT_TRUE(Conn.connect(S.port()));
  for (const char *Verb : {"PING", "STATUS", "STATS"}) {
    SCOPED_TRACE(Verb);
    ASSERT_TRUE(writeFrame(Conn.Fd, std::string("PDGC/1 ") + Verb + "\n\n"));
    std::string Payload;
    ASSERT_EQ(readFrame(Conn.Fd, Payload), FrameResult::Ok);
    Response Resp;
    ASSERT_TRUE(parseResponse(Payload, Resp, Error)) << Error;
    EXPECT_EQ(Resp.Status, ResponseStatus::Malformed);
    EXPECT_NE(Resp.Error.find("unknown request verb"), std::string::npos)
        << Resp.Error;
  }
  ASSERT_TRUE(
      writeFrame(Conn.Fd, serializeRequest(allocRequest(sampleBody()))));
  std::string Payload;
  ASSERT_EQ(readFrame(Conn.Fd, Payload), FrameResult::Ok);
  Response Resp;
  ASSERT_TRUE(parseResponse(Payload, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  Conn.close();

  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.Accepted, 1u);
  EXPECT_EQ(Sum.Requests, 1u);
  EXPECT_EQ(Sum.Malformed, 3u);
  EXPECT_EQ(Sum.Ok, 1u);
  EXPECT_TRUE(Sum.DrainedInBudget);
}

TEST(ServerEndToEnd, FinishedConnectionThreadsAreReaped) {
  ServerOptions Opts;
  Server S(Opts);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // Churn many short-lived connections; each gets its own server thread.
  // The acceptor must reap finished threads as it goes — a daemon that
  // only joins at shutdown retains a zombie thread (stack + pthread
  // bookkeeping) per connection ever served.
  const Request Alloc = allocRequest(sampleBody());
  for (int N = 0; N != 100; ++N) {
    ClientConnection Churn;
    ASSERT_TRUE(Churn.connect(S.port()));
    Response Resp;
    ASSERT_EQ(Churn.call(Alloc, Resp), TransportError::None);
    Churn.close();
  }

  // Every accept reaps; by the time /metrics answers, the churned threads
  // must be gone from the registry (modulo a few still mid-retirement
  // under slow scheduling — hence the poll loop, and a bound far below
  // the 100 a leak would show).
  const char *Key = "\npdgc_server_conn_threads ";
  long Registered = -1;
  for (int Attempt = 0; Attempt != 50; ++Attempt) {
    RawConn Http;
    ASSERT_TRUE(Http.connect(S.port()));
    ASSERT_TRUE(Http.send(httpGet("/metrics", /*KeepAlive=*/false)));
    const std::string Metrics = Http.recvUntilClosed();
    Http.close();
    std::size_t Pos = Metrics.find(Key);
    ASSERT_NE(Pos, std::string::npos) << Metrics;
    Registered =
        std::strtol(Metrics.c_str() + Pos + std::strlen(Key), nullptr, 10);
    if (Registered <= 8)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(Registered, 8) << "connection threads are not being reaped";

  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_GE(Sum.Accepted, 101u);
  EXPECT_TRUE(Sum.DrainedInBudget);
}

TEST(HttpEndToEnd, EndpointsAnswerOverOneKeepAliveConnection) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // One binary alloc first, so /metrics and /requests have something
  // real to report — and to prove both planes share the port.
  ClientConnection Bin;
  ASSERT_TRUE(Bin.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Bin.call(allocRequest(sampleBody()), Resp), TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  Bin.close();

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));

  ASSERT_TRUE(Http.send(httpGet("/healthz")));
  std::string R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_NE(R.find("ok\n"), std::string::npos) << R;

  ASSERT_TRUE(Http.send(httpGet("/readyz")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_NE(R.find("ready\n"), std::string::npos) << R;

  ASSERT_TRUE(Http.send(httpGet("/metrics")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_NE(R.find("text/plain; version=0.0.4"), std::string::npos) << R;
  EXPECT_NE(R.find("# TYPE pdgc_stat_total counter"), std::string::npos);
  EXPECT_NE(R.find("pdgc_stat_total{stat=\"server.requests\"}"),
            std::string::npos)
      << R;
  EXPECT_NE(R.find("pdgc_request_latency_microseconds{quantile=\"0.99\"}"),
            std::string::npos)
      << R;
  EXPECT_NE(R.find("pdgc_request_latency_microseconds_count 1"),
            std::string::npos)
      << R;
  EXPECT_NE(R.find("pdgc_server_draining 0"), std::string::npos);

  ASSERT_TRUE(Http.send(httpGet("/stats")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_NE(R.find("application/json"), std::string::npos) << R;
  EXPECT_NE(R.find("\"counters\""), std::string::npos) << R;

  ASSERT_TRUE(Http.send(httpGet("/requests?n=8")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_NE(R.find("\"kind\":\"alloc\""), std::string::npos) << R;
  EXPECT_NE(R.find("\"target\":\"full-preferences\""), std::string::npos)
      << R;

  ASSERT_TRUE(Http.send(httpGet("/no-such-endpoint")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 404 Not Found"), std::string::npos) << R;

  Http.close();
  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.HttpRequests, 6u);
  EXPECT_TRUE(Sum.DrainedInBudget);
  // The drain summary carries the flight-recorder table, newest first:
  // the HTTP hits and the alloc must both be on it.
  EXPECT_NE(Sum.RecentRequests.find("/no-such-endpoint"), std::string::npos)
      << Sum.RecentRequests;
  EXPECT_NE(Sum.RecentRequests.find("alloc"), std::string::npos);
}

TEST(HttpEndToEnd, MetricsQuantilesMatchLoadgenWithinOneBucket) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  ClientConnection Bin;
  ASSERT_TRUE(Bin.connect(S.port()));
  for (unsigned I = 0; I != 5; ++I) {
    Response Resp;
    ASSERT_EQ(Bin.call(allocRequest(sampleBody(I + 1)), Resp),
              TransportError::None);
    EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  }
  Bin.close();

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  ASSERT_TRUE(Http.send(httpGet("/metrics", /*KeepAlive=*/false)));
  std::string R = Http.recvUntilClosed();
  Http.close();

  const char *Key = "pdgc_request_latency_microseconds{quantile=\"0.5\"} ";
  std::size_t Pos = R.find(Key);
  ASSERT_NE(Pos, std::string::npos) << R;
  const double P50 = std::strtod(R.c_str() + Pos + std::strlen(Key), nullptr);

  S.requestStop();
  ServerSummary Sum = S.run();
  // Both numbers come from the same LatencyHistogram::quantile() — the
  // scrape happened after all five samples landed, so they agree exactly
  // (shared implementation is the satellite's whole point).
  EXPECT_DOUBLE_EQ(P50, static_cast<double>(Sum.P50Micros));
}

TEST(HttpEndToEnd, PipelinedRequestsAnswerInOrder) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  // Three requests in a single write; the last one closes.
  ASSERT_TRUE(Http.send(httpGet("/healthz") + httpGet("/readyz") +
                        httpGet("/healthz", /*KeepAlive=*/false)));
  std::string All = Http.recvUntilClosed();
  Http.close();

  // Three status lines, in order, with the bodies interleaved correctly.
  std::size_t First = All.find("HTTP/1.1 200 OK");
  ASSERT_NE(First, std::string::npos) << All;
  std::size_t Ready = All.find("ready\n", First);
  ASSERT_NE(Ready, std::string::npos) << All;
  std::size_t Last = All.find("ok\n", Ready);
  EXPECT_NE(Last, std::string::npos) << All;
  unsigned StatusLines = 0;
  for (std::size_t P = All.find("HTTP/1.1 200"); P != std::string::npos;
       P = All.find("HTTP/1.1 200", P + 1))
    ++StatusLines;
  EXPECT_EQ(StatusLines, 3u);

  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.HttpRequests, 3u);
}

TEST(HttpEndToEnd, HeadOmitsBodyAndUnknownMethodAnswers405) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // HEAD advertises the body's length without sending it. Connection:
  // close so the read has a natural end (there is no body to frame).
  RawConn Head;
  ASSERT_TRUE(Head.connect(S.port()));
  ASSERT_TRUE(Head.send(
      "HEAD /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  std::string R = Head.recvUntilClosed();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_NE(R.find("Content-Length: 3"), std::string::npos) << R;
  EXPECT_EQ(R.find("ok\n"), std::string::npos) << R;
  Head.close();

  // DELETE parses fine — the *server* refuses it, with the Allow header
  // a well-behaved client needs.
  RawConn Del;
  ASSERT_TRUE(Del.connect(S.port()));
  ASSERT_TRUE(Del.send(
      "DELETE /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  R = Del.recvUntilClosed();
  EXPECT_NE(R.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos)
      << R;
  EXPECT_NE(R.find("Allow: GET, HEAD"), std::string::npos) << R;
  Del.close();

  // A request body is refused: this plane is read-only by construction,
  // and 400 closes the connection (the stream cannot be resynced).
  RawConn Body;
  ASSERT_TRUE(Body.connect(S.port()));
  ASSERT_TRUE(Body.send(
      "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nabc"));
  R = Body.recvUntilClosed();
  EXPECT_NE(R.find("HTTP/1.1 400 Bad Request"), std::string::npos) << R;
  Body.close();
  S.requestStop();
  S.run();
}

TEST(HttpEndToEnd, OversizedHeaderBlockAnswers431AndCloses) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  std::string Req = "GET /healthz HTTP/1.1\r\n";
  // Blow through MaxHeadBytes (8 KiB) with one enormous header value.
  Req += "x-padding: " + std::string(16 * 1024, 'a') + "\r\n\r\n";
  ASSERT_TRUE(Http.send(Req));
  std::string R = Http.recvUntilClosed();
  EXPECT_NE(R.find("HTTP/1.1 431 "), std::string::npos) << R;
  Http.close();

  // The daemon shrugged it off: a fresh connection still serves.
  RawConn Again;
  ASSERT_TRUE(Again.connect(S.port()));
  ASSERT_TRUE(Again.send(httpGet("/healthz", /*KeepAlive=*/false)));
  EXPECT_NE(Again.recvUntilClosed().find("HTTP/1.1 200 OK"),
            std::string::npos);
  Again.close();

  S.requestStop();
  S.run();
}

TEST(HttpEndToEnd, AmbiguousAsciiFrameIsServedAsHttp400) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // The sniffing edge case: a "binary frame" whose 4 length bytes are
  // printable ASCII. "GET " as a big-endian length is ~1.19 GiB — over
  // the 1 GiB frame cap, so no legal binary client can ever send it.
  // The sniffer classifies by first byte (uppercase => HTTP) and the
  // HTTP parser rejects the garbage request line with a clean 400
  // instead of the connection hanging in frame-length limbo.
  RawConn Conn;
  ASSERT_TRUE(Conn.connect(S.port()));
  ASSERT_TRUE(Conn.send("GET \x01\x02binary-ish garbage\r\n\r\n"));
  std::string R = Conn.recvUntilClosed();
  EXPECT_NE(R.find("HTTP/1.1 400 Bad Request"), std::string::npos) << R;
  Conn.close();

  // And a real binary frame (first byte 0x00 — a sane length high byte)
  // still reaches the binary plane on the same port.
  ClientConnection Bin;
  ASSERT_TRUE(Bin.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Bin.call(allocRequest(sampleBody()), Resp), TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  Bin.close();

  S.requestStop();
  S.run();
}

TEST(HttpEndToEnd, ReadyzFlipsTo503DuringDrain) {
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  ASSERT_TRUE(Http.send(httpGet("/readyz")));
  std::string R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;

  // Stop is requested but the established connection is still being
  // served: the load balancer probing /readyz must see NOT READY while
  // /healthz (liveness) stays green, so traffic moves away without the
  // process being killed.
  S.requestStop();
  ASSERT_TRUE(Http.send(httpGet("/readyz")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 503 Service Unavailable"), std::string::npos)
      << R;
  EXPECT_NE(R.find("draining\n"), std::string::npos) << R;

  ASSERT_TRUE(Http.send(httpGet("/healthz")));
  R = Http.recvOneResponse();
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;

  Http.close();
  ServerSummary Sum = S.run();
  EXPECT_TRUE(Sum.DrainedInBudget);
}

TEST(HttpEndToEnd, HttpConnectionCapAnswers503WithRetryAfter) {
  ServerOptions Opts;
  Opts.HttpMaxConns = 1;
  Server S(Opts);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  RawConn First;
  ASSERT_TRUE(First.connect(S.port()));
  ASSERT_TRUE(First.send(httpGet("/healthz")));
  std::string R = First.recvOneResponse();
  ASSERT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;

  // First holds the only HTTP slot (keep-alive); the second connection
  // is shed at the door — with a hint, not a hang.
  RawConn Second;
  ASSERT_TRUE(Second.connect(S.port()));
  ASSERT_TRUE(Second.send(httpGet("/healthz")));
  R = Second.recvUntilClosed();
  EXPECT_NE(R.find("HTTP/1.1 503 Service Unavailable"), std::string::npos)
      << R;
  EXPECT_NE(R.find("Retry-After:"), std::string::npos) << R;
  Second.close();

  // The cap releases with the connection: a successor gets the slot.
  First.close();
  for (int Attempt = 0;; ++Attempt) {
    RawConn Third;
    ASSERT_TRUE(Third.connect(S.port()));
    ASSERT_TRUE(Third.send(httpGet("/healthz", /*KeepAlive=*/false)));
    R = Third.recvUntilClosed();
    Third.close();
    if (R.find("HTTP/1.1 200 OK") != std::string::npos)
      break;
    ASSERT_LT(Attempt, 50) << R;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  S.requestStop();
  S.run();
}

TEST(HttpEndToEnd, RequestIdsCorrelateFlightRecorderAndTraceSpans) {
  trace::clear();
  trace::start();
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  ClientConnection Bin;
  ASSERT_TRUE(Bin.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Bin.call(allocRequest(sampleBody()), Resp), TransportError::None);
  EXPECT_EQ(Resp.Status, ResponseStatus::Ok) << Resp.Error;
  Bin.close();

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  ASSERT_TRUE(Http.send(httpGet("/requests?n=8", /*KeepAlive=*/false)));
  std::string Requests = Http.recvUntilClosed();
  Http.close();

  S.requestStop();
  S.run();
  trace::stop();
  std::string Trace = trace::toJson();
  trace::clear();

  // The alloc is this server's request #1. Its id must appear in the
  // flight recorder dump AND as the `req` arg on the batch/tier spans —
  // that join is how an operator goes from "request 1 was slow" to the
  // exact spans of the allocation that served it.
  EXPECT_NE(Requests.find("\"id\":1"), std::string::npos) << Requests;
  EXPECT_NE(Requests.find("\"kind\":\"alloc\""), std::string::npos);
  std::size_t Item = Trace.find("\"batch.item\"");
  ASSERT_NE(Item, std::string::npos) << Trace;
  // The event record naming batch.item carries the request id arg:
  // event objects are `{..."name":"batch.item",..."args":{"req":1,...}}`,
  // so the id must appear between this '{' and the next event's.
  const std::size_t Begin = Trace.rfind('{', Item);
  std::size_t End = Trace.find("\"name\"", Item + 1);
  if (End == std::string::npos)
    End = Trace.size();
  EXPECT_NE(Trace.substr(Begin, End - Begin).find("\"req\":1"),
            std::string::npos)
      << Trace.substr(Begin, End - Begin);
}

//===----------------------------------------------------------------------===//
// Chaos sweep: every server.http.* fault site x every action
//===----------------------------------------------------------------------===//

TEST(ServerChaos, EveryHttpFaultSiteStaysUpAndAnswersTyped) {
  if (!fault::compiledIn())
    GTEST_SKIP() << "faults compiled out";
  PlanGuard Guard;

  const char *Sites[] = {"server.http.parse", "server.http.respond"};
  const char *Actions[] = {"status", "fatal", "delay=10"};
  const unsigned RequestsPerCombo = 6;

  for (const char *Site : Sites) {
    for (const char *Action : Actions) {
      const std::string Spec =
          std::string(Site) + ":" + Action + "@every=2,seed=42";
      SCOPED_TRACE(Spec);

      Server S((ServerOptions()));
      std::string Error;
      ASSERT_TRUE(S.start(&Error)) << Error;
      installSpec(Spec);

      unsigned Answered = 0, Dropped = 0;
      for (unsigned I = 0; I != RequestsPerCombo; ++I) {
        // Reconnect-and-retry, mirroring the binary chaos sweep: a
        // faulted connection dies, the next attempt must be served.
        bool Ok = false;
        for (unsigned Attempt = 0; Attempt != 8 && !Ok; ++Attempt) {
          RawConn Conn;
          if (!Conn.connect(S.port()))
            continue;
          if (!Conn.send(httpGet("/healthz", /*KeepAlive=*/false)))
            continue;
          std::string R = Conn.recvUntilClosed();
          if (R.empty())
            continue; // Injected drop — retry.
          // Whatever came back must be a typed HTTP status line: a
          // clean 200, or the parse-fault path's typed 500 — never a
          // half-written response.
          EXPECT_EQ(R.compare(0, 9, "HTTP/1.1 "), 0) << R;
          Ok = R.find("HTTP/1.1 200 OK") != std::string::npos;
        }
        if (Ok)
          ++Answered;
        else
          ++Dropped;
      }
      EXPECT_GE(Answered, RequestsPerCombo - 1) << "dropped=" << Dropped;

      fault::clearPlan();
      S.requestStop();
      ServerSummary Sum = S.run();
      EXPECT_TRUE(Sum.DrainedInBudget);
    }
  }
}

} // namespace
