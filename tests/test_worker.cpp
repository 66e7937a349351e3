//===- tests/test_worker.cpp - Crash-containment tests ------------------------===//
//
// Part of the PDGC project.
//
// Coverage for the crash-containment stack (docs/ROBUSTNESS.md, "Crash
// containment"): the Subprocess fork/pipe/rlimit layer, the WorkerPool
// supervision state machine (typed CRASHED verdicts, respawn with
// backoff, the watchdog's deadline kill), the per-input circuit breaker
// with TTL expiry, crash dossiers, the runAllocGuarded exception
// backstop, EINTR resilience of the frame codec under a signal storm,
// the client retry policy's wall-clock budget, and the Server end-to-end
// in --isolate-workers mode with its /metrics surfacing.
//
// Everything here runs real forks, real SIGABRTs, and real SIGKILLs —
// the point of the subsystem is that those are containable events, and
// the tests treat them as ordinary fixtures.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "machine/TargetDesc.h"
#include "server/AllocRunner.h"
#include "server/Client.h"
#include "server/FrameCodec.h"
#include "server/Server.h"
#include "server/WorkerPool.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
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
  P.Name = "worker" + std::to_string(Seed);
  P.CallPercent = 30;
  return printFunction(*generateFunction(P, Target));
}

Request allocRequest(const std::string &Body, unsigned BudgetMs = 0) {
  Request R;
  R.BudgetMs = BudgetMs;
  R.Body = Body;
  return R;
}

Deadline::Clock::time_point inMs(unsigned Ms) {
  return Deadline::Clock::now() + std::chrono::milliseconds(Ms);
}

/// A scratch directory that cleans up after itself.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = std::filesystem::temp_directory_path().string() + "/pdgc-" + Tag +
           "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

/// Drives a pool until one request comes back OK (children forked before
/// a plan was cleared may still crash once each); bounded so a genuinely
/// broken pool fails the test instead of hanging it.
WorkerExecResult executeUntilOk(WorkerPool &Pool, const Request &Req,
                                unsigned MaxTries = 50) {
  WorkerExecResult Res;
  for (unsigned I = 0; I != MaxTries; ++I) {
    Res = Pool.execute(Req, inMs(5000));
    if (Res.R.Status == ResponseStatus::Ok)
      return Res;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Subprocess layer
//===----------------------------------------------------------------------===//

TEST(Subprocess, RunsChildOverPipesAndReportsExit) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(P.spawn(
      SubprocessLimits(),
      [](int InFd, int OutFd) {
        char Buf[16];
        ssize_t N = ::read(InFd, Buf, sizeof Buf);
        if (N <= 0)
          return 9;
        // Echo back upper-cased, then exit with a recognizable code.
        for (ssize_t I = 0; I != N; ++I)
          Buf[I] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(Buf[I])));
        (void)!::write(OutFd, Buf, static_cast<std::size_t>(N));
        return 42;
      },
      &Error))
      << Error;
  ASSERT_TRUE(P.started());
  EXPECT_TRUE(P.tryWait().alive());

  ASSERT_EQ(::write(P.writeFd(), "ping", 4), 4);
  char Buf[16];
  ssize_t N = ::read(P.readFd(), Buf, sizeof Buf);
  ASSERT_EQ(N, 4);
  EXPECT_EQ(std::string(Buf, 4), "PING");

  WaitStatus WS = P.wait();
  EXPECT_EQ(WS.State, WaitStatus::Exited);
  EXPECT_EQ(WS.Code, 42);
  EXPECT_EQ(WS.toString(), "exit 42");
  // The status is cached: asking again must not waitpid a recycled pid.
  EXPECT_EQ(P.wait().Code, 42);
}

TEST(Subprocess, SignalDeathIsDecodedAndNamed) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(P.spawn(
      SubprocessLimits(),
      [](int, int) {
        std::abort();
        return 0;
      },
      &Error))
      << Error;
  WaitStatus WS = P.wait();
  EXPECT_EQ(WS.State, WaitStatus::Signaled);
  EXPECT_EQ(WS.Code, SIGABRT);
  EXPECT_NE(WS.toString().find("SIGABRT"), std::string::npos);
}

TEST(Subprocess, KillTerminatesAndPipeEofFollows) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(P.spawn(
      SubprocessLimits(),
      [](int InFd, int) {
        char B;
        while (::read(InFd, &B, 1) != 0) {
        }
        return 0;
      },
      &Error))
      << Error;
  P.kill(SIGKILL);
  WaitStatus WS = P.wait();
  EXPECT_EQ(WS.State, WaitStatus::Signaled);
  EXPECT_EQ(WS.Code, SIGKILL);
  // After death the response pipe must read EOF, not hang.
  char B;
  EXPECT_EQ(::read(P.readFd(), &B, 1), 0);
}

//===----------------------------------------------------------------------===//
// Content hash
//===----------------------------------------------------------------------===//

TEST(WorkerPoolUnit, ContentHashIsStableFnv1a) {
  // FNV-1a 64 offset basis for the empty string; the breaker keys on
  // this, so it must not drift across builds.
  EXPECT_EQ(contentHash(""), 14695981039346656037ull);
  EXPECT_EQ(contentHash("abc"), contentHash("abc"));
  EXPECT_NE(contentHash("abc"), contentHash("abd"));
}

//===----------------------------------------------------------------------===//
// runAllocGuarded: the in-process exception backstop
//===----------------------------------------------------------------------===//

TEST(AllocRunner, GuardMapsBadAllocToTypedInternal) {
  Response R = runAllocGuarded([]() -> Response { throw std::bad_alloc(); });
  EXPECT_EQ(R.Status, ResponseStatus::Internal);
  EXPECT_NE(R.Error.find("out of memory"), std::string::npos) << R.Error;
}

TEST(AllocRunner, GuardMapsExceptionsAndUnknownThrows) {
  Response R = runAllocGuarded(
      []() -> Response { throw std::runtime_error("boom detail"); });
  EXPECT_EQ(R.Status, ResponseStatus::Internal);
  EXPECT_NE(R.Error.find("boom detail"), std::string::npos) << R.Error;

  R = runAllocGuarded([]() -> Response { throw 42; });
  EXPECT_EQ(R.Status, ResponseStatus::Internal);
  EXPECT_NE(R.Error.find("unknown exception"), std::string::npos) << R.Error;

  Response Ok;
  Ok.Status = ResponseStatus::Ok;
  Ok.ServedBy = "x";
  R = runAllocGuarded([&]() -> Response { return Ok; });
  EXPECT_EQ(R.Status, ResponseStatus::Ok);
  EXPECT_EQ(R.ServedBy, "x");
}

//===----------------------------------------------------------------------===//
// WorkerPool: dispatch, crash verdicts, watchdog, breaker, dossiers
//===----------------------------------------------------------------------===//

TEST(WorkerPool, ServesAllocOutOfProcess) {
  PlanGuard Guard;
  WorkerPoolOptions Opts;
  Opts.Workers = 2;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());

  WorkerExecResult Res = Pool.execute(allocRequest(sampleBody()), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Ok) << Res.R.Error;
  EXPECT_FALSE(Res.R.ServedBy.empty());
  EXPECT_FALSE(Res.Crashed);
  EXPECT_FALSE(Res.Replayed);

  WorkerPoolStats S = Pool.stats();
  EXPECT_GE(S.Spawns, 2u);
  EXPECT_EQ(S.Crashes, 0u);
  EXPECT_EQ(S.Live, 2u);
  Pool.stop();
  EXPECT_EQ(Pool.stats().Live, 0u);
}

TEST(WorkerPool, MalformedInputAnswersTypedWithoutCrashing) {
  PlanGuard Guard;
  WorkerPoolOptions Opts;
  Opts.Workers = 1;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());
  WorkerExecResult Res =
      Pool.execute(allocRequest("this is not ir\n"), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Malformed);
  EXPECT_FALSE(Res.Crashed);
  // The same worker survives to serve the next request.
  Res = Pool.execute(allocRequest(sampleBody()), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Ok) << Res.R.Error;
  EXPECT_EQ(Pool.stats().Crashes, 0u);
  Pool.stop();
}

TEST(WorkerPool, RealAbortBecomesTypedCrashedAndPoolRecovers) {
  PlanGuard Guard;
  // Armed before start() so the first generation of children inherits
  // the plan; each fresh child aborts its first request for real.
  installSpec("worker.abort:fatal@n=1");
  WorkerPoolOptions Opts;
  Opts.Workers = 1;
  Opts.QuarantineCrashes = 100; // keep the breaker out of this test
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());

  WorkerExecResult Res = Pool.execute(allocRequest(sampleBody()), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Crashed);
  EXPECT_TRUE(Res.Crashed);
  EXPECT_NE(Res.R.Error.find("SIGABRT"), std::string::npos) << Res.R.Error;

  // Disarm; children forked before this point may still crash once
  // each, but a post-clear respawn must serve cleanly.
  fault::clearPlan();
  Res = executeUntilOk(Pool, allocRequest(sampleBody()));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Ok) << Res.R.Error;

  WorkerPoolStats S = Pool.stats();
  EXPECT_GE(S.Crashes, 1u);
  EXPECT_GE(S.Respawns, 1u);
  EXPECT_GE(S.Spawns, 2u);
  Pool.stop();
}

TEST(WorkerPool, WatchdogKillsWorkerPastDeadlinePlusGrace) {
  PlanGuard Guard;
  // The child stalls 3 s inside the request; the deadline is 150 ms and
  // grace 50 ms, so the watchdog must SIGKILL it — no cooperative
  // pollDeadline() will ever run.
  installSpec("worker.abort:delay=3000@n=1");
  WorkerPoolOptions Opts;
  Opts.Workers = 1;
  Opts.GraceMs = 50;
  Opts.QuarantineCrashes = 100;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());

  auto Start = Deadline::Clock::now();
  WorkerExecResult Res = Pool.execute(allocRequest(sampleBody()), inMs(150));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Deadline::Clock::now() - Start)
                       .count();
  EXPECT_EQ(Res.R.Status, ResponseStatus::Crashed);
  EXPECT_NE(Res.R.Error.find("watchdog"), std::string::npos) << Res.R.Error;
  // The kill, not the 3 s stall, bounded the wait.
  EXPECT_LT(ElapsedMs, 2500);
  EXPECT_GE(Pool.stats().Kills, 1u);
  Pool.stop();
}

TEST(WorkerPool, InfrastructureDeathIsReplayedNotCrashed) {
  PlanGuard Guard;
  // Drive a real infrastructure death (exit with a transport code, not a
  // signal): a frame cap the request cannot fit under makes every
  // child's readFrame report Oversized, so it exits ChildExitTransport.
  // The supervisor must classify that as an innocent-input death — one
  // replay, then a typed INTERNAL, never CRASHED.
  WorkerPoolOptions Opts;
  Opts.Workers = 2;
  Opts.MaxFrameBytes = 64;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());
  WorkerExecResult Res = Pool.execute(allocRequest(sampleBody()), inMs(5000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Internal) << Res.R.Error;
  EXPECT_NE(Res.R.Error.find("after replay"), std::string::npos)
      << Res.R.Error;
  EXPECT_TRUE(Res.Replayed);
  EXPECT_GE(Pool.stats().Replays, 1u);
  EXPECT_EQ(Pool.stats().Crashes, 0u);
  Pool.stop();
}

TEST(WorkerPool, BreakerQuarantinesRepeatCrasherButNotOthers) {
  PlanGuard Guard;
  // Every child crashes every request while the plan is armed.
  installSpec("worker.abort:fatal@every=1");
  WorkerPoolOptions Opts;
  Opts.Workers = 1;
  Opts.QuarantineCrashes = 2;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());

  const std::string BodyA = sampleBody(11);
  const std::string BodyB = sampleBody(22);

  WorkerExecResult Res = Pool.execute(allocRequest(BodyA), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Crashed);
  Res = Pool.execute(allocRequest(BodyA), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Crashed);

  // Third attempt: K=2 crashes recorded -> instant typed rejection, no
  // worker burned.
  Res = Pool.execute(allocRequest(BodyA), inMs(10000));
  EXPECT_TRUE(Res.Quarantined);
  EXPECT_EQ(Res.R.Status, ResponseStatus::Rejected);
  EXPECT_NE(Res.R.Error.find("quarantined"), std::string::npos) << Res.R.Error;

  // A different input is not collateral damage: it still reaches a
  // worker (and crashes, because the plan is still armed — the point is
  // it was *dispatched*).
  Res = Pool.execute(allocRequest(BodyB), inMs(10000));
  EXPECT_FALSE(Res.Quarantined);
  EXPECT_EQ(Res.R.Status, ResponseStatus::Crashed);

  // Disarm: innocent inputs serve again, the quarantined one stays out.
  fault::clearPlan();
  Res = executeUntilOk(Pool, allocRequest(BodyB));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Ok) << Res.R.Error;
  Res = Pool.execute(allocRequest(BodyA), inMs(10000));
  EXPECT_TRUE(Res.Quarantined);
  EXPECT_EQ(Res.R.Status, ResponseStatus::Rejected);

  WorkerPoolStats S = Pool.stats();
  EXPECT_EQ(S.QuarantinedInputs, 1u);
  EXPECT_GE(S.Quarantined, 2u);
  EXPECT_GE(S.Crashes, 3u);
  Pool.stop();
}

TEST(WorkerPool, QuarantineExpiresAfterTtl) {
  PlanGuard Guard;
  installSpec("worker.abort:fatal@n=1");
  WorkerPoolOptions Opts;
  Opts.Workers = 1;
  Opts.QuarantineCrashes = 1;
  Opts.QuarantineTtlMs = 250;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());

  const std::string Body = sampleBody(33);
  WorkerExecResult Res = Pool.execute(allocRequest(Body), inMs(10000));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Crashed);
  fault::clearPlan();

  // Inside the TTL: quarantined, with a retry hint pointing at expiry.
  Res = Pool.execute(allocRequest(Body), inMs(10000));
  EXPECT_TRUE(Res.Quarantined);
  EXPECT_GT(Res.R.RetryAfterMs, 0u);
  EXPECT_EQ(Pool.stats().QuarantinedInputs, 1u);

  // Past the TTL: the entry is forgotten and the input serves again
  // (the respawned child was forked after clearPlan).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Res = executeUntilOk(Pool, allocRequest(Body));
  EXPECT_EQ(Res.R.Status, ResponseStatus::Ok) << Res.R.Error;
  EXPECT_EQ(Pool.stats().QuarantinedInputs, 0u);
  Pool.stop();
}

TEST(WorkerPool, CrashDossierIsWrittenAndNamesTheWaitStatus) {
  PlanGuard Guard;
  TempDir Dir("dossier");
  installSpec("worker.abort:fatal@n=1");
  WorkerPoolOptions Opts;
  Opts.Workers = 1;
  Opts.QuarantineCrashes = 100;
  Opts.CrashDir = Dir.Path;
  WorkerPool Pool(Opts);
  ASSERT_TRUE(Pool.start());

  const std::string Body = sampleBody(44);
  WorkerExecResult Res = Pool.execute(allocRequest(Body), inMs(10000));
  ASSERT_EQ(Res.R.Status, ResponseStatus::Crashed);
  Pool.stop();

  std::vector<std::string> Dossiers;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir.Path))
    if (Entry.path().extension() == ".pir")
      Dossiers.push_back(Entry.path().string());
  ASSERT_EQ(Dossiers.size(), 1u);

  std::ifstream In(Dossiers.front());
  std::ostringstream SS;
  SS << In.rdbuf();
  const std::string Dossier = SS.str();
  EXPECT_NE(Dossier.find("; pdgc crash dossier"), std::string::npos);
  EXPECT_NE(Dossier.find("; wait-status: signal 6 (SIGABRT)"),
            std::string::npos)
      << Dossier.substr(0, 400);
  EXPECT_NE(Dossier.find("; crash-count: 1"), std::string::npos);
  EXPECT_NE(Dossier.find("; regs: 24"), std::string::npos);
  EXPECT_NE(Dossier.find("; fault-plan:"), std::string::npos);
  // The body rides along verbatim, so the dossier replays as-is.
  EXPECT_NE(Dossier.find(Body), std::string::npos);

  // The dossier's name embeds the breaker's content hash.
  char Expect[32];
  std::snprintf(Expect, sizeof Expect, "%016llx",
                static_cast<unsigned long long>(contentHash(Body)));
  EXPECT_NE(Dossiers.front().find(Expect), std::string::npos);
}

//===----------------------------------------------------------------------===//
// EINTR: frame reads survive a signal storm (the SIGCHLD audit)
//===----------------------------------------------------------------------===//

// Signal-handler plumbing for the EINTR storm test: each SIGALRM tick
// feeds the next small chunk of a pre-serialized frame into the pipe the
// main thread is blocked reading. Every chunk boundary is therefore an
// interrupted read() the codec must retry — dozens of them per frame.
int GStormFd = -1;
const char *GStormData = nullptr;
volatile std::size_t GStormOff = 0;
std::size_t GStormLen = 0;

void onStormTick(int) {
  int Saved = errno;
  if (GStormFd >= 0 && GStormOff < GStormLen) {
    std::size_t Chunk = GStormLen - GStormOff;
    if (Chunk > 512)
      Chunk = 512;
    ssize_t N = ::write(GStormFd, GStormData + GStormOff, Chunk);
    if (N > 0)
      GStormOff = GStormOff + static_cast<std::size_t>(N);
  }
  errno = Saved;
}

TEST(FrameEintr, ReadFrameSurvivesInterruptedSyscallStorm) {
  // Serialize one frame into a scratch pipe to get its raw bytes.
  std::string Payload;
  Payload.reserve(16384);
  for (unsigned I = 0; I != 1024; ++I)
    Payload += "line " + std::to_string(I) + " of the frame\n";
  int Scratch[2];
  ASSERT_EQ(::pipe(Scratch), 0);
  ASSERT_TRUE(writeFrame(Scratch[1], Payload));
  ::close(Scratch[1]);
  std::string Raw;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Scratch[0], Buf, sizeof Buf)) > 0)
    Raw.append(Buf, static_cast<std::size_t>(N));
  ::close(Scratch[0]);
  ASSERT_GT(Raw.size(), Payload.size());

  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);
  GStormFd = Pipe[1];
  GStormData = Raw.data();
  GStormOff = 0;
  GStormLen = Raw.size();

  // No SA_RESTART: every tick that lands mid-read MUST surface as EINTR
  // to the codec's retry loop, which is exactly what this test probes.
  struct sigaction SA;
  std::memset(&SA, 0, sizeof SA);
  SA.sa_handler = onStormTick;
  sigemptyset(&SA.sa_mask);
  struct sigaction OldSA;
  ASSERT_EQ(::sigaction(SIGALRM, &SA, &OldSA), 0);
  itimerval Timer{};
  Timer.it_interval.tv_usec = 1000; // 1 ms ticks
  Timer.it_value.tv_usec = 1000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &Timer, nullptr), 0);

  // The read blocks on an empty pipe; ~30 ticks later the frame has
  // dribbled in, one interrupted syscall at a time.
  std::string Out;
  FrameResult FR = readFrame(Pipe[0], Out);

  itimerval Off{};
  ::setitimer(ITIMER_REAL, &Off, nullptr);
  ::sigaction(SIGALRM, &OldSA, nullptr);
  GStormFd = -1;
  ::close(Pipe[0]);
  ::close(Pipe[1]);

  EXPECT_EQ(FR, FrameResult::Ok);
  EXPECT_EQ(Out, Payload);
  EXPECT_EQ(GStormOff, GStormLen); // the whole frame went through ticks
}

//===----------------------------------------------------------------------===//
// Client retry policy: the wall-clock budget
//===----------------------------------------------------------------------===//

TEST(ClientRetry, MaxElapsedBoundsRetriesAcrossRedials) {
  // A port with no listener: grab an ephemeral port, then close it.
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0);
  socklen_t Len = sizeof Addr;
  ASSERT_EQ(::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len), 0);
  std::uint16_t Port = ntohs(Addr.sin_port);
  ::close(Fd);

  ClientConnection Conn;
  Response Resp;
  unsigned Retries = 0;
  auto Start = std::chrono::steady_clock::now();
  // 64 transport retries would sleep for many seconds; the 200 ms wall
  // budget must cut the loop short instead.
  TransportError E = Conn.callWithRetry(allocRequest("x"), Resp, Port,
                                        /*MaxAttempts=*/64,
                                        /*RetryTransport=*/true, /*Seed=*/1,
                                        &Retries, /*MaxElapsedMs=*/200);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(E, TransportError::ConnectFailed);
  EXPECT_LT(ElapsedMs, 2000);
  EXPECT_GE(Retries, 1u);
}

//===----------------------------------------------------------------------===//
// Server end-to-end in isolation mode
//===----------------------------------------------------------------------===//

/// Minimal raw-socket HTTP client for the observability plane.
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
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) !=
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
  std::string recvUntilClosed() {
    std::string Out;
    char Chunk[4096];
    for (;;) {
      ssize_t N = ::recv(Fd, Chunk, sizeof Chunk, 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Out.append(Chunk, static_cast<std::size_t>(N));
    }
    return Out;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
};

TEST(ServerIsolated, CrashIsContainedTypedAndObservable) {
  PlanGuard Guard;
  // Armed before start() so the first worker generation inherits it.
  installSpec("worker.abort:fatal@n=1");
  ServerOptions Opts;
  Opts.IsolateWorkers = 1;
  Opts.QuarantineCrashes = 100;
  Server S(Opts);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.port()));
  Response Resp;
  ASSERT_EQ(Conn.call(allocRequest(sampleBody()), Resp), TransportError::None);
  // The daemon survived a real SIGABRT in the allocator and answered a
  // typed verdict on the same connection.
  EXPECT_EQ(Resp.Status, ResponseStatus::Crashed);
  EXPECT_NE(Resp.Error.find("SIGABRT"), std::string::npos) << Resp.Error;

  fault::clearPlan();
  Response Ok;
  for (unsigned I = 0; I != 50; ++I) {
    ASSERT_EQ(Conn.call(allocRequest(sampleBody()), Ok), TransportError::None);
    if (Ok.Status == ResponseStatus::Ok)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(Ok.Status, ResponseStatus::Ok) << Ok.Error;

  Conn.close();

  // /metrics grows the pool gauges only in isolation mode, and exposes
  // the worker.* counters.
  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  ASSERT_TRUE(Http.send("GET /metrics HTTP/1.1\r\nHost: t\r\n"
                        "Connection: close\r\n\r\n"));
  std::string Metrics = Http.recvUntilClosed();
  Http.close();
  EXPECT_NE(Metrics.find("pdgc_server_workers_live 1"), std::string::npos);
  EXPECT_NE(Metrics.find("pdgc_server_quarantined_inputs 0"),
            std::string::npos);
  EXPECT_NE(Metrics.find("pdgc_stat_total{stat=\"worker.crashes\"}"),
            std::string::npos);

  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_GE(Sum.Crashed, 1u);
  EXPECT_GE(Sum.WorkerCrashes, 1u);
  EXPECT_GE(Sum.WorkerRespawns, 1u);
  EXPECT_GE(Sum.Ok, 1u);
  EXPECT_TRUE(Sum.DrainedInBudget);
}

TEST(ServerDefault, InProcessModeHasNoPoolSurface) {
  // --isolate-workers=0 (the default) must not leak any pool gauges
  // into /metrics.
  Server S((ServerOptions()));
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  RawConn Http;
  ASSERT_TRUE(Http.connect(S.port()));
  ASSERT_TRUE(Http.send("GET /metrics HTTP/1.1\r\nHost: t\r\n"
                        "Connection: close\r\n\r\n"));
  std::string Metrics = Http.recvUntilClosed();
  Http.close();
  EXPECT_EQ(Metrics.find("pdgc_server_workers_live"), std::string::npos);
  EXPECT_EQ(Metrics.find("pdgc_server_quarantined_inputs"),
            std::string::npos);

  S.requestStop();
  ServerSummary Sum = S.run();
  EXPECT_EQ(Sum.Crashed, 0u);
  EXPECT_TRUE(Sum.DrainedInBudget);
}

} // namespace
