//===- server/Server.cpp - Allocation-as-a-service daemon core -------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "core/PDGCRegistration.h"
#include "server/AdmissionQueue.h"
#include "server/AllocRunner.h"
#include "server/FlightRecorder.h"
#include "server/FrameCodec.h"
#include "server/Http.h"
#include "server/LatencyHistogram.h"
#include "server/WorkerPool.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "support/ThreadAnnotations.h"
#include "support/Tracing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace pdgc;
using namespace pdgc::server;

namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t microsSince(SteadyClock::time_point Start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - Start)
          .count());
}

/// What the worker hands back to the waiting connection thread: the
/// wire response plus the forensics the flight recorder wants but the
/// protocol does not carry.
struct AllocDone {
  Response R;
  std::uint64_t QueueMicros = 0; ///< Admission-to-pop wait.
};

/// One admitted ALLOC request on its way to a worker. The connection
/// thread waits on the future; the worker must fulfill the promise on
/// every path (a lost promise would wedge the connection forever).
struct AllocJob {
  Request Req;
  /// Monotonic request id; joins the flight recorder, /requests, and the
  /// `req` argument on trace spans.
  std::uint64_t Id = 0;
  SteadyClock::time_point Arrived;
  /// Absolute wall deadline: admission time + the request's budget.
  SteadyClock::time_point DeadlineAt;
  std::promise<AllocDone> Done;
};

/// "ip:port" of the socket's peer, for the flight recorder.
std::string peerString(int Fd) {
  sockaddr_in Addr{};
  socklen_t Len = sizeof Addr;
  if (::getpeername(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0 ||
      Addr.sin_family != AF_INET)
    return "?";
  char Ip[INET_ADDRSTRLEN] = {0};
  if (!::inet_ntop(AF_INET, &Addr.sin_addr, Ip, sizeof Ip))
    return "?";
  return std::string(Ip) + ":" + std::to_string(ntohs(Addr.sin_port));
}

/// Writes the whole buffer (HTTP responses are raw bytes, not frames).
bool sendAll(int Fd, const std::string &Data) {
  std::size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, 0);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<std::size_t>(N);
  }
  return true;
}

} // namespace

struct Server::Impl {
  ServerOptions Opts;

  int ListenFd = -1;
  std::uint16_t BoundPort = 0;
  /// Self-pipe: requestStop() writes one byte (async-signal-safe); the
  /// acceptor's poll() watches the read end.
  int StopPipe[2] = {-1, -1};

  std::thread Acceptor;
  std::vector<std::thread> WorkerThreads;
  mutable Mutex ConnMutex;
  /// Live connection threads, keyed by connection id. A thread that
  /// finishes moves its own handle into FinishedConns (it cannot join
  /// itself); the acceptor reaps that list on every wakeup so a
  /// long-running daemon never accumulates joinable-but-dead threads.
  std::unordered_map<std::uint64_t, std::thread> ConnThreads
      PDGC_GUARDED_BY(ConnMutex);
  std::vector<std::thread> FinishedConns PDGC_GUARDED_BY(ConnMutex);
  std::uint64_t NextConnId PDGC_GUARDED_BY(ConnMutex) = 0;
  std::unordered_set<int> OpenFds PDGC_GUARDED_BY(ConnMutex);

  AdmissionQueue<std::unique_ptr<AllocJob>> Queue;
  LatencyHistogram Latency;
  FlightRecorder Flight;
  /// Monotonic id handed to every request on either plane. Starts at 1
  /// so 0 can mean "no request" in the trace thread-local.
  std::atomic<std::uint64_t> NextRequestId{1};
  std::atomic<unsigned> HttpConns{0};

  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Draining{false};
  /// Armed (before the Draining release-store) when drain begins; read
  /// by workers under a Draining acquire-load. Queued jobs finish under
  /// min(their own budget, this).
  Deadline DrainDeadline;
  std::atomic<unsigned> Connections{0};
  std::atomic<unsigned> InFlight{0};
  SteadyClock::time_point StartedAt{};

  // Lifetime totals for the exit summary (the Stats registry carries the
  // same counters process-wide; these stay per-server so tests can run
  // several servers in one process).
  std::atomic<std::uint64_t> NAccepted{0}, NRequests{0}, NOk{0},
      NDegraded{0}, NRejected{0}, NTimeout{0}, NMalformed{0}, NInternal{0},
      NCrashed{0}, NTransportErrors{0}, NHttpRequests{0};

  /// Crash containment: non-null iff Opts.IsolateWorkers > 0. ALLOCs are
  /// dispatched to forked sandbox subprocesses instead of running on the
  /// worker threads (which become dispatchers).
  std::unique_ptr<WorkerPool> Pool;

  bool Started = false;
  bool RunDone = false;
  ServerSummary Summary;

  explicit Impl(const ServerOptions &O)
      : Opts(O), Queue(O.QueueCapacity, O.QueueLowWatermark),
        Flight(O.FlightRecords) {}

  void acceptLoop();
  void reapFinishedConns();
  void workerLoop();
  void connectionLoop(int Fd, std::uint64_t ConnId);
  void binaryLoop(int Fd, const std::string &Peer);
  void httpLoop(int Fd, const std::string &Peer);
  /// Serves one parsed HTTP request; returns false when the connection
  /// must close (write failure or Connection: close).
  bool handleHttpRequest(int Fd, const HttpRequest &Req,
                         const std::string &Peer);
  Response executeAlloc(AllocJob &Job);
  std::string metricsText() const;
  /// Caps a self-generated body the way inbound frames are capped: the
  /// server must not emit what it would refuse to read.
  std::string capBody(std::string Body, const char *What) const;
  bool respond(int Fd, Response R, SteadyClock::time_point Arrived,
               bool RecordLatency, const std::string &Peer,
               std::uint64_t ReqId, const char *Kind, const char *Target,
               std::uint32_t BytesIn, std::uint64_t QueueMicros = 0);
  void finishRun();
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(const ServerOptions &Options)
    : I(std::make_unique<Impl>(Options)) {}

Server::~Server() {
  if (I->Started && !I->RunDone) {
    requestStop();
    run();
  }
}

bool Server::start(std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + ": " + std::strerror(errno);
    if (I->ListenFd >= 0)
      ::close(I->ListenFd);
    for (int Fd : I->StopPipe)
      if (Fd >= 0)
        ::close(Fd);
    I->ListenFd = I->StopPipe[0] = I->StopPipe[1] = -1;
    return false;
  };

  // A peer that hangs up mid-response must surface as a write error on
  // this thread, not a process-wide SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  // Workers resolve allocator tiers through the registry; seed it before
  // any of them runs.
  registerPDGCAllocators();

  if (::pipe(I->StopPipe) != 0)
    return Fail("pipe");

  I->ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (I->ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(I->ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(I->Opts.Port);
  if (::bind(I->ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof Addr) != 0)
    return Fail("bind");
  if (::listen(I->ListenFd, 64) != 0)
    return Fail("listen");

  socklen_t Len = sizeof Addr;
  if (::getsockname(I->ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                    &Len) != 0)
    return Fail("getsockname");
  I->BoundPort = ntohs(Addr.sin_port);

  I->StartedAt = SteadyClock::now();
  if (I->Opts.IsolateWorkers > 0) {
    // Crash containment: fork the sandbox pool BEFORE the dispatcher
    // threads so any armed fault plan is inherited by the first
    // generation of children exactly as by respawns.
    WorkerPoolOptions PO;
    PO.Workers = I->Opts.IsolateWorkers;
    PO.Regs = I->Opts.Regs;
    PO.DefaultAllocator = I->Opts.DefaultAllocator;
    PO.MaxFrameBytes = I->Opts.MaxFrameBytes;
    PO.AddressSpaceMb = I->Opts.WorkerAddressSpaceMb;
    PO.CpuSeconds = I->Opts.WorkerCpuSeconds;
    PO.GraceMs = I->Opts.WorkerGraceMs;
    PO.QuarantineCrashes = I->Opts.QuarantineCrashes;
    PO.QuarantineTtlMs = I->Opts.QuarantineTtlMs;
    PO.CrashDir = I->Opts.CrashDir;
    I->Pool = std::make_unique<WorkerPool>(PO);
    I->Pool->start();
  }
  // With isolation on, one dispatcher thread per sandbox worker; each
  // blocks on its child's response pipe, so more would only contend.
  const unsigned NWorkerThreads = I->Opts.IsolateWorkers > 0
                                      ? I->Opts.IsolateWorkers
                                      : std::max(1u, I->Opts.Workers);
  for (unsigned W = 0; W != NWorkerThreads; ++W)
    I->WorkerThreads.emplace_back([this] { I->workerLoop(); });
  I->Acceptor = std::thread([this] { I->acceptLoop(); });
  I->Started = true;
  return true;
}

std::uint16_t Server::port() const { return I->BoundPort; }

void Server::requestStop() {
  // Only async-signal-safe calls here: this runs inside SIGTERM/SIGINT
  // handlers. The acceptor does the actual teardown.
  I->StopRequested.store(true, std::memory_order_relaxed);
  char Byte = 's';
  [[maybe_unused]] ssize_t N = ::write(I->StopPipe[1], &Byte, 1);
}

bool Server::draining() const {
  return I->Draining.load(std::memory_order_relaxed);
}

ServerSummary Server::run() {
  if (!I->Started || I->RunDone)
    return I->Summary;
  I->finishRun();
  return I->Summary;
}

void Server::Impl::finishRun() {
  Acceptor.join();

  // Drain: no new admissions; workers serve out the backlog. Queued jobs
  // run under min(their own budget, the drain deadline); jobs already
  // executing are bounded by their per-request budgets.
  SteadyClock::time_point DrainStart = SteadyClock::now();
  DrainDeadline = Deadline::afterMs(Opts.DrainBudgetMs);
  Draining.store(true, std::memory_order_release);
  Queue.close();
  for (std::thread &W : WorkerThreads)
    W.join();

  // Dispatchers are parked; tear down the sandbox pool and bank its
  // lifetime totals for the drain summary before the counters vanish.
  if (Pool) {
    const WorkerPoolStats WS = Pool->stats();
    Summary.WorkerSpawns = WS.Spawns;
    Summary.WorkerRespawns = WS.Respawns;
    Summary.WorkerCrashes = WS.Crashes;
    Summary.WorkerKills = WS.Kills;
    Summary.WorkerReplays = WS.Replays;
    Summary.WorkerQuarantined = WS.Quarantined;
    Pool->stop();
  }

  // The backlog is answered, but a connection thread may still be
  // between Done.get() and writeFrame for the last admitted request.
  // SHUT_RD wakes readers blocked on their next frame with EOF while
  // leaving the write side open, so every executed request still gets
  // its response on the wire — the drain contract — instead of a
  // spurious transport error from a torn-down socket.
  {
    MutexLock Lock(ConnMutex);
    for (int Fd : OpenFds)
      ::shutdown(Fd, SHUT_RD);
  }
  // Join every connection thread: live ones still in the map plus any
  // already self-retired into FinishedConns. Joining a live thread's
  // handle is fine — it finds its map entry gone at retirement and
  // simply returns. Don't hold ConnMutex across the joins: retiring
  // threads need it.
  std::vector<std::thread> ToJoin;
  {
    MutexLock Lock(ConnMutex);
    for (auto &Entry : ConnThreads)
      ToJoin.push_back(std::move(Entry.second));
    ConnThreads.clear();
    for (std::thread &T : FinishedConns)
      ToJoin.push_back(std::move(T));
    FinishedConns.clear();
  }
  for (std::thread &T : ToJoin)
    T.join();

  Summary.DrainedInBudget =
      SteadyClock::now() - DrainStart <=
      std::chrono::milliseconds(Opts.DrainBudgetMs);
  Summary.Accepted = NAccepted.load();
  Summary.Requests = NRequests.load();
  Summary.Ok = NOk.load();
  Summary.Degraded = NDegraded.load();
  Summary.Rejected = NRejected.load();
  Summary.Timeout = NTimeout.load();
  Summary.Malformed = NMalformed.load();
  Summary.Internal = NInternal.load();
  Summary.Crashed = NCrashed.load();
  Summary.TransportErrors = NTransportErrors.load();
  Summary.HttpRequests = NHttpRequests.load();
  Summary.P50Micros = Latency.quantile(0.50);
  Summary.P99Micros = Latency.quantile(0.99);
  // The drain summary doubles as a post-mortem: capture the recorder's
  // tail so the operator's console already shows the last requests.
  Summary.RecentRequests = Flight.renderText(16);

  for (int Fd : StopPipe)
    if (Fd >= 0)
      ::close(Fd);
  StopPipe[0] = StopPipe[1] = -1;
  RunDone = true;
}

//===----------------------------------------------------------------------===//
// Acceptor
//===----------------------------------------------------------------------===//

void Server::Impl::reapFinishedConns() {
  std::vector<std::thread> ToJoin;
  {
    MutexLock Lock(ConnMutex);
    ToJoin.swap(FinishedConns);
  }
  // Each handle here was retired by its own thread moments before that
  // thread returned, so these joins complete immediately.
  for (std::thread &T : ToJoin)
    T.join();
}

void Server::Impl::acceptLoop() {
  for (;;) {
    reapFinishedConns();
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    int N = ::poll(Fds, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break; // poll() itself broke; treat as a stop.
    }
    if (Fds[1].revents != 0 || StopRequested.load(std::memory_order_relaxed))
      break;
    if ((Fds[0].revents & POLLIN) == 0)
      continue;

    int Fd;
    do {
      // EINTR is routine here once worker isolation is on: the SIGCHLD
      // handler is installed without SA_RESTART, so a child's death can
      // interrupt accept(). A retry, not an accept_errors count.
      Fd = ::accept(ListenFd, nullptr, nullptr);
    } while (Fd < 0 && errno == EINTR);
    if (Fd >= 0) {
      // Frames are small request/response pairs; latency beats batching.
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
      // Bound every response write: a peer that stops reading must not
      // park a connection thread forever — and, because drain shuts
      // sockets down read-side only (writes are allowed to finish), it
      // must not be able to hold the final join hostage either. The
      // timed-out write fails like any transport error and the
      // connection dies.
      unsigned TimeoutMs = std::max(1u, Opts.DrainBudgetMs);
      timeval SendTimeout{};
      SendTimeout.tv_sec = TimeoutMs / 1000;
      SendTimeout.tv_usec = static_cast<suseconds_t>(TimeoutMs % 1000) * 1000;
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                   sizeof SendTimeout);
    }
    if (Fd < 0) {
      // EMFILE/ENFILE and friends: shed at the OS edge and keep serving
      // the connections we already hold.
      PDGC_STAT("server", "accept_errors").inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }

    try {
      PDGC_FAULT_POINT("server.accept");
    } catch (const std::exception &) {
      // Injected accept failure: this connection dies, the server does
      // not. The client sees a drop and retries.
      PDGC_STAT("server", "accept_faults").inc();
      ::close(Fd);
      continue;
    }

    if (Connections.load(std::memory_order_relaxed) >=
        Opts.MaxConnections) {
      // Connection-level shedding mirrors queue-level shedding: answer
      // typed and fast instead of letting the backlog grow.
      Response R;
      R.Status = ResponseStatus::Rejected;
      R.RetryAfterMs = Opts.RetryAfterMs;
      R.Error = "connection limit reached";
      writeFrame(Fd, serializeResponse(R));
      NRejected.fetch_add(1);
      PDGC_STAT("server", "conn_shed").inc();
      ::close(Fd);
      continue;
    }

    NAccepted.fetch_add(1);
    PDGC_STAT("server", "accepted").inc();
    Connections.fetch_add(1, std::memory_order_relaxed);
    // Hold ConnMutex across thread creation AND map insertion: the new
    // thread's self-retirement also takes ConnMutex, so it cannot look
    // up its own entry before the entry exists.
    MutexLock Lock(ConnMutex);
    OpenFds.insert(Fd);
    std::uint64_t ConnId = NextConnId++;
    ConnThreads.emplace(
        ConnId, std::thread([this, Fd, ConnId] { connectionLoop(Fd, ConnId); }));
  }
  ::close(ListenFd);
  ListenFd = -1;
}

//===----------------------------------------------------------------------===//
// Connections
//===----------------------------------------------------------------------===//

bool Server::Impl::respond(int Fd, Response R,
                           SteadyClock::time_point Arrived,
                           bool RecordLatency, const std::string &Peer,
                           std::uint64_t ReqId, const char *Kind,
                           const char *Target, std::uint32_t BytesIn,
                           std::uint64_t QueueMicros) {
  R.WallMs = static_cast<unsigned>(microsSince(Arrived) / 1000);
  switch (R.Status) {
  case ResponseStatus::Ok:
    NOk.fetch_add(1);
    PDGC_STAT("server", "resp_ok").inc();
    break;
  case ResponseStatus::Degraded:
    NDegraded.fetch_add(1);
    PDGC_STAT("server", "resp_degraded").inc();
    break;
  case ResponseStatus::Rejected:
    NRejected.fetch_add(1);
    PDGC_STAT("server", "resp_rejected").inc();
    break;
  case ResponseStatus::Timeout:
    NTimeout.fetch_add(1);
    PDGC_STAT("server", "resp_timeout").inc();
    break;
  case ResponseStatus::Malformed:
    NMalformed.fetch_add(1);
    PDGC_STAT("server", "resp_malformed").inc();
    break;
  case ResponseStatus::Internal:
    NInternal.fetch_add(1);
    PDGC_STAT("server", "resp_internal").inc();
    break;
  case ResponseStatus::Crashed:
    NCrashed.fetch_add(1);
    PDGC_STAT("server", "resp_crashed").inc();
    break;
  }
  // Only executed allocations belong in the histogram: counting
  // microsecond-fast shed/drain rejections would drag the reported
  // p50/p99 down exactly when the service is overloaded and the latency
  // numbers matter most.
  if (RecordLatency)
    Latency.record(microsSince(Arrived));

  const std::string Wire = serializeResponse(R);

  // Flight-record before the write attempt: a request whose response
  // write failed is exactly the kind the post-mortem wants to see.
  FlightRecord FR;
  FR.Id = ReqId;
  FR.QueueMicros = QueueMicros;
  FR.WallMicros = microsSince(Arrived);
  FR.BytesIn = BytesIn;
  FR.BytesOut = static_cast<std::uint32_t>(Wire.size());
  setFlightField(FR.Status, responseStatusName(R.Status));
  setFlightField(FR.Kind, Kind);
  setFlightField(FR.Peer, Peer);
  setFlightField(FR.Target, !R.ServedBy.empty() ? std::string_view(R.ServedBy)
                 : Target && *Target ? std::string_view(Target)
                                     : std::string_view(Kind));
  setFlightField(FR.Detail, R.Error);
  Flight.record(FR);

  try {
    PDGC_FAULT_POINT("server.respond");
  } catch (const std::exception &) {
    // Injected send failure: drop the connection; the response counters
    // above already recorded the request's true outcome.
    PDGC_STAT("server", "respond_faults").inc();
    return false;
  }
  if (!writeFrame(Fd, Wire)) {
    NTransportErrors.fetch_add(1);
    PDGC_STAT("server", "transport_errors").inc();
    return false;
  }
  return true;
}

void Server::Impl::connectionLoop(int Fd, std::uint64_t ConnId) {
  // Plane sniffing: one MSG_PEEK'd byte decides the connection's
  // protocol for life (see server/Http.h — an uppercase ASCII first byte
  // cannot begin a valid binary frame). The byte stays in the socket, so
  // whichever loop runs reads an untouched stream.
  unsigned char FirstByte = 0;
  ssize_t Peeked;
  do {
    Peeked = ::recv(Fd, &FirstByte, 1, MSG_PEEK);
  } while (Peeked < 0 && errno == EINTR);
  if (Peeked == 1) {
    const std::string Peer = peerString(Fd);
    if (sniffPlane(FirstByte) == Plane::Http)
      httpLoop(Fd, Peer);
    else
      binaryLoop(Fd, Peer);
  }

  // Deregister BEFORE close: the kernel may hand the closed fd number to
  // a concurrent accept() immediately, and erasing after close would
  // knock the new connection's entry out of OpenFds — finishRun's
  // shutdown sweep would then miss a live socket and the drain join
  // could hang on its blocked reader.
  {
    MutexLock Lock(ConnMutex);
    OpenFds.erase(Fd);
  }
  ::close(Fd);
  Connections.fetch_sub(1, std::memory_order_relaxed);

  // Self-retire: move our own handle out of the live map so the acceptor
  // (or finishRun) can join it. A thread cannot join itself, but it can
  // hand its handle to someone who will.
  {
    MutexLock Lock(ConnMutex);
    auto It = ConnThreads.find(ConnId);
    if (It != ConnThreads.end()) {
      FinishedConns.push_back(std::move(It->second));
      ConnThreads.erase(It);
    }
  }
}

void Server::Impl::binaryLoop(int Fd, const std::string &Peer) {
  for (;;) {
    std::string Payload;
    FrameResult FR = readFrame(Fd, Payload, Opts.MaxFrameBytes);
    SteadyClock::time_point Arrived = SteadyClock::now();
    if (FR == FrameResult::ClosedClean)
      break;
    if (FR == FrameResult::Truncated || FR == FrameResult::IoError) {
      // During drain the server itself shuts sockets down mid-read;
      // that is teardown, not a peer misbehaving.
      if (!Draining.load(std::memory_order_relaxed)) {
        NTransportErrors.fetch_add(1);
        PDGC_STAT("server", "transport_errors").inc();
      }
      break;
    }
    if (FR == FrameResult::Oversized) {
      // The length header is untrustworthy, so the stream cannot be
      // resynced: answer typed, then hang up.
      Response R;
      R.Status = ResponseStatus::Malformed;
      R.Error = "frame exceeds max-frame-bytes (" +
                std::to_string(Opts.MaxFrameBytes) + ")";
      respond(Fd, std::move(R), Arrived, false, Peer,
              NextRequestId.fetch_add(1, std::memory_order_relaxed), "meta",
              "", 0);
      break;
    }

    const std::uint64_t ReqId =
        NextRequestId.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t BytesIn = static_cast<std::uint32_t>(Payload.size());

    bool FrameFault = false;
    try {
      PDGC_FAULT_POINT("server.frame");
    } catch (const std::exception &) {
      PDGC_STAT("server", "frame_faults").inc();
      FrameFault = true;
    }
    if (FrameFault)
      break; // Injected transport failure: abort this connection only.

    Request Req;
    {
      Response Early;
      bool Parsed = false;
      std::string ParseError;
      try {
        PDGC_FAULT_POINT("server.parse");
        Parsed = parseRequest(Payload, Req, ParseError);
      } catch (const std::exception &E) {
        // Injected parser failure: the request dies typed, the
        // connection survives.
        PDGC_STAT("server", "parse_faults").inc();
        Early.Status = ResponseStatus::Internal;
        Early.Error = std::string("request parsing failed: ") + E.what();
        if (!respond(Fd, std::move(Early), Arrived, false, Peer, ReqId,
                     "meta", "", BytesIn))
          break;
        continue;
      }
      if (!Parsed) {
        Early.Status = ResponseStatus::Malformed;
        Early.Error = ParseError;
        if (!respond(Fd, std::move(Early), Arrived, false, Peer, ReqId,
                     "meta", "", BytesIn))
          break;
        continue;
      }
    }
    NRequests.fetch_add(1);
    PDGC_STAT("server", "requests").inc();

    // ALLOC: admission control, then hand off to a worker.
    unsigned BudgetMs = Req.BudgetMs == 0 ? Opts.DefaultBudgetMs
                                          : Req.BudgetMs;
    BudgetMs = std::min(BudgetMs, Opts.MaxBudgetMs);
    auto Job = std::make_unique<AllocJob>();
    Job->Req = std::move(Req);
    Job->Id = ReqId;
    Job->Arrived = Arrived;
    Job->DeadlineAt = Arrived + std::chrono::milliseconds(BudgetMs);
    Job->Req.BudgetMs = BudgetMs;
    std::future<AllocDone> Done = Job->Done.get_future();

    Admission A = Admission::Closed;
    bool EnqueueFault = false;
    try {
      PDGC_FAULT_POINT("server.enqueue");
      A = Draining.load(std::memory_order_relaxed)
              ? Admission::Closed
              : Queue.tryPush(std::move(Job));
    } catch (const std::exception &E) {
      PDGC_STAT("server", "enqueue_faults").inc();
      EnqueueFault = true;
      Response R;
      R.Status = ResponseStatus::Internal;
      R.Error = std::string("admission failed: ") + E.what();
      if (!respond(Fd, std::move(R), Arrived, false, Peer, ReqId, "alloc",
                   "", BytesIn))
        break;
    }
    if (EnqueueFault)
      continue;

    if (A == Admission::Shed) {
      PDGC_STAT("server", "shed").inc();
      Response R;
      R.Status = ResponseStatus::Rejected;
      R.RetryAfterMs = Opts.RetryAfterMs;
      R.Error = "queue full (depth " + std::to_string(Queue.depth()) +
                "/" + std::to_string(Queue.capacity()) + ")";
      if (!respond(Fd, std::move(R), Arrived, false, Peer, ReqId, "alloc",
                   "", BytesIn))
        break;
      continue;
    }
    if (A == Admission::Closed) {
      PDGC_STAT("server", "drain_rejects").inc();
      Response R;
      R.Status = ResponseStatus::Rejected;
      R.RetryAfterMs = Opts.RetryAfterMs;
      R.Error = "draining";
      if (!respond(Fd, std::move(R), Arrived, false, Peer, ReqId, "alloc",
                   "", BytesIn))
        break;
      continue;
    }

    // Admitted: the worker fulfills the promise on every path, so this
    // wait is bounded by the request deadline plus the guarantee tier.
    AllocDone R = Done.get();
    if (!respond(Fd, std::move(R.R), Arrived, true, Peer, ReqId, "alloc", "",
                 BytesIn, R.QueueMicros))
      break;
  }
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::Impl::workerLoop() {
  std::unique_ptr<AllocJob> Job;
  while (Queue.pop(Job)) {
    InFlight.fetch_add(1, std::memory_order_relaxed);
    AllocDone Done;
    Done.QueueMicros = microsSince(Job->Arrived);
    if (timersEnabled())
      addTimerSample("server.queue_wait", Done.QueueMicros * 1000);
    {
      // The request id rides a thread-local into every span this thread
      // emits — including BatchDriver's `batch.item` and the `tier.*`
      // spans, which run inline here (a one-item batch never hands work
      // to another thread) — so a trace capture joins against the
      // flight recorder on `req`.
      trace::RequestScope Scope(Job->Id);
      // runAllocGuarded is the absolute backstop: no request may take a
      // worker down (std::bad_alloc and non-std exceptions included),
      // and no promise may be abandoned (the connection thread waits).
      AllocJob &JobRef = *Job;
      Done.R = runAllocGuarded([this, &JobRef] { return executeAlloc(JobRef); });
    }
    Job->Done.set_value(std::move(Done));
    Job.reset();
    InFlight.fetch_sub(1, std::memory_order_relaxed);
  }
}

Response Server::Impl::executeAlloc(AllocJob &Job) {
  // The request deadline started at admission, so queue wait already
  // counts against it. During drain the drain deadline tightens whatever
  // remains. The compute itself lives in server/AllocRunner.cpp, shared
  // byte-for-byte between this in-process path and the sandbox children.
  Deadline Cancel{Job.DeadlineAt};
  if (Draining.load(std::memory_order_acquire))
    Cancel = Cancel.sooner(DrainDeadline);

  if (Pool) {
    WorkerExecResult ER = Pool->execute(Job.Req, Cancel.time());
    return std::move(ER.R);
  }

  AllocEnv Env;
  Env.Regs = Opts.Regs;
  Env.DefaultAllocator = Opts.DefaultAllocator;
  Env.CancelAt = Cancel;
  Env.RequestDeadline = Deadline{Job.DeadlineAt};
  return executeAllocRequest(Job.Req, Env);
}

//===----------------------------------------------------------------------===//
// HTTP plane
//===----------------------------------------------------------------------===//

std::string Server::Impl::capBody(std::string Body, const char *What) const {
  // The server refuses inbound frames above MaxFrameBytes; emitting a
  // bigger body itself would be the same unbounded-buffer bug in the
  // other direction (the registry grows with every new counter site).
  if (Body.size() <= Opts.MaxFrameBytes)
    return Body;
  PDGC_STAT("server", "body_truncated").inc();
  return std::string("{\"error\": \"") + What +
         " exceeds max-frame-bytes (" + std::to_string(Opts.MaxFrameBytes) +
         ")\"}\n";
}

std::string Server::Impl::metricsText() const {
  // Registry size = live connection threads + finished-but-unreaped
  // handles; a leak here (threads joined only at shutdown) is exactly
  // what the reaper exists to prevent, so expose it to monitoring.
  std::size_t ConnThreadCount = 0;
  {
    MutexLock Lock(ConnMutex);
    ConnThreadCount = ConnThreads.size() + FinishedConns.size();
  }

  std::string Out;
  Out.reserve(8192);

  // Counters. One family with a `stat` label keeps the exposition stable
  // as counter sites come and go — dashboards key on the label value.
  Out += "# HELP pdgc_stat_total Process-wide PDGC_STAT counters.\n";
  Out += "# TYPE pdgc_stat_total counter\n";
  for (const auto &[Key, Value] : StatRegistry::get().snapshot().Counters)
    Out += "pdgc_stat_total{stat=\"" + prometheusEscape(Key) + "\"} " +
           std::to_string(Value) + "\n";

  // Phase timers (wall time; only populated when timers are enabled).
  const std::vector<TimerStat> Timers = timerSnapshot();
  if (!Timers.empty()) {
    Out += "# HELP pdgc_timer_count_total Scopes entered per phase timer.\n";
    Out += "# TYPE pdgc_timer_count_total counter\n";
    for (const TimerStat &T : Timers)
      Out += "pdgc_timer_count_total{phase=\"" + prometheusEscape(T.Phase) +
             "\"} " + std::to_string(T.Count) + "\n";
    Out += "# HELP pdgc_timer_nanoseconds_total Summed wall time per phase "
           "timer.\n";
    Out += "# TYPE pdgc_timer_nanoseconds_total counter\n";
    for (const TimerStat &T : Timers)
      Out += "pdgc_timer_nanoseconds_total{phase=\"" +
             prometheusEscape(T.Phase) + "\"} " + std::to_string(T.TotalNs) +
             "\n";
  }

  // Executed-ALLOC latency as a summary: the same LatencyHistogram
  // quantiles pdgc-loadgen reports, so a scrape and a load test agree.
  Out += "# HELP pdgc_request_latency_microseconds Executed-ALLOC request "
         "latency.\n";
  Out += "# TYPE pdgc_request_latency_microseconds summary\n";
  Out += "pdgc_request_latency_microseconds{quantile=\"0.5\"} " +
         std::to_string(Latency.quantile(0.5)) + "\n";
  Out += "pdgc_request_latency_microseconds{quantile=\"0.9\"} " +
         std::to_string(Latency.quantile(0.9)) + "\n";
  Out += "pdgc_request_latency_microseconds{quantile=\"0.99\"} " +
         std::to_string(Latency.quantile(0.99)) + "\n";
  Out += "pdgc_request_latency_microseconds_sum " +
         std::to_string(Latency.sumMicros()) + "\n";
  Out += "pdgc_request_latency_microseconds_count " +
         std::to_string(Latency.count()) + "\n";

  // Live service gauges.
  auto Gauge = [&Out](const char *Name, const char *Help,
                      std::uint64_t Value) {
    Out += std::string("# HELP ") + Name + " " + Help + "\n";
    Out += std::string("# TYPE ") + Name + " gauge\n";
    Out += std::string(Name) + " " + std::to_string(Value) + "\n";
  };
  Gauge("pdgc_server_queue_depth", "Admission queue depth.", Queue.depth());
  Gauge("pdgc_server_queue_capacity", "Admission queue high watermark.",
        Queue.capacity());
  Gauge("pdgc_server_shedding", "1 while the admission queue sheds.",
        Queue.shedding() ? 1 : 0);
  Gauge("pdgc_server_connections", "Live connections (both planes).",
        Connections.load(std::memory_order_relaxed));
  Gauge("pdgc_server_http_connections", "Live HTTP-plane connections.",
        HttpConns.load(std::memory_order_relaxed));
  Gauge("pdgc_server_conn_threads",
        "Connection threads not yet joined (live + finished, unreaped).",
        ConnThreadCount);
  Gauge("pdgc_server_inflight", "ALLOC requests executing in workers.",
        InFlight.load(std::memory_order_relaxed));
  Gauge("pdgc_server_draining", "1 once graceful drain began.",
        Draining.load(std::memory_order_relaxed) ? 1 : 0);
  Gauge("pdgc_server_uptime_seconds", "Seconds since start().",
        microsSince(StartedAt) / 1000000);
  Gauge("pdgc_flight_recorded_total",
        "Requests published to the flight recorder.",
        Flight.recordedCount());
  if (Pool) {
    // Isolation-only gauges (the worker.* counters surface through
    // pdgc_stat_total automatically); gated so the default exposition
    // is unchanged.
    const WorkerPoolStats WS = Pool->stats();
    Gauge("pdgc_server_workers_live", "Sandbox workers idle or busy.",
          WS.Live);
    Gauge("pdgc_server_quarantined_inputs",
          "Inputs currently quarantined by the crash circuit breaker.",
          WS.QuarantinedInputs);
  }
  return Out;
}

bool Server::Impl::handleHttpRequest(int Fd, const HttpRequest &Req,
                                     const std::string &Peer) {
  SteadyClock::time_point Arrived = SteadyClock::now();
  const std::uint64_t ReqId =
      NextRequestId.fetch_add(1, std::memory_order_relaxed);
  NHttpRequests.fetch_add(1);
  PDGC_STAT("server.http", "requests").inc();
  PDGC_STAT("server", "meta_requests").inc();

  int Code = 200;
  std::string Body;
  std::string ContentType = "text/plain; charset=utf-8";
  std::vector<std::string> Extra;
  // Set when the connection cannot serve another request even though
  // this response is typed — the unread request body is still in the
  // stream, so the next head would be parsed out of its middle.
  bool ForceClose = false;

  if (Req.Method != "GET" && Req.Method != "HEAD") {
    Code = 405;
    Body = "only GET and HEAD are served here\n";
    Extra.push_back("Allow: GET, HEAD");
  } else if (!Req.header("content-length").empty() ||
             !Req.header("transfer-encoding").empty()) {
    // An observability plane that accepts uploads is an attack surface.
    Code = 400;
    Body = "request bodies are not accepted\n";
    ForceClose = true;
  } else if (Req.Path == "/healthz") {
    Body = "ok\n";
  } else if (Req.Path == "/readyz") {
    // Readiness is the load balancer's signal, so it must flip *before*
    // requests start failing: draining refuses new work outright and
    // shedding is already refusing at the queue.
    if (StopRequested.load(std::memory_order_relaxed) ||
        Draining.load(std::memory_order_relaxed)) {
      Code = 503;
      Body = "draining\n";
    } else if (Queue.shedding()) {
      Code = 503;
      Body = "shedding\n";
    } else {
      Body = "ready\n";
    }
  } else if (Req.Path == "/metrics") {
    Body = capBody(metricsText(), "metrics body");
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
  } else if (Req.Path == "/stats") {
    Body = capBody(observabilityReportJson() + "\n", "stats body");
    ContentType = "application/json";
  } else if (Req.Path == "/requests") {
    std::size_t N = 32;
    const std::string Param = queryParam(Req.Query, "n");
    if (!Param.empty()) {
      char *End = nullptr;
      unsigned long V = std::strtoul(Param.c_str(), &End, 10);
      if (End && *End == '\0' && V > 0)
        N = static_cast<std::size_t>(V);
    }
    Body = capBody(Flight.toJson(std::min(N, Flight.capacity())) + "\n",
                   "requests body");
    ContentType = "application/json";
  } else {
    Code = 404;
    Body = "unknown path (try /healthz /readyz /metrics /stats /requests)\n";
  }

  if (Code != 200)
    PDGC_STAT("server.http", "errors").inc();

  const bool KeepAlive = Req.KeepAlive && !ForceClose;
  const std::string Wire = renderHttpResponse(
      Code, ContentType, Body, KeepAlive, Req.Method == "HEAD", Extra);

  FlightRecord FR;
  FR.Id = ReqId;
  FR.WallMicros = microsSince(Arrived);
  FR.BytesIn = static_cast<std::uint32_t>(Req.HeadBytes);
  FR.BytesOut = static_cast<std::uint32_t>(Wire.size());
  setFlightField(FR.Status, std::to_string(Code));
  setFlightField(FR.Kind, "http");
  setFlightField(FR.Peer, Peer);
  setFlightField(FR.Target, Req.Path);
  setFlightField(FR.Detail, Req.Method + " " +
                                (Req.Query.empty() ? Req.Path
                                                   : Req.Path + "?" +
                                                         Req.Query));
  Flight.record(FR);

  try {
    PDGC_FAULT_POINT("server.http.respond");
  } catch (const std::exception &) {
    // Injected send failure: this HTTP connection dies, the daemon (and
    // the alloc plane) do not.
    PDGC_STAT("server.http", "respond_faults").inc();
    return false;
  }
  if (!sendAll(Fd, Wire)) {
    NTransportErrors.fetch_add(1);
    PDGC_STAT("server", "transport_errors").inc();
    return false;
  }
  return KeepAlive;
}

void Server::Impl::httpLoop(int Fd, const std::string &Peer) {
  // A scraper plus a few curls is the intended population; cap it so a
  // runaway dashboard cannot occupy every connection slot.
  if (HttpConns.fetch_add(1, std::memory_order_relaxed) + 1 >
      Opts.HttpMaxConns) {
    PDGC_STAT("server.http", "conn_shed").inc();
    sendAll(Fd, renderHttpResponse(
                    503, "text/plain; charset=utf-8",
                    "http connection limit reached\n", false, false,
                    {"Retry-After: " +
                     std::to_string(std::max(1u, Opts.RetryAfterMs / 1000))}));
    HttpConns.fetch_sub(1, std::memory_order_relaxed);
    return;
  }

  const HttpLimits Limits; // Defaults; far under MaxFrameBytes.
  std::string Buf;
  char Chunk[4096];
  bool Alive = true;
  while (Alive) {
    ssize_t N = ::recv(Fd, Chunk, sizeof Chunk, 0);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      break; // EOF or error (drain's SHUT_RD lands here too).
    }
    Buf.append(Chunk, static_cast<std::size_t>(N));

    // Serve every complete head already buffered — pipelined requests
    // are answered in order on the same socket.
    while (Alive) {
      HttpRequest Req;
      std::string ParseError;
      HttpParse PR;
      try {
        PDGC_FAULT_POINT("server.http.parse");
        PR = parseHttpRequest(Buf, Req, ParseError, Limits);
      } catch (const std::exception &E) {
        // Injected parser failure: answer typed and drop the connection
        // (the buffer offset is no longer trustworthy).
        PDGC_STAT("server.http", "parse_faults").inc();
        sendAll(Fd, renderHttpResponse(500, "text/plain; charset=utf-8",
                                       std::string("parse failed: ") +
                                           E.what() + "\n",
                                       false));
        Alive = false;
        break;
      }
      if (PR == HttpParse::NeedMore)
        break;
      if (PR == HttpParse::Bad || PR == HttpParse::TooLarge) {
        // The stream cannot be resynced past a bad head: answer typed,
        // then hang up — the HTTP mirror of the oversized-frame rule.
        PDGC_STAT("server.http", "parse_errors").inc();
        const int Code = PR == HttpParse::Bad ? 400 : 431;
        sendAll(Fd, renderHttpResponse(Code, "text/plain; charset=utf-8",
                                       ParseError + "\n", false));
        Alive = false;
        break;
      }
      Buf.erase(0, Req.HeadBytes);
      Alive = handleHttpRequest(Fd, Req, Peer);
    }
  }
  HttpConns.fetch_sub(1, std::memory_order_relaxed);
}
