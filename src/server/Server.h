//===- server/Server.h - Allocation-as-a-service daemon core ----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running allocation service behind `pdgc-serve`. One `Server`
/// owns a listening TCP socket, a thread per live connection, and a
/// fixed pool of allocation workers fed through an `AdmissionQueue`. The
/// design goal is the ROADMAP's serving story: the process must stay up
/// — and answer with a *typed* status — under overload, chaos injection,
/// malformed input, and shutdown, never trading robustness for a crash.
///
/// Request life cycle:
///
///   accept -> read frame -> parse ALLOC message
///     |            |             |
///     |        MALFORMED     MALFORMED (answer, keep connection)
///     |        (+close on
///     |         framing)
///     v
///   tryPush -> Shed: REJECTED + retry-after    Closed: REJECTED draining
///     |
///   worker: parse IR -> verify -> allocateWithFallback under the
///   request deadline -> OK | DEGRADED | TIMEOUT | MALFORMED | INTERNAL
///
/// Robustness mechanics, each mapped to an existing primitive:
///
///  * **admission control / shedding** — AdmissionQueue watermarks; a
///    full queue answers REJECTED *now* instead of growing latency debt;
///  * **per-request deadline** — the budget starts at admission, so
///    queue wait counts against it; workers install it as
///    DriverOptions::CancelAt (+ per-tier TimeBudgetMs), and the
///    guarantee-tier exemption means an expired request usually still
///    gets a DEGRADED spill-everything answer — a bounded-cost result,
///    not a dropped one;
///  * **request isolation** — every per-request stage runs under
///    ScopedErrorTrap with a catch-all: parser/verifier rejects become
///    MALFORMED, injected faults and fatal checks become INTERNAL, and
///    only the one request dies;
///  * **graceful drain** — requestStop() (async-signal-safe: one write
///    to a self-pipe) stops the acceptor, closes the queue, arms a drain
///    deadline that tightens every in-flight request, and run() returns
///    once the backlog is served;
///  * **introspection** — HTTP on the same port (below) answers from the
///    Stats registry, the queue gauges, and a lock-free latency
///    histogram (p50/p99); the binary plane carries only ALLOC.
///
/// **HTTP observability plane.** The same port also answers HTTP/1.1:
/// a connection's first byte picks its plane (uppercase ASCII = an HTTP
/// method; anything else = a binary frame length — see
/// server/Http.h). Endpoints: `/healthz` (liveness), `/readyz` (503
/// while draining or shedding), `/metrics` (Prometheus text exposition
/// 0.0.4), `/stats` (the observability-report JSON), and `/requests?n=K`
/// (the flight recorder — see server/FlightRecorder.h). Every request on
/// either plane is stamped with a monotonic request id that the flight
/// recorder, the drain summary, and the `req` argument on trace spans
/// all share, so "which request, which tier, why" is answerable from a
/// curl and a trace capture alone.
///
/// **Crash containment** (`IsolateWorkers > 0`): ALLOCs execute in a
/// supervised pool of forked sandbox subprocesses (server/WorkerPool.h)
/// instead of on the worker threads, so a hard fault — a real SIGSEGV,
/// `std::bad_alloc`, a loop that never polls its deadline — kills one
/// worker and earns a typed CRASHED response while the daemon, and every
/// other request, survives. Comes with a watchdog (SIGKILL past deadline
/// + grace), crash dossiers under CrashDir, and a per-input circuit
/// breaker (REJECTED `quarantined` after QuarantineCrashes hits). The
/// default (0) keeps the in-process path byte-identical to before.
///
/// Chaos surface: PDGC_FAULT_POINT sites `server.accept`,
/// `server.frame`, `server.parse`, `server.enqueue`, `server.respond`,
/// `server.http.parse`, `server.http.respond`
/// cover the connection path the way the `driver.*`/allocator sites
/// already cover the compute path; tests/test_server.cpp sweeps them.
/// With isolation on, `worker.spawn/dispatch/collect` cover the
/// supervisor and `worker.abort` raises a genuine SIGABRT in the child.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_SERVER_H
#define PDGC_SERVER_SERVER_H

#include "server/Protocol.h"

#include <cstdint>
#include <string>

#include <memory>

namespace pdgc {
namespace server {

/// Tuning knobs; the defaults serve a loopback smoke test out of the box.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with Server::port()).
  std::uint16_t Port = 0;
  /// Allocation worker threads.
  unsigned Workers = 2;
  /// Admission queue high watermark (hard depth bound).
  unsigned QueueCapacity = 64;
  /// Depth shedding stops at (watermark hysteresis); must be < capacity.
  unsigned QueueLowWatermark = 48;
  /// Concurrent connections; one past the cap is answered REJECTED and
  /// closed.
  unsigned MaxConnections = 64;
  /// Per-request wall budget when the request does not carry budget-ms.
  unsigned DefaultBudgetMs = 2000;
  /// Hard ceiling a request's budget-ms may ask for.
  unsigned MaxBudgetMs = 60000;
  /// Backoff hint attached to REJECTED responses.
  unsigned RetryAfterMs = 50;
  /// Wall budget for finishing in-flight work after requestStop().
  unsigned DrainBudgetMs = 5000;
  /// Frame payload cap (see server/FrameCodec.h). Also bounds the bodies
  /// the server itself emits (/metrics, /stats, /requests).
  std::uint32_t MaxFrameBytes = 4u << 20;
  /// Concurrent HTTP-plane connections (a scraper plus a few curls);
  /// one past the cap is answered 503 and closed. Counted separately
  /// from MaxConnections so a misbehaving dashboard cannot starve the
  /// allocation plane of connection slots, nor vice versa.
  unsigned HttpMaxConns = 16;
  /// Flight-recorder capacity: the last N completed requests held for
  /// /requests, the drain summary, and post-mortems. 0 keeps one slot.
  std::size_t FlightRecords = 128;
  /// Registers per class of the service's target machine.
  unsigned Regs = 24;
  /// Leading allocator tier when a request does not name one.
  std::string DefaultAllocator = "full-preferences";
  /// Crash containment: number of forked sandbox worker processes that
  /// execute ALLOCs out-of-process. 0 (default) = in-process execution,
  /// byte-identical to the pre-isolation server. When set, it also
  /// determines the dispatcher thread count (Workers is ignored).
  unsigned IsolateWorkers = 0;
  /// Crash-dossier directory (empty = dossiers off). Isolation only.
  std::string CrashDir;
  /// Circuit breaker: crashes of one input before it is quarantined.
  unsigned QuarantineCrashes = 3;
  /// Quarantine expiry in ms since the input's last crash (0 = never).
  unsigned QuarantineTtlMs = 0;
  /// Watchdog grace past the request deadline before a worker SIGKILL.
  unsigned WorkerGraceMs = 500;
  /// Worker RLIMIT_AS in MiB (0 = off; keep off under sanitizers).
  unsigned WorkerAddressSpaceMb = 0;
  /// Worker RLIMIT_CPU in seconds (0 = off).
  unsigned WorkerCpuSeconds = 0;
  /// Log one line per connection/drain event to stderr.
  bool Verbose = false;
};

/// Counters the daemon prints at exit (live values are also served by
/// /metrics and /stats; these are the lifetime totals).
struct ServerSummary {
  std::uint64_t Accepted = 0;       ///< Connections accepted.
  std::uint64_t Requests = 0;       ///< Frames that parsed into ALLOCs.
  std::uint64_t Ok = 0;             ///< ALLOC answered OK.
  std::uint64_t Degraded = 0;       ///< ALLOC answered DEGRADED.
  std::uint64_t Rejected = 0;       ///< Shed + refused-while-draining.
  std::uint64_t Timeout = 0;        ///< ALLOC answered TIMEOUT.
  std::uint64_t Malformed = 0;      ///< Bad frames/messages/IR.
  std::uint64_t Internal = 0;       ///< Faults + trapped fatal checks.
  std::uint64_t Crashed = 0;        ///< ALLOC answered CRASHED (isolation).
  std::uint64_t TransportErrors = 0; ///< Truncated/failed reads & writes.
  std::uint64_t HttpRequests = 0;   ///< HTTP-plane requests served.
  /// Worker-pool lifetime totals (all zero when IsolateWorkers == 0).
  std::uint64_t WorkerSpawns = 0;
  std::uint64_t WorkerRespawns = 0;
  std::uint64_t WorkerCrashes = 0;
  std::uint64_t WorkerKills = 0;
  std::uint64_t WorkerReplays = 0;
  std::uint64_t WorkerQuarantined = 0;
  std::uint64_t P50Micros = 0;      ///< Executed-ALLOC latency percentiles.
  std::uint64_t P99Micros = 0;
  bool DrainedInBudget = true;      ///< Drain met DrainBudgetMs.
  /// Flight-recorder tail (text table, newest first) captured at drain —
  /// the daemon prints it so a post-mortem of a SIGTERM'd process starts
  /// with its last requests already on the console.
  std::string RecentRequests;
};

class Server {
public:
  explicit Server(const ServerOptions &Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on 127.0.0.1, spawns the workers and the
  /// acceptor. Returns false (and fills \p Error) when the socket layer
  /// refuses — the only failure this class cannot degrade around.
  bool start(std::string *Error = nullptr);

  /// The bound port (valid after start(); the way ephemeral-port tests
  /// and scripts find the server).
  std::uint16_t port() const;

  /// Begins graceful drain: stop accepting, refuse new work, finish the
  /// backlog within DrainBudgetMs. Async-signal-safe (one write() on a
  /// pre-opened pipe) — call it straight from a SIGTERM/SIGINT handler.
  void requestStop();

  /// Blocks until drain completes and every thread is joined. Returns
  /// the lifetime summary. Safe to call once after start().
  ServerSummary run();

  /// True once requestStop() was observed.
  bool draining() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_SERVER_H
