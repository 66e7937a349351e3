//===- server/WorkerPool.h - Supervised sandbox worker pool -----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash containment for pdgc-serve (docs/ROBUSTNESS.md, "Crash
/// containment"): a pool of forked sandbox subprocesses
/// (support/Subprocess.h) that execute ALLOC requests out-of-process, so
/// a hard fault in the allocator — a real SIGSEGV, `std::bad_alloc` on a
/// mega-function, a loop that never reaches a `pollDeadline()` site —
/// kills one worker and one request instead of the daemon and every
/// in-flight request with it.
///
/// Supervision model (the worker lifecycle state machine):
///
/// \verbatim
///            spawn ok                dispatch
///   DEAD ---------------> IDLE <----------------+
///    ^  <--------------- /    \                 |
///    |    idle death    /      \                v
///    |                 reap     +------------> BUSY
///    |                  ^                       |
///    |                  |  pipe EOF / frame err |
///    +------ REAPING <--+-----------------------+
///      backoff                (watchdog SIGKILL while BUSY)
/// \endverbatim
///
///  - **Dispatch**: a server worker thread acquires an IDLE slot (bounded
///    by the request deadline), stamps the remaining budget onto the wire
///    request, writes one frame, and blocks reading the response frame.
///  - **Death detection**: a broken response read is the signal; the
///    dispatcher reaps via waitpid and classifies the wait status. Exits
///    with the transport codes are infrastructure deaths and earn one
///    replay on a fresh worker; everything else (signals, rlimit kills,
///    unknown exits) is a genuine crash and maps to a typed CRASHED
///    response. A `SIGCHLD` handler (installed without SA_RESTART, so
///    EINTR stays a tested code path) pokes a self-pipe the watchdog
///    drains, keeping reaping prompt even for idle deaths.
///  - **Watchdog**: a supervisor thread SIGKILLs any worker still BUSY
///    past its request deadline plus a grace factor — wedged loops no
///    longer require cooperative polling — and respawns DEAD slots once
///    their exponential backoff expires.
///  - **Crash dossiers**: every crash/kill writes the input `.pir`, wait
///    status, armed fault plan, and request metadata under CrashDir, in a
///    form `pdgc-fuzz --reduce-file` can replay and minimize.
///  - **Circuit breaker**: a content-hash breaker quarantines inputs that
///    have crashed workers K times; further attempts are answered
///    `REJECTED quarantined` instantly instead of burning another worker.
///    Entries expire after QuarantineTtlMs (0 = never).
///
/// Chaos surface: `worker.spawn`, `worker.dispatch`, `worker.collect`
/// fire in the supervisor; `worker.abort` fires *in the child* and is
/// converted into a genuine `std::abort()`, producing a real SIGABRT
/// corpse for the supervision machinery to contain. Fault plans propagate
/// to children by fork inheritance: arm the plan before start() (or
/// before a respawn) and every child carries it with fresh hit counters.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_WORKERPOOL_H
#define PDGC_SERVER_WORKERPOOL_H

#include "server/Protocol.h"
#include "support/Deadline.h"

#include <cstdint>
#include <memory>
#include <string>

namespace pdgc {
namespace server {

struct WorkerPoolOptions {
  /// Number of sandbox subprocesses.
  unsigned Workers = 2;
  /// Register-file size the children allocate against.
  unsigned Regs = 24;
  /// Fallback-chain head when requests name no allocator.
  std::string DefaultAllocator = "full-preferences";
  /// Frame cap on the worker pipes (mirrors the server's wire cap).
  std::uint32_t MaxFrameBytes = 4u << 20;
  /// Child RLIMIT_AS in MiB (0 = off; keep off under sanitizers).
  unsigned AddressSpaceMb = 0;
  /// Child RLIMIT_CPU in seconds (0 = off).
  unsigned CpuSeconds = 0;
  /// Watchdog grace past the request deadline before SIGKILL.
  unsigned GraceMs = 500;
  /// Respawn backoff: base doubles per consecutive failure, capped.
  unsigned RespawnBackoffMs = 10;
  unsigned MaxRespawnBackoffMs = 1000;
  /// Crashes of one input before the circuit breaker quarantines it.
  unsigned QuarantineCrashes = 3;
  /// Quarantine expiry in ms since the input's last crash (0 = never).
  unsigned QuarantineTtlMs = 0;
  /// Directory for crash dossiers (empty = dossiers off).
  std::string CrashDir;
};

/// What execute() hands back beyond the wire response.
struct WorkerExecResult {
  Response R;
  bool Crashed = false;     ///< A worker died executing this request.
  bool Replayed = false;    ///< Served by a second worker after an
                            ///< infrastructure death of the first.
  bool Quarantined = false; ///< Rejected by the circuit breaker.
};

/// Monotonic pool counters, snapshot for /metrics and the drain
/// summary. Mirrors the `worker.*` stat registry counters but survives
/// as a per-pool value (the registry is process-global).
struct WorkerPoolStats {
  std::uint64_t Spawns = 0;   ///< Children forked (initial + respawns).
  std::uint64_t Respawns = 0; ///< Spawns that replaced a dead worker.
  std::uint64_t Crashes = 0;  ///< Genuine crashes (signals, bad exits).
  std::uint64_t Kills = 0;    ///< Watchdog SIGKILLs of deadline overshoot.
  std::uint64_t Replays = 0;  ///< Requests replayed after infra deaths.
  std::uint64_t Quarantined = 0; ///< Requests rejected by the breaker.
  unsigned Live = 0;             ///< Workers currently idle or busy.
  std::size_t QuarantinedInputs = 0; ///< Distinct inputs under quarantine.
};

class WorkerPool {
public:
  explicit WorkerPool(const WorkerPoolOptions &OptsIn);
  ~WorkerPool();
  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Forks the initial workers and starts the watchdog. Lenient about
  /// individual spawn failures (the watchdog keeps retrying with
  /// backoff); returns false only if the supervisor itself cannot start.
  bool start(std::string *Error = nullptr);

  /// Kills and reaps every child, stops the watchdog. Idempotent. No
  /// execute() may be in flight (the server joins its worker threads
  /// first).
  void stop();

  /// Executes one ALLOC on an isolated worker, blocking until a response,
  /// a crash verdict, or the deadline. Never throws; every failure mode
  /// is a typed response. \p DeadlineAt is the admission deadline
  /// (possibly drain-tightened); the watchdog kills at it plus GraceMs.
  WorkerExecResult execute(const Request &Req,
                           Deadline::Clock::time_point DeadlineAt);

  WorkerPoolStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// FNV-1a 64 over the request body — the circuit breaker's content hash,
/// exposed for tests and dossier naming.
std::uint64_t contentHash(const std::string &Body);

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_WORKERPOOL_H
