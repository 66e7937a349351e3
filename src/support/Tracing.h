//===- support/Tracing.h - Phase timers and Chrome tracing -----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wall-clock half of the observability layer (counters live in
/// support/Stats.h):
///
///  * **Phase timers** — `ScopedTimer T("liveness.cold");` aggregates the
///    scope's wall time into a process-wide (phase -> {count, total ns})
///    registry. Timers are gated behind a single relaxed atomic flag
///    (`setTimersEnabled`), so an un-instrumented run pays one load and a
///    predictable branch per scope; tools flip the flag on for `--stats`
///    and `--trace-json`. Timer *counts* are deterministic for a fixed
///    workload; *durations* are wall time and are reported separately
///    from the deterministic counters.
///
///  * **Trace events** — between `trace::start()` and `trace::stop()`,
///    every ScopedTimer additionally emits a B/E duration pair and code
///    can drop instant events (`trace::instant`) for point decisions:
///    spills, tier fallbacks, trapped fatal errors. Events carry a lane
///    id (`trace::setThreadLane`, set by ThreadPool for its workers) that
///    becomes the Chrome `tid`, so each pool worker renders as its own
///    track.
///
///  * **Export** — `trace::writeJson` serializes the buffer in the Chrome
///    trace-event format (the JSON consumed by `chrome://tracing` and
///    https://ui.perfetto.dev), and `writeObservabilityReport` writes a
///    machine-readable JSON report of counters + timers.
///
/// Everything here compiles to nothing under -DPDGC_DISABLE_STATS=ON.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SUPPORT_TRACING_H
#define PDGC_SUPPORT_TRACING_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pdgc {

//===----------------------------------------------------------------------===//
// Phase timer registry
//===----------------------------------------------------------------------===//

/// Aggregated wall time of one phase.
struct TimerStat {
  std::string Phase;
  std::uint64_t Count = 0;   ///< Scopes entered.
  std::uint64_t TotalNs = 0; ///< Summed wall time.
};

/// True when ScopedTimer instances are live (one relaxed load).
bool timersEnabled();

/// Globally enables/disables phase timers. `trace::start()` enables them
/// implicitly — a trace without spans would be empty.
void setTimersEnabled(bool On);

/// Adds one explicit sample (e.g. ThreadPool queue-wait time, measured
/// across threads where a scope cannot sit).
void addTimerSample(const std::string &Phase, std::uint64_t Nanos);

/// Sorted copy of every phase's aggregate.
std::vector<TimerStat> timerSnapshot();

/// Zeroes the timer registry.
void resetTimers();

/// "PREFIXphase count=N total-ms=X.XXX\n" per phase, sorted.
std::string timersToText(const std::string &LinePrefix = "");

//===----------------------------------------------------------------------===//
// Trace-event collection
//===----------------------------------------------------------------------===//

namespace trace {

/// True while events are being collected.
bool collecting();

/// Clears the buffer and starts collecting; enables phase timers.
void start();

/// Stops collecting (the buffer is kept for export).
void stop();

/// Discards the buffer.
void clear();

/// Sets the calling thread's lane id (Chrome `tid`). Lane 0 is the main
/// thread; ThreadPool assigns its workers 1..N.
void setThreadLane(unsigned Lane);

/// Sets the calling thread's current request id (0 = none). While
/// nonzero, every span and instant the thread emits carries a
/// `"req": <id>` argument, so a Chrome trace of the daemon can be joined
/// against the flight recorder and `/requests` output on the same id.
/// pdgc-serve's workers set it around each allocation; single-threaded
/// driver work running inline (ThreadPool with <= 1 jobs) inherits it.
void setRequestId(std::uint64_t Id);
std::uint64_t requestId();

/// RAII guard: sets the thread's request id, restores 0 on destruction.
class RequestScope {
public:
  explicit RequestScope(std::uint64_t Id) { setRequestId(Id); }
  ~RequestScope() { setRequestId(0); }
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;
};

/// Emits an instant event. \p ArgsJson, when non-empty, must be a
/// serialized JSON object (use jsonEscape for embedded strings).
void instant(const std::string &Name, const char *Category,
             const std::string &ArgsJson = "");

/// Emits a duration-begin / duration-end event on the calling thread's
/// lane. Prefer ScopedTimer, which pairs them exception-safely.
void begin(const std::string &Name, const char *Category);
void end(const std::string &Name, const char *Category);

/// Serializes the buffer as Chrome trace-event JSON.
std::string toJson();

/// Writes toJson() to \p Path; returns false (and fills \p Error) on I/O
/// failure.
bool writeJson(const std::string &Path, std::string *Error = nullptr);

/// Escapes \p S for embedding inside a JSON string literal.
std::string jsonEscape(const std::string &S);

} // namespace trace

/// {"counters": {...}, "timers": {...}} — the machine-readable process
/// report. Shared by writeObservabilityReport and pdgc-serve's /stats.
std::string observabilityReportJson();

/// Writes observabilityReportJson() to \p Path.
bool writeObservabilityReport(const std::string &Path,
                              std::string *Error = nullptr);

//===----------------------------------------------------------------------===//
// ScopedTimer
//===----------------------------------------------------------------------===//

#ifndef PDGC_DISABLE_STATS

/// RAII phase timer: aggregates the scope's wall time under \p Phase and,
/// while a trace is being collected, emits a matching B/E span.
class ScopedTimer {
public:
  explicit ScopedTimer(const char *PhaseIn, const char *CategoryIn = "phase")
      : Category(CategoryIn) {
    if (!timersEnabled())
      return;
    Active = true;
    Phase = PhaseIn;
    startTimer();
  }

  ScopedTimer(std::string PhaseIn, const char *CategoryIn = "phase")
      : Category(CategoryIn) {
    if (!timersEnabled())
      return;
    Active = true;
    Phase = std::move(PhaseIn);
    startTimer();
  }

  ~ScopedTimer() {
    if (Active)
      stopTimer();
  }

  /// Ends the phase before the scope closes (e.g. timing the first half
  /// of a function without introducing a block).
  void finish() {
    if (Active) {
      stopTimer();
      Active = false;
    }
  }

  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  void startTimer();
  void stopTimer();

  std::string Phase;
  const char *Category;
  std::chrono::steady_clock::time_point Start;
  bool Active = false;
};

#else // PDGC_DISABLE_STATS

class ScopedTimer {
public:
  explicit ScopedTimer(const char *, const char * = "phase") {}
  ScopedTimer(std::string, const char * = "phase") {}
  void finish() {}
};

#endif // PDGC_DISABLE_STATS

} // namespace pdgc

#endif // PDGC_SUPPORT_TRACING_H
