//===- support/Tracing.cpp - Phase timers and Chrome tracing ---------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "support/Tracing.h"

#include "support/Stats.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdio>
#include <map>

using namespace pdgc;

namespace {

using Clock = std::chrono::steady_clock;

/// Gate for ScopedTimer; relaxed because the flag only toggles between
/// measurement sections, never mid-scope on the hot path.
std::atomic<bool> TimersOn{false};

struct TimerAgg {
  std::uint64_t Count = 0;
  std::uint64_t TotalNs = 0;
};

struct TimerRegistry {
  Mutex Mu;
  std::map<std::string, TimerAgg> Phases PDGC_GUARDED_BY(Mu);
};

TimerRegistry &timers() {
  static TimerRegistry *R = new TimerRegistry(); // leaked, see StatRegistry
  return *R;
}

/// One collected trace event.
struct TraceEvent {
  std::string Name;
  const char *Category;
  char Phase;          ///< 'B', 'E' or 'i'.
  std::uint64_t TsNs;  ///< Since trace start.
  unsigned Tid;
  std::string ArgsJson;
};

struct TraceBuffer {
  Mutex Mu;
  std::vector<TraceEvent> Events PDGC_GUARDED_BY(Mu);
  Clock::time_point Epoch PDGC_GUARDED_BY(Mu);
};

TraceBuffer &buffer() {
  static TraceBuffer *B = new TraceBuffer(); // leaked, see StatRegistry
  return *B;
}

std::atomic<bool> Collecting{false};

thread_local unsigned ThreadLane = 0;

thread_local std::uint64_t ThreadRequestId = 0;

/// Folds the thread's request id into an event's args JSON so the span
/// can be joined against the flight recorder. "" stays "" when no
/// request is active; an existing object gains a leading "req" member.
std::string withRequestId(std::string ArgsJson) {
  if (ThreadRequestId == 0)
    return ArgsJson;
  const std::string Req = "\"req\":" + std::to_string(ThreadRequestId);
  if (ArgsJson.empty())
    return "{" + Req + "}";
  if (ArgsJson.size() >= 2 && ArgsJson.front() == '{' && ArgsJson[1] != '}')
    return "{" + Req + "," + ArgsJson.substr(1);
  return "{" + Req + "}";
}

void record(std::string Name, const char *Category, char Phase,
            std::string ArgsJson) {
  TraceBuffer &B = buffer();
  const Clock::time_point Now = Clock::now();
  // Epoch is read under the lock: start() writes it under the same lock,
  // so TSan sees a clean happens-before even if a trace is (ab)used
  // concurrently with start().
  MutexLock Lock(B.Mu);
  const std::uint64_t Ts = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Now - B.Epoch)
          .count());
  B.Events.push_back(TraceEvent{std::move(Name), Category, Phase, Ts,
                                ThreadLane, std::move(ArgsJson)});
}

void appendEventJson(std::string &Out, const TraceEvent &E) {
  char Ts[32];
  // Chrome's ts unit is microseconds; keep nanosecond precision as a
  // fraction.
  std::snprintf(Ts, sizeof(Ts), "%llu.%03u",
                static_cast<unsigned long long>(E.TsNs / 1000),
                static_cast<unsigned>(E.TsNs % 1000));
  Out += "{\"name\":\"";
  Out += trace::jsonEscape(E.Name);
  Out += "\",\"cat\":\"";
  Out += E.Category;
  Out += "\",\"ph\":\"";
  Out += E.Phase;
  Out += "\",\"ts\":";
  Out += Ts;
  Out += ",\"pid\":1,\"tid\":";
  Out += std::to_string(E.Tid);
  if (E.Phase == 'i')
    Out += ",\"s\":\"t\""; // thread-scoped instant
  if (!E.ArgsJson.empty())
    Out += ",\"args\":" + E.ArgsJson;
  Out += "}";
}

} // namespace

bool pdgc::timersEnabled() {
  return TimersOn.load(std::memory_order_relaxed);
}

void pdgc::setTimersEnabled(bool On) {
  TimersOn.store(On, std::memory_order_relaxed);
}

void pdgc::addTimerSample(const std::string &Phase, std::uint64_t Nanos) {
  TimerRegistry &R = timers();
  MutexLock Lock(R.Mu);
  TimerAgg &A = R.Phases[Phase];
  ++A.Count;
  A.TotalNs += Nanos;
}

std::vector<TimerStat> pdgc::timerSnapshot() {
  TimerRegistry &R = timers();
  std::vector<TimerStat> Out;
  MutexLock Lock(R.Mu);
  Out.reserve(R.Phases.size());
  for (const auto &[Phase, Agg] : R.Phases)
    Out.push_back(TimerStat{Phase, Agg.Count, Agg.TotalNs});
  return Out;
}

void pdgc::resetTimers() {
  TimerRegistry &R = timers();
  MutexLock Lock(R.Mu);
  R.Phases.clear();
}

std::string pdgc::timersToText(const std::string &LinePrefix) {
  std::string Out;
  for (const TimerStat &T : timerSnapshot()) {
    char Line[160];
    std::snprintf(Line, sizeof(Line), "%s count=%llu total-ms=%.3f\n",
                  T.Phase.c_str(),
                  static_cast<unsigned long long>(T.Count),
                  static_cast<double>(T.TotalNs) / 1e6);
    Out += LinePrefix + Line;
  }
  return Out;
}

#ifndef PDGC_DISABLE_STATS

void ScopedTimer::startTimer() {
  Start = Clock::now();
  if (trace::collecting())
    trace::begin(Phase, Category);
}

void ScopedTimer::stopTimer() {
  const std::uint64_t Ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Start)
          .count());
  addTimerSample(Phase, Ns);
  if (trace::collecting())
    trace::end(Phase, Category);
}

#endif // PDGC_DISABLE_STATS

bool pdgc::trace::collecting() {
  return Collecting.load(std::memory_order_relaxed);
}

void pdgc::trace::start() {
  TraceBuffer &B = buffer();
  {
    MutexLock Lock(B.Mu);
    B.Events.clear();
    B.Epoch = Clock::now();
  }
  setTimersEnabled(true);
  Collecting.store(true, std::memory_order_relaxed);
}

void pdgc::trace::stop() {
  Collecting.store(false, std::memory_order_relaxed);
}

void pdgc::trace::clear() {
  TraceBuffer &B = buffer();
  MutexLock Lock(B.Mu);
  B.Events.clear();
}

void pdgc::trace::setThreadLane(unsigned Lane) { ThreadLane = Lane; }

void pdgc::trace::setRequestId(std::uint64_t Id) { ThreadRequestId = Id; }

std::uint64_t pdgc::trace::requestId() { return ThreadRequestId; }

void pdgc::trace::instant(const std::string &Name, const char *Category,
                          const std::string &ArgsJson) {
  if (!collecting())
    return;
  record(Name, Category, 'i', withRequestId(ArgsJson));
}

void pdgc::trace::begin(const std::string &Name, const char *Category) {
  if (!collecting())
    return;
  record(Name, Category, 'B', withRequestId(""));
}

void pdgc::trace::end(const std::string &Name, const char *Category) {
  if (!collecting())
    return;
  record(Name, Category, 'E', "");
}

std::string pdgc::trace::toJson() {
  TraceBuffer &B = buffer();
  std::vector<TraceEvent> Events;
  {
    MutexLock Lock(B.Mu);
    Events = B.Events;
  }
  // Chrome wants per-tid monotone B/E streams; events from one thread are
  // already in order (single mutex-serialized buffer preserves each
  // thread's program order).
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  unsigned MaxLane = 0;
  for (const TraceEvent &E : Events)
    MaxLane = E.Tid > MaxLane ? E.Tid : MaxLane;
  // Name the lanes so Perfetto shows "main"/"worker-N" tracks.
  for (unsigned Lane = 0; Lane <= MaxLane; ++Lane) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(Lane) + ",\"args\":{\"name\":\"" +
           (Lane == 0 ? std::string("main")
                      : "worker-" + std::to_string(Lane)) +
           "\"}}";
  }
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    appendEventJson(Out, E);
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool pdgc::trace::writeJson(const std::string &Path, std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const std::string Json = toJson();
  const bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  if (std::fclose(F) != 0 || !Ok) {
    if (Error)
      *Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

std::string pdgc::trace::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string pdgc::observabilityReportJson() {
  std::string Json = "{\"counters\":";
  Json += StatRegistry::get().snapshot().toJson();
  Json += ",\"timers\":{";
  bool First = true;
  for (const TimerStat &T : timerSnapshot()) {
    if (!First)
      Json += ",";
    First = false;
    Json += "\"" + trace::jsonEscape(T.Phase) +
            "\":{\"count\":" + std::to_string(T.Count) +
            ",\"total_ns\":" + std::to_string(T.TotalNs) + "}";
  }
  Json += "}}";
  return Json;
}

bool pdgc::writeObservabilityReport(const std::string &Path,
                                    std::string *Error) {
  const std::string Json = observabilityReportJson();

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  if (std::fclose(F) != 0 || !Ok) {
    if (Error)
      *Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}
