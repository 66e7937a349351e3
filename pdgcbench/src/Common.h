//===- pdgcbench/src/Common.h - Benchmark plumbing --------------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: the clock and order
/// statistics, the in-memory span log of the traced run, process probes,
/// and the result line every run prints last.
///
//===----------------------------------------------------------------------===//

#ifndef PDGCBENCH_COMMON_H
#define PDGCBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pdgcbench {

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

inline double secondsSince(Clock::time_point A) {
  return std::chrono::duration<double>(Clock::now() - A).count();
}

/// Percentile \p P (0..100) of \p Values, linearly interpolated between
/// the closest ranks; 0 for an empty sample.
double percentile(std::vector<double> Values, double P);

inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

/// In-memory span recorder of the traced run. One span per timed call
/// into a layer's public function; the calls made for one function (or
/// one request) share a parent span. Thread-safe; written out once, when
/// the run ends.
class SpanLog {
public:
  struct Span {
    const char *Name;     ///< Layer call, e.g. "ir.parse" (a literal).
    double StartUs;       ///< Since the log's origin.
    double DurUs;
    std::uint64_t Id;
    std::uint64_t Parent; ///< 0 for a root span.
    unsigned Lane;        ///< Client connection, or 0.
  };

  SpanLog() : Origin(Clock::now()) {}

  /// A fresh span id, for a parent span recorded after its children.
  std::uint64_t newId() { return NextId.fetch_add(1); }

  void add(const char *Name, Clock::time_point Start, Clock::time_point End,
           std::uint64_t Id, std::uint64_t Parent, unsigned Lane = 0);

  /// Durations (us) of every span named \p Name, in recording order.
  std::vector<double> durations(const std::string &Name) const;
  double totalUs(const std::string &Name) const;

  /// Appends the spans as Chrome trace-event objects (`X` events under
  /// process id \p Pid) to \p Out, each followed by a comma.
  void appendChromeEvents(std::string &Out, unsigned Pid) const;

private:
  Clock::time_point Origin;
  std::atomic<std::uint64_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// Times \p Body and records it as span \p Name under \p Parent when
/// \p Log is non-null.
template <typename Fn>
auto timeCall(SpanLog *Log, const char *Name, std::uint64_t Parent,
              Fn &&Body) {
  const Clock::time_point Start = Clock::now();
  if constexpr (std::is_void_v<decltype(Body())>) {
    Body();
    if (Log)
      Log->add(Name, Start, Clock::now(), Log->newId(), Parent);
  } else {
    auto Result = Body();
    if (Log)
      Log->add(Name, Start, Clock::now(), Log->newId(), Parent);
    return Result;
  }
}

/// Peak resident set of this process in MB.
double selfPeakRssMb();

/// Peak resident set (VmHWM) of process \p Pid in MB; negative when it
/// cannot be read.
double procPeakRssMb(int Pid);

/// Live (not zombie) children of process \p Pid.
std::vector<int> childPids(int Pid);

/// True while process \p Pid exists and is not a zombie.
bool processAlive(int Pid);

/// One named number of the result line.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Formats \p V with enough digits to keep the measurement.
std::string formatNumber(double V);

/// The last line of every run: correctness, counts, and the metrics.
std::string resultLine(bool Correct, std::uint64_t Attempted,
                       std::uint64_t Failed,
                       const std::vector<Metric> &Metrics);

} // namespace pdgcbench

#endif // PDGCBENCH_COMMON_H
