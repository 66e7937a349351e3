//===- pdgcbench/src/HostSpeed.h - Uncontended durations -------*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durations measured on a shared host, scaled to the speed its CPUs have
/// when other tenants leave them alone.
///
/// Other tenants of a shared host slow each of its CPUs by up to 2x, in
/// bursts of milliseconds that come and go for seconds to minutes. On a
/// 4-CPU KVM host the slowed share of a 10-second window ranged from 2% to
/// 97%, and two CPUs' bursts hardly correlated, so wall time moved the
/// benchmark's timings by 20-35% between runs of the same code. The
/// benchmark therefore runs its measured work on pinned CPUs, times a
/// fixed reference computation, which shares no code with the program, on
/// the same CPUs while the work runs, and scales the work's time by the
/// reference's fastest time in the run over its time while the work ran.
/// The reference is a small graph colouring: branchy work on a
/// cache-resident graph, like the allocator's. An arithmetic loop slowed
/// far less than the allocator in the bursts and tracked them worse.
///
/// The fastest time, not a fixed one, sets the scale because the host's
/// uncontended speed changes too: within one hour the reference's fastest
/// time went from 195 to 145 us while the allocator sped up by only about
/// 15%, so scaling by a fixed time moved the results by a third.
///
//===----------------------------------------------------------------------===//

#ifndef PDGCBENCH_HOSTSPEED_H
#define PDGCBENCH_HOSTSPEED_H

#include "Common.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace pdgcbench {

/// CPU time of the calling thread, in microseconds.
double threadCpuUs();

/// The CPUs this process may run on.
std::vector<int> allowedCpus();

/// Restricts the calling thread, and the processes it starts from now
/// on, to \p Cpus.
void pinThread(const std::vector<int> &Cpus);

/// The speed of CPUs while work runs on them: a thread pinned to each CPU
/// wakes every 4 ms, which preempts whatever runs there, and times the
/// reference computation once in its own CPU time. That takes about 5% of
/// each CPU. A tracker of no CPUs reads speed 1.
class CpuSpeedTracker {
public:
  explicit CpuSpeedTracker(const std::vector<int> &Cpus);
  ~CpuSpeedTracker();
  CpuSpeedTracker(const CpuSpeedTracker &) = delete;
  CpuSpeedTracker &operator=(const CpuSpeedTracker &) = delete;

  /// The reference computation's 1st-percentile time over every sample so
  /// far, in microseconds: its time on these CPUs when nothing slows them.
  double fastestUs() const;

  /// The CPUs' speed over [\p From, \p To] as a share of their speed when
  /// the reference takes \p FastestUs: the mean of FastestUs over the
  /// time of every sample in the interval, on any of the CPUs; the nearest
  /// samples' when none falls in it, and 1 when there are none.
  double speed(Clock::time_point From, Clock::time_point To,
               double FastestUs) const;
  double speed(Clock::time_point From, Clock::time_point To) const {
    return speed(From, To, fastestUs());
  }

private:
  struct Sample {
    Clock::time_point At;
    double Us; ///< The reference computation's CPU time.
  };
  std::atomic<bool> Stopping{false};
  mutable std::mutex Mu;
  std::vector<std::vector<Sample>> PerCpu; ///< Each in time order.
  std::vector<std::thread> Threads;        // Last: they use the above.
};

} // namespace pdgcbench

#endif // PDGCBENCH_HOSTSPEED_H
