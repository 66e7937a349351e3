//===- server/LatencyHistogram.h - Lock-free latency percentiles -*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-footprint latency histogram for the serving path: `record` is
/// one relaxed atomic increment (safe from every worker and connection
/// thread, never a lock), and `percentile` walks the buckets at report
/// time. Buckets are geometric — powers of two of microseconds, each
/// split into four linear sub-buckets — so the relative quantile error is
/// bounded at ~12.5% across the whole 1µs..~1hour range while the entire
/// histogram stays 128 counters, cheap enough to keep always-on.
///
/// This is the same design trade HdrHistogram-style recorders make: the
/// service cares that p99 moved from 2ms to 40ms, not whether it is
/// 40.0ms or 41.3ms. Exact order statistics would need per-request
/// samples, which is an unbounded allocation on the request path — the
/// thing pdgc-serve categorically refuses to do.
///
//===----------------------------------------------------------------------===//

#ifndef PDGC_SERVER_LATENCYHISTOGRAM_H
#define PDGC_SERVER_LATENCYHISTOGRAM_H

#include <array>
#include <atomic>
#include <cstdint>

namespace pdgc {
namespace server {

class LatencyHistogram {
public:
  /// 32 power-of-two decades x 4 linear sub-buckets.
  static constexpr unsigned NumBuckets = 128;

  /// Records one sample (relaxed; callable from any thread).
  void record(std::uint64_t Micros) {
    Buckets[bucketFor(Micros)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    SumMicros.fetch_add(Micros, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return Count.load(std::memory_order_relaxed);
  }

  /// Sum of all recorded samples in microseconds (for exposition _sum).
  std::uint64_t sumMicros() const {
    return SumMicros.load(std::memory_order_relaxed);
  }

  /// The \p Q-th quantile (Q in [0, 1]) in microseconds, estimated by
  /// linear interpolation of the quantile's rank across the matched
  /// bucket's [lower, upper] range; 0 with no samples. This is the one
  /// shared implementation of the bucket math — pdgc-loadgen's report
  /// and the daemon's /metrics exposition both call it, so a scrape and
  /// a load test always agree to within one bucket's resolution.
  std::uint64_t quantile(double Q) const;

  /// Upper bound of the bucket holding the \p P-th percentile sample
  /// (P in [0, 100]), in microseconds; 0 with no samples. The
  /// conservative bucket ceiling that quantile()'s interpolated estimate
  /// is tested against.
  std::uint64_t percentileMicros(double P) const;

private:
  static unsigned bucketFor(std::uint64_t Micros);
  static std::uint64_t bucketUpperBound(unsigned Bucket);
  static std::uint64_t bucketLowerBound(unsigned Bucket);

  std::array<std::atomic<std::uint64_t>, NumBuckets> Buckets{};
  std::atomic<std::uint64_t> Count{0};
  std::atomic<std::uint64_t> SumMicros{0};
};

} // namespace server
} // namespace pdgc

#endif // PDGC_SERVER_LATENCYHISTOGRAM_H
