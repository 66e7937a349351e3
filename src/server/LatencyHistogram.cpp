//===- server/LatencyHistogram.cpp - Lock-free latency percentiles ---------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "server/LatencyHistogram.h"

#include <algorithm>
#include <cmath>

using namespace pdgc;
using namespace pdgc::server;

// Layout: values 0..7 get their own linear bucket; from 8 up, each
// power-of-two decade [2^d, 2^(d+1)) splits into 4 linear sub-buckets.
// 8 + (32 - 3) * 4 = 124 < 128, so the top bucket absorbs everything
// past ~2.4 hours.

unsigned LatencyHistogram::bucketFor(std::uint64_t Micros) {
  if (Micros < 8)
    return static_cast<unsigned>(Micros);
  unsigned D = 63 - static_cast<unsigned>(__builtin_clzll(Micros));
  unsigned Sub = static_cast<unsigned>((Micros >> (D - 2)) & 3);
  unsigned Bucket = 8 + (D - 3) * 4 + Sub;
  return std::min(Bucket, NumBuckets - 1);
}

std::uint64_t LatencyHistogram::bucketUpperBound(unsigned Bucket) {
  if (Bucket < 8)
    return Bucket;
  unsigned Rel = Bucket - 8;
  unsigned D = 3 + Rel / 4;
  unsigned Sub = Rel % 4;
  return (1ull << D) + (static_cast<std::uint64_t>(Sub) + 1)
                           * (1ull << (D - 2)) - 1;
}

std::uint64_t LatencyHistogram::bucketLowerBound(unsigned Bucket) {
  if (Bucket < 8)
    return Bucket;
  unsigned Rel = Bucket - 8;
  unsigned D = 3 + Rel / 4;
  unsigned Sub = Rel % 4;
  return (1ull << D) + static_cast<std::uint64_t>(Sub) * (1ull << (D - 2));
}

std::uint64_t LatencyHistogram::quantile(double Q) const {
  std::uint64_t N = count();
  if (N == 0)
    return 0;
  Q = std::min(1.0, std::max(0.0, Q));
  std::uint64_t Target = static_cast<std::uint64_t>(
      std::ceil(Q * static_cast<double>(N)));
  if (Target == 0)
    Target = 1;
  std::uint64_t Seen = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    std::uint64_t InBucket = Buckets[B].load(std::memory_order_relaxed);
    if (Seen + InBucket < Target) {
      Seen += InBucket;
      continue;
    }
    // The quantile sample lands in bucket B. Interpolate its rank
    // linearly across the bucket's value range — samples are assumed
    // uniform within a bucket, the standard histogram_quantile estimate.
    const double Lower = static_cast<double>(bucketLowerBound(B));
    const double Upper = static_cast<double>(bucketUpperBound(B));
    const double Frac =
        static_cast<double>(Target - Seen) / static_cast<double>(InBucket);
    return static_cast<std::uint64_t>(Lower + Frac * (Upper - Lower) + 0.5);
  }
  return bucketUpperBound(NumBuckets - 1);
}

std::uint64_t LatencyHistogram::percentileMicros(double P) const {
  std::uint64_t N = count();
  if (N == 0)
    return 0;
  P = std::min(100.0, std::max(0.0, P));
  // The rank of the percentile sample, 1-based, nearest-rank definition.
  std::uint64_t Target = static_cast<std::uint64_t>(
      std::ceil(P / 100.0 * static_cast<double>(N)));
  if (Target == 0)
    Target = 1;
  std::uint64_t Seen = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Seen += Buckets[B].load(std::memory_order_relaxed);
    if (Seen >= Target)
      return bucketUpperBound(B);
  }
  return bucketUpperBound(NumBuckets - 1);
}
