//===- pdgcbench/src/HostSpeed.cpp - Uncontended durations ---------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>

#include <sched.h>
#include <time.h>

using namespace pdgcbench;

namespace {

/// A fixed random graph in compressed rows: 600 nodes of average degree
/// 24, each joined to nodes at most 200 places away, as live ranges
/// overlap nearby ones.
struct Graph {
  static constexpr unsigned N = 600;
  std::vector<unsigned> Offsets, Edges;

  Graph() {
    std::mt19937_64 Rng(42);
    std::vector<std::vector<unsigned>> Rows(N);
    for (unsigned E = 0; E != N * 12; ++E) {
      const unsigned A = static_cast<unsigned>(Rng() % N);
      const unsigned B = static_cast<unsigned>((A + 1 + Rng() % 200) % N);
      Rows[A].push_back(B);
      Rows[B].push_back(A);
    }
    Offsets.push_back(0);
    for (const std::vector<unsigned> &Row : Rows) {
      Edges.insert(Edges.end(), Row.begin(), Row.end());
      Offsets.push_back(static_cast<unsigned>(Edges.size()));
    }
  }
};

/// Keeps the colouring from being optimised away; any thread may colour.
std::atomic<std::uint64_t> Sink{0};

/// Colours the graph with 64 colours the way a Chaitin-style allocator
/// does: remove a node of degree below 16 (else the one of highest degree)
/// until none is left, then give each, in reverse, the lowest colour its
/// neighbours leave free.
void colour(const Graph &G) {
  constexpr unsigned K = 16;
  std::vector<unsigned> Degree(Graph::N), Stack;
  std::vector<char> Removed(Graph::N, 0);
  for (unsigned V = 0; V != Graph::N; ++V)
    Degree[V] = G.Offsets[V + 1] - G.Offsets[V];
  Stack.reserve(Graph::N);
  for (unsigned Left = Graph::N; Left != 0; --Left) {
    unsigned Pick = Graph::N, Highest = 0;
    for (unsigned V = 0; V != Graph::N; ++V) {
      if (Removed[V])
        continue;
      if (Degree[V] < K) {
        Pick = V;
        break;
      }
      if (Pick == Graph::N || Degree[V] > Highest) {
        Pick = V;
        Highest = Degree[V];
      }
    }
    Removed[Pick] = 1;
    Stack.push_back(Pick);
    for (unsigned E = G.Offsets[Pick]; E != G.Offsets[Pick + 1]; ++E)
      --Degree[G.Edges[E]];
  }
  std::vector<int> Colour(Graph::N, -1);
  std::uint64_t Sum = 0;
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    std::uint64_t Used = 0;
    for (unsigned E = G.Offsets[*It]; E != G.Offsets[*It + 1]; ++E)
      if (Colour[G.Edges[E]] >= 0)
        Used |= std::uint64_t{1} << Colour[G.Edges[E]];
    Colour[*It] = Used == ~std::uint64_t{0} ? -1 : __builtin_ctzll(~Used);
    Sum += static_cast<std::uint64_t>(Colour[*It] + 1);
  }
  Sink.store(Sum, std::memory_order_relaxed);
}

} // namespace

double pdgcbench::threadCpuUs() {
  timespec T{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e6 +
         static_cast<double>(T.tv_nsec) / 1e3;
}

std::vector<int> pdgcbench::allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (::sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Cpus.push_back(Cpu);
  return Cpus;
}

void pdgcbench::pinThread(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  ::sched_setaffinity(0, sizeof Set, &Set);
}

CpuSpeedTracker::CpuSpeedTracker(const std::vector<int> &Cpus)
    : PerCpu(Cpus.size()) {
  static const Graph G;
  for (std::size_t I = 0; I != Cpus.size(); ++I)
    Threads.emplace_back([this, I, Cpu = Cpus[I]] {
      pinThread({Cpu});
      while (!Stopping.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
        // In this thread's CPU time: the work's threads on the same CPU may
        // preempt the computation, and that is not the CPU's speed.
        const Clock::time_point Start = Clock::now();
        const double CpuStart = threadCpuUs();
        colour(G);
        const Sample S{Start + (Clock::now() - Start) / 2,
                       threadCpuUs() - CpuStart};
        std::lock_guard<std::mutex> Lock(Mu);
        PerCpu[I].push_back(S);
      }
    });
}

CpuSpeedTracker::~CpuSpeedTracker() {
  Stopping = true;
  for (std::thread &T : Threads)
    T.join();
}

double CpuSpeedTracker::fastestUs() const {
  std::vector<double> Us;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const std::vector<Sample> &Samples : PerCpu)
      for (const Sample &S : Samples)
        Us.push_back(S.Us);
  }
  return percentile(std::move(Us), 1);
}

double CpuSpeedTracker::speed(Clock::time_point From, Clock::time_point To,
                              double FastestUs) const {
  const auto Earlier = [](const Sample &S, Clock::time_point T) {
    return S.At < T;
  };
  std::lock_guard<std::mutex> Lock(Mu);
  double Sum = 0;
  unsigned Count = 0;
  for (const std::vector<Sample> &Samples : PerCpu)
    for (auto It = std::lower_bound(Samples.begin(), Samples.end(), From,
                                    Earlier);
         It != Samples.end() && It->At <= To; ++It) {
      Sum += FastestUs / It->Us;
      ++Count;
    }
  if (Count == 0)
    // The last sample before the interval and the first after it.
    for (const std::vector<Sample> &Samples : PerCpu) {
      const auto It =
          std::lower_bound(Samples.begin(), Samples.end(), From, Earlier);
      if (It != Samples.end()) {
        Sum += FastestUs / It->Us;
        ++Count;
      }
      if (It != Samples.begin()) {
        Sum += FastestUs / std::prev(It)->Us;
        ++Count;
      }
    }
  return Count ? Sum / Count : 1;
}
