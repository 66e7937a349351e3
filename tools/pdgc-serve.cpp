//===- tools/pdgc-serve.cpp - Allocation-as-a-service daemon ---------------===//
//
// Part of the PDGC project.
//
// Long-running register-allocation service on a loopback TCP port. Speaks
// the length-prefixed PDGC/1 protocol (docs/SERVING.md): clients send
// textual IR plus per-request options, the server answers with a typed
// status (OK / DEGRADED / REJECTED / TIMEOUT / MALFORMED / INTERNAL /
// CRASHED), an assignment, and degradation records.
//
//   pdgc-serve [options]
//
//   --port=N             port on 127.0.0.1 (default 0 = ephemeral; the
//                        bound port is printed as "listening on port N")
//   --workers=N          allocation worker threads (default 2; 0 = one
//                        per hardware thread)
//   --queue-depth=N      admission queue high watermark (default 64)
//   --queue-low=N        watermark shedding stops at (default 3/4 depth)
//   --max-connections=N  concurrent connections (default 64)
//   --budget-ms=N        default per-request wall budget (default 2000)
//   --max-budget-ms=N    ceiling a request may ask for (default 60000)
//   --retry-after-ms=N   backoff hint on REJECTED (default 50)
//   --drain-budget-ms=N  budget for finishing in-flight work on
//                        SIGTERM/SIGINT (default 5000)
//   --max-frame-bytes=N  frame payload cap (default 4194304)
//   --regs=N             registers per class of the target, 2 to 32
//                        (default 24)
//   --allocator=NAME     default leading tier (default full-preferences)
//   --http-max-conns=N   concurrent HTTP-plane connections (default 16)
//   --flight-records=N   flight-recorder capacity (default 128)
//   --trace-json=FILE    collect trace spans and write Chrome trace JSON
//                        at exit (spans carry `req` ids that join the
//                        flight recorder / GET /requests output)
//   --isolate-workers=N  run each allocation in one of N supervised
//                        sandbox child processes (default 0 = in-process;
//                        docs/ROBUSTNESS.md "Crash containment"). Crashed
//                        children answer CRASHED and are respawned.
//   --crash-dir=DIR      write a crash dossier (input + wait status) per
//                        worker crash under DIR
//   --quarantine-crashes=K  quarantine an input after K crashes
//                        (default 3); quarantined inputs get an instant
//                        REJECTED("quarantined")
//   --quarantine-ttl-ms=N   forget a quarantine entry after N ms
//                        (default 0 = never)
//   --worker-grace-ms=N  watchdog SIGKILL grace past the request
//                        deadline (default 500)
//   --worker-as-mb=N     worker RLIMIT_AS cap in MiB (default 0 = off)
//   --worker-cpu-secs=N  worker RLIMIT_CPU cap in seconds (default 0 =
//                        off)
//   --verbose            log connection events to stderr
//
// The same port also answers HTTP/1.1 (plane picked from the first byte;
// docs/SERVING.md "HTTP plane"): GET /healthz, /readyz, /metrics
// (Prometheus 0.0.4), /stats, /requests?n=K.
//
// SIGTERM/SIGINT begin a graceful drain: stop accepting, refuse new work
// with REJECTED("draining"), finish or degrade the backlog within the
// drain budget, then exit after printing a summary (requests by status,
// shed count, p50/p99 latency, the flight recorder's tail). Exit 0 when
// the drain met its budget, 3 when it overran. A second signal exits
// immediately.
//
// PDGC_FAULTS is honored (the server.* sites cover accept/frame/parse/
// enqueue/respond); a malformed spec is a usage error.
//
//===----------------------------------------------------------------------===//

#include "machine/TargetDesc.h"
#include "server/Server.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "support/Tracing.h"

#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace pdgc;
using namespace pdgc::server;

namespace {

Server *GServer = nullptr;
std::atomic<int> GSignalCount{0};

// Async-signal-safe: requestStop() is one write() on a self-pipe.
void onSignal(int) {
  if (GSignalCount.fetch_add(1, std::memory_order_relaxed) > 0)
    std::_Exit(1); // Second signal: the operator means it.
  if (GServer)
    GServer->requestStop();
}

void usage() {
  std::fprintf(stderr,
               "usage: pdgc-serve [--port=N] [--workers=N] "
               "[--queue-depth=N] [--queue-low=N]\n"
               "                  [--max-connections=N] [--budget-ms=N] "
               "[--max-budget-ms=N]\n"
               "                  [--retry-after-ms=N] "
               "[--drain-budget-ms=N] [--max-frame-bytes=N]\n"
               "                  [--regs=2..32] [--allocator=NAME] "
               "[--http-max-conns=N]\n"
               "                  [--flight-records=N] [--trace-json=FILE]\n"
               "                  [--isolate-workers=N] [--crash-dir=DIR] "
               "[--quarantine-crashes=K]\n"
               "                  [--quarantine-ttl-ms=N] "
               "[--worker-grace-ms=N] [--worker-as-mb=N]\n"
               "                  [--worker-cpu-secs=N] [--verbose]\n");
}

bool parseNumericOption(const std::string &Value, unsigned long Min,
                        unsigned long Max, unsigned long &Out) {
  if (Value.empty() || Value.size() > 10)
    return false;
  unsigned long V = 0;
  for (char C : Value) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
  }
  if (V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

/// Matches `--NAME=value` numeric flags; exits via \p Bad on a value
/// outside [Min, Max].
bool numericArg(const std::string &Arg, const char *Prefix,
                unsigned long Min, unsigned long Max, unsigned long &Out,
                bool &BadValue) {
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  if (!parseNumericOption(Arg.substr(std::string(Prefix).size()), Min, Max,
                          Out)) {
    std::fprintf(stderr, "error: %s expects a number in [%lu, %lu]\n",
                 Prefix, Min, Max);
    BadValue = true;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  bool QueueLowSet = false;
  std::string TraceJsonPath;

  {
    std::string FaultError;
    if (!fault::installPlanFromEnv(&FaultError)) {
      std::fprintf(stderr, "error: PDGC_FAULTS: %s\n", FaultError.c_str());
      return 1;
    }
  }

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    unsigned long V = 0;
    bool Bad = false;
    if (numericArg(Arg, "--port=", 0, 65535, V, Bad))
      Opts.Port = static_cast<std::uint16_t>(V);
    else if (numericArg(Arg, "--workers=", 0, 256, V, Bad))
      Opts.Workers = V == 0 ? ThreadPool::defaultJobs()
                            : static_cast<unsigned>(V);
    else if (numericArg(Arg, "--queue-depth=", 1, 100000, V, Bad))
      Opts.QueueCapacity = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--queue-low=", 0, 100000, V, Bad)) {
      Opts.QueueLowWatermark = static_cast<unsigned>(V);
      QueueLowSet = true;
    } else if (numericArg(Arg, "--max-connections=", 1, 4096, V, Bad))
      Opts.MaxConnections = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--budget-ms=", 1, 3600000, V, Bad))
      Opts.DefaultBudgetMs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--max-budget-ms=", 1, 3600000, V, Bad))
      Opts.MaxBudgetMs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--retry-after-ms=", 1, 60000, V, Bad))
      Opts.RetryAfterMs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--drain-budget-ms=", 1, 3600000, V, Bad))
      Opts.DrainBudgetMs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--max-frame-bytes=", 64, 1u << 30, V, Bad))
      Opts.MaxFrameBytes = static_cast<std::uint32_t>(V);
    else if (numericArg(Arg, "--regs=", MinRegsPerClass, MaxRegsPerClass, V,
                        Bad))
      Opts.Regs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--http-max-conns=", 1, 4096, V, Bad))
      Opts.HttpMaxConns = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--flight-records=", 1, 1000000, V, Bad))
      Opts.FlightRecords = static_cast<std::size_t>(V);
    else if (numericArg(Arg, "--isolate-workers=", 0, 256, V, Bad))
      Opts.IsolateWorkers = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--quarantine-crashes=", 1, 1000000, V, Bad))
      Opts.QuarantineCrashes = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--quarantine-ttl-ms=", 0, 3600000, V, Bad))
      Opts.QuarantineTtlMs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--worker-grace-ms=", 1, 3600000, V, Bad))
      Opts.WorkerGraceMs = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--worker-as-mb=", 0, 1048576, V, Bad))
      Opts.WorkerAddressSpaceMb = static_cast<unsigned>(V);
    else if (numericArg(Arg, "--worker-cpu-secs=", 0, 86400, V, Bad))
      Opts.WorkerCpuSeconds = static_cast<unsigned>(V);
    else if (Arg.rfind("--crash-dir=", 0) == 0) {
      Opts.CrashDir = Arg.substr(12);
      if (Opts.CrashDir.empty()) {
        std::fprintf(stderr, "error: --crash-dir expects a path\n");
        return 1;
      }
    } else if (Arg.rfind("--trace-json=", 0) == 0) {
      TraceJsonPath = Arg.substr(13);
      if (TraceJsonPath.empty()) {
        std::fprintf(stderr, "error: --trace-json expects a path\n");
        return 1;
      }
    } else if (Arg.rfind("--allocator=", 0) == 0) {
      Opts.DefaultAllocator = Arg.substr(12);
      if (Opts.DefaultAllocator.empty()) {
        std::fprintf(stderr, "error: --allocator expects a name\n");
        return 1;
      }
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
    if (Bad) {
      usage();
      return 1;
    }
  }

  if (!QueueLowSet)
    Opts.QueueLowWatermark = Opts.QueueCapacity - Opts.QueueCapacity / 4;
  if (Opts.QueueLowWatermark >= Opts.QueueCapacity) {
    std::fprintf(stderr, "error: --queue-low must be below --queue-depth\n");
    return 1;
  }

  // Start collecting before the first request so every span carries its
  // `req` id; the buffer is written at exit.
  if (!TraceJsonPath.empty())
    trace::start();

  Server S(Opts);
  std::string Error;
  if (!S.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  GServer = &S;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  // Scripts and tests parse this line to find an ephemeral port; flush so
  // it is visible before the first request.
  std::printf("pdgc-serve: listening on port %u (workers=%u queue=%u/%u "
              "drain-budget-ms=%u)\n",
              S.port(), Opts.Workers, Opts.QueueLowWatermark,
              Opts.QueueCapacity, Opts.DrainBudgetMs);
  if (Opts.IsolateWorkers > 0)
    std::printf("pdgc-serve: isolating allocations in %u worker "
                "process%s (grace-ms=%u quarantine-crashes=%u)\n",
                Opts.IsolateWorkers, Opts.IsolateWorkers == 1 ? "" : "es",
                Opts.WorkerGraceMs, Opts.QuarantineCrashes);
  std::fflush(stdout);

  ServerSummary Sum = S.run();
  GServer = nullptr;

  std::printf("pdgc-serve: drained %s budget: accepted=%llu requests=%llu "
              "ok=%llu degraded=%llu rejected=%llu timeout=%llu "
              "malformed=%llu internal=%llu crashed=%llu "
              "transport-errors=%llu p50-us=%llu p99-us=%llu\n",
              Sum.DrainedInBudget ? "within" : "OVER",
              static_cast<unsigned long long>(Sum.Accepted),
              static_cast<unsigned long long>(Sum.Requests),
              static_cast<unsigned long long>(Sum.Ok),
              static_cast<unsigned long long>(Sum.Degraded),
              static_cast<unsigned long long>(Sum.Rejected),
              static_cast<unsigned long long>(Sum.Timeout),
              static_cast<unsigned long long>(Sum.Malformed),
              static_cast<unsigned long long>(Sum.Internal),
              static_cast<unsigned long long>(Sum.Crashed),
              static_cast<unsigned long long>(Sum.TransportErrors),
              static_cast<unsigned long long>(Sum.P50Micros),
              static_cast<unsigned long long>(Sum.P99Micros));
  if (Opts.IsolateWorkers > 0)
    std::printf("pdgc-serve: workers: spawns=%llu respawns=%llu "
                "crashes=%llu kills=%llu replays=%llu quarantined=%llu\n",
                static_cast<unsigned long long>(Sum.WorkerSpawns),
                static_cast<unsigned long long>(Sum.WorkerRespawns),
                static_cast<unsigned long long>(Sum.WorkerCrashes),
                static_cast<unsigned long long>(Sum.WorkerKills),
                static_cast<unsigned long long>(Sum.WorkerReplays),
                static_cast<unsigned long long>(Sum.WorkerQuarantined));
  if (!Sum.RecentRequests.empty()) {
    std::printf("pdgc-serve: last requests (newest first):\n%s",
                Sum.RecentRequests.c_str());
  }

  if (!TraceJsonPath.empty()) {
    trace::stop();
    std::string TraceError;
    if (!trace::writeJson(TraceJsonPath, &TraceError))
      std::fprintf(stderr, "warning: --trace-json: %s\n", TraceError.c_str());
  }
  return Sum.DrainedInBudget ? 0 : 3;
}
