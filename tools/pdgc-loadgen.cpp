//===- tools/pdgc-loadgen.cpp - Concurrent load generator ------------------===//
//
// Part of the PDGC project.
//
// Drives a running pdgc-serve with concurrent clients and reports latency
// percentiles plus a per-status breakdown — the "N concurrent clients,
// p50/p99" report the ROADMAP's serving story asks for, and the assertion
// harness the chaos CI job leans on.
//
//   pdgc-loadgen --port=N [options]
//
//   --port=N           server port on 127.0.0.1 (required)
//   --concurrency=N    concurrent client connections (default 4)
//   --requests=N       total ALLOC requests across all clients (default 64)
//   --corpus-dir=DIR   send every *.ir file from DIR round-robin; absent,
//                      clients send generated functions (--seed)
//   --budget-ms=N      per-request budget header (default 0 = server's)
//   --allocator=NAME   allocator header on every request (default none)
//   --seed=S           seed for generated functions + backoff jitter
//   --retries=N        max attempts per request incl. backoff (default 8)
//   --chaos            tolerate dropped connections (the server is being
//                      fault-injected): reconnect and retry instead of
//                      counting a transport error
//   --expect-drain     treat REJECTED("draining") and dropped connections
//                      near shutdown as success (for SIGTERM drain tests)
//   --expect-crashes   the server is running with --isolate-workers and a
//                      crash fault armed: CRASHED responses are expected
//                      (exit 1 if none arrive); without this flag any
//                      CRASHED response is a finding (exit 1)
//   --max-elapsed-ms=N wall-clock retry budget per request, passed to the
//                      client retry policy (default 0 = attempts only)
//   --quiet            print only the final report
//
// Exit codes:
//   0  every request got a typed response (or an allowed drain outcome)
//   1  transport errors outside chaos mode, an invalid response, or a
//      crash-expectation mismatch (see --expect-crashes)
//   2  usage / connect failure
//
// The final report line is machine-parseable:
//   pdgc-loadgen: sent=N ok=N degraded=N rejected=N timeout=N malformed=N
//     internal=N crashed=N transport-errors=N retries=N p50-us=N p99-us=N
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "machine/TargetDesc.h"
#include "server/Client.h"
#include "server/LatencyHistogram.h"
#include "support/ThreadAnnotations.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pdgc;
using namespace pdgc::server;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: pdgc-loadgen --port=N [--concurrency=N] "
               "[--requests=N] [--corpus-dir=DIR]\n"
               "                    [--budget-ms=N] [--allocator=NAME] "
               "[--seed=S] [--retries=N]\n"
               "                    [--max-elapsed-ms=N] [--chaos] "
               "[--expect-drain] [--expect-crashes]\n"
               "                    [--quiet]\n");
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

struct Totals {
  std::atomic<std::uint64_t> Sent{0}, Ok{0}, Degraded{0}, Rejected{0},
      Timeout{0}, Malformed{0}, Internal{0}, Crashed{0},
      TransportErrors{0}, DrainRejects{0}, Retries{0}, Invalid{0};
};

} // namespace

int main(int argc, char **argv) {
  unsigned long Port = 0;
  unsigned Concurrency = 4;
  unsigned Requests = 64;
  unsigned BudgetMs = 0;
  unsigned MaxAttempts = 8;
  unsigned MaxElapsedMs = 0;
  std::uint64_t Seed = 1;
  std::string CorpusDir;
  std::string Allocator;
  bool Chaos = false;
  bool ExpectDrain = false;
  bool ExpectCrashes = false;
  bool Quiet = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    unsigned long V = 0;
    if (Arg.rfind("--port=", 0) == 0 &&
        parseNumericOption(Arg.substr(7), 1, 65535, V)) {
      Port = V;
    } else if (Arg.rfind("--concurrency=", 0) == 0 &&
               parseNumericOption(Arg.substr(14), 1, 512, V)) {
      Concurrency = static_cast<unsigned>(V);
    } else if (Arg.rfind("--requests=", 0) == 0 &&
               parseNumericOption(Arg.substr(11), 1, 10000000, V)) {
      Requests = static_cast<unsigned>(V);
    } else if (Arg.rfind("--budget-ms=", 0) == 0 &&
               parseNumericOption(Arg.substr(12), 1, 3600000, V)) {
      BudgetMs = static_cast<unsigned>(V);
    } else if (Arg.rfind("--retries=", 0) == 0 &&
               parseNumericOption(Arg.substr(10), 1, 100, V)) {
      MaxAttempts = static_cast<unsigned>(V);
    } else if (Arg.rfind("--max-elapsed-ms=", 0) == 0 &&
               parseNumericOption(Arg.substr(17), 1, 3600000, V)) {
      MaxElapsedMs = static_cast<unsigned>(V);
    } else if (Arg.rfind("--seed=", 0) == 0 &&
               parseNumericOption(Arg.substr(7), 0, 999999999, V)) {
      Seed = V;
    } else if (Arg.rfind("--corpus-dir=", 0) == 0) {
      CorpusDir = Arg.substr(13);
    } else if (Arg.rfind("--allocator=", 0) == 0) {
      Allocator = Arg.substr(12);
    } else if (Arg == "--chaos") {
      Chaos = true;
    } else if (Arg == "--expect-drain") {
      ExpectDrain = true;
    } else if (Arg == "--expect-crashes") {
      ExpectCrashes = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: bad option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Port == 0) {
    std::fprintf(stderr, "error: --port is required\n");
    usage();
    return 2;
  }

  // A server that hangs up mid-write must not kill the generator.
  std::signal(SIGPIPE, SIG_IGN);

  // Build the request bodies up front so every worker thread only does
  // network I/O: either the corpus files (including the intentionally
  // malformed fuzzer reproducers — MALFORMED is a *correct* answer for
  // those) or seeded generated functions.
  std::vector<std::string> Bodies;
  if (!CorpusDir.empty()) {
    namespace fs = std::filesystem;
    std::error_code EC;
    std::vector<std::string> Paths;
    for (const fs::directory_entry &Entry :
         fs::directory_iterator(CorpusDir, EC))
      if (Entry.is_regular_file() && Entry.path().extension() == ".ir")
        Paths.push_back(Entry.path().string());
    if (EC || Paths.empty()) {
      std::fprintf(stderr, "error: no .ir files in '%s'\n",
                   CorpusDir.c_str());
      return 2;
    }
    std::sort(Paths.begin(), Paths.end());
    for (const std::string &P : Paths) {
      std::ifstream In(P);
      std::ostringstream SS;
      SS << In.rdbuf();
      Bodies.push_back(SS.str());
    }
  } else {
    TargetDesc Target = makeTarget(24, PairingRule::Adjacent);
    for (unsigned I = 0; I != 8; ++I) {
      GeneratorParams P;
      P.Seed = Seed + I;
      P.Name = "load" + std::to_string(I);
      P.CallPercent = 30;
      P.PairedLoadPercent = 10;
      Bodies.push_back(printFunction(*generateFunction(P, Target)));
    }
  }

  Totals T;
  LatencyHistogram Latency;
  std::atomic<unsigned> NextRequest{0};
  pdgc::Mutex LogMutex;

  auto ClientMain = [&](unsigned ClientId) {
    ClientConnection Conn;
    for (;;) {
      unsigned Idx = NextRequest.fetch_add(1, std::memory_order_relaxed);
      if (Idx >= Requests)
        return;
      Request Req;
      Req.BudgetMs = BudgetMs;
      Req.Allocator = Allocator;
      Req.Body = Bodies[Idx % Bodies.size()];

      auto Start = std::chrono::steady_clock::now();
      Response Resp;
      unsigned Retries = 0;
      TransportError E = Conn.callWithRetry(
          Req, Resp, static_cast<std::uint16_t>(Port), MaxAttempts,
          /*RetryTransport=*/Chaos || ExpectDrain,
          Seed * 1000 + ClientId * 131 + Idx, &Retries, MaxElapsedMs);
      T.Sent.fetch_add(1);
      T.Retries.fetch_add(Retries);
      std::uint64_t Micros = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - Start)
              .count());

      if (E != TransportError::None) {
        // Under --expect-drain / --chaos a vanished server is an
        // expected terminal state, not a finding.
        if (ExpectDrain || Chaos)
          T.DrainRejects.fetch_add(1);
        else {
          T.TransportErrors.fetch_add(1);
          if (!Quiet) {
            pdgc::MutexLock Lock(LogMutex);
            std::fprintf(stderr, "client %u: request %u: transport: %s\n",
                         ClientId, Idx, transportErrorName(E));
          }
        }
        continue;
      }

      Latency.record(Micros);
      switch (Resp.Status) {
      case ResponseStatus::Ok:
        T.Ok.fetch_add(1);
        break;
      case ResponseStatus::Degraded:
        T.Degraded.fetch_add(1);
        break;
      case ResponseStatus::Rejected:
        if (Resp.Error == "draining")
          T.DrainRejects.fetch_add(1);
        T.Rejected.fetch_add(1);
        break;
      case ResponseStatus::Timeout:
        T.Timeout.fetch_add(1);
        break;
      case ResponseStatus::Malformed:
        T.Malformed.fetch_add(1);
        break;
      case ResponseStatus::Internal:
        T.Internal.fetch_add(1);
        break;
      case ResponseStatus::Crashed:
        T.Crashed.fetch_add(1);
        break;
      }
      // Status-correctness assertions: a successful allocation must
      // carry a serving tier and an assignment-shaped body.
      if (Resp.Status == ResponseStatus::Ok ||
          Resp.Status == ResponseStatus::Degraded) {
        if (Resp.ServedBy.empty()) {
          T.Invalid.fetch_add(1);
          pdgc::MutexLock Lock(LogMutex);
          std::fprintf(stderr,
                       "client %u: request %u: %s response without "
                       "served-by\n",
                       ClientId, Idx, responseStatusName(Resp.Status));
        }
      } else if (Resp.Error.empty()) {
        T.Invalid.fetch_add(1);
        pdgc::MutexLock Lock(LogMutex);
        std::fprintf(stderr,
                     "client %u: request %u: %s response without error "
                     "detail\n",
                     ClientId, Idx, responseStatusName(Resp.Status));
      }
    }
  };

  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != Concurrency; ++C)
    Clients.emplace_back(ClientMain, C);
  for (std::thread &C : Clients)
    C.join();

  std::printf("pdgc-loadgen: sent=%llu ok=%llu degraded=%llu "
              "rejected=%llu timeout=%llu malformed=%llu internal=%llu "
              "crashed=%llu "
              "transport-errors=%llu retries=%llu p50-us=%llu p99-us=%llu\n",
              static_cast<unsigned long long>(T.Sent.load()),
              static_cast<unsigned long long>(T.Ok.load()),
              static_cast<unsigned long long>(T.Degraded.load()),
              static_cast<unsigned long long>(T.Rejected.load()),
              static_cast<unsigned long long>(T.Timeout.load()),
              static_cast<unsigned long long>(T.Malformed.load()),
              static_cast<unsigned long long>(T.Internal.load()),
              static_cast<unsigned long long>(T.Crashed.load()),
              static_cast<unsigned long long>(T.TransportErrors.load()),
              static_cast<unsigned long long>(T.Retries.load()),
              static_cast<unsigned long long>(Latency.quantile(0.50)),
              static_cast<unsigned long long>(Latency.quantile(0.99)));

  if (T.Invalid.load() != 0)
    return 1;
  if (!Chaos && !ExpectDrain && T.TransportErrors.load() != 0)
    return 1;
  // Crash-expectation contract: CRASHED responses are findings unless
  // the harness armed a crash fault, in which case seeing *none* means
  // the fault plan never fired and the run proved nothing.
  if (!ExpectCrashes && T.Crashed.load() != 0) {
    std::fprintf(stderr, "pdgc-loadgen: unexpected CRASHED responses "
                         "(run with --expect-crashes if intended)\n");
    return 1;
  }
  if (ExpectCrashes && T.Crashed.load() == 0) {
    std::fprintf(stderr, "pdgc-loadgen: --expect-crashes but no CRASHED "
                         "response arrived\n");
    return 1;
  }
  return 0;
}
