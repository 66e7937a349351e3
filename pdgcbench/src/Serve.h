//===- pdgcbench/src/Serve.h - pdgc-serve child and client -----*- C++ -*-===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The served workloads' plumbing: a `pdgc-serve` child process on an
/// ephemeral loopback port, a persistent PDGC/1 client connection timed in
/// parts (client codec, wire), and the scrapes of the daemon's HTTP plane
/// the benchmark makes (`/readyz`, `/metrics`, `/requests`).
///
//===----------------------------------------------------------------------===//

#ifndef PDGCBENCH_SERVE_H
#define PDGCBENCH_SERVE_H

#include "Common.h"

#include "server/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pdgcbench {

/// A pdgc-serve child process. The destructor kills and reaps a daemon
/// that was never stopped.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns \p Binary with \p Args, reads the port from its "listening on
  /// port N" line and waits until GET /readyz answers 200.
  bool start(const std::string &Binary, const std::vector<std::string> &Args,
             std::string &Error);

  /// SIGTERM, then waits for the graceful drain. True when the daemon
  /// reported a drain within budget and exited 0.
  bool stop(std::string &Error);

  std::uint16_t port() const { return Port; }
  int pid() const { return Pid; }

private:
  void readLoop();
  void stopReader();

  int Pid = -1;
  int OutFd = -1;
  std::uint16_t Port = 0;
  std::mutex Mu;
  std::condition_variable LineCv;
  std::vector<std::string> Lines; ///< The daemon's standard output.
  std::string Partial;
  bool ReaderDone = false;
  std::atomic<bool> StopReading{false};
  std::thread Reader; // Last: it uses the members above.
};

/// GET \p Path on the daemon's HTTP plane. Returns the status code, or 0
/// on a transport failure; \p Body receives the response body.
int httpGet(std::uint16_t Port, const std::string &Path, std::string &Body);

/// Value of `pdgc_stat_total{stat="Key"}` in a /metrics exposition; 0 when
/// absent (a counter the daemon never reached).
double statCounter(const std::string &Metrics, const std::string &Key);

/// One GET /requests flight record, as far as the benchmark reads it.
struct FlightRow {
  double Id = 0;
  std::string Kind;      ///< "alloc", "meta" or "http".
  unsigned PeerPort = 0; ///< Client-side port of the connection.
  double BytesIn = 0;
  double BytesOut = 0;
  double QueueUs = 0;
  double WallUs = 0;
};

std::vector<FlightRow> parseFlightRows(const std::string &Json);

/// One persistent PDGC/1 connection to the daemon.
class Connection {
public:
  /// When each part of one call ended.
  struct Timing {
    Clock::time_point Start;      ///< Before serializing the request.
    Clock::time_point Serialized; ///< Request payload ready.
    Clock::time_point Received;   ///< Response frame read.
    Clock::time_point Parsed;     ///< Response parsed.
    std::size_t BytesOut = 0;     ///< Request payload size.
  };

  Connection() = default;
  ~Connection() { close(); }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool open(std::uint16_t Port);
  void close();
  bool connected() const { return Fd >= 0; }
  /// Client-side port: the daemon's flight recorder names the peer by it.
  std::uint16_t localPort() const { return LocalPort; }

  /// Sends \p Req and reads the answer into \p Out. False on a transport
  /// or response-parse error, which also closes the connection.
  bool call(const pdgc::server::Request &Req, pdgc::server::Response &Out,
            Timing &T);

private:
  int Fd = -1;
  std::uint16_t LocalPort = 0;
};

} // namespace pdgcbench

#endif // PDGCBENCH_SERVE_H
