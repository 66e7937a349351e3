//===- pdgcbench/src/Serve.cpp - pdgc-serve child and client --------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "server/FrameCodec.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace pdgc;
using namespace pdgcbench;

namespace {

/// Largest response frame the client accepts.
constexpr std::uint32_t MaxReplyBytes = 64u << 20;

/// Connects to 127.0.0.1:\p Port; reads and writes give up after
/// \p TimeoutS seconds. Returns -1 on failure.
int connectLoopback(std::uint16_t Port, long TimeoutS) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  const timeval Timeout{TimeoutS, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof Timeout);
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof Timeout);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr), sizeof Addr) !=
      0) {
    ::close(Fd);
    return -1;
  }
  const int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  return Fd;
}

} // namespace

//===----------------------------------------------------------------------===//
// HTTP plane
//===----------------------------------------------------------------------===//

int pdgcbench::httpGet(std::uint16_t Port, const std::string &Path,
                       std::string &Body) {
  const int Fd = connectLoopback(Port, 30);
  if (Fd < 0)
    return 0;
  const std::string Head = "GET " + Path +
                           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                           "Connection: close\r\n\r\n";
  std::string Raw;
  if (::send(Fd, Head.data(), Head.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(Head.size())) {
    char Buf[65536];
    for (;;) {
      const ssize_t N = ::recv(Fd, Buf, sizeof Buf, 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Raw.append(Buf, static_cast<std::size_t>(N));
    }
  }
  ::close(Fd);
  // The daemon closes after a "Connection: close" response, so the body is
  // whole exactly when it matches Content-Length.
  const std::size_t HeadEnd = Raw.find("\r\n\r\n");
  const std::size_t Length = Raw.find("Content-Length: ");
  if (Raw.compare(0, 9, "HTTP/1.1 ") != 0 || HeadEnd == std::string::npos ||
      Length == std::string::npos || Length > HeadEnd)
    return 0;
  Body = Raw.substr(HeadEnd + 4);
  if (Body.size() != std::strtoull(Raw.c_str() + Length + 16, nullptr, 10))
    return 0;
  return std::atoi(Raw.c_str() + 9);
}

double pdgcbench::statCounter(const std::string &Metrics,
                              const std::string &Key) {
  const std::string Needle = "pdgc_stat_total{stat=\"" + Key + "\"} ";
  const std::size_t At = Metrics.find(Needle);
  return At == std::string::npos
             ? 0
             : std::strtod(Metrics.c_str() + At + Needle.size(), nullptr);
}

std::vector<FlightRow> pdgcbench::parseFlightRows(const std::string &Json) {
  // Records are flat objects whose strings are all JSON-escaped, so an
  // unescaped `{"id":` starts a record and nothing else does; the fields
  // read here all come before the free-text "detail".
  static const std::string Start = "{\"id\":";
  std::vector<FlightRow> Rows;
  for (std::size_t At = Json.find(Start); At != std::string::npos;) {
    const std::size_t Next = Json.find(Start, At + 1);
    const std::string Rec = Json.substr(
        At, Next == std::string::npos ? std::string::npos : Next - At);
    auto Field = [&](const char *Key) {
      const std::string Needle = std::string("\"") + Key + "\":";
      const std::size_t P = Rec.find(Needle);
      return P == std::string::npos ? P : P + Needle.size();
    };
    auto Num = [&](const char *Key) {
      const std::size_t P = Field(Key);
      return P == std::string::npos ? 0.0
                                    : std::strtod(Rec.c_str() + P, nullptr);
    };
    auto Str = [&](const char *Key) {
      const std::size_t P = Field(Key);
      if (P == std::string::npos || P >= Rec.size() || Rec[P] != '"')
        return std::string();
      return Rec.substr(P + 1, Rec.find('"', P + 1) - P - 1);
    };
    FlightRow Row;
    Row.Id = Num("id");
    Row.Kind = Str("kind");
    const std::string Peer = Str("peer");
    const std::size_t Colon = Peer.rfind(':');
    if (Colon != std::string::npos)
      Row.PeerPort = static_cast<unsigned>(std::atoi(Peer.c_str() + Colon + 1));
    Row.BytesIn = Num("bytes-in");
    Row.BytesOut = Num("bytes-out");
    Row.QueueUs = Num("queue-us");
    Row.WallUs = Num("wall-us");
    Rows.push_back(std::move(Row));
    At = Next;
  }
  return Rows;
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::~Daemon() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
  }
  stopReader();
}

bool Daemon::start(const std::string &Binary,
                   const std::vector<std::string> &Args, std::string &Error) {
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Binary.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Child = -1;
  const int Rc = ::posix_spawn(&Child, Binary.c_str(), &Actions, nullptr,
                               Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  if (Rc != 0) {
    ::close(Pipe[0]);
    Error = "spawn " + Binary + ": " + std::strerror(Rc);
    return false;
  }
  Pid = Child;
  OutFd = Pipe[0];
  Reader = std::thread([this] { readLoop(); });

  const Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
  {
    std::unique_lock<std::mutex> Lock(Mu);
    while (Port == 0 && !ReaderDone && Clock::now() < Deadline)
      LineCv.wait_until(Lock, Deadline);
    if (Port == 0) {
      Error = "pdgc-serve printed no 'listening on port' line";
      return false;
    }
  }
  while (Clock::now() < Deadline) {
    std::string Body;
    if (httpGet(Port, "/readyz", Body) == 200)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Error = "GET /readyz never answered 200";
  return false;
}

void Daemon::readLoop() {
  char Buf[4096];
  for (;;) {
    pollfd P{OutFd, POLLIN, 0};
    const int Ready = ::poll(&P, 1, 50);
    if (Ready < 0 && errno != EINTR)
      break;
    if (Ready <= 0) {
      // Forked workers inherit the pipe and may hold it open after the
      // daemon exits, so a stop request ends the loop at the first lull.
      if (StopReading)
        break;
      continue;
    }
    const ssize_t N = ::read(OutFd, Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    std::lock_guard<std::mutex> Lock(Mu);
    Partial.append(Buf, static_cast<std::size_t>(N));
    for (std::size_t Nl; (Nl = Partial.find('\n')) != std::string::npos;) {
      std::string Line = Partial.substr(0, Nl);
      Partial.erase(0, Nl + 1);
      const std::size_t At = Line.find("listening on port ");
      if (Port == 0 && At != std::string::npos)
        Port = static_cast<std::uint16_t>(std::atoi(Line.c_str() + At + 18));
      Lines.push_back(std::move(Line));
    }
    LineCv.notify_all();
  }
  std::lock_guard<std::mutex> Lock(Mu);
  ReaderDone = true;
  LineCv.notify_all();
}

void Daemon::stopReader() {
  StopReading = true;
  if (Reader.joinable())
    Reader.join();
  if (OutFd >= 0) {
    ::close(OutFd);
    OutFd = -1;
  }
}

bool Daemon::stop(std::string &Error) {
  if (Pid <= 0)
    return true;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  pid_t Done = 0;
  const Clock::time_point Deadline = Clock::now() + std::chrono::seconds(60);
  while ((Done = ::waitpid(Pid, &Status, WNOHANG)) == 0 &&
         Clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  if (Done != Pid) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Error = "pdgc-serve did not exit within 60 s of SIGTERM";
  }
  Pid = -1;
  stopReader();
  if (!Error.empty())
    return false;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Error = WIFEXITED(Status)
                ? "pdgc-serve exited with status " +
                      std::to_string(WEXITSTATUS(Status))
                : "pdgc-serve died of signal " +
                      std::to_string(WTERMSIG(Status));
    return false;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::string &Line : Lines)
    if (Line.find("drained within budget") != std::string::npos)
      return true;
  Error = "pdgc-serve reported no drain within budget";
  return false;
}

//===----------------------------------------------------------------------===//
// Connection
//===----------------------------------------------------------------------===//

bool Connection::open(std::uint16_t Port) {
  close();
  Fd = connectLoopback(Port, 120);
  if (Fd < 0)
    return false;
  sockaddr_in Local{};
  socklen_t Len = sizeof Local;
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Local), &Len) == 0)
    LocalPort = ntohs(Local.sin_port);
  return true;
}

void Connection::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Connection::call(const server::Request &Req, server::Response &Out,
                      Timing &T) {
  T.Start = Clock::now();
  const std::string Payload = server::serializeRequest(Req);
  T.Serialized = Clock::now();
  T.BytesOut = Payload.size();
  std::string Reply;
  const bool Exchanged =
      Fd >= 0 && server::writeFrame(Fd, Payload) &&
      server::readFrame(Fd, Reply, MaxReplyBytes) == server::FrameResult::Ok;
  T.Received = Clock::now();
  std::string Error;
  const bool Parsed = Exchanged && server::parseResponse(Reply, Out, Error);
  T.Parsed = Clock::now();
  if (!Parsed)
    close();
  return Parsed;
}
