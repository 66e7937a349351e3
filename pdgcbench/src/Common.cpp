//===- pdgcbench/src/Common.cpp - Benchmark plumbing ----------------------===//
//
// Part of the PDGC project.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <sys/resource.h>

using namespace pdgcbench;

double pdgcbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  const double Pos = P / 100.0 * static_cast<double>(Values.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(Pos);
  const std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] +
         (Values[Hi] - Values[Lo]) * (Pos - static_cast<double>(Lo));
}

void SpanLog::add(const char *Name, Clock::time_point Start,
                  Clock::time_point End, std::uint64_t Id,
                  std::uint64_t Parent, unsigned Lane) {
  const Span S{Name,     microsBetween(Origin, Start),
               microsBetween(Start, End), Id, Parent, Lane};
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(S);
}

std::vector<double> SpanLog::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Out.push_back(S.DurUs);
  return Out;
}

double SpanLog::totalUs(const std::string &Name) const {
  double Sum = 0;
  for (double D : durations(Name))
    Sum += D;
  return Sum;
}

void SpanLog::appendChromeEvents(std::string &Out, unsigned Pid) const {
  std::lock_guard<std::mutex> Lock(Mu);
  char Buf[256];
  for (const Span &S : Spans) {
    std::snprintf(Buf, sizeof Buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}},\n",
                  S.Name, S.StartUs, S.DurUs, Pid, S.Lane,
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent));
    Out += Buf;
  }
}

double pdgcbench::selfPeakRssMb() {
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // Linux: KiB.
}

double pdgcbench::procPeakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return -1;
}

namespace {

/// State letter and parent of process \p Pid from /proc; false when gone.
bool readStat(const std::string &Pid, char &State, int &Parent) {
  std::ifstream In("/proc/" + Pid + "/stat");
  std::string Stat;
  if (!std::getline(In, Stat))
    return false;
  // "pid (comm) state ppid ...": comm may hold spaces and parentheses.
  const std::size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return false;
  std::istringstream Rest(Stat.substr(Close + 1));
  return static_cast<bool>(Rest >> State >> Parent);
}

} // namespace

std::vector<int> pdgcbench::childPids(int Pid) {
  std::vector<int> Children;
  DIR *Proc = ::opendir("/proc");
  if (!Proc)
    return Children;
  while (const dirent *E = ::readdir(Proc)) {
    char *End = nullptr;
    const long Candidate = std::strtol(E->d_name, &End, 10);
    char State = 0;
    int Parent = 0;
    if (*End == '\0' && Candidate > 0 && readStat(E->d_name, State, Parent) &&
        Parent == Pid && State != 'Z')
      Children.push_back(static_cast<int>(Candidate));
  }
  ::closedir(Proc);
  return Children;
}

bool pdgcbench::processAlive(int Pid) {
  char State = 0;
  int Parent = 0;
  return readStat(std::to_string(Pid), State, Parent) && State != 'Z';
}

std::string pdgcbench::formatNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof Buf, "%.0f", V);
  else
    std::snprintf(Buf, sizeof Buf, "%.12g", V);
  return Buf;
}

std::string pdgcbench::resultLine(bool Correct, std::uint64_t Attempted,
                                  std::uint64_t Failed,
                                  const std::vector<Metric> &Metrics) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (std::size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Metrics[I].Name +
           "\": {\"value\": " + formatNumber(Metrics[I].Value) +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  return Out + "}}";
}
