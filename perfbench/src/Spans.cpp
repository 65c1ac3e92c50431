//===- Spans.cpp - Benchmark-side spans and sample statistics -------------===//
//
// Part of the liftcpp repo benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

std::atomic<unsigned> NextThread{0};
thread_local std::int64_t CurrentSpan = -1;
thread_local unsigned ThreadNo = NextThread.fetch_add(1);

} // namespace

std::uint64_t perfbench::nowNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

SpanLog &SpanLog::global() {
  static SpanLog L;
  return L;
}

std::size_t SpanLog::open(const char *Name, std::uint64_t Op) {
  SpanRecord R;
  R.Name = Name;
  R.Op = Op;
  R.Parent = CurrentSpan;
  R.Thread = ThreadNo;
  std::lock_guard<std::mutex> Lock(M);
  std::size_t Index = Recs.size();
  CurrentSpan = std::int64_t(Index);
  R.StartNs = nowNs();
  Recs.push_back(std::move(R));
  return Index;
}

void SpanLog::close(std::size_t Index) {
  std::uint64_t T = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Recs[Index].EndNs = T;
  CurrentSpan = Recs[Index].Parent;
}

double SpanLog::totalMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  double Sum = 0;
  for (const SpanRecord &R : Recs)
    if (R.Name == Name && R.EndNs >= R.StartNs)
      Sum += R.durMs();
  return Sum;
}

std::uint64_t SpanLog::count(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  std::uint64_t N = 0;
  for (const SpanRecord &R : Recs)
    N += R.Name == Name;
  return N;
}

double SpanLog::layerUnionMs(std::uint64_t FromNs, std::uint64_t ToNs) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Iv;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (const SpanRecord &R : Recs) {
      if (R.Name.rfind("bench.", 0) == 0 || R.EndNs < R.StartNs)
        continue;
      std::uint64_t S = std::max(R.StartNs, FromNs);
      std::uint64_t E = std::min(R.EndNs, ToNs);
      if (S < E)
        Iv.push_back({S, E});
    }
  }
  std::sort(Iv.begin(), Iv.end());
  std::uint64_t Covered = 0, CurS = 0, CurE = 0;
  bool Have = false;
  for (const auto &[S, E] : Iv) {
    if (Have && S <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Have)
      Covered += CurE - CurS;
    CurS = S;
    CurE = E;
    Have = true;
  }
  if (Have)
    Covered += CurE - CurS;
  return double(Covered) * 1e-6;
}

bool SpanLog::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<SpanRecord> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(M);
    Snapshot = Recs;
  }
  std::fprintf(F, "[\n");
  for (std::size_t I = 0; I != Snapshot.size(); ++I) {
    const SpanRecord &R = Snapshot[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"op\": %llu, "
                 "\"thread\": %u}%s\n",
                 I, R.Name.c_str(), (unsigned long long)R.StartNs,
                 (unsigned long long)R.EndNs, (long long)R.Parent,
                 (unsigned long long)R.Op, R.Thread,
                 I + 1 == Snapshot.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

Span::Span(const char *Name, std::uint64_t Op) {
  SpanLog &L = SpanLog::global();
  if (!L.enabled())
    return;
  Active = true;
  Index = L.open(Name, Op);
}

Span::~Span() {
  if (Active)
    SpanLog::global().close(Index);
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  std::size_t Lo = std::size_t(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - double(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

std::string perfbench::tailPercentile(std::vector<double> V) {
  if (V.size() < 11)
    return "-";
  std::sort(V.begin(), V.end());
  std::size_t K = V.size() - 11; // ten samples lie above V[K]
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "p%.0f=%.3f",
                100.0 * double(K + 1) / double(V.size()), V[K]);
  return Buf;
}
