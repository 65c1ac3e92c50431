//===- Spans.h - Benchmark-side spans and sample statistics ----*- C++ -*-===//
//
// Part of the liftcpp repo benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny span recorder owned by the benchmark, independent of the
/// library's own obs tracer: the benchmark wraps each public call it
/// makes (lowerStencil, compileProgram, getOrCompile, ...) in a Span,
/// so per-layer costs are measured from the outside, with the same
/// boundaries in every version of the library. Each record keeps its
/// name, start, end, parent and an operation id. Records stay in
/// memory until the process writes them out at exit.
///
/// Disabled (the untraced run) a Span is one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_PERFBENCH_SPANS_H
#define LIFT_PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::uint64_t nowNs();

struct SpanRecord {
  std::string Name;
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
  std::int64_t Parent = -1; ///< index of the enclosing span, -1 at top
  std::uint64_t Op = 0;     ///< operation id (candidate, kernel, sweep)
  unsigned Thread = 0;      ///< small per-process thread number
  double durMs() const { return double(EndNs - StartNs) * 1e-6; }
};

class SpanLog {
public:
  static SpanLog &global();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  std::size_t open(const char *Name, std::uint64_t Op);
  void close(std::size_t Index);

  /// Sum of durations and number of the spans called \p Name.
  double totalMs(const std::string &Name) const;
  std::uint64_t count(const std::string &Name) const;

  /// Wall-clock milliseconds inside [FromNs, ToNs) covered by at least
  /// one span whose name does not start with "bench." (the layer
  /// spans, as opposed to the benchmark's own grouping spans).
  double layerUnionMs(std::uint64_t FromNs, std::uint64_t ToNs) const;

  /// Writes all records as a JSON array of objects.
  bool writeJson(const std::string &Path) const;

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex M;
  std::vector<SpanRecord> Recs; ///< guarded by M
};

/// RAII span; a no-op while the log is disabled.
class Span {
public:
  explicit Span(const char *Name, std::uint64_t Op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  std::size_t Index = 0;
  bool Active = false;
};

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);

/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);

double geomean(const std::vector<double> &V);

/// The highest percentile with at least ten samples beyond it, as
/// "p<pct>=<value>", or "-" below eleven samples.
std::string tailPercentile(std::vector<double> V);

} // namespace perfbench

#endif // LIFT_PERFBENCH_SPANS_H
