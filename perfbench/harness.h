// Shared plumbing for the benchmark driver: wall-clock timing, sample sets
// with percentiles, the correctness tally, counter deltas read from the
// library's metrics registry, an in-memory span recorder for traced runs,
// and the final report.
#ifndef AUXVIEW_PERFBENCH_HARNESS_H_
#define AUXVIEW_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsSince(Clock::time_point start) {
  return 1e3 * SecondsSince(start);
}

/// One statement kind's timings (or any other per-operation quantity).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Linear-interpolated quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// True when at least ten samples lie beyond quantile q, the rule for
  /// reporting a percentile at all.
  bool Supports(double q) const {
    return static_cast<double>(values_.size()) * (1 - q) >= 10;
  }

 private:
  std::vector<double> values_;
};

/// Every operation and check counts as attempted; every mismatch or non-OK
/// status counts as failed. The first few failures are printed to stderr.
class Oracle {
 public:
  void Attempt() { ++attempted_; }
  /// Counts one attempted check; returns `ok`.
  bool Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Point-in-time copy of the library's process-wide metrics; deltas of two
/// captures attribute counter traffic to the work done between them.
class Counters {
 public:
  static Counters Capture();
  int64_t Counter(const std::string& name) const {
    return snap_.CounterOr(name);
  }
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix`.
  int64_t CounterSum(const std::string& prefix,
                     const std::string& suffix) const;
  /// Sum of the named histogram (0 when absent).
  double HistSum(const std::string& name) const;
  /// Sum of every histogram whose name starts with `prefix` and ends with
  /// `suffix`.
  double HistSumMatching(const std::string& prefix,
                         const std::string& suffix) const;
  /// Observation count of the named histogram (0 when absent).
  int64_t HistCount(const std::string& name) const;

 private:
  auxview::obs::MetricsSnapshot snap_;
};

/// Spans recorded by the benchmark around its calls into each layer. The
/// recorder keeps them in memory; WriteJson dumps them once at exit. Spans
/// of one operation share a request id; `parent` is the enclosing span's
/// index (-1 for a root).
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t request = 0;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
  };

  explicit Tracer(bool enabled);

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int Begin(const std::string& name, int64_t request);
  void End(int index);
  /// Records an already-measured child of span `parent` (work timed inside
  /// the library, e.g. the maintenance histogram's delta), placed at the
  /// parent's start.
  void AddChild(int parent, const std::string& name, double duration_us);

  /// Self times, in ms, of every span named `name`: its duration minus the
  /// time its direct children cover.
  Samples SelfMs(const std::string& name) const;

  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span; a no-op when the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, int64_t request)
      : tracer_(tracer), index_(tracer->Begin(name, request)) {}
  ~SpanScope() { tracer_->End(index_); }
  int index() const { return index_; }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// The metrics one run reports, in emission order.
class Report {
 public:
  /// `samples` is the number of observations behind the value.
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  /// The median of `samples`, with their count.
  void AddMedian(const std::string& name, const Samples& samples,
                 const std::string& unit);
  /// Human-readable lines: name, value, unit, samples.
  void PrintLines() const;
  /// PrintLines, then the final JSON line the benchmark contract requires.
  void Print(const Oracle& oracle) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Recursively copies directory `from` to `to` (replacing `to`).
bool CopyDir(const std::string& from, const std::string& to);

}  // namespace perfbench

#endif  // AUXVIEW_PERFBENCH_HARNESS_H_
