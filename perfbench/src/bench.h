// Shared pieces of the layered benchmark: run options, the report that
// becomes the final JSON line, exact sample percentiles, and the span
// recorder used by traced runs.
//
// Spans are recorded only by the benchmark's own code, around each call
// it makes into a layer of the program (src/core, src/parallel,
// src/fleet, src/serve). They live in memory until the run ends; with
// tracing off no span is recorded and no clock is read for one.

#ifndef UMICRO_PERFBENCH_BENCH_H_
#define UMICRO_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test scale: small input pools and warm-up prefixes.
  bool tiny = false;
  /// Traced runs write their spans here when nonempty.
  std::string trace_out;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a run prints as its last line, plus the correctness tally.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Sample counts behind each timing (printed before the result).
  std::map<std::string, std::uint64_t> samples;

  /// Counts one checked operation; a false `ok` is a failed operation
  /// and makes the run incorrect. `what` is printed to stderr.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `failures` failed.
  void Count(std::uint64_t n, std::uint64_t failures,
             const std::string& what);
};

/// Exact q-quantile (0..1) of `values` with linear interpolation
/// between order statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Median of `values`.
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Latency samples, each tagged with the second of the run it ended in.
class Samples {
 public:
  void Add(double value, std::uint32_t second) {
    values_.push_back(value);
    seconds_.push_back(second);
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    seconds_.insert(seconds_.end(), other.seconds_.begin(),
                    other.seconds_.end());
  }
  std::size_t size() const { return values_.size(); }

  double Median() const { return perfbench::Median(values_); }

  /// The q-quantile of each second of the run, median over the seconds.
  /// A tail quantile is set by rare events, and on a shared host some of
  /// those are the host's: a burst of preemption in one second moves the
  /// whole-run p99 but only that second's.
  double SecondlyQuantile(double q) const;

 private:
  std::vector<double> values_;
  std::vector<std::uint32_t> seconds_;
};

/// VmRSS of this process in MiB (0 when /proc is unavailable).
double ResidentMiB();

/// One recorded span. `parent` indexes the same thread's log (-1 = root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Spans of one thread. Owned by a Tracer; only its thread writes it.
class SpanLog {
 public:
  SpanLog(std::string thread_name, Clock::time_point epoch)
      : thread_name_(std::move(thread_name)), epoch_(epoch) {}

  /// Opens a span nested in the innermost open span of this thread.
  std::size_t Open(const char* name);
  /// Closes the span `Open` returned.
  void Close(std::size_t index);

  const std::string& thread_name() const { return thread_name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t NowNs() const;

  std::string thread_name_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Per-name totals over every thread's spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  /// Span time minus the time its child spans cover.
  double self_s = 0.0;
};

/// Hands out per-thread span logs; disabled tracers hand out nullptr.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A log for the calling thread (nullptr when tracing is off). The
  /// log stays valid for the tracer's lifetime.
  SpanLog* NewLog(const std::string& thread_name);

  bool enabled() const { return enabled_; }

  /// Totals keyed by span name.
  std::map<std::string, SpanTotals> Totals() const;

  /// Spans recorded across all logs.
  std::uint64_t SpanCount() const;

  /// Writes every span as JSON lines; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Runs one workload and fills its report. Unknown names return false.
bool RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // UMICRO_PERFBENCH_BENCH_H_
