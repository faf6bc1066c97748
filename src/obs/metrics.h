// umicro_obs: a low-overhead metrics surface for the clustering engines.
//
// The registry hands out three metric kinds:
//   Counter   -- monotonically increasing event tally (atomic, relaxed);
//   Gauge     -- last-written level (atomic double; SetMax for high-water
//                marks);
//   Histogram -- fixed-bucket value distribution with count/sum/min/max
//                and bucket-interpolated p50/p95/p99 quantiles.
//
// Everything is thread-safe: metric cells are plain atomics (one cache
// line's worth of relaxed operations per update, no locks on the hot
// path), and the registry mutex is only taken when a metric is first
// created or when the registry is collected for export. Handles returned
// by Get* are stable for the registry's lifetime, so call sites resolve
// their metrics once and keep the pointer.
//
// Metric names use dotted lowercase paths ("parallel.merge_micros"); the
// catalog of names emitted by the engines lives in docs/observability.md.

#ifndef UMICRO_OBS_METRICS_H_
#define UMICRO_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace umicro::obs {

/// Lock-free add for pre-C++20-atomic-float toolchains: CAS loop with
/// relaxed ordering (counters tolerate reordering; totals stay exact).
inline void AtomicAdd(std::atomic<double>& cell, double delta) {
  double current = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

/// Lock-free maximum update (high-water marks).
inline void AtomicMax(std::atomic<double>& cell, double value) {
  double current = cell.load(std::memory_order_relaxed);
  while (current < value &&
         !cell.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

/// Lock-free minimum update.
inline void AtomicMin(std::atomic<double>& cell, double value) {
  double current = cell.load(std::memory_order_relaxed);
  while (current > value &&
         !cell.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

/// Monotonic event counter.
class Counter {
 public:
  /// Adds `n` (default 1) to the tally.
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Current tally.
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level.
class Gauge {
 public:
  /// Overwrites the level.
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  /// Raises the level to `value` if it is higher (high-water tracking).
  void SetMax(double value) { AtomicMax(value_, value); }

  /// Adds `delta` to the level.
  void Add(double delta) { AtomicAdd(value_, delta); }

  /// Current level.
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time summary of one histogram (see Histogram::Summarize).
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper bounds of the
/// finite buckets, strictly increasing; one implicit overflow bucket
/// catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Folds one observation into the distribution.
  void Record(double value);

  /// Folds `times` identical observations of `value` in one update.
  void Record(double value, std::uint64_t times);

  /// Observations recorded so far.
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of all recorded values.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Smallest recorded value (0 before any record).
  double min() const;

  /// Largest recorded value (0 before any record).
  double max() const;

  /// Quantile estimate for q in [0, 1], linearly interpolated inside the
  /// bucket that holds the q-th observation; values in the overflow
  /// bucket report the observed maximum. 0 before any record.
  double Quantile(double q) const;

  /// count/sum/min/max/p50/p95/p99 in one consistent-enough pass (the
  /// histogram may keep moving underneath; each cell read is atomic).
  HistogramSummary Summarize() const;

  /// Bucket upper bounds (as configured).
  const std::vector<double>& bounds() const { return bounds_; }

  /// `count` strictly increasing bounds starting at `start`, each
  /// `factor` times the previous (start > 0, factor > 1).
  static std::vector<double> ExponentialBuckets(double start, double factor,
                                                std::size_t count);

  /// Default latency buckets in microseconds: 0.25us .. ~4.2s in
  /// 24 x2 steps -- wide enough for a sub-microsecond kernel and a
  /// multi-second global merge in one histogram.
  static std::vector<double> DefaultLatencyBucketsMicros();

 private:
  const std::vector<double> bounds_;
  /// bounds_.size() + 1 cells; the last is the overflow bucket.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// One exported metric (see MetricsRegistry::Collect).
struct MetricSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };

  std::string name;
  Type type = Type::kCounter;
  /// Counter tally or gauge level (unused for histograms).
  double value = 0.0;
  /// Histogram summary (zeroed for counters/gauges).
  HistogramSummary histogram;
};

/// Named metric store. Creation is idempotent: the first Get* for a name
/// creates the metric, later calls return the same object. A name is
/// bound to one kind forever; requesting it as another kind aborts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Counter registered under `name`.
  Counter& GetCounter(const std::string& name);

  /// Gauge registered under `name`.
  Gauge& GetGauge(const std::string& name);

  /// Histogram registered under `name`; `bounds` applies only on first
  /// creation (empty = DefaultLatencyBucketsMicros()).
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Point-in-time view of every metric, sorted by name.
  std::vector<MetricSnapshot> Collect() const;

  /// Counter cells as (name, value) pairs, sorted by name
  /// (checkpointing).
  std::vector<std::pair<std::string, double>> CounterCells() const;

  /// Gauge cells as (name, value) pairs, sorted by name (checkpointing).
  std::vector<std::pair<std::string, double>> GaugeCells() const;

  /// Restores checkpointed cells: each named counter is raised to at
  /// least the stored tally (counters are monotone, so cells that
  /// already moved past the checkpoint are left alone) and each gauge is
  /// set to the stored level. Missing cells are created. Histograms are
  /// not restorable and restart empty.
  void RestoreCells(
      const std::vector<std::pair<std::string, double>>& counters,
      const std::vector<std::pair<std::string, double>>& gauges);

  /// Number of registered metrics.
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace umicro::obs

#endif  // UMICRO_OBS_METRICS_H_
