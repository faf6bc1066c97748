#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace umicro::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  UMICRO_CHECK(!bounds_.empty());
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    UMICRO_CHECK(bounds_[i] > bounds_[i - 1]);
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double value) { Record(value, 1); }

void Histogram::Record(double value, std::uint64_t times) {
  if (times == 0) return;
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(),
                                                bounds_.end(), value) -
                               bounds_.begin());
  buckets_[bucket].fetch_add(times, std::memory_order_relaxed);
  count_.fetch_add(times, std::memory_order_relaxed);
  AtomicAdd(sum_, value * static_cast<double>(times));
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<double>::infinity() ? 0.0 : m;
}

double Histogram::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return m == -std::numeric_limits<double>::infinity() ? 0.0 : m;
}

double Histogram::Quantile(double q) const {
  UMICRO_CHECK(q >= 0.0 && q <= 1.0);
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // Rank of the target observation, 1-based, clamped into [1, total].
  const std::uint64_t rank = std::min<std::uint64_t>(
      total, std::max<std::uint64_t>(
                 1, static_cast<std::uint64_t>(q * static_cast<double>(total) +
                                               0.5)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    if (i == bounds_.size()) {
      // Overflow bucket: no upper bound to interpolate against; the
      // observed maximum is the least-wrong answer.
      return max();
    }
    const double lo = i == 0 ? std::min(min(), bounds_[0]) : bounds_[i - 1];
    const double hi = bounds_[i];
    const double fraction =
        static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
    // Interpolation works off bucket bounds; the observed extremes are
    // tighter, so clamp to them.
    return std::clamp(lo + (hi - lo) * fraction, min(), max());
  }
  return max();
}

HistogramSummary Histogram::Summarize() const {
  HistogramSummary summary;
  summary.count = count();
  summary.sum = sum();
  summary.min = min();
  summary.max = max();
  summary.p50 = Quantile(0.50);
  summary.p95 = Quantile(0.95);
  summary.p99 = Quantile(0.99);
  return summary;
}

std::vector<double> Histogram::ExponentialBuckets(double start, double factor,
                                                  std::size_t count) {
  UMICRO_CHECK(start > 0.0);
  UMICRO_CHECK(factor > 1.0);
  UMICRO_CHECK(count >= 1);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::DefaultLatencyBucketsMicros() {
  // 0.25us, 0.5us, 1us, ... ~4.2s: covers the expected-distance kernel
  // (sub-microsecond) through a full sharded drain+merge (seconds).
  return ExponentialBuckets(0.25, 2.0, 25);
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  UMICRO_CHECK_MSG(gauges_.find(name) == gauges_.end() &&
                       histograms_.find(name) == histograms_.end(),
                   "metric '%s' already registered with another type",
                   name.c_str());
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  UMICRO_CHECK_MSG(counters_.find(name) == counters_.end() &&
                       histograms_.find(name) == histograms_.end(),
                   "metric '%s' already registered with another type",
                   name.c_str());
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  UMICRO_CHECK_MSG(counters_.find(name) == counters_.end() &&
                       gauges_.find(name) == gauges_.end(),
                   "metric '%s' already registered with another type",
                   name.c_str());
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = Histogram::DefaultLatencyBucketsMicros();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

std::vector<MetricSnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> snapshots;
  snapshots.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot snapshot;
    snapshot.name = name;
    snapshot.type = MetricSnapshot::Type::kCounter;
    snapshot.value = static_cast<double>(counter->value());
    snapshots.push_back(std::move(snapshot));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot snapshot;
    snapshot.name = name;
    snapshot.type = MetricSnapshot::Type::kGauge;
    snapshot.value = gauge->value();
    snapshots.push_back(std::move(snapshot));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot snapshot;
    snapshot.name = name;
    snapshot.type = MetricSnapshot::Type::kHistogram;
    snapshot.histogram = histogram->Summarize();
    snapshots.push_back(std::move(snapshot));
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snapshots;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::CounterCells()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> cells;
  cells.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    cells.emplace_back(name, static_cast<double>(counter->value()));
  }
  return cells;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeCells()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> cells;
  cells.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    cells.emplace_back(name, gauge->value());
  }
  return cells;
}

void MetricsRegistry::RestoreCells(
    const std::vector<std::pair<std::string, double>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges) {
  for (const auto& [name, value] : counters) {
    Counter& cell = GetCounter(name);
    const auto target = static_cast<std::uint64_t>(value);
    const std::uint64_t current = cell.value();
    if (target > current) cell.Increment(target - current);
  }
  for (const auto& [name, value] : gauges) {
    GetGauge(name).Set(value);
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace umicro::obs
