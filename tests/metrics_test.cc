// Tests for the obs metrics primitives: counter/gauge/histogram
// semantics, quantile edge cases, registry identity, and concurrent
// updates (the TSan target).

#include "obs/metrics.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/scoped_timer.h"

namespace umicro::obs {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetOverwritesAndSetMaxKeepsHighWater) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(5.0);
  gauge.Set(3.0);
  EXPECT_EQ(gauge.value(), 3.0);
  gauge.SetMax(10.0);
  gauge.SetMax(7.0);  // lower: must not regress
  EXPECT_EQ(gauge.value(), 10.0);
  gauge.Add(-2.5);
  EXPECT_EQ(gauge.value(), 7.5);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram histogram({1.0, 2.0, 4.0});
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 0.0);
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(HistogramTest, CountSumMinMaxAreExact) {
  Histogram histogram(Histogram::ExponentialBuckets(1.0, 2.0, 10));
  const std::vector<double> values = {0.5, 3.0, 17.0, 100.0, 2.0};
  double sum = 0.0;
  for (double v : values) {
    histogram.Record(v);
    sum += v;
  }
  EXPECT_EQ(histogram.count(), values.size());
  EXPECT_DOUBLE_EQ(histogram.sum(), sum);
  EXPECT_EQ(histogram.min(), 0.5);
  EXPECT_EQ(histogram.max(), 100.0);
}

TEST(HistogramTest, RepeatedRecordEqualsSingleRecords) {
  const auto bounds = Histogram::ExponentialBuckets(1.0, 2.0, 10);
  Histogram once(bounds);
  Histogram each(bounds);
  once.Record(3.0, 4);
  once.Record(40.0, 0);  // zero observations: no effect
  for (int i = 0; i < 4; ++i) each.Record(3.0);
  EXPECT_EQ(once.count(), 4u);
  EXPECT_EQ(once.sum(), each.sum());
  EXPECT_EQ(once.min(), 3.0);
  EXPECT_EQ(once.max(), 3.0);
  EXPECT_EQ(once.Quantile(0.5), each.Quantile(0.5));
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Histogram histogram(Histogram::DefaultLatencyBucketsMicros());
  for (int i = 1; i <= 1000; ++i) histogram.Record(static_cast<double>(i));
  const double p50 = histogram.Quantile(0.50);
  const double p95 = histogram.Quantile(0.95);
  const double p99 = histogram.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Quantiles interpolate inside buckets but are clamped to the observed
  // range.
  EXPECT_GE(p50, histogram.min());
  EXPECT_LE(p99, histogram.max());
  // Bucket resolution is a factor of 2: the estimate may be off by one
  // bucket but not more.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1024.0);
}

TEST(HistogramTest, OverflowBucketReportsObservedMax) {
  Histogram histogram({1.0, 2.0});  // overflow catches everything > 2
  histogram.Record(50.0);
  histogram.Record(90.0);
  // Any rank landing in the overflow bucket has no upper bound to
  // interpolate against; the observed maximum is reported.
  EXPECT_EQ(histogram.Quantile(0.5), 90.0);
  EXPECT_EQ(histogram.Quantile(1.0), 90.0);
}

TEST(HistogramTest, QuantileExtremesMatchMinAndMaxRegion) {
  Histogram histogram({10.0, 20.0, 40.0});
  histogram.Record(5.0);
  histogram.Record(15.0);
  histogram.Record(35.0);
  // q=0 clamps to rank 1 (the first observation's bucket).
  EXPECT_LE(histogram.Quantile(0.0), 10.0);
  EXPECT_GE(histogram.Quantile(0.0), 5.0);
  // q=1 lands on the last observation's bucket.
  EXPECT_GE(histogram.Quantile(1.0), 20.0);
  EXPECT_LE(histogram.Quantile(1.0), 35.0);
}

TEST(HistogramTest, ExponentialBucketsAreStrictlyIncreasing) {
  const std::vector<double> bounds =
      Histogram::ExponentialBuckets(0.25, 2.0, 25);
  ASSERT_EQ(bounds.size(), 25u);
  EXPECT_EQ(bounds.front(), 0.25);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(ScopedTimerTest, RecordsOnDestruction) {
  Histogram histogram(Histogram::DefaultLatencyBucketsMicros());
  {
    const ScopedTimer timer(&histogram);
  }
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_GE(histogram.sum(), 0.0);
}

TEST(ScopedTimerTest, NullHistogramIsNoOp) {
  const ScopedTimer timer(nullptr);  // must not crash or read the clock
}

TEST(MetricsRegistryTest, GetIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("events");
  Counter& b = registry.GetCounter("events");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(registry.size(), 1u);
  registry.GetGauge("level");
  registry.GetHistogram("latency");
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, HistogramBoundsApplyOnFirstCreationOnly) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", {1.0, 2.0});
  Histogram& again = registry.GetHistogram("h", {99.0});
  EXPECT_EQ(&histogram, &again);
  ASSERT_EQ(again.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, CollectIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.count").Increment(3);
  registry.GetGauge("a.level").Set(1.5);
  registry.GetHistogram("c.latency").Record(10.0);
  const std::vector<MetricSnapshot> snapshots = registry.Collect();
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0].name, "a.level");
  EXPECT_EQ(snapshots[0].type, MetricSnapshot::Type::kGauge);
  EXPECT_EQ(snapshots[0].value, 1.5);
  EXPECT_EQ(snapshots[1].name, "b.count");
  EXPECT_EQ(snapshots[1].type, MetricSnapshot::Type::kCounter);
  EXPECT_EQ(snapshots[1].value, 3.0);
  EXPECT_EQ(snapshots[2].name, "c.latency");
  EXPECT_EQ(snapshots[2].type, MetricSnapshot::Type::kHistogram);
  EXPECT_EQ(snapshots[2].histogram.count, 1u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  // The TSan target: hammer one counter, one gauge, and one histogram
  // from several threads while a reader collects. Counter and histogram
  // totals must come out exact.
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("events");
  Gauge& high_water = registry.GetGauge("high_water");
  Histogram& histogram = registry.GetHistogram("values", {8.0, 64.0, 512.0});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        high_water.SetMax(static_cast<double>(t * kPerThread + i));
        histogram.Record(static_cast<double>(i % 1000));
      }
    });
  }
  // Concurrent reader: collection must be safe mid-flight.
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      const auto snapshots = registry.Collect();
      EXPECT_EQ(snapshots.size(), 3u);
    }
  });
  for (auto& worker : workers) worker.join();
  reader.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(high_water.value(),
            static_cast<double>(kThreads * kPerThread - 1));
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 999.0);
}

}  // namespace
}  // namespace umicro::obs
