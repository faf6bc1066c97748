// The four workloads of the layered benchmark.
//
// Every workload has a writer that feeds generated points into one
// ingest layer and readers that query the published snapshots through
// the serve layer, so every end-to-end metric is defined on every
// workload. Which layer each workload loads, and why, is in README.md.
//
// Input is generated before any timer starts. A run replays its input
// pool in laps: at the end of the pool every timestamp moves forward by
// the pool length, so the stream clock stays monotone.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "eval/purity.h"
#include "fleet/engine_fleet.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "perfbench/src/bench.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "stream/dataset.h"
#include "synth/workloads.h"
#include "util/random.h"

namespace perfbench {
namespace {

using umicro::core::ClusteringEngine;
using umicro::core::HorizonClustering;
using umicro::core::MicroCluster;
using umicro::obs::MetricSnapshot;
using umicro::serve::QueryBroker;
using umicro::serve::QueryRequest;
using umicro::serve::QueryResponse;
using umicro::stream::Dataset;
using umicro::stream::UncertainPoint;

/// Points per ProcessBatch call.
constexpr std::size_t kBatch = 64;
/// Noise level of every workload (the paper's eta).
constexpr double kEta = 0.5;
/// Query rates of the open-loop readers: a share of each workload's
/// closed-loop query capacity, measured on the quiesced program by the
/// traced run (serve.capacity_qps, one broker worker; README.md, "Query
/// load"). On the ingest-only workloads the reader exists so that the
/// query metrics have a value, and offers a fortieth of capacity; on
/// serve-forest, where reads run beside writes on purpose, two fifths.
constexpr double kIngestOnlyQueryShare = 0.025;
constexpr double kServeQueryShare = 0.4;
constexpr double kSynDriftQueryRate = kIngestOnlyQueryShare * 8100.0;
constexpr double kServeQueryRate = kServeQueryShare * 5100.0;
constexpr double kShardedQueryRate = kIngestOnlyQueryShare * 5300.0;
constexpr double kFleetQueryRate = kIngestOnlyQueryShare * 9200.0;
/// Length of the traced run's capacity probe, as a share of the run.
constexpr double kCapacityShare = 0.1;
/// serve-forest's open-loop ingest rate, points/s (BENCHMARK.json
/// records it in the workload's "why").
constexpr double kServeRate = 100000.0;
/// Horizons of the kClusterRecent queries, in stream time units
/// (points), spread across the pyramid's orders.
const std::vector<double> kHorizons = {1000, 4000, 16000, 64000, 256000};
/// Points per input segment (see MakeStream).
constexpr std::size_t kSegment = 4096;
/// Labels of segment i are the generator's labels plus i * kLabelStride,
/// so each segment's classes are classes of their own.
constexpr int kLabelStride = 1000;
/// The warm-up measures purity after every this many points.
constexpr std::size_t kPurityEvery = 8192;
/// Snapshot cadence of the single-engine workloads (the CLI default).
constexpr std::size_t kSnapshotEvery = 4096;
/// Macro-clusters per kClusterRecent query.
constexpr std::size_t kMacroK = 5;
/// fleet-zipf: pre-created tenants and the Zipf exponent of arrivals.
constexpr std::size_t kTenants = 1000;
constexpr double kZipfExponent = 1.1;
/// The fleet's readers query the hottest tenant.
constexpr std::uint64_t kQueriedTenant = 0;
/// Ingest calls per fleet "call": enough routed tenant batches per call
/// that the time blocked on the worker queue averages out.
constexpr std::size_t kFleetCall = 512;
/// Purity on the fleet averages tenants with at least this many points.
constexpr std::uint64_t kPurityMinPoints = 1000;

/// Sizes that scale with --tiny.
struct Scale {
  std::size_t warmup;
  std::size_t setup_reps;
};

Scale ScaleFor(const Options& options, std::size_t warmup) {
  if (options.tiny) return {2048, 2};
  return {warmup, 7};
}

/// Points in the input pool: 64 segments on SynDrift and the sharded
/// Network; half that on Forest and on the fleet, whose resident state
/// already takes most of its memory.
std::size_t PoolSize(const Options& options) {
  if (options.tiny) return 8192;
  return options.workload == "ingest-syndrift" ||
                 options.workload == "sharded-network"
             ? 262144
             : 131072;
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return 1e6 * SecondsBetween(a, b);
}

double Millis(Clock::time_point a, Clock::time_point b) {
  return 1e3 * SecondsBetween(a, b);
}

/// Whole seconds from `start` to `at` (the window a sample falls in).
std::uint32_t Second(Clock::time_point start, Clock::time_point at) {
  return static_cast<std::uint32_t>(std::max(0.0, SecondsBetween(start, at)));
}

/// Waits until `due`: sleeps to shortly before it, then spins, so an
/// open-loop batch starts on time rather than whenever the scheduler
/// wakes the thread. A late wake-up is left out of the lag (RunWriter),
/// but the calls it holds back then run back to back on warm caches and
/// read faster than calls on schedule. With 200 us of spin the wake-up
/// overshot at busy times on the reference host by a median 12-19 us;
/// with 400 us it is on time at the median. Spinning the whole period
/// made the call time itself spread more.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(400);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// The generated stream, replayed in laps.
class Pool {
 public:
  explicit Pool(Dataset dataset) : data_(std::move(dataset)) {
    lap_ = data_[data_.size() - 1].timestamp - data_[0].timestamp + 1.0;
  }

  /// Index of the next `n` contiguous points (`n` <= size()).
  std::size_t Take(std::size_t n) {
    if (cursor_ + n > data_.size()) {
      for (std::size_t i = 0; i < data_.size(); ++i) {
        data_.at(i).timestamp += lap_;
      }
      shift_ += lap_;
      cursor_ = 0;
    }
    const std::size_t start = cursor_;
    cursor_ += n;
    return start;
  }

  std::span<const UncertainPoint> Slice(std::size_t start,
                                        std::size_t n) const {
    return {data_.points().data() + start, n};
  }

  /// Back to the first point with the original timestamps.
  void Reset() {
    if (shift_ != 0.0) {
      for (std::size_t i = 0; i < data_.size(); ++i) {
        data_.at(i).timestamp -= shift_;
      }
    }
    shift_ = 0.0;
    cursor_ = 0;
  }

  std::size_t size() const { return data_.size(); }
  std::size_t dimensions() const { return data_.dimensions(); }
  const UncertainPoint& operator[](std::size_t i) const { return data_[i]; }

 private:
  Dataset data_;
  double lap_ = 0.0;
  double shift_ = 0.0;
  std::size_t cursor_ = 0;
};

/// When each stream timestamp was handed to the program: one entry per
/// ingest call (its newest timestamp, the call's start) or, on the fleet,
/// per point of the queried tenant. Written by the writer only; read
/// after the run, when the readers turn an answer's published stream time
/// into a result age.
class IngestLog {
 public:
  void Record(double timestamp, Clock::time_point at) {
    entries_.emplace_back(timestamp, at);
  }

  /// When the point stamped `timestamp` was handed in: the first entry at
  /// or after it. Timestamps grow along the run, so that entry holds the
  /// point. nullopt when it was ingested before the run (in the warm-up).
  std::optional<Clock::time_point> Find(double timestamp) const {
    if (entries_.empty() || timestamp < entries_.front().first) {
      return std::nullopt;
    }
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), timestamp,
        [](const auto& entry, double t) { return entry.first < t; });
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::vector<std::pair<double, Clock::time_point>> entries_;
};

/// A publication's sequence number and the stream time of its newest
/// point (the time of its current snapshot).
struct Publication {
  std::uint64_t seq = 0;
  double stream_time = 0.0;
};

Publication Published(const umicro::serve::SnapshotReadReplica& replica) {
  const auto state = replica.Acquire();
  return {state->publish_seq,
          state->current != nullptr ? state->current->time : 0.0};
}

/// The query mix, in cycles of eight: six horizon clusterings across the
/// pyramid, one nearest-cluster and one anomaly probe drawn from the
/// stream. Horizon queries are the costly kind; at three quarters of the
/// mix both the median and the p99 fall inside their population rather
/// than on the edge between the two kinds.
constexpr std::size_t kMixCycle = 8;

struct QueryMix {
  std::vector<std::vector<double>> probes;
  std::uint64_t tenant = 0;

  QueryRequest Make(std::size_t i) const {
    QueryRequest request;
    request.tenant = tenant;
    switch (i % kMixCycle) {
      case 3:
        request.kind = QueryRequest::Kind::kNearest;
        request.values = probes[(i / kMixCycle) % probes.size()];
        break;
      case 7:
        request.kind = QueryRequest::Kind::kAnomaly;
        request.values = probes[(i / kMixCycle + 1) % probes.size()];
        break;
      default:
        request.kind = QueryRequest::Kind::kClusterRecent;
        request.horizon = kHorizons[i % kHorizons.size()];
        request.k = kMacroK;
        break;
    }
    return request;
  }
};

QueryMix MakeMix(const Pool& pool, std::uint64_t tenant) {
  QueryMix mix;
  mix.tenant = tenant;
  const std::size_t step = std::max<std::size_t>(1, pool.size() / 1024);
  for (std::size_t i = 0; i < pool.size(); i += step) {
    mix.probes.push_back(pool[i].values);
  }
  return mix;
}

/// What a reader records about its queries.
struct QueryStats {
  Samples latency_ms;
  /// Published stream time of each answer and when the answer returned;
  /// ResultAges turns them into ages once the writer's log is complete.
  std::vector<std::pair<double, Clock::time_point>> published;
  /// Answers whose publication the reader could not name (a publication
  /// landed while the query ran) or that had no publication yet.
  std::uint64_t unnamed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Clock::time_point last_done{};

  /// `before` and `after` are the replica's publication just before the
  /// query was sent and just after it returned; the answer was computed
  /// on one of them unless a publication landed in between.
  void Record(const QueryResponse& response, Clock::time_point start,
              Clock::time_point done, Clock::time_point run_start,
              const Publication& before, const Publication& after) {
    ++attempted;
    last_done = std::max(last_done, done);
    if (!response.ok) ++failed;
    latency_ms.Add(Millis(start, done), Second(run_start, done));
    if (response.publish_seq != 0 && response.publish_seq == before.seq) {
      published.emplace_back(before.stream_time, done);
    } else if (response.publish_seq != 0 &&
               response.publish_seq == after.seq) {
      published.emplace_back(after.stream_time, done);
    } else {
      ++unnamed;
    }
  }
};

/// Result ages (ms): from when the newest point of an answer's
/// publication was handed in to when the answer returned. Answers on a
/// publication from before the run are left out and counted.
std::vector<double> ResultAges(const QueryStats& queries, const IngestLog& log,
                               std::uint64_t* unmatched) {
  std::vector<double> ages;
  for (const auto& [stream_time, done] : queries.published) {
    const std::optional<Clock::time_point> ingested = log.Find(stream_time);
    if (ingested.has_value()) {
      ages.push_back(Millis(*ingested, done));
    } else {
      ++*unmatched;
    }
  }
  return ages;
}

struct IngestStats {
  Samples call_us;
  Samples lag_ms;
  std::vector<double> gen_late_ms;
  /// Ingest rate within each whole second of the run: points of the calls
  /// that returned in that second after its first one, over the time from
  /// the first to the last of them.
  std::vector<double> rate_per_second;
  std::uint64_t points = 0;
  double wall_s = 0.0;
  double flush_s = 0.0;
};

/// Calls `ingest(first, n, at)` with `n` = `call_points` back to back for
/// `seconds`, then `flush()`. With `rate` > 0 the writer is open-loop
/// instead: a call is due every n / rate seconds and its lag is measured
/// from when it was due. `at` is when the call started.
///
/// The lag is the program's: a call queued when due, starting once the
/// program has returned from the previous one, and taking the time the
/// call took. How late the writer's own thread woke is left out (it is
/// `gen_late_ms`); time spent behind an earlier call that overran its
/// slot is kept. On a closed loop a call is due when the previous one
/// returned, so its lag is its call time.
template <typename Ingest, typename Flush>
IngestStats RunWriter(Pool& pool, std::size_t call_points, double seconds,
                      double rate,
                      Ingest&& ingest, Flush&& flush, SpanLog* spans,
                      const char* ingest_span, const char* flush_span) {
  IngestStats stats;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto period = std::chrono::duration<double>(
      rate > 0.0 ? static_cast<double>(call_points) / rate : 0.0);
  {
    ScopedSpan window(spans, "load.window");
    Clock::time_point due = start;
    std::uint32_t current_second = 0;
    std::size_t calls_in_second = 0;
    Clock::time_point first_in_second = start;
    Clock::time_point last_in_second = start;
    // When the previous call would have returned had every call started
    // on time or right behind its predecessor.
    Clock::time_point finished = start;
    for (std::size_t i = 0;; ++i) {
      if (rate > 0.0) {
        due = start + std::chrono::duration_cast<Clock::duration>(period * i);
        if (due >= end) break;
        WaitUntil(due);
        stats.gen_late_ms.push_back(Millis(due, Clock::now()));
      } else if (Clock::now() >= end) {
        break;
      }
      const std::size_t first = pool.Take(call_points);
      const Clock::time_point call = Clock::now();
      {
        ScopedSpan span(spans, ingest_span);
        ingest(first, call_points, call);
      }
      const Clock::time_point done = Clock::now();
      stats.call_us.Add(Micros(call, done), Second(start, done));
      finished = std::max(due, finished) + (done - call);
      stats.lag_ms.Add(Millis(due, finished), Second(start, done));
      stats.points += call_points;
      const std::uint32_t second = Second(start, done);
      if (second != current_second) {
        if (calls_in_second > 1) {
          stats.rate_per_second.push_back(
              static_cast<double>((calls_in_second - 1) * call_points) /
              SecondsBetween(first_in_second, last_in_second));
        }
        current_second = second;
        calls_in_second = 0;
        first_in_second = done;
      }
      ++calls_in_second;
      last_in_second = done;
      if (rate <= 0.0) due = done;
    }
    if (stats.rate_per_second.empty() && calls_in_second > 1) {
      // A run shorter than two seconds: rate over the calls it made.
      stats.rate_per_second.push_back(
          static_cast<double>((calls_in_second - 1) * call_points) /
          SecondsBetween(first_in_second, last_in_second));
    }
    const Clock::time_point flush_start = Clock::now();
    {
      ScopedSpan span(spans, flush_span);
      flush();
    }
    const Clock::time_point flushed = Clock::now();
    stats.flush_s = SecondsBetween(flush_start, flushed);
    stats.wall_s = SecondsBetween(start, flushed);
  }
  return stats;
}

/// Open-loop reader: `rate` queries per second until `end`, sent in
/// bursts of one mix cycle (kMixCycle queries back to back) so that
/// most queries do not start on a cold thread. A query goes through the
/// broker's worker pool and is timed from Submit until its answer is
/// ready. The reader's own wake-up delay is not the program's, so it is
/// left out. `replica` is the one the queries are answered from.
void Reader(QueryBroker& broker,
            const umicro::serve::SnapshotReadReplica& replica,
            const QueryMix& mix, double rate, Clock::time_point start,
            Clock::time_point end, QueryStats* out, SpanLog* spans) {
  const auto period =
      std::chrono::duration<double>(static_cast<double>(kMixCycle) / rate);
  std::size_t i = 0;
  for (std::size_t burst = 0;; ++burst) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * burst);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    for (std::size_t n = 0; n < kMixCycle; ++n, ++i) {
      const Publication before = Published(replica);
      const Clock::time_point sent = Clock::now();
      QueryResponse response;
      {
        ScopedSpan span(spans, "serve.submit");
        response = broker.Submit(mix.Make(i)).get();
      }
      const Clock::time_point done = Clock::now();
      out->Record(response, sent, done, start, before, Published(replica));
    }
  }
}

/// Closed-loop query capacity of the quiesced program: the mix sent
/// through `broker` one query at a time for `seconds`, in queries/s.
double QueryCapacity(QueryBroker& broker, const QueryMix& mix,
                     double seconds) {
  std::size_t answered = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsBetween(start, Clock::now()) < seconds) {
    broker.Submit(mix.Make(answered)).get();
    ++answered;
  }
  return static_cast<double>(answered) / SecondsBetween(start, Clock::now());
}

/// Registry contents by name.
std::map<std::string, MetricSnapshot> Collect(
    const umicro::obs::MetricsRegistry& registry) {
  std::map<std::string, MetricSnapshot> out;
  for (MetricSnapshot& metric : registry.Collect()) {
    out[metric.name] = std::move(metric);
  }
  return out;
}

/// The run window's part of a registry: counters, histogram counts and
/// histogram sums minus their values at `before` (the end of set-up).
/// Gauges and histogram quantiles are left as they stand at the end.
std::map<std::string, MetricSnapshot> WindowOf(
    const std::map<std::string, MetricSnapshot>& before,
    std::map<std::string, MetricSnapshot> after) {
  for (auto& [name, metric] : after) {
    auto it = before.find(name);
    if (it == before.end()) continue;
    if (metric.type == MetricSnapshot::Type::kCounter) {
      metric.value -= it->second.value;
    } else if (metric.type == MetricSnapshot::Type::kHistogram) {
      metric.histogram.count -= it->second.histogram.count;
      metric.histogram.sum -= it->second.histogram.sum;
    }
  }
  return after;
}

double Value(const std::map<std::string, MetricSnapshot>& metrics,
             const std::string& name) {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second.value;
}

umicro::obs::HistogramSummary Hist(
    const std::map<std::string, MetricSnapshot>& metrics,
    const std::string& name) {
  auto it = metrics.find(name);
  return it == metrics.end() ? umicro::obs::HistogramSummary{}
                             : it->second.histogram;
}

/// Checks that the micro-clusters hold every processed point and have
/// finite centroids. Without decay, weight is only lost by evicting a
/// cluster, which held at least one point, so the total equals the points
/// processed when nothing was evicted and is at most points - evicted
/// otherwise.
void CheckClusters(const std::vector<MicroCluster>& clusters,
                   std::uint64_t points, std::uint64_t evicted,
                   const std::string& what, Report* report) {
  double weight = 0.0;
  std::uint64_t non_finite = 0;
  for (const MicroCluster& cluster : clusters) {
    weight += cluster.ecf.weight();
    for (double c : cluster.ecf.Centroid()) {
      if (!std::isfinite(c)) ++non_finite;
    }
  }
  report->Count(clusters.size(), non_finite > 0 ? 1 : 0,
                what + ": finite centroids");
  const double expected = static_cast<double>(points);
  report->Check(evicted == 0
                    ? weight == expected
                    : weight <= expected - static_cast<double>(evicted),
                what + ": cluster weight accounts for every point");
}

/// Query metrics; `start` is when the readers began.
void AddQueryMetrics(const QueryStats& queries, const IngestLog& log,
                     Clock::time_point start, Report* report) {
  report->Count(queries.attempted, queries.failed, "queries answered ok");
  report->end_to_end["query_p50_ms"] = {queries.latency_ms.Median(), "ms"};
  report->per_layer["tail.query_p99_ms"] = {
      queries.latency_ms.SecondlyQuantile(0.99), "ms"};
  report->end_to_end["qps"] = {
      static_cast<double>(queries.latency_ms.size()) /
          SecondsBetween(start, queries.last_done),
      "1/s"};
  std::uint64_t unmatched = queries.unnamed;
  const std::vector<double> ages = ResultAges(queries, log, &unmatched);
  report->end_to_end["result_age_p50_ms"] = {Median(ages), "ms"};
  report->samples["queries"] = queries.latency_ms.size();
  report->samples["result_ages"] = ages.size();
  report->samples["result_ages_left_out"] = unmatched;
}

void AddIngestMetrics(const IngestStats& ingest, Report* report) {
  report->end_to_end["ingest_pps"] = {Median(ingest.rate_per_second),
                                      "1/s"};
  report->end_to_end["ingest_call_p50_us"] = {ingest.call_us.Median(), "us"};
  report->per_layer["tail.ingest_call_p99_us"] = {
      ingest.call_us.SecondlyQuantile(0.99), "us"};
  report->end_to_end["ingest_lag_p50_ms"] = {ingest.lag_ms.Median(), "ms"};
  report->per_layer["tail.ingest_lag_p99_ms"] = {
      ingest.lag_ms.SecondlyQuantile(0.99), "ms"};
  report->samples["ingest_calls"] = ingest.call_us.size();
  report->per_layer["driver.gen_late_p99_ms"].value =
      Quantile(ingest.gen_late_ms, 0.99);
  report->per_layer["load.ingest_calls"].value =
      static_cast<double>(ingest.call_us.size());
}

/// Runs `build` `reps` times and reports the median time as setup_s.
/// Each build must leave the same deterministic prefix state, so the
/// purity it measures must repeat exactly.
template <typename Rig, typename Build, typename Purity>
std::unique_ptr<Rig> TimedSetup(std::size_t reps, Build&& build,
                                Purity&& purity, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> purities;
  std::unique_ptr<Rig> rig;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = build();
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    purities.push_back(purity(*rig));
  }
  report->end_to_end["setup_s"] = {Median(setup_s), "s"};
  report->samples["setup_reps"] = reps;
  bool repeatable = true;
  for (double p : purities) repeatable = repeatable && p == purities[0];
  report->Check(repeatable, "warm-up prefix is deterministic (purity)");
  report->end_to_end["purity"] = {purities[0], "fraction"};
  return rig;
}

/// Per-layer defaults: every name BENCHMARK.json lists, zero where a
/// layer is not on the workload's path.
void ZeroLayerMetrics(Report* report) {
  const std::vector<std::pair<const char*, const char*>> names = {
      {"core.ingest_busy_s", "s"},       {"core.merge_s", "s"},
      {"core.merge_share", "fraction"},  {"core.merges", "count"},
      {"core.absorb_ratio", "fraction"}, {"core.snapshot_s", "s"},
      {"core.snapshots", "count"},       {"core.snapshot_bytes", "bytes"},
      {"index.prune_ratio", "fraction"}, {"index.candidates_per_query", "count"},
      {"index.rebuilds", "count"},       {"kernels.tier", "tier"},
      {"kernels.scans", "count"},        {"parallel.merge_s", "s"},
      {"parallel.merges", "count"},      {"parallel.reconcile_merges", "count"},
      {"parallel.enqueue_wait_s", "s"},  {"parallel.shard_busy_share", "fraction"},
      {"parallel.speedup_vs_seq", "x"},  {"fleet.batch_s", "s"},
      {"fleet.batch_p99_us", "us"},      {"fleet.flush_s", "s"},
      {"fleet.ingest_skew", "ratio"},    {"fleet.tenants", "count"},
      {"serve.execute_p50_us", "us"},    {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_depth_peak", "count"}, {"serve.capacity_qps", "1/s"},
      {"driver.gen_late_p99_ms", "ms"},
      {"load.self_s", "s"},            {"load.ingest_calls", "count"},
      {"load.queries", "count"},       {"mem.rss_growth_mb", "MiB"},
      {"trace.spans", "count"},          {"trace.overhead_pps_share", "fraction"},
      {"trace.overhead_call_p50_share", "fraction"},
  };
  for (const auto& [name, unit] : names) {
    report->per_layer[name] = {0.0, unit};
  }
}

/// Layer metrics read from an engine registry (sequential or sharded).
void AddEngineLayerMetrics(
    const std::map<std::string, MetricSnapshot>& m, Report* report) {
  auto& out = report->per_layer;
  const auto batch = Hist(m, "umicro.batch_micros");
  const auto closest = Hist(m, "umicro.closest_pair_micros");
  out["core.merge_s"].value = closest.sum / 1e6;
  out["core.merge_share"].value =
      batch.sum > 0.0 ? closest.sum / batch.sum : 0.0;
  out["core.merges"].value = Value(m, "umicro.merged");
  const double points = Value(m, "umicro.points");
  out["core.absorb_ratio"].value =
      points > 0.0 ? Value(m, "umicro.absorbed") / points : 0.0;
  out["core.snapshot_s"].value = Hist(m, "snapshot.take_micros").sum / 1e6;
  out["core.snapshots"].value = Value(m, "snapshot.taken");
  out["core.snapshot_bytes"].value = Value(m, "snapshot.bytes");
  out["index.prune_ratio"].value = Value(m, "umicro.index.prune_ratio");
  const double queries = Value(m, "umicro.index.queries");
  out["index.candidates_per_query"].value =
      queries > 0.0 ? Value(m, "umicro.index.candidates") / queries : 0.0;
  out["index.rebuilds"].value = Value(m, "umicro.index.rebuilds");
  out["kernels.scans"].value = Value(m, "umicro.kernel_scans");
  out["parallel.merge_s"].value = Hist(m, "parallel.merge_micros").sum / 1e6;
  out["parallel.merges"].value = Value(m, "parallel.merges");
  out["parallel.reconcile_merges"].value =
      Value(m, "parallel.reconcile_merges");
  out["parallel.enqueue_wait_s"].value =
      Hist(m, "parallel.queue.enqueue_micros").sum / 1e6;
}

/// Serve-layer metrics: broker execution time from the registry, the
/// rest of the query time is queueing.
void AddServeLayerMetrics(const std::map<std::string, MetricSnapshot>& m,
                          const QueryStats& queries, Report* report) {
  const double execute_us = Hist(m, "serve.query_micros").p50;
  report->per_layer["serve.execute_p50_us"].value = execute_us;
  report->per_layer["serve.queue_wait_p50_us"].value =
      std::max(0.0, 1e3 * queries.latency_ms.Median() - execute_us);
  report->per_layer["serve.queue_depth_peak"].value =
      Value(m, "serve.queue_depth_peak");
  report->per_layer["load.queries"].value =
      static_cast<double>(queries.latency_ms.size());
}

void AddTraceTotals(const Tracer& tracer, const char* ingest_span,
                    Report* report) {
  if (!tracer.enabled()) return;
  const auto totals = tracer.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  report->per_layer["core.ingest_busy_s"].value = total(ingest_span).total_s;
  report->per_layer["load.self_s"].value = total("load.window").self_s;
  report->per_layer["trace.spans"].value =
      static_cast<double>(tracer.SpanCount());
}

// ---------------------------------------------------------------------
// Single-engine workloads: ingest-syndrift, serve-forest, sharded-network.

struct EngineRig {
  std::unique_ptr<umicro::serve::SnapshotReadReplica> replica;
  std::unique_ptr<ClusteringEngine> engine;
  std::unique_ptr<QueryBroker> broker;
  /// Exactly one of these is the concrete engine.
  umicro::core::UMicroEngine* sequential = nullptr;
  umicro::parallel::ParallelUMicroEngine* sharded = nullptr;
  /// Cluster purity averaged over the warm-up prefix.
  double purity = 0.0;
};

struct EngineWorkload {
  const char* name;
  enum class Data { kSynDrift, kForest, kNetwork } data;
  bool distance_similarity = false;
  std::size_t shards = 0;
  std::size_t warmup = 0;
  /// Open-loop ingest rate (points/s); 0 = closed loop.
  double rate = 0.0;
  /// The reader's query rate (queries/s).
  double query_rate = 0.0;
};

Dataset MakeSegment(EngineWorkload::Data data, std::size_t points,
                    std::uint64_t seed) {
  switch (data) {
    case EngineWorkload::Data::kSynDrift:
      return umicro::synth::MakeSynDriftWorkload(points, kEta, seed);
    case EngineWorkload::Data::kForest:
      return umicro::synth::MakeForestWorkload(points, kEta, seed);
    case EngineWorkload::Data::kNetwork:
      break;
  }
  return umicro::synth::MakeNetworkWorkload(points, kEta, seed);
}

/// The input stream. SynDrift and Network are built from consecutive
/// segments of kSegment points, each from its own generator seeded from
/// `seed`: one generator's seed fixes the cluster geometry, and with it
/// how often the maintenance merge runs, for the whole run; segments
/// average that over many geometries, which keeps the figures of
/// different seeds comparable. Each segment's classes get labels of their
/// own, since the same generator label in two segments names two
/// unrelated clusters. Forest stays one generator: its class shapes do
/// not depend on the seed, so segments would only split each class into
/// labels the clustering cannot tell apart.
Dataset MakeStream(EngineWorkload::Data data, std::size_t points,
                   std::uint64_t seed) {
  if (data == EngineWorkload::Data::kForest) {
    return MakeSegment(data, points, seed);
  }
  Dataset stream;
  umicro::util::Rng seeds(seed);
  for (std::size_t made = 0; made < points; made += kSegment) {
    const Dataset part = MakeSegment(
        data, std::min(kSegment, points - made), seeds.NextUint64());
    const int offset = static_cast<int>(made / kSegment) * kLabelStride;
    for (UncertainPoint point : part.points()) {
      if (point.label != umicro::stream::kUnlabeled) point.label += offset;
      stream.Add(std::move(point));
    }
  }
  stream.AssignSequentialTimestamps();
  return stream;
}

umicro::core::UMicroOptions AlgorithmOptions(const EngineWorkload& w) {
  umicro::core::UMicroOptions options;  // q = 100, counting similarity
  if (w.distance_similarity) {
    options.similarity = umicro::core::SimilarityMode::kExpectedDistance;
    options.assign_index = umicro::index::IndexKind::kAuto;
  }
  return options;
}

std::unique_ptr<EngineRig> BuildEngineRig(const EngineWorkload& w,
                                          Pool& pool, std::size_t warmup) {
  auto rig = std::make_unique<EngineRig>();
  umicro::core::SnapshotPolicy policy;
  if (w.shards > 0) {
    umicro::parallel::ParallelEngineOptions options;
    options.sharded.umicro = AlgorithmOptions(w);
    options.sharded.num_shards = w.shards;
    options.sharded.merge_every = 8192;
    options.snapshot.snapshot_every = kSnapshotEvery;
    policy = options.snapshot;
    auto engine = std::make_unique<umicro::parallel::ParallelUMicroEngine>(
        pool.dimensions(), options);
    rig->sharded = engine.get();
    rig->engine = std::move(engine);
  } else {
    umicro::core::EngineOptions options;
    options.umicro = AlgorithmOptions(w);
    options.snapshot.snapshot_every = kSnapshotEvery;
    policy = options.snapshot;
    auto engine = std::make_unique<umicro::core::UMicroEngine>(
        pool.dimensions(), options);
    rig->sequential = engine.get();
    rig->engine = std::move(engine);
  }
  rig->replica =
      std::make_unique<umicro::serve::SnapshotReadReplica>(policy, 0.0);
  rig->engine->AttachSnapshotSink(rig->replica.get());
  umicro::serve::QueryBrokerOptions broker_options;
  broker_options.num_threads = 1;
  rig->broker = std::make_unique<QueryBroker>(
      rig->replica.get(), broker_options, &rig->engine->metrics());
  // Purity is measured along the prefix, as the paper's purity-vs-
  // progression figures do, and averaged: the clusters at one instant
  // reflect mostly the latest segments.
  pool.Reset();
  double purity_sum = 0.0;
  std::size_t purity_samples = 0;
  for (std::size_t done = kBatch; done <= warmup; done += kBatch) {
    rig->engine->ProcessBatch(pool.Slice(pool.Take(kBatch), kBatch));
    if (done % kPurityEvery == 0 || done + kBatch > warmup) {
      purity_sum += umicro::eval::ClusterPurity(
          rig->engine->ClusterLabelHistograms());
      ++purity_samples;
    }
  }
  rig->engine->Flush();
  rig->purity = purity_sum / static_cast<double>(purity_samples);
  return rig;
}

/// True when two horizon answers are bit-identical.
bool SameClustering(const std::optional<HorizonClustering>& a,
                    const std::optional<HorizonClustering>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  const auto& ma = a->macro;
  const auto& mb = b->macro;
  if (a->window.size() != b->window.size() ||
      ma.centroids.size() != mb.centroids.size() ||
      ma.assignment != mb.assignment ||
      std::memcmp(&a->realized_horizon, &b->realized_horizon,
                  sizeof(double)) != 0 ||
      std::memcmp(&ma.weighted_ssq, &mb.weighted_ssq, sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t i = 0; i < ma.centroids.size(); ++i) {
    if (ma.centroids[i].size() != mb.centroids[i].size() ||
        std::memcmp(ma.centroids[i].data(), mb.centroids[i].data(),
                    ma.centroids[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void RunEngineWorkload(const EngineWorkload& w, const Options& options,
                       Pool& pool, double seconds, Tracer& tracer,
                       Report* report) {
  const Scale scale = ScaleFor(options, w.warmup);
  const double rss_before = ResidentMiB();
  std::unique_ptr<EngineRig> rig = TimedSetup<EngineRig>(
      scale.setup_reps,
      [&] { return BuildEngineRig(w, pool, scale.warmup); },
      [](EngineRig& r) { return r.purity; },
      report);
  const auto setup_metrics = Collect(rig->engine->metrics());

  const QueryMix mix = MakeMix(pool, 0);
  IngestLog log;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  QueryStats queries;
  std::thread reader(Reader, std::ref(*rig->broker), std::cref(*rig->replica),
                     std::cref(mix), w.query_rate, start, end, &queries,
                     tracer.NewLog("reader"));
  const char* ingest_span =
      w.shards > 0 ? "parallel.process_batch" : "core.process_batch";
  const IngestStats ingest = RunWriter(
      pool, kBatch, seconds, w.rate,
      [&](std::size_t first, std::size_t n, Clock::time_point at) {
        log.Record(pool[first + n - 1].timestamp, at);
        rig->engine->ProcessBatch(pool.Slice(first, n));
      },
      [&] { rig->engine->Flush(); }, tracer.NewLog("writer"), ingest_span,
      w.shards > 0 ? "parallel.flush" : "core.flush");
  reader.join();

  // ---- correctness gate ----
  const std::uint64_t fed = ingest.points + scale.warmup;
  const auto m = Collect(rig->engine->metrics());
  const std::uint64_t evicted =
      static_cast<std::uint64_t>(Value(m, "umicro.evicted"));
  report->Check(rig->engine->points_processed() == fed,
                "points in == points processed");
  if (rig->sharded != nullptr) {
    const double dropped = Value(m, "parallel.points_dropped");
    report->Count(fed, static_cast<std::uint64_t>(dropped),
                  "no points dropped under kBlock");
    double shard_points = 0.0;
    for (std::size_t s = 0; s < w.shards; ++s) {
      shard_points +=
          Value(m, "parallel.shard" + std::to_string(s) + ".points");
    }
    report->Check(shard_points + dropped == static_cast<double>(fed),
                  "shard points + dropped == points in");
    CheckClusters(rig->sharded->sharded().GlobalClusters(), fed, evicted,
                  "merged view", report);
  } else {
    CheckClusters(rig->sequential->online().clusters(), fed, evicted,
                  "engine", report);
  }
  // Quiesced equality: after the final Flush the broker must answer a
  // horizon query bit-identically to the engine itself.
  umicro::core::MacroClusteringOptions macro;
  macro.k = kMacroK;
  for (double horizon : kHorizons) {
    QueryRequest request;
    request.kind = QueryRequest::Kind::kClusterRecent;
    request.horizon = horizon;
    request.k = kMacroK;
    const QueryResponse served = rig->broker->Execute(request);
    report->Check(
        served.ok && SameClustering(served.clustering,
                                    rig->engine->ClusterRecent(horizon, macro)),
        "broker answer == engine.ClusterRecent at horizon " +
            std::to_string(horizon));
  }

  // Layer metrics cover the run window only, not the set-up's warm-up.
  const auto window = WindowOf(setup_metrics, m);
  ZeroLayerMetrics(report);
  AddIngestMetrics(ingest, report);
  AddQueryMetrics(queries, log, start, report);
  AddEngineLayerMetrics(window, report);
  AddServeLayerMetrics(window, queries, report);
  AddTraceTotals(tracer, ingest_span, report);
  report->per_layer["kernels.tier"].value =
      static_cast<double>(umicro::kernels::DetectBackend());
  report->per_layer["mem.rss_growth_mb"].value = ResidentMiB() - rss_before;
  if (rig->sharded != nullptr) {
    report->per_layer["parallel.shard_busy_share"].value =
        Hist(window, "umicro.batch_micros").sum / 1e6 /
        (static_cast<double>(w.shards) * ingest.wall_s);
  }
  if (tracer.enabled()) {
    report->per_layer["serve.capacity_qps"].value =
        QueryCapacity(*rig->broker, mix, kCapacityShare * seconds);
  }
}

/// Closed-loop sequential ingest of the same stream, for the sharded
/// workload's speedup.
double SequentialPps(const EngineWorkload& w, Pool& pool, double seconds) {
  umicro::core::EngineOptions options;
  options.umicro = AlgorithmOptions(w);
  options.snapshot = umicro::parallel::ParallelEngineOptions{}.snapshot;
  options.snapshot.snapshot_every = kSnapshotEvery;
  umicro::core::UMicroEngine engine(pool.dimensions(), options);
  pool.Reset();
  std::uint64_t points = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsBetween(start, Clock::now()) < seconds) {
    engine.ProcessBatch(pool.Slice(pool.Take(kBatch), kBatch));
    points += kBatch;
  }
  return static_cast<double>(points) / SecondsBetween(start, Clock::now());
}

// ---------------------------------------------------------------------
// fleet-zipf.

struct FleetRig {
  std::unique_ptr<umicro::fleet::EngineFleet> fleet;
  std::unique_ptr<QueryBroker> broker;
};

/// Tenant of each pool point: Zipf(kZipfExponent) over kTenants ranks,
/// rank r -> tenant r - 1 (tenant 0 is the hottest).
std::vector<std::uint32_t> ZipfTenants(std::size_t n, std::uint64_t seed) {
  std::vector<double> cdf(kTenants);
  double total = 0.0;
  for (std::size_t r = 0; r < kTenants; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  umicro::util::Rng rng(seed ^ 0x7a1f5eedULL);
  std::vector<std::uint32_t> tenants(n);
  for (std::uint32_t& tenant : tenants) {
    const double u = rng.NextDouble() * total;
    tenant = static_cast<std::uint32_t>(
        std::min<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
            kTenants - 1));
  }
  return tenants;
}

umicro::core::EngineConfig FleetConfig() {
  umicro::core::EngineConfig config;  // tenant batch 64, delta store
  config.fleet.tenants = kTenants;
  config.fleet.workers = 1;
  return config;
}

std::unique_ptr<FleetRig> BuildFleetRig(
    Pool& pool, const std::vector<std::uint32_t>& tenants,
    std::size_t warmup) {
  auto rig = std::make_unique<FleetRig>();
  rig->fleet = std::make_unique<umicro::fleet::EngineFleet>(
      pool.dimensions(), FleetConfig());
  rig->fleet->EnsureServing(kQueriedTenant);
  umicro::serve::QueryBrokerOptions broker_options;
  broker_options.num_threads = 1;
  rig->broker = std::make_unique<QueryBroker>(
      rig->fleet->Resolver(), broker_options, &rig->fleet->metrics());
  pool.Reset();
  for (std::size_t i = 0; i < warmup; ++i) {
    rig->fleet->Ingest(tenants[i], pool[i]);
  }
  pool.Take(warmup);
  rig->fleet->Flush();
  return rig;
}

/// Mean purity over tenants holding at least kPurityMinPoints points.
double FleetPurity(umicro::fleet::EngineFleet& fleet) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::uint64_t id : fleet.TenantIds()) {
    if (fleet.TenantPoints(id) < kPurityMinPoints) continue;
    sum += umicro::eval::ClusterPurity(
        fleet.EnsureTenant(id).core().online().ClusterLabelHistograms());
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

/// Merges and micro-cluster creations summed over the tenants.
struct TenantTotals {
  std::uint64_t merges = 0;
  std::uint64_t created = 0;
};

TenantTotals SumTenants(umicro::fleet::EngineFleet& fleet) {
  TenantTotals totals;
  for (std::uint64_t id : fleet.TenantIds()) {
    const umicro::core::UMicro& online = fleet.EnsureTenant(id).core().online();
    totals.merges += online.clusters_merged();
    totals.created += online.clusters_created();
  }
  return totals;
}

void RunFleetWorkload(const Options& options, Pool& pool,
                      const std::vector<std::uint32_t>& tenants,
                      double seconds, Tracer& tracer, Report* report) {
  const Scale scale = ScaleFor(options, 65536);
  const double rss_before = ResidentMiB();
  std::unique_ptr<FleetRig> rig = TimedSetup<FleetRig>(
      scale.setup_reps,
      [&] { return BuildFleetRig(pool, tenants, scale.warmup); },
      [](FleetRig& r) { return FleetPurity(*r.fleet); }, report);

  umicro::fleet::EngineFleet& fleet = *rig->fleet;
  const auto setup_metrics = Collect(fleet.metrics());
  const TenantTotals setup_totals = SumTenants(fleet);
  auto replica = fleet.Replica(kQueriedTenant);
  const QueryMix mix = MakeMix(pool, kQueriedTenant);
  IngestLog log;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  QueryStats queries;
  std::thread reader(Reader, std::ref(*rig->broker), std::cref(*replica),
                     std::cref(mix), kFleetQueryRate, start, end, &queries,
                     tracer.NewLog("reader"));
  const IngestStats ingest = RunWriter(
      pool, kFleetCall, seconds, 0.0,
      [&](std::size_t first, std::size_t n, Clock::time_point) {
        for (std::size_t i = first; i < first + n; ++i) {
          // Only the queried tenant's publications are aged, so only its
          // points are logged, each when it is handed in.
          if (tenants[i] == kQueriedTenant) {
            log.Record(pool[i].timestamp, Clock::now());
          }
          fleet.Ingest(tenants[i], pool[i]);
        }
      },
      [&] { fleet.Flush(); }, tracer.NewLog("writer"), "fleet.ingest",
      "fleet.flush");
  reader.join();

  // ---- correctness gate ----
  const std::uint64_t fed = ingest.points + scale.warmup;
  const umicro::fleet::FleetStats stats = fleet.Stats();
  report->Check(stats.points_ingested == fed, "fleet points in == fed");
  std::uint64_t drained = 0;
  for (std::uint64_t p : stats.worker_points) drained += p;
  report->Check(drained == fed, "worker points == points in");
  std::uint64_t tenant_points = 0;
  double snapshot_bytes = 0.0;
  for (std::uint64_t id : fleet.TenantIds()) {
    const std::uint64_t points = fleet.TenantPoints(id);
    tenant_points += points;
    const umicro::core::EngineCore& core = fleet.EnsureTenant(id).core();
    const umicro::core::UMicro& online = core.online();
    snapshot_bytes += static_cast<double>(core.store().TierStats().approx_bytes);
    CheckClusters(online.clusters(), points, online.clusters_evicted(),
                  "tenant " + std::to_string(id), report);
  }
  report->Check(tenant_points == fed, "sum of TenantPoints == points in");

  ZeroLayerMetrics(report);
  AddIngestMetrics(ingest, report);
  AddQueryMetrics(queries, log, start, report);

  // Layer metrics cover the run window only, not the set-up's warm-up.
  const auto window = WindowOf(setup_metrics, Collect(fleet.metrics()));
  const TenantTotals totals = SumTenants(fleet);
  AddServeLayerMetrics(window, queries, report);
  AddTraceTotals(tracer, "fleet.ingest", report);
  auto& out = report->per_layer;
  out["core.merges"].value =
      static_cast<double>(totals.merges - setup_totals.merges);
  out["core.absorb_ratio"].value =
      1.0 - static_cast<double>(totals.created - setup_totals.created) /
                static_cast<double>(ingest.points);
  out["core.snapshot_bytes"].value = snapshot_bytes;
  out["kernels.tier"].value =
      static_cast<double>(umicro::kernels::DetectBackend());
  const auto batch = Hist(window, "fleet.tenant_batch_micros");
  out["fleet.batch_s"].value = batch.sum / 1e6;
  out["fleet.batch_p99_us"].value = batch.p99;
  out["fleet.flush_s"].value = ingest.flush_s;
  out["fleet.ingest_skew"].value = stats.ingest_skew;
  out["fleet.tenants"].value = static_cast<double>(stats.tenants);
  out["mem.rss_growth_mb"].value = ResidentMiB() - rss_before;
  if (tracer.enabled()) {
    out["serve.capacity_qps"].value =
        QueryCapacity(*rig->broker, mix, kCapacityShare * seconds);
  }
}

// ---------------------------------------------------------------------

const EngineWorkload kIngestSynDrift{"ingest-syndrift",
                                     EngineWorkload::Data::kSynDrift,
                                     false, 0, 32768, 0.0,
                                     kSynDriftQueryRate};
const EngineWorkload kServeForest{"serve-forest",
                                  EngineWorkload::Data::kForest,
                                  true, 0, 196608, kServeRate,
                                  kServeQueryRate};
const EngineWorkload kShardedNetwork{"sharded-network",
                                     EngineWorkload::Data::kNetwork,
                                     false, 2, 65536, 0.0,
                                     kShardedQueryRate};

/// The single-engine workload called `name`; nullptr for the fleet or
/// an unknown name.
const EngineWorkload* FindEngineWorkload(const std::string& name) {
  for (const EngineWorkload* w :
       {&kIngestSynDrift, &kServeForest, &kShardedNetwork}) {
    if (name == w->name) return w;
  }
  return nullptr;
}

/// One measured run of `options.workload` for `seconds` with `tracer`.
void RunOnce(const Options& options, Pool& pool,
             const std::vector<std::uint32_t>& tenants, double seconds,
             Tracer& tracer, Report* report) {
  if (const EngineWorkload* w = FindEngineWorkload(options.workload)) {
    RunEngineWorkload(*w, options, pool, seconds, tracer, report);
  } else {
    RunFleetWorkload(options, pool, tenants, seconds, tracer, report);
  }
}

}  // namespace

bool RunWorkload(const Options& options, Report* report) {
  const EngineWorkload* engine_workload =
      FindEngineWorkload(options.workload);
  const bool fleet = options.workload == "fleet-zipf";
  if (engine_workload == nullptr && !fleet) return false;
  // ---- input, generated before any timer starts ----
  const EngineWorkload::Data data =
      fleet ? EngineWorkload::Data::kNetwork : engine_workload->data;
  Pool pool(MakeStream(data, PoolSize(options), options.seed));
  std::vector<std::uint32_t> tenants;
  if (fleet) tenants = ZipfTenants(pool.size(), options.seed);

  if (!options.trace) {
    Tracer off(false);
    RunOnce(options, pool, tenants, options.seconds, off, report);
    return true;
  }

  // Traced run: an untraced half and a traced half from fresh set-ups;
  // their difference is the tracing overhead. The sharded workload also
  // runs the sequential engine on the same stream for its speedup.
  const bool sharded = options.workload == "sharded-network";
  const double half = options.seconds * (sharded ? 0.35 : 0.5);
  Report plain;
  Tracer off(false);
  RunOnce(options, pool, tenants, half, off, &plain);
  Tracer on(true);
  RunOnce(options, pool, tenants, half, on, report);
  report->attempted += plain.attempted;
  report->failed += plain.failed;
  report->correct = report->correct && plain.correct;
  // Memory is measured on the first half: the second reuses its pages.
  report->per_layer["mem.rss_growth_mb"] = plain.per_layer["mem.rss_growth_mb"];
  const double plain_pps = plain.end_to_end["ingest_pps"].value;
  const double plain_p50 = plain.end_to_end["ingest_call_p50_us"].value;
  report->per_layer["trace.overhead_pps_share"].value =
      plain_pps > 0.0
          ? (plain_pps - report->end_to_end["ingest_pps"].value) / plain_pps
          : 0.0;
  report->per_layer["trace.overhead_call_p50_share"].value =
      plain_p50 > 0.0
          ? (report->end_to_end["ingest_call_p50_us"].value - plain_p50) /
                plain_p50
          : 0.0;
  if (sharded) {
    const double seq_pps =
        SequentialPps(kShardedNetwork, pool, options.seconds * 0.3);
    report->per_layer["parallel.speedup_vs_seq"].value =
        seq_pps > 0.0 ? plain_pps / seq_pps : 0.0;
  }
  if (!options.trace_out.empty() && !on.Write(options.trace_out)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 options.trace_out.c_str());
  }
  return true;
}

}  // namespace perfbench
