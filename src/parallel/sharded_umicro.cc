#include "parallel/sharded_umicro.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "obs/scoped_timer.h"
#include "parallel/shard_merge.h"
#include "util/check.h"
#include "util/failpoints.h"

namespace umicro::parallel {

namespace {

/// FNV-1a over the coordinate bytes: a stable point->shard mapping.
std::uint64_t HashPointValues(const stream::UncertainPoint& point) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : point.values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ShardedUMicro::ShardedUMicro(std::size_t dimensions,
                             ShardedUMicroOptions options)
    : dimensions_(dimensions),
      options_(options),
      global_budget_(options.global_budget > 0
                         ? options.global_budget
                         : options.umicro.num_micro_clusters),
      points_ingested_metric_(
          &metrics_.GetCounter("parallel.points_ingested")),
      points_dropped_metric_(&metrics_.GetCounter("parallel.points_dropped")),
      merges_metric_(&metrics_.GetCounter("parallel.merges")),
      reconcile_metric_(&metrics_.GetCounter("parallel.reconcile_merges")),
      merge_micros_(&metrics_.GetHistogram("parallel.merge_micros")),
      global_clusters_metric_(&metrics_.GetGauge("parallel.global_clusters")),
      degrade_activations_metric_(
          &metrics_.GetCounter("parallel.degrade.activations")),
      points_shed_metric_(
          &metrics_.GetCounter("parallel.degrade.points_shed")),
      batches_shed_metric_(
          &metrics_.GetCounter("parallel.degrade.batches_shed")),
      degrade_active_gauge_(&metrics_.GetGauge("parallel.degrade.active")),
      worker_restarts_metric_(
          &metrics_.GetCounter("parallel.worker_restarts")),
      shed_rng_(options.degrade.seed),
      pool_({.workers = options.num_shards,
             .queue_capacity = options.queue_capacity,
             .policy = options.backpressure,
             .supervisor = options.supervisor,
             .restarts_metric = worker_restarts_metric_},
            [this](std::size_t index, Batch& batch) {
              ProcessShardBatch(index, batch);
            }) {
  // num_shards and queue_capacity are checked by the pool.
  UMICRO_CHECK(options_.producer_batch >= 1);
  shards_.reserve(options_.num_shards);
  pending_batches_.resize(options_.num_shards);
  // One shared enqueue-pressure histogram: only the coordinator pushes,
  // so shard attribution adds nothing the per-shard counters don't give.
  obs::Histogram& enqueue_micros =
      metrics_.GetHistogram("parallel.queue.enqueue_micros");
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(dimensions_, options_));
    pending_batches_[i].reserve(options_.producer_batch);
    Shard& shard = *shards_.back();
    const std::string prefix = "parallel.shard" + std::to_string(i) + ".";
    shard.points_processed = &metrics_.GetCounter(prefix + "points");
    shard.batches_processed = &metrics_.GetCounter(prefix + "batches");
    shard.points_dropped = &metrics_.GetCounter(prefix + "dropped");
    shard.clusters_at_merge = &metrics_.GetGauge(prefix + "clusters");
    QueueMetricsHooks hooks;
    hooks.enqueued = &metrics_.GetCounter(prefix + "queue_batches");
    hooks.high_water = &metrics_.GetGauge(prefix + "queue_high_water");
    hooks.enqueue_micros = &enqueue_micros;
    pool_.queue(i).SetMetricsHooks(hooks);
    // The shard algorithms share the pipeline registry: their "umicro."
    // cells aggregate across workers (atomics, so TSan stays clean).
    shard.algo.AttachMetrics(&metrics_);
  }
}

std::string ShardedUMicro::name() const {
  return "ShardedUMicro(" + std::to_string(options_.num_shards) + ")";
}

void ShardedUMicro::ProcessShardBatch(std::size_t index, Batch& batch) {
  Shard& shard = *shards_[index];
  {
    std::lock_guard<std::mutex> lock(shard.state_mu);
    // One amortized batch-kernel ingest per popped batch (the batch
    // vector is contiguous, so it views directly as a span).
    shard.algo.ProcessBatch(batch);
  }
  shard.points_processed->Increment(batch.size());
  shard.batches_processed->Increment();
  batch.clear();
}

bool ShardedUMicro::ShouldShedBatch(std::size_t index) {
  const DegradationOptions& degrade = options_.degrade;
  if (!degrade.enabled) return false;
  const double occupancy =
      static_cast<double>(pool_.queue(index).size()) /
      static_cast<double>(pool_.queue(index).capacity());
  if (occupancy >= degrade.occupancy_trigger) {
    ++pressured_streak_;
    calm_streak_ = 0;
  } else {
    ++calm_streak_;
    pressured_streak_ = 0;
  }
  if (!degraded_ && pressured_streak_ >= degrade.trigger_after) {
    degraded_ = true;
    degrade_activations_metric_->Increment();
    degrade_active_gauge_->Set(1.0);
  } else if (degraded_ && calm_streak_ >= degrade.recover_after) {
    degraded_ = false;
    degrade_active_gauge_->Set(0.0);
  }
  if (!degraded_) return false;
  return shed_rng_.NextDouble() < degrade.shed_probability;
}

std::size_t ShardedUMicro::PickShard(const stream::UncertainPoint& point) {
  switch (options_.partition) {
    case PartitionMode::kRoundRobin: {
      const std::size_t shard = next_round_robin_;
      next_round_robin_ = (next_round_robin_ + 1) % options_.num_shards;
      return shard;
    }
    case PartitionMode::kHash:
      return static_cast<std::size_t>(HashPointValues(point) %
                                      options_.num_shards);
  }
  return 0;
}

void ShardedUMicro::EnqueueBatch(std::size_t index) {
  Batch& batch = pending_batches_[index];
  if (batch.empty()) return;
  const std::size_t n = batch.size();
  if (ShouldShedBatch(index)) {
    // Shed before the pool: a shed batch never enters the pipeline, so
    // drain/exactness bookkeeping is untouched.
    batches_shed_metric_->Increment();
    points_shed_metric_->Increment(n);
    shards_[index]->points_dropped->Increment(n);
    points_dropped_metric_->Increment(n);
    batch.clear();
    batch.reserve(options_.producer_batch);
    return;
  }
  std::optional<Batch> displaced;
  const bool accepted = pool_.Submit(index, std::move(batch), &displaced);
  batch.clear();
  batch.reserve(options_.producer_batch);

  std::size_t dropped = 0;
  if (!accepted) {
    dropped = n;
  } else if (displaced.has_value()) {
    dropped = displaced->size();
  }
  if (dropped > 0) {
    shards_[index]->points_dropped->Increment(dropped);
    points_dropped_metric_->Increment(dropped);
  }
}

void ShardedUMicro::Process(const stream::UncertainPoint& point) {
  UMICRO_CHECK_MSG(point.dimensions() == dimensions_,
                   "point has %zu dimensions, pipeline expects %zu",
                   point.dimensions(), dimensions_);
  const std::size_t shard = PickShard(point);
  pending_batches_[shard].push_back(point);
  ++points_ingested_;
  points_ingested_metric_->Increment();
  ++points_since_merge_;
  if (pending_batches_[shard].size() >= options_.producer_batch) {
    EnqueueBatch(shard);
  }
  // While degraded, merges (the costliest coordinator work) run at a
  // stretched cadence so the coordinator sheds load too.
  std::size_t effective_merge_every = options_.merge_every;
  if (degraded_) {
    const double stretch = std::max(1.0, options_.degrade.merge_stretch);
    effective_merge_every = static_cast<std::size_t>(
        static_cast<double>(options_.merge_every) * stretch);
  }
  if (effective_merge_every > 0 &&
      points_since_merge_ >= effective_merge_every) {
    MergeNow();
  }
}

void ShardedUMicro::RebuildGlobalView() {
  std::vector<std::vector<core::MicroCluster>> shard_sets(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.state_mu);
    shard.clusters_at_merge->Set(
        static_cast<double>(shard.algo.num_clusters()));
    // One materialization per merge; the shard keeps no cached copy.
    shard_sets[i] = shard.algo.CopyClusters();
  }
  ShardMergeOptions merge_options;
  merge_options.dimensions = dimensions_;
  merge_options.dimension_threshold = options_.umicro.dimension_threshold;
  merge_options.global_budget = global_budget_;
  std::size_t reconciliations = 0;
  global_clusters_ = MergeShardClusterSets(std::move(shard_sets),
                                           merge_options, &reconciliations);
  for (std::size_t n = 0; n < reconciliations; ++n) {
    reconcile_metric_->Increment();
  }
}

void ShardedUMicro::MergeNow() {
  const obs::ScopedTimer timer(merge_micros_);
  if (util::FailpointRegistry::Instance().AnyArmed()) {
    const std::size_t stall = util::FailpointRegistry::Instance()
                                  .StallMillis("parallel.merge.stall");
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) EnqueueBatch(i);
  pool_.Drain();
  RebuildGlobalView();
  merges_metric_->Increment();
  global_clusters_metric_->Set(static_cast<double>(global_clusters_.size()));
  points_since_merge_ = 0;
}

void ShardedUMicro::Flush() { MergeNow(); }

std::vector<stream::LabelHistogram> ShardedUMicro::ClusterLabelHistograms()
    const {
  // Logically read-only (the stream content is untouched) but the merged
  // view must be refreshed; the coordinator-thread contract makes the
  // cast safe.
  const_cast<ShardedUMicro*>(this)->MergeNow();
  std::vector<stream::LabelHistogram> histograms;
  histograms.reserve(global_clusters_.size());
  for (const auto& cluster : global_clusters_) {
    histograms.push_back(cluster.labels);
  }
  return histograms;
}

std::vector<std::vector<double>> ShardedUMicro::ClusterCentroids() const {
  const_cast<ShardedUMicro*>(this)->MergeNow();
  std::vector<std::vector<double>> centroids;
  centroids.reserve(global_clusters_.size());
  for (const auto& cluster : global_clusters_) {
    if (!cluster.ecf.empty()) centroids.push_back(cluster.ecf.Centroid());
  }
  return centroids;
}

core::Snapshot ShardedUMicro::GlobalSnapshot(double time) const {
  core::Snapshot snapshot;
  snapshot.time = time;
  snapshot.clusters.reserve(global_clusters_.size());
  for (const auto& cluster : global_clusters_) {
    core::MicroClusterState state;
    state.id = cluster.id;
    state.creation_time = cluster.creation_time;
    state.ecf = cluster.ecf;
    snapshot.clusters.push_back(std::move(state));
  }
  return snapshot;
}

ShardedPipelineState ShardedUMicro::ExportPipelineState() {
  // Drain + merge first: afterwards no point is in a queue or a worker,
  // so shard residuals + merged view + the partition cursor determine
  // all future behavior exactly.
  Flush();
  ShardedPipelineState state;
  state.shard_states.reserve(shards_.size());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->state_mu);
    state.shard_states.push_back(shard->algo.ExportState());
  }
  state.global_clusters = global_clusters_;
  state.points_ingested = points_ingested_;
  state.next_round_robin = next_round_robin_;
  return state;
}

bool ShardedUMicro::RestorePipelineState(const ShardedPipelineState& state) {
  if (state.shard_states.size() != shards_.size()) return false;
  for (const auto& shard_state : state.shard_states) {
    if (shard_state.welford.size() != dimensions_) return false;
    for (const auto& cluster : shard_state.clusters) {
      if (cluster.ecf.dimensions() != dimensions_) return false;
    }
  }
  for (const auto& cluster : state.global_clusters) {
    if (cluster.ecf.dimensions() != dimensions_) return false;
  }
  Flush();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->state_mu);
    shards_[i]->algo.RestoreState(state.shard_states[i]);
  }
  global_clusters_ = state.global_clusters;
  points_ingested_ = static_cast<std::size_t>(state.points_ingested);
  next_round_robin_ =
      static_cast<std::size_t>(state.next_round_robin) % options_.num_shards;
  points_since_merge_ = 0;
  global_clusters_metric_->Set(static_cast<double>(global_clusters_.size()));
  return true;
}

std::size_t ShardedUMicro::worker_restarts() const {
  return static_cast<std::size_t>(worker_restarts_metric_->value());
}

}  // namespace umicro::parallel
