// ShardedUMicro: multi-threaded UMicro ingest with exact ECF merge.
//
// The error-based cluster features are additive (Property 2.1), so shard-
// local micro-clusterings can be combined into a global clustering without
// any approximation of the statistics: every point's contribution to
// (CF2, EF2, CF1, n) survives the merge bit-for-bit no matter which shard
// absorbed it. That observation -- the basis of communication-efficient
// distributed stream clustering -- turns the sequential algorithm into a
// sharded pipeline:
//
//   Process() --partition--> WorkerPool: per-shard bounded queue -->
//                            worker thread (private UMicro)
//   every merge_every points / on Flush(): drain, collect shard clusters,
//   merge them into the global view, reconciling near-duplicate clusters
//   with the paper's dimension-counting similarity.
//
// Threading contract: the public API is single-coordinator -- all calls
// must come from one thread (the stream driver). Concurrency lives in the
// WorkerPool behind the queues. The merged global view is only
// recomputed at merge points, so reads between merges see the last merge.

#ifndef UMICRO_PARALLEL_SHARDED_UMICRO_H_
#define UMICRO_PARALLEL_SHARDED_UMICRO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/microcluster.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "obs/metrics.h"
#include "parallel/bounded_queue.h"
#include "parallel/worker_pool.h"
#include "stream/clusterer.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::parallel {

/// How incoming points are assigned to shards.
enum class PartitionMode {
  /// Cycle through the shards (best load balance).
  kRoundRobin,
  /// Hash of the point's coordinates (stable point->shard mapping, so
  /// identical records always meet the same shard state).
  kHash,
};

/// Graceful overload degradation (resilience pillar 4). When enabled,
/// the coordinator watches queue occupancy at every enqueue; after
/// `trigger_after` consecutive pressured enqueues it enters degraded
/// mode: pending batches are shed with probability `shed_probability`
/// before they enter the queue (so a kBlock pipeline stays live instead
/// of stalling the producer) and the global merge cadence is stretched
/// by `merge_stretch`. After `recover_after` consecutive calm enqueues
/// the pipeline returns to normal. Every shed point is counted in
/// "parallel.degrade.points_shed"; docs/resilience.md has the catalog.
struct DegradationOptions {
  /// Master switch; off preserves the exact lossless (kBlock) behavior.
  bool enabled = false;
  /// Queue-occupancy fraction (of capacity) that counts as pressured.
  double occupancy_trigger = 0.75;
  /// Consecutive pressured enqueues before degraded mode activates.
  std::size_t trigger_after = 8;
  /// Consecutive calm enqueues before degraded mode deactivates.
  std::size_t recover_after = 32;
  /// Probability a pending batch is shed while degraded.
  double shed_probability = 0.5;
  /// Multiplier on merge_every while degraded (merges are the costliest
  /// coordinator work, so stretching them sheds coordination load too).
  double merge_stretch = 4.0;
  /// Seed of the deterministic shed decisions.
  std::uint64_t seed = 0x5eedu;
};

/// Configuration of the sharded ingest pipeline.
struct ShardedUMicroOptions {
  /// Per-shard algorithm configuration (every shard runs this verbatim).
  core::UMicroOptions umicro;
  /// Number of worker threads / private UMicro instances (>= 1).
  std::size_t num_shards = 4;
  /// Per-shard queue capacity, counted in batches of `producer_batch`
  /// points each.
  std::size_t queue_capacity = 1024;
  /// Reaction to a full shard queue. kBlock keeps ingest lossless (the
  /// exactness guarantees assume it); the drop policies shed load, with
  /// whole batches dropped at a time and every shed point counted.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Shard assignment of incoming points.
  PartitionMode partition = PartitionMode::kRoundRobin;
  /// Global merge cadence in ingested points; 0 merges only on Flush()
  /// and on-demand reads (centroids / label histograms).
  std::size_t merge_every = 8192;
  /// Points buffered per shard before an enqueue (amortizes queue
  /// synchronization; 1 = unbatched).
  std::size_t producer_batch = 64;
  /// Micro-cluster budget of the merged global view; 0 means
  /// umicro.num_micro_clusters. When the concatenated shard clusters
  /// exceed it, near-duplicates are reconciled pairwise (most similar
  /// first) until the budget holds.
  std::size_t global_budget = 0;
  /// Adaptive load shedding under sustained backpressure.
  DegradationOptions degrade;
  /// Worker liveness supervision.
  SupervisorOptions supervisor;
};

/// Complete serializable state of the sharded pipeline as of a flushed
/// instant (all queues drained): per-shard algorithm residuals, the
/// merged global view, and the coordinator's partitioning cursor. The
/// checkpoint unit of ParallelUMicroEngine.
struct ShardedPipelineState {
  /// One private-UMicro state per shard, in shard order.
  std::vector<core::UMicroState> shard_states;
  /// The merged global view at the flushed instant.
  std::vector<core::MicroCluster> global_clusters;
  /// Total points ingested so far.
  std::uint64_t points_ingested = 0;
  /// Round-robin cursor so partitioning resumes exactly.
  std::uint64_t next_round_robin = 0;
};

/// Sharded parallel front-end over N private UMicro instances.
///
/// All pipeline observability lives in the embedded metrics registry
/// (metrics()): per-shard ingest/queue counters under
/// "parallel.shard<i>.", merge/reconcile counters and latency histograms
/// under "parallel.", and the shard algorithms' own "umicro." metrics
/// (shared cells, updated by every worker). See docs/observability.md
/// for the catalog.
class ShardedUMicro : public stream::StreamClusterer {
 public:
  /// Starts `options.num_shards` worker threads for `dimensions`-d
  /// streams.
  ShardedUMicro(std::size_t dimensions, ShardedUMicroOptions options);

  /// Stops the workers. Batches already queued are still processed
  /// before the workers are joined; points buffered in partial producer
  /// batches (not yet enqueued) are dropped -- call Flush() first to keep
  /// them.
  ~ShardedUMicro() override = default;

  ShardedUMicro(const ShardedUMicro&) = delete;
  ShardedUMicro& operator=(const ShardedUMicro&) = delete;

  // StreamClusterer interface. The two read accessors force a fresh
  // global merge so evaluation always sees current state.
  void Process(const stream::UncertainPoint& point) override;
  std::string name() const override;
  std::size_t points_processed() const override { return points_ingested_; }
  std::vector<stream::LabelHistogram> ClusterLabelHistograms() const override;
  std::vector<std::vector<double>> ClusterCentroids() const override;

  /// Flushes producer batches, waits until every queue is drained and
  /// every worker idle, then recomputes the merged global view.
  void Flush();

  /// Merged global micro-clusters as of the last merge (call Flush()
  /// first for an up-to-date view).
  const std::vector<core::MicroCluster>& GlobalClusters() const {
    return global_clusters_;
  }

  /// The merged view as a Snapshot at `time` (pyramidal-store input).
  core::Snapshot GlobalSnapshot(double time) const;

  /// Captures the pipeline's complete durable state (drains + merges
  /// first, so there are no in-flight points to lose).
  ShardedPipelineState ExportPipelineState();

  /// Restores a previously exported state into this freshly constructed,
  /// identically configured pipeline. Returns false (pipeline untouched)
  /// when the shard count does not match.
  bool RestorePipelineState(const ShardedPipelineState& state);

  /// True while the adaptive load-shed controller is degrading service.
  bool degraded() const { return degraded_; }

  /// Worker restarts performed by the supervisor so far.
  std::size_t worker_restarts() const;

  /// The pipeline's metrics registry (live; collect at any time).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Dimensionality of the stream.
  std::size_t dimensions() const { return dimensions_; }

  /// Configured options (with defaults resolved).
  const ShardedUMicroOptions& options() const { return options_; }

 private:
  using Batch = std::vector<stream::UncertainPoint>;

  /// One shard: the private algorithm and the mutex that hands its state
  /// between the shard's pool worker (processing) and the coordinator
  /// (collection after a drain). The counters are registry cells
  /// ("parallel.shard<i>." prefix), safe for worker-side updates.
  struct Shard {
    Shard(std::size_t dimensions, const ShardedUMicroOptions& options)
        : algo(dimensions, options.umicro) {}

    std::mutex state_mu;
    core::UMicro algo;  // guarded by state_mu
    obs::Counter* points_processed = nullptr;  // worker increments
    obs::Counter* batches_processed = nullptr;  // worker increments
    obs::Counter* points_dropped = nullptr;  // coordinator increments
    obs::Gauge* clusters_at_merge = nullptr;  // coordinator sets
  };

  /// Pool handler: ingests one batch into shard `index` (worker thread).
  void ProcessShardBatch(std::size_t index, Batch& batch);

  /// Load-shed decision for shard `index`'s pending batch: updates the
  /// pressure streaks, flips degraded mode, and returns true when the
  /// batch should be shed before entering the queue (coordinator only).
  bool ShouldShedBatch(std::size_t index);

  /// Shard assignment for one point.
  std::size_t PickShard(const stream::UncertainPoint& point);

  /// Enqueues shard `index`'s pending producer batch (no-op if empty).
  void EnqueueBatch(std::size_t index);

  /// Collects shard clusters and rebuilds the merged global view; must
  /// only run with all queues drained.
  void RebuildGlobalView();

  /// Drain + rebuild + merge-stat bookkeeping.
  void MergeNow();

  const std::size_t dimensions_;
  const ShardedUMicroOptions options_;
  const std::size_t global_budget_;

  /// Declared before the shards: shard construction resolves metric
  /// handles out of this registry, and the shard algorithms keep writing
  /// into it until their workers join.
  obs::MetricsRegistry metrics_;
  // Pipeline-wide metric handles (resolved once in the constructor).
  obs::Counter* points_ingested_metric_;
  obs::Counter* points_dropped_metric_;
  obs::Counter* merges_metric_;
  obs::Counter* reconcile_metric_;
  obs::Histogram* merge_micros_;
  obs::Gauge* global_clusters_metric_;
  // Degradation / supervision metric handles.
  obs::Counter* degrade_activations_metric_;
  obs::Counter* points_shed_metric_;
  obs::Counter* batches_shed_metric_;
  obs::Gauge* degrade_active_gauge_;
  obs::Counter* worker_restarts_metric_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Producer-side point buffers, one per shard (coordinator thread only).
  std::vector<Batch> pending_batches_;

  // Coordinator-thread state.
  std::size_t points_ingested_ = 0;
  std::size_t points_since_merge_ = 0;
  std::size_t next_round_robin_ = 0;
  std::vector<core::MicroCluster> global_clusters_;

  // Load-shed controller state (coordinator thread only).
  bool degraded_ = false;
  std::size_t pressured_streak_ = 0;
  std::size_t calm_streak_ = 0;
  util::Rng shed_rng_;

  /// One worker per shard. Declared last so it is destroyed first: its
  /// workers process what is still queued into the shards above, then
  /// join, before any shard or metric cell goes away.
  WorkerPool<Batch> pool_;
};

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_SHARDED_UMICRO_H_
