// UMicro: the paper's online algorithm for clustering uncertain data
// streams (Figure 1), including the exponential-time-decay variant of
// Section II-E.
//
// Per arriving record (X, psi(X)):
//   1. find the closest micro-cluster under the expected similarity
//      (dimension-counting by default, raw expected distance optionally);
//   2. compute that cluster's critical uncertainty boundary (t standard
//      deviations of the expected point-to-centroid distances, Eq. 6);
//   3. absorb the point if it falls inside the boundary, otherwise create
//      a new singleton micro-cluster, evicting the least-recently-updated
//      cluster when the budget n_micro is exceeded.

#ifndef UMICRO_CORE_UMICRO_H_
#define UMICRO_CORE_UMICRO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/expected_distance.h"
#include "index/centroid_index.h"
#include "core/microcluster.h"
#include "core/snapshot.h"
#include "kernels/cluster_table.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "stream/clusterer.h"
#include "stream/point.h"
#include "util/math_utils.h"

namespace umicro::core {

/// How the closest micro-cluster is chosen.
enum class SimilarityMode {
  /// Section II-B's dimension-counting similarity: per-dimension votes
  /// max{0, 1 - E[dist_j^2]/(thresh*sigma_j^2)}, pruning noisy dimensions.
  kDimensionCounting,
  /// Plain minimum expected squared distance (Lemma 2.2) -- the ablation
  /// baseline showing why the pruning similarity helps.
  kExpectedDistance,
};

/// Where the global per-dimension variances sigma_j^2 come from.
enum class VarianceSource {
  /// One-pass Welford statistics over every record seen (O(d)/point).
  kStreamWelford,
  /// The paper's formulation: sum all micro-cluster CF vectors into one
  /// global feature vector and apply the BIRCH variance formula;
  /// recomputed every `variance_refresh_interval` points.
  kClusterAggregate,
};

/// Tunables of the UMicro algorithm.
struct UMicroOptions {
  /// Number of micro-clusters to maintain (paper experiments: 100).
  std::size_t num_micro_clusters = 100;
  /// Boundary width in standard deviations (paper: t = 3).
  double boundary_factor = 3.0;
  /// Closest-cluster criterion.
  SimilarityMode similarity = SimilarityMode::kDimensionCounting;
  /// The `thresh` knob of the dimension-counting similarity.
  double dimension_threshold = 3.0;
  /// Distance form used when comparing a point against clusters.
  /// kPaperExpected (default) is Lemma 2.2 verbatim. kComparable drops
  /// the cluster-error term EF2_j/n^2, whose shrink-with-n behaviour can
  /// bias comparisons toward heavy clusters; with the merge-based
  /// maintenance below both forms are stable, and ablation bench A7
  /// contrasts them (the literal form scores slightly higher on the
  /// paper's purity metric across the reproduction workloads).
  DistanceForm distance_form = DistanceForm::kPaperExpected;
  /// Source of the global dimension variances.
  VarianceSource variance_source = VarianceSource::kStreamWelford;
  /// Refresh period (in points) for kClusterAggregate.
  std::size_t variance_refresh_interval = 256;
  /// Exponential decay rate lambda; weight w_t(X) = 2^(-lambda (t_c - t)).
  /// 0 disables decay (Definition 2.1 statistics); > 0 enables the
  /// weighted statistics of Definition 2.3. Half-life is 1/lambda.
  double decay_lambda = 0.0;
  /// Candidate index for the closest-cluster scan (src/index,
  /// docs/indexing.md): prunes the O(q) expected-distance scan to a
  /// provably-safe shortlist the exact SIMD kernels refine. Only the
  /// expected-distance similarity is indexable (the dimension-counting
  /// vote admits no safe Euclidean bound; counting-mode instances always
  /// run the full scan, whatever this is set to). kAuto engages a
  /// kd-tree once the live cluster count reaches 64.
  index::IndexKind assign_index = index::IndexKind::kAuto;
  /// Staleness horizon for making room: when a new micro-cluster must be
  /// created past the budget, the least-recently-updated cluster is
  /// evicted if it has not been touched for this many time units (the
  /// paper's rule); otherwise the two closest micro-clusters are merged
  /// instead (the CluStream consolidation rule). Merging is what lets
  /// young singleton clusters coalesce into mature clusters with
  /// meaningful radii; without it a high-dimensional stream can churn
  /// through singletons forever. Set to 0 to always evict (paper-literal
  /// Figure 1).
  double eviction_horizon = 5000.0;
};

/// Complete serializable state of a running UMicro instance
/// (checkpoint/restore; see io/state_io.h for the on-disk format).
struct UMicroState {
  /// Raw Welford accumulator state per dimension.
  struct WelfordRaw {
    std::size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
  };

  std::vector<MicroCluster> clusters;
  std::vector<WelfordRaw> welford;
  std::vector<double> global_variances;
  std::uint64_t next_cluster_id = 0;
  std::size_t points_processed = 0;
  std::size_t clusters_created = 0;
  std::size_t clusters_evicted = 0;
  std::size_t clusters_merged = 0;
  double last_decay_time = 0.0;
  bool decay_clock_started = false;
};

/// The uncertain micro-clustering algorithm.
class UMicro : public stream::StreamClusterer {
 public:
  /// Creates an algorithm instance for `dimensions`-dimensional streams.
  UMicro(std::size_t dimensions, UMicroOptions options);

  /// What happened to one processed record (anomaly-detection hook: a
  /// record that had to open its own micro-cluster is a novelty).
  struct ProcessOutcome {
    /// True when the point was absorbed into an existing micro-cluster;
    /// false when it created a new singleton.
    bool absorbed = false;
    /// Id of the cluster the point ended up in.
    std::uint64_t cluster_id = 0;
    /// Expected distance (Lemma 2.2) to the chosen cluster; 0 for the
    /// very first point of the stream.
    double expected_distance = 0.0;
  };

  // StreamClusterer interface.
  void Process(const stream::UncertainPoint& point) override;
  /// Batched ingest: processes the points strictly in order with exactly
  /// the per-point semantics of Process (each decision sees the state
  /// left by its predecessors), but amortizes the timer and metric
  /// traffic over the whole batch (umicro.process_micros receives the
  /// batch's mean per-point time once per point).
  void ProcessBatch(std::span<const stream::UncertainPoint> points) override;
  std::string name() const override;

  /// Like Process, but reports what happened to the record.
  ProcessOutcome ProcessAndExplain(const stream::UncertainPoint& point);
  std::size_t points_processed() const override { return points_processed_; }
  std::vector<stream::LabelHistogram> ClusterLabelHistograms() const override;
  std::vector<std::vector<double>> ClusterCentroids() const override;

  /// Live micro-clusters (inspection / offline macro-clustering input),
  /// materialized from the cluster table on the first call after a
  /// mutation and cached until the next one. The reference stays valid
  /// until the next mutating call; concurrent callers need the same
  /// external lock that guards mutation.
  const std::vector<MicroCluster>& clusters() const;

  /// The live micro-clusters as a value copy, materialized straight from
  /// the cluster table without filling clusters()' cache (the shard
  /// merge takes ownership of it).
  std::vector<MicroCluster> CopyClusters() const;

  /// Number of live micro-clusters.
  std::size_t num_clusters() const { return table_.rows(); }

  /// Current global per-dimension variance estimates.
  const std::vector<double>& global_variances() const {
    return global_variances_;
  }

  /// Dimensionality of the stream.
  std::size_t dimensions() const { return dimensions_; }

  /// Configured options.
  const UMicroOptions& options() const { return options_; }

  /// Materializes the current micro-cluster set as a snapshot at `time`
  /// (for the pyramidal time frame of Section II-D).
  Snapshot TakeSnapshot(double time) const;

  /// Captures the complete mutable state for checkpointing; restoring it
  /// into a same-configured instance resumes the stream exactly.
  UMicroState ExportState() const;

  /// Restores a previously exported state. The instance must have the
  /// same dimensionality the state was exported with; the options are
  /// taken from this instance (they are configuration, not state).
  void RestoreState(const UMicroState& state);

  /// Number of singleton creations so far (diagnostics).
  std::size_t clusters_created() const { return clusters_created_; }
  /// Number of evictions of the least-recently-updated cluster.
  std::size_t clusters_evicted() const { return clusters_evicted_; }
  /// Number of closest-pair merges performed to make room.
  std::size_t clusters_merged() const { return clusters_merged_; }

  /// Attaches a metrics registry (nullptr detaches, the default). The
  /// algorithm then records, under the "umicro." prefix: per-point
  /// process latency, similarity-kernel cluster scans, and
  /// absorb/create/evict/merge outcome counters. The registry must
  /// outlive this instance; several instances (e.g. the shards of a
  /// sharded pipeline) may share one registry, the cells are atomic.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// The kernel tier the batch scans run on (CPUID-dispatched; the
  /// UMICRO_KERNEL environment variable clamps it downward).
  kernels::Backend kernel_backend() const { return table_.backend(); }

  /// The candidate index behind the assignment scan, or nullptr when
  /// this instance runs flat scans (flat kind, or counting similarity).
  const index::CentroidIndex* assign_index() const {
    return assign_index_.get();
  }

 private:
  /// Per-batch tallies of metric events, flushed to the registry once
  /// per Process/ProcessBatch call instead of per point.
  struct BatchCounters {
    std::size_t scans = 0;
    std::size_t absorbed = 0;
    std::size_t created = 0;
  };

  /// The full per-point pipeline (decay, variances, assign, maintain)
  /// without any metric traffic; tallies events into `counters`.
  ProcessOutcome ProcessOne(const stream::UncertainPoint& point,
                            BatchCounters* counters);

  /// Pushes a batch's tallied events to the attached registry.
  void FlushCounters(const BatchCounters& counters, std::size_t points);

  /// Index of the closest cluster under the configured similarity; the
  /// table must be non-empty.
  std::size_t FindClosest(const stream::UncertainPoint& point) const;

  /// Critical uncertainty boundary of cluster `index` (Section II-C):
  /// boundary_factor * U, with the nearest-other-centroid fallback for
  /// (near-)singleton clusters whose own radius is uninformative.
  double UncertaintyBoundary(std::size_t index) const;

  /// Whether `point` falls inside cluster `index`'s uncertainty boundary
  /// (Figure 1's absorb-or-create decision). Mature clusters compare the
  /// expected distance against t*U; near-singletons compare the
  /// error-stripped geometric distance against the Voronoi fallback.
  bool ShouldAbsorb(const stream::UncertainPoint& point,
                    std::size_t index) const;

  /// Applies pending exponential decay to every cluster (lazy, single
  /// shared rate: all statistics scale by 2^(-lambda * dt)).
  void ApplyDecay(double now);

  /// Makes room after a creation pushed the set past the budget: evicts
  /// the least-recently-updated cluster if stale, else merges the two
  /// closest clusters.
  void RetireOneCluster(double now);

  /// Updates global_variances_ according to the configured source.
  void UpdateGlobalVariances(const stream::UncertainPoint& point);

  /// The raw statistics of table row `i`.
  EcfView RowView(std::size_t i) const;

  /// Row `i`'s statistics as a value-type ECF (snapshots).
  ErrorClusterFeature MaterializeEcf(std::size_t i) const;

  /// Row `i` as a value-type micro-cluster (checkpoints, clusters()).
  MicroCluster MaterializeRow(std::size_t i) const;

  /// Per-row bookkeeping the table does not hold (row i <-> meta_[i]).
  struct RowMeta {
    /// Stable identity across snapshots (MicroCluster::id).
    std::uint64_t id = 0;
    /// Timestamp of the creating point.
    double creation_time = 0.0;
    /// t(C): the newest timestamp folded into the row.
    double last_update_time = 0.0;
    /// Evaluation-only ground-truth histogram, scaled with decay.
    stream::LabelHistogram labels;
  };

  const std::size_t dimensions_;
  const UMicroOptions options_;

  /// The micro-clusters' ECF statistics: the only copy. All scans and
  /// the absorb/boundary/merge decisions read its rows.
  kernels::ClusterTable table_;
  std::vector<RowMeta> meta_;
  /// clusters()' materialized view; rebuilt when `view_stale_`.
  mutable std::vector<MicroCluster> view_;
  mutable bool view_stale_ = true;
  std::vector<util::WelfordAccumulator> welford_;
  std::vector<double> global_variances_;
  /// Cached 1/(thresh * sigma_j^2) (0 where sigma_j^2 == 0), refreshed
  /// together with global_variances_; turns the per-dimension division
  /// of the similarity scan into a multiplication.
  std::vector<double> scaled_inverse_variances_;
  /// Staged per-point buffers for the batch kernels.
  mutable kernels::PointContext point_ctx_;
  /// Per-cluster scores (votes or distances) of the current scan.
  mutable std::vector<double> scores_scratch_;
  /// Candidate index over table_'s centroids (null = always full scan).
  /// Mutable: Collect lazily rebuilds and tallies stats inside the
  /// logically-const FindClosest.
  mutable std::unique_ptr<index::CentroidIndex> assign_index_;
  /// Shortlist of the current indexed scan.
  mutable std::vector<std::uint32_t> candidates_scratch_;
  /// Index stats already pushed to the registry (FlushCounters ships
  /// the delta since this watermark).
  index::IndexStats flushed_index_stats_;

  // Metric handles resolved once by AttachMetrics; all null when no
  // registry is attached (the hot path then costs one pointer test).
  obs::Histogram* process_micros_ = nullptr;
  obs::Histogram* batch_micros_ = nullptr;
  obs::Histogram* closest_pair_micros_ = nullptr;
  obs::Gauge* kernel_tier_metric_ = nullptr;
  obs::Counter* points_metric_ = nullptr;
  obs::Counter* kernel_scans_metric_ = nullptr;
  obs::Counter* absorbed_metric_ = nullptr;
  obs::Counter* created_metric_ = nullptr;
  obs::Counter* evicted_metric_ = nullptr;
  obs::Counter* merged_metric_ = nullptr;
  obs::Gauge* live_clusters_metric_ = nullptr;
  obs::Counter* index_queries_metric_ = nullptr;
  obs::Counter* index_candidates_metric_ = nullptr;
  obs::Counter* index_rebuilds_metric_ = nullptr;
  obs::Gauge* index_prune_ratio_metric_ = nullptr;

  std::size_t points_processed_ = 0;
  std::uint64_t next_cluster_id_ = 0;
  std::size_t clusters_created_ = 0;
  std::size_t clusters_evicted_ = 0;
  std::size_t clusters_merged_ = 0;
  double last_decay_time_ = 0.0;
  bool decay_clock_started_ = false;
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_UMICRO_H_
