// QueryBroker: concurrent query answering over a SnapshotReadReplica.
//
// N worker threads pop one shared parallel::BoundedQueue of queries; every
// query runs against an Acquire()d immutable ReplicaState, so nothing a
// query does can stall Process/ProcessBatch on the engine thread.
// Submit() hands back a future; Execute() answers synchronously on the
// caller's thread through the identical code path (the quiesced-equality
// tests use it).
//
// Query kinds (the paper's interactive analysis, Section II-D, served):
//   kClusterRecent -- "cluster the last h time units into k groups"
//                     via decay-corrected snapshot subtraction;
//   kNearest       -- closest micro-cluster to a probe point;
//   kAnomaly       -- is the probe outside the nearest cluster's
//                     critical uncertainty boundary (t standard
//                     deviations of the uncertain radius)?
//   kStats         -- replica/broker health.
//
// Metrics (in the registry passed at construction, usually the
// engine's): serve.queries, serve.errors, serve.query_micros,
// serve.queue_depth (live gauge), serve.queue_depth_peak.

#ifndef UMICRO_SERVE_QUERY_BROKER_H_
#define UMICRO_SERVE_QUERY_BROKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/horizon.h"
#include "core/macro_cluster.h"
#include "obs/metrics.h"
#include "parallel/bounded_queue.h"
#include "serve/replica.h"

namespace umicro::serve {

/// Broker configuration.
struct QueryBrokerOptions {
  /// Worker threads answering queries (>= 1).
  std::size_t num_threads = 4;
  /// Submit() blocks when this many queries are already queued
  /// (backpressure toward the front end, never toward ingest).
  std::size_t max_queue = 1024;
  /// Uncertainty-boundary width for kAnomaly (the paper's t; FromConfig
  /// takes the algorithm's own UMicroOptions::boundary_factor).
  double boundary_factor = 3.0;
  /// Macro-clustering defaults for kClusterRecent; a request's k
  /// overrides options.macro.k when nonzero.
  core::MacroClusteringOptions macro;

  /// The serve slice of the consolidated EngineConfig (core/config.h).
  static QueryBrokerOptions FromConfig(const core::EngineConfig& config) {
    QueryBrokerOptions options;
    options.num_threads = config.serve.threads;
    options.max_queue = config.serve.max_queue;
    options.boundary_factor = config.umicro.boundary_factor;
    return options;
  }
};

/// Maps a tenant id to its read replica (nullptr = unknown tenant).
/// Must be callable from any broker worker thread concurrently with
/// tenant creation/removal on the owner's side; the returned shared_ptr
/// keeps the replica alive for the duration of the query.
using ReplicaResolver =
    std::function<std::shared_ptr<const SnapshotReadReplica>(std::uint64_t)>;

/// One query.
struct QueryRequest {
  enum class Kind { kClusterRecent, kNearest, kAnomaly, kStats };
  Kind kind = Kind::kStats;
  /// Tenant the query targets; 0 is the implicit single-tenant default
  /// (the old single-replica constructor serves only tenant 0).
  std::uint64_t tenant = 0;
  /// kClusterRecent: horizon h in stream time units (> 0).
  double horizon = 0.0;
  /// kClusterRecent: macro-cluster count; 0 = broker default.
  std::size_t k = 0;
  /// kNearest / kAnomaly: the probe point's coordinates.
  std::vector<double> values;
};

/// kNearest payload.
struct NearestResult {
  std::uint64_t cluster_id = 0;
  double distance = 0.0;
  double weight = 0.0;
  std::vector<double> centroid;
};

/// kStats payload.
struct ServeStats {
  std::uint64_t publish_seq = 0;
  double published_time = 0.0;
  std::size_t live_clusters = 0;
  std::size_t snapshots_retained = 0;
  std::uint64_t queries_served = 0;
  std::size_t queue_depth = 0;
};

/// One answer. `ok` is false only for malformed requests (wrong arity,
/// nonpositive horizon); an empty replica yields ok with empty payloads.
struct QueryResponse {
  bool ok = false;
  std::string error;
  /// Publication the answer was computed against (0 = nothing published).
  std::uint64_t publish_seq = 0;
  /// kClusterRecent: nullopt when the replica holds no usable window.
  std::optional<core::HorizonClustering> clustering;
  /// kNearest / kAnomaly: nullopt when no clusters are published.
  std::optional<NearestResult> nearest;
  /// kAnomaly verdict + the boundary it was judged against.
  bool anomalous = false;
  double boundary = 0.0;
  /// kStats payload.
  std::optional<ServeStats> stats;
};

/// Concurrent query front end over one replica or a tenant fleet.
class QueryBroker {
 public:
  /// Tenant-aware broker: every query's tenant id is resolved to a
  /// replica through `resolver` (see EngineFleet::Resolver()). An
  /// unresolvable tenant answers ok=false "unknown tenant". `metrics`
  /// (optional) receives the serve.* instruments.
  QueryBroker(ReplicaResolver resolver, QueryBrokerOptions options,
              obs::MetricsRegistry* metrics = nullptr);

  /// Single-tenant shim: serves `replica` as tenant 0 (any other tenant
  /// id is unknown). `replica` must outlive the broker. Pass the
  /// engine's registry so one export covers ingest and serving.
  QueryBroker(const SnapshotReadReplica* replica, QueryBrokerOptions options,
              obs::MetricsRegistry* metrics = nullptr);

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// Drains the queue and joins the workers.
  ~QueryBroker();

  /// Enqueues a query for the worker pool; blocks while the queue is at
  /// max_queue. The future resolves when a worker answers.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Answers synchronously on the calling thread (same code path the
  /// workers run).
  QueryResponse Execute(const QueryRequest& request) const;

  /// Queries currently waiting for a worker.
  std::size_t queue_depth() const;

  /// True when this broker routes by tenant id (resolver-constructed);
  /// the serve protocol's HELLO capability line reports it.
  bool multi_tenant() const { return multi_tenant_; }

  /// Queries answered so far (workers + Execute).
  std::uint64_t queries_served() const { return queries_->value(); }

 private:
  struct PendingQuery {
    QueryRequest request;
    std::promise<QueryResponse> promise;
  };

  void WorkerLoop();

  QueryResponse ExecuteClusterRecent(const QueryRequest& request,
                                     const SnapshotReadReplica& replica,
                                     const ReplicaState& state) const;
  QueryResponse ExecuteNearest(const QueryRequest& request,
                               const ReplicaState& state) const;
  QueryResponse ExecuteAnomaly(const QueryRequest& request,
                               const ReplicaState& state) const;
  QueryResponse ExecuteStats(const ReplicaState& state) const;

  ReplicaResolver resolver_;
  bool multi_tenant_ = true;
  const QueryBrokerOptions options_;
  obs::MetricsRegistry* metrics_;
  /// Holds the serve.* instruments when no registry is passed in.
  obs::MetricsRegistry own_metrics_;
  obs::Counter* queries_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Histogram* query_micros_ = nullptr;

  /// Shared by every worker thread. Pointer slots allocate no promise
  /// state up front; shared ownership lets Submit() answer a rejection.
  parallel::BoundedQueue<std::shared_ptr<PendingQuery>> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace umicro::serve

#endif  // UMICRO_SERVE_QUERY_BROKER_H_
