#include "serve/query_broker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::serve {

QueryBroker::QueryBroker(ReplicaResolver resolver, QueryBrokerOptions options,
                         obs::MetricsRegistry* metrics)
    : resolver_(std::move(resolver)),
      options_(options),
      metrics_(metrics),
      queue_(options.max_queue, parallel::BackpressurePolicy::kBlock) {
  UMICRO_CHECK(resolver_ != nullptr);
  UMICRO_CHECK(options_.num_threads >= 1);
  obs::MetricsRegistry& registry =
      metrics_ != nullptr ? *metrics_ : own_metrics_;
  queries_ = &registry.GetCounter("serve.queries");
  errors_ = &registry.GetCounter("serve.errors");
  query_micros_ = &registry.GetHistogram("serve.query_micros");
  parallel::QueueMetricsHooks hooks;
  hooks.depth = &registry.GetGauge("serve.queue_depth");
  hooks.high_water = &registry.GetGauge("serve.queue_depth_peak");
  queue_.SetMetricsHooks(hooks);
  workers_.reserve(options_.num_threads);
  for (std::size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryBroker::QueryBroker(const SnapshotReadReplica* replica,
                         QueryBrokerOptions options,
                         obs::MetricsRegistry* metrics)
    : QueryBroker(
          [replica](std::uint64_t tenant) {
            // Non-owning alias: the shim keeps the old lifetime contract
            // (caller guarantees the replica outlives the broker).
            return tenant == 0
                       ? std::shared_ptr<const SnapshotReadReplica>(
                             std::shared_ptr<const SnapshotReadReplica>(),
                             replica)
                       : std::shared_ptr<const SnapshotReadReplica>();
          },
          options, metrics) {
  UMICRO_CHECK(replica != nullptr);
  multi_tenant_ = false;
}

QueryBroker::~QueryBroker() {
  // Queued queries are still popped and answered; blocked and later
  // Submit()s are rejected.
  queue_.Close();
  for (auto& worker : workers_) worker.join();
}

std::future<QueryResponse> QueryBroker::Submit(QueryRequest request) {
  auto pending = std::make_shared<PendingQuery>();
  pending->request = std::move(request);
  std::future<QueryResponse> future = pending->promise.get_future();
  if (!queue_.Push(pending)) {
    pending->promise.set_value(
        {false, "broker shutting down", 0, {}, {}, false, 0.0, {}});
  }
  return future;
}

void QueryBroker::WorkerLoop() {
  std::shared_ptr<PendingQuery> pending;
  while (queue_.Pop(&pending)) {
    pending->promise.set_value(Execute(pending->request));
    pending.reset();
  }
}

std::size_t QueryBroker::queue_depth() const { return queue_.size(); }

QueryResponse QueryBroker::Execute(const QueryRequest& request) const {
  const obs::ScopedTimer timer(query_micros_);
  queries_->Increment();
  const std::shared_ptr<const SnapshotReadReplica> replica =
      resolver_(request.tenant);
  if (replica == nullptr) {
    QueryResponse response;
    response.error = "unknown tenant";
    errors_->Increment();
    return response;
  }
  const std::shared_ptr<const ReplicaState> state = replica->Acquire();
  QueryResponse response;
  switch (request.kind) {
    case QueryRequest::Kind::kClusterRecent:
      response = ExecuteClusterRecent(request, *replica, *state);
      break;
    case QueryRequest::Kind::kNearest:
      response = ExecuteNearest(request, *state);
      break;
    case QueryRequest::Kind::kAnomaly:
      response = ExecuteAnomaly(request, *state);
      break;
    case QueryRequest::Kind::kStats:
      response = ExecuteStats(*state);
      break;
  }
  if (!response.ok) errors_->Increment();
  return response;
}

QueryResponse QueryBroker::ExecuteClusterRecent(
    const QueryRequest& request, const SnapshotReadReplica& replica,
    const ReplicaState& state) const {
  QueryResponse response;
  response.publish_seq = state.publish_seq;
  if (request.horizon <= 0.0) {
    response.error = "horizon must be positive";
    return response;
  }
  response.ok = true;
  if (state.current == nullptr) return response;  // nothing published yet
  // Mirror ClusterOverHorizon's selection over the replica history:
  // at-or-before preferred, nearest as the predates-retention fallback.
  const core::Snapshot* older = SnapshotReadReplica::FindAtOrBefore(
      state, state.current->time - request.horizon);
  if (older == nullptr) {
    older = SnapshotReadReplica::FindNearest(
        state, state.current->time - request.horizon);
    // Horizon predates the replica's retention: flag the clamped answer
    // (mirrors the engine-side snapshot.horizon_clamped counter).
    if (older != nullptr && metrics_ != nullptr) {
      metrics_->GetCounter("snapshot.horizon_clamped").Increment();
    }
  }
  if (older == nullptr || older->time > state.current->time) return response;
  core::MacroClusteringOptions macro = options_.macro;
  if (request.k > 0) macro.k = request.k;
  response.clustering =
      core::ClusterWindow(*state.current, *older, request.horizon,
                          replica.decay_lambda(), macro, metrics_);
  return response;
}

QueryResponse QueryBroker::ExecuteNearest(const QueryRequest& request,
                                          const ReplicaState& state) const {
  QueryResponse response;
  response.publish_seq = state.publish_seq;
  if (state.current != nullptr && !state.current->clusters.empty() &&
      request.values.size() != state.current->clusters[0].ecf.dimensions()) {
    response.error = "probe dimensionality mismatch";
    return response;
  }
  response.ok = true;
  if (state.current == nullptr) return response;
  const NearestResult* found = nullptr;
  NearestResult best;
  for (const auto& cluster : state.current->clusters) {
    if (cluster.ecf.empty()) continue;
    double dist2 = 0.0;
    for (std::size_t j = 0; j < request.values.size(); ++j) {
      const double delta = request.values[j] - cluster.ecf.CentroidAt(j);
      dist2 += delta * delta;
    }
    if (found == nullptr || dist2 < best.distance) {
      best.cluster_id = cluster.id;
      best.distance = dist2;
      best.weight = cluster.ecf.weight();
      found = &best;
    }
  }
  if (found != nullptr) {
    best.distance = std::sqrt(best.distance);
    for (const auto& cluster : state.current->clusters) {
      if (cluster.id == best.cluster_id) {
        best.centroid = cluster.ecf.Centroid();
        break;
      }
    }
    response.nearest = std::move(best);
  }
  return response;
}

QueryResponse QueryBroker::ExecuteAnomaly(const QueryRequest& request,
                                          const ReplicaState& state) const {
  QueryResponse response = ExecuteNearest(request, state);
  if (!response.ok || !response.nearest.has_value()) return response;
  // Figure 1's novelty rule against the published state: a probe is
  // anomalous when no cluster could absorb it, i.e. it sits beyond
  // t standard deviations of the uncertain radius of every mature
  // cluster. A (near-)singleton's radius is uninformative (zero), so
  // singletons never vouch for a probe; before any mature cluster
  // exists everything reads as novel, matching the algorithm's
  // cold-start behaviour.
  response.anomalous = true;
  response.boundary = 0.0;
  for (const auto& cluster : state.current->clusters) {
    if (cluster.ecf.empty() || cluster.ecf.weight() < 2.0) continue;
    double dist2 = 0.0;
    for (std::size_t j = 0; j < request.values.size(); ++j) {
      const double delta = request.values[j] - cluster.ecf.CentroidAt(j);
      dist2 += delta * delta;
    }
    const double boundary =
        options_.boundary_factor * cluster.ecf.UncertainRadius();
    if (cluster.id == response.nearest->cluster_id ||
        boundary > response.boundary) {
      response.boundary = boundary;
    }
    if (std::sqrt(dist2) <= boundary) {
      response.anomalous = false;
      response.boundary = boundary;
      break;
    }
  }
  return response;
}

QueryResponse QueryBroker::ExecuteStats(const ReplicaState& state) const {
  QueryResponse response;
  response.ok = true;
  response.publish_seq = state.publish_seq;
  ServeStats stats;
  stats.publish_seq = state.publish_seq;
  stats.published_time =
      state.current != nullptr ? state.current->time : 0.0;
  stats.live_clusters =
      state.current != nullptr ? state.current->clusters.size() : 0;
  stats.snapshots_retained = state.history.size();
  stats.queries_served = queries_served();
  stats.queue_depth = queue_depth();
  response.stats = stats;
  return response;
}

}  // namespace umicro::serve
