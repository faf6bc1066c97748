#include "fleet/engine_fleet.h"

#include <algorithm>
#include <utility>

#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::fleet {

EngineFleet::EngineFleet(std::size_t dimensions,
                         const core::EngineConfig& config)
    : dimensions_(dimensions),
      config_(config),
      tenants_gauge_(&metrics_.GetGauge("fleet.tenants")),
      points_counter_(&metrics_.GetCounter("fleet.points")),
      batch_micros_(&metrics_.GetHistogram("fleet.tenant_batch_micros")),
      skew_gauge_(&metrics_.GetGauge("fleet.ingest_skew")),
      pool_({.workers = std::max<std::size_t>(1, config.fleet.workers),
             .queue_capacity =
                 std::max<std::size_t>(1, config.fleet.queue_capacity)},
            [this](std::size_t worker, WorkItem& item) {
              ProcessItem(worker, item);
            }) {
  UMICRO_CHECK(dimensions_ > 0);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    worker_points_.push_back(&metrics_.GetCounter(
        "fleet.worker." + std::to_string(i) + ".points"));
  }
  for (std::uint64_t tenant = 0; tenant < config_.fleet.tenants; ++tenant) {
    EnsureSlot(tenant);
  }
}

std::size_t EngineFleet::WorkerOf(std::uint64_t tenant) const {
  // splitmix64: dense tenant ids (0..N-1, the common case) must still
  // spread evenly across the workers.
  std::uint64_t z = tenant + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % pool_.size());
}

EngineFleet::TenantSlot* EngineFleet::FindSlot(std::uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(tenant);
  return it != tenants_.end() ? it->second.get() : nullptr;
}

EngineFleet::TenantSlot* EngineFleet::EnsureSlot(std::uint64_t tenant) {
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second.get();
  }
  // Build the engine outside the lock (resolver callers must never wait
  // on an engine construction), then publish the slot.
  auto slot = std::make_unique<TenantSlot>();
  slot->handle =
      TenantHandle(tenant, dimensions_, config_.TenantOptions());
  slot->pending.reserve(config_.fleet.tenant_batch);
  TenantSlot* raw = slot.get();
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants_.emplace(tenant, std::move(slot));
    tenants_gauge_->Set(static_cast<double>(tenants_.size()));
  }
  return raw;
}

TenantHandle& EngineFleet::EnsureTenant(std::uint64_t tenant) {
  return EnsureSlot(tenant)->handle;
}

bool EngineFleet::HasTenant(std::uint64_t tenant) const {
  return FindSlot(tenant) != nullptr;
}

std::size_t EngineFleet::tenant_count() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_.size();
}

std::vector<std::uint64_t> EngineFleet::TenantIds() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, slot] : tenants_) ids.push_back(id);
  return ids;
}

void EngineFleet::RouteBatch(TenantSlot* slot) {
  if (slot->pending.empty()) return;
  WorkItem item;
  item.slot = slot;
  item.batch = std::move(slot->pending);
  slot->pending.clear();
  slot->pending.reserve(config_.fleet.tenant_batch);
  pool_.Submit(WorkerOf(slot->handle.id()), std::move(item));
}

void EngineFleet::ProcessItem(std::size_t worker, WorkItem& item) {
  {
    const obs::ScopedTimer timer(batch_micros_);
    std::lock_guard<std::mutex> lock(item.slot->mu);
    item.slot->handle.core().ProcessBatch(item.batch);
  }
  worker_points_[worker]->Increment(item.batch.size());
  item.batch.clear();
}

void EngineFleet::Ingest(std::uint64_t tenant,
                         const stream::UncertainPoint& point) {
  TenantSlot* slot = EnsureSlot(tenant);
  slot->pending.push_back(point);
  ++points_ingested_;
  points_counter_->Increment();
  if (slot->pending.size() >= config_.fleet.tenant_batch) RouteBatch(slot);
}

void EngineFleet::Flush() {
  std::vector<TenantSlot*> slots;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    slots.reserve(tenants_.size());
    for (const auto& [id, slot] : tenants_) slots.push_back(slot.get());
  }
  for (TenantSlot* slot : slots) RouteBatch(slot);
  pool_.Drain();
  for (TenantSlot* slot : slots) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->handle.core().Flush();
  }
  skew_gauge_->Set(ComputeSkew());
}

TenantHandle EngineFleet::ReleaseTenant(std::uint64_t tenant) {
  TenantSlot* slot = FindSlot(tenant);
  if (slot == nullptr) return TenantHandle();
  RouteBatch(slot);
  pool_.Drain();
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->handle.core().AttachSnapshotSink(nullptr);
  }
  std::unique_ptr<TenantSlot> owned;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    const auto it = tenants_.find(tenant);
    owned = std::move(it->second);
    tenants_.erase(it);
    tenants_gauge_->Set(static_cast<double>(tenants_.size()));
  }
  return std::move(owned->handle);
}

bool EngineFleet::AdoptTenant(TenantHandle handle) {
  if (!handle) return false;
  auto slot = std::make_unique<TenantSlot>();
  slot->pending.reserve(config_.fleet.tenant_batch);
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (tenants_.find(handle.id()) != tenants_.end()) return false;
  const std::uint64_t id = handle.id();
  slot->handle = std::move(handle);
  tenants_.emplace(id, std::move(slot));
  tenants_gauge_->Set(static_cast<double>(tenants_.size()));
  return true;
}

std::optional<core::HorizonClustering> EngineFleet::ClusterRecent(
    std::uint64_t tenant, double horizon,
    const core::MacroClusteringOptions& options) {
  TenantSlot* slot = FindSlot(tenant);
  if (slot == nullptr) return std::nullopt;
  RouteBatch(slot);
  pool_.Drain();
  std::lock_guard<std::mutex> lock(slot->mu);
  return slot->handle.core().ClusterRecent(horizon, options);
}

std::uint64_t EngineFleet::TenantPoints(std::uint64_t tenant) const {
  TenantSlot* slot = FindSlot(tenant);
  if (slot == nullptr) return 0;
  std::lock_guard<std::mutex> lock(slot->mu);
  return slot->handle.core().points_processed();
}

core::EngineState EngineFleet::ExportTenantState(std::uint64_t tenant) {
  TenantSlot* slot = FindSlot(tenant);
  UMICRO_CHECK(slot != nullptr);
  RouteBatch(slot);
  pool_.Drain();
  std::lock_guard<std::mutex> lock(slot->mu);
  return slot->handle.core().ExportState();
}

bool EngineFleet::RestoreTenantState(std::uint64_t tenant,
                                     const core::EngineState& state) {
  TenantSlot* slot = EnsureSlot(tenant);
  std::lock_guard<std::mutex> lock(slot->mu);
  return slot->handle.core().RestoreState(state);
}

void EngineFleet::EnsureServing(std::uint64_t tenant) {
  TenantSlot* slot = EnsureSlot(tenant);
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    if (slot->replica != nullptr) return;  // already serving
  }
  auto replica = std::make_shared<serve::SnapshotReadReplica>(
      config_.fleet.snapshot, config_.umicro.decay_lambda);
  {
    // Priming happens under the slot mutex, serialized against the
    // tenant's worker; AttachSnapshotSink itself is idempotent, so even
    // a re-attach of the same sink can never double-prime the rings.
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->handle.core().AttachSnapshotSink(replica.get());
  }
  // Publish the replica to broker threads only after priming completed.
  std::lock_guard<std::mutex> lock(tenants_mu_);
  slot->replica = std::move(replica);
}

void EngineFleet::StopServing(std::uint64_t tenant) {
  TenantSlot* slot = FindSlot(tenant);
  if (slot == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->handle.core().AttachSnapshotSink(nullptr);
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  slot->replica.reset();
}

std::shared_ptr<const serve::SnapshotReadReplica> EngineFleet::Replica(
    std::uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return nullptr;
  return it->second->replica;
}

serve::ReplicaResolver EngineFleet::Resolver() {
  return [this](std::uint64_t tenant)
             -> std::shared_ptr<const serve::SnapshotReadReplica> {
    return Replica(tenant);
  };
}

double EngineFleet::ComputeSkew() const {
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const obs::Counter* counter : worker_points_) {
    const std::uint64_t points = counter->value();
    total += points;
    peak = std::max(peak, points);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(worker_points_.size());
  return static_cast<double>(peak) / mean;
}

FleetStats EngineFleet::Stats() const {
  FleetStats stats;
  stats.tenants = tenant_count();
  stats.points_ingested = points_counter_->value();
  stats.worker_points.reserve(worker_points_.size());
  for (const obs::Counter* counter : worker_points_) {
    stats.worker_points.push_back(counter->value());
  }
  stats.ingest_skew = ComputeSkew();
  skew_gauge_->Set(stats.ingest_skew);
  return stats;
}

}  // namespace umicro::fleet
