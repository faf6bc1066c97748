// EngineConfig: the one configuration object of the whole stack.
//
// Before this header, every subsystem grew its own option struct and
// callers (the CLI above all) threaded them around piecemeal:
// UMicroOptions + SnapshotPolicy into the engines, checkpoint cadence
// into resilience, broker knobs into serve. EngineConfig consolidates
// them: one value with per-field defaults describes an engine, a
// checkpointer, a query broker, and a tenant fleet. UMicroEngine,
// EngineFleet, FleetCheckpointer and QueryBrokerOptions::FromConfig
// accept it directly; EngineOptions remains as the sequential engine's
// deprecated per-subsystem shim. The sharded engine and the single-engine
// CheckpointManager still take their own option structs
// (parallel::ParallelEngineOptions, resilience::CheckpointPolicy), which
// callers fill from the umicro, snapshot and checkpoint slices.
//
// Layering: this header lives in core and therefore only names types
// core already owns plus plain scalars.

#ifndef UMICRO_CORE_CONFIG_H_
#define UMICRO_CORE_CONFIG_H_

#include <cstddef>

#include "core/snapshot.h"
#include "core/umicro.h"

namespace umicro::core {

/// Configuration of the sequential engine. Deprecated shim: new code
/// should carry a full EngineConfig and let subsystems slice it; this
/// struct survives because every existing constructor and test names
/// it.
struct EngineOptions {
  /// Online component configuration.
  UMicroOptions umicro;
  /// Snapshot cadence and pyramidal retention.
  SnapshotPolicy snapshot;
};

/// Crash-safe checkpointing knobs (resilience subsystem).
struct CheckpointConfig {
  /// Checkpoint after this many newly processed points (0 = never by
  /// count).
  std::size_t every_points = 0;
  /// Checkpoint after this much wall-clock time (0 = never by time).
  double every_seconds = 0.0;
  /// Keep only the newest N checkpoints/manifests (0 = keep all).
  std::size_t keep_last = 4;
};

/// Query-serving knobs (serve subsystem).
struct ServeConfig {
  /// Broker worker threads.
  std::size_t threads = 4;
  /// Broker queue bound (backpressure toward the front end). ANOMALY
  /// queries judge against umicro.boundary_factor (the paper's t).
  std::size_t max_queue = 1024;
};

/// Multi-tenant fleet knobs (fleet subsystem; docs/fleet.md).
struct FleetConfig {
  /// Tenant engines to pre-create; 0 disables fleet mode. Tenants can
  /// also be created lazily through EngineFleet::EnsureTenant.
  std::size_t tenants = 0;
  /// Ingest worker threads shared by all tenants (tenant -> worker by
  /// hash).
  std::size_t workers = 4;
  /// Per-worker queue capacity, in tenant batches.
  std::size_t queue_capacity = 1024;
  /// Points buffered per tenant before the batch is routed to its
  /// worker (drained through the batched kernel path).
  std::size_t tenant_batch = 64;
  /// Per-tenant pyramidal store, sized down from the single-engine
  /// default: a fleet of 10^5 tenants cannot afford alpha^l + 1 deep
  /// rings per order each, so l shrinks by one and snapshots come at a
  /// coarser cadence. Frames are delta-encoded by default -- the fleet
  /// is exactly the context where per-tenant store bytes dominate, and
  /// delta frames are lossless (bit-identical materialization).
  SnapshotPolicy snapshot = [] {
    SnapshotPolicy policy;
    policy.snapshot_every = 256;
    policy.pyramid_alpha = 2;
    policy.pyramid_l = 2;
    policy.tiering.mode = SnapshotStoreMode::kDelta;
    return policy;
  }();
};

/// The consolidated configuration. Every field group has working
/// defaults; a default-constructed EngineConfig describes the same
/// sequential engine `UMicroEngine(dims, EngineOptions{})` builds.
struct EngineConfig {
  /// Online algorithm tunables (shared by every engine and tenant).
  UMicroOptions umicro;
  /// Snapshot cadence / pyramidal retention of a single engine.
  SnapshotPolicy snapshot;
  /// Crash-safe checkpointing.
  CheckpointConfig checkpoint;
  /// Query serving.
  ServeConfig serve;
  /// Multi-tenant fleet.
  FleetConfig fleet;

  /// The core slice: what a sequential engine (or one fleet tenant with
  /// the single-engine store) consumes.
  EngineOptions CoreOptions() const { return {umicro, snapshot}; }

  /// The per-tenant slice: same algorithm, fleet-sized pyramidal store.
  EngineOptions TenantOptions() const { return {umicro, fleet.snapshot}; }
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_CONFIG_H_
