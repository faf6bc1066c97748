// umicro_cli: cluster a CSV/ARFF file or synthetic workload as a stream.
//
//   umicro_cli --input=connections.csv [--algorithm=umicro]
//              [--nmicro=100] [--boundary=3.0] [--thresh=3.0]
//              [--decay=0.0] [--eta=0.0] [--impute]
//              [--sample-interval=10000] [--max-rows=0]
//              [--centroids-out=clusters.csv] [--no-header]
//   umicro_cli --synthetic=syndrift --points=200000 --threads=4
//              --metrics-out=run_metrics --metrics-every=50000
//
// The input may be headered CSV (columns: values..., optional err_*,
// timestamp, label -- see io/csv_dataset.h), headerless CSV with a
// trailing label column (--no-header), ARFF (by .arff extension), or one
// of the built-in synthetic workloads (--synthetic). --eta applies the
// paper's noise model before clustering; --impute runs the online mean
// imputer over missing (NaN / '?') entries. When ground-truth labels
// exist, a purity series is printed.
//
// The umicro algorithm (sequential or sharded via --threads) runs behind
// the unified ClusteringEngine interface: pyramidal snapshots at the
// --snapshot-every cadence and a metrics registry exported with
// --metrics-out (JSON + CSV; --metrics-every re-exports periodically).
//
// Resilience (docs/resilience.md): --checkpoint-dir enables crash-safe
// checkpoints at the --checkpoint-every / --checkpoint-seconds cadence
// and --recover restores the newest valid one, replaying only the
// remainder of the input. --bad-record-policy runs the input through the
// ValidatingStream hardener (with --quarantine-out as the side file);
// --inject-faults corrupts the stream deterministically first, so the
// hardener has something to catch. --degrade arms the sharded pipeline's
// adaptive load shedding and worker supervision.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "baseline/clustream.h"
#include "baseline/stream_kmeans.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/summary.h"
#include "core/umicro.h"
#include "dist/aggregator.h"
#include "dist/leaf.h"
#include "eval/experiment.h"
#include "fleet/engine_fleet.h"
#include "fleet/fleet_checkpoint.h"
#include "index/centroid_index.h"
#include "io/arff_dataset.h"
#include "io/csv_dataset.h"
#include "io/load_stats.h"
#include "io/snapshot_io.h"
#include "io/state_io.h"
#include "net/chaos.h"
#include "net/socket.h"
#include "net/socket_stream.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "parallel/sharded_umicro.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"
#include "resilience/validating_stream.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "stream/imputation.h"
#include "stream/perturbation.h"
#include "stream/stream_stats.h"
#include "stream/vector_stream.h"
#include "synth/workloads.h"
#include "util/csv_writer.h"
#include "util/paths.h"

namespace {

struct CliOptions {
  std::string input;
  std::string synthetic;
  std::size_t points = 100000;
  std::string algorithm = "umicro";
  std::size_t nmicro = 100;
  double boundary = 3.0;
  double thresh = 3.0;
  double decay = 0.0;
  std::string similarity = "counting";
  std::string assign_index = "auto";
  double eta = 0.0;
  bool impute = false;
  bool no_header = false;
  std::size_t sample_interval = 10000;
  std::size_t batch = 1;
  std::size_t max_rows = 0;
  std::string centroids_out;
  bool describe = false;
  std::size_t threads = 0;
  std::size_t merge_every = 8192;
  std::string backpressure = "block";
  std::size_t queue_capacity = 1024;
  std::size_t snapshot_every = 4096;
  // Pyramidal store encoding (docs/snapshots.md). Empty keeps each
  // context's own default: full for standalone engines, delta in the
  // fleet.
  std::string snapshot_store;
  std::size_t snapshot_budget_mb = 64;
  bool snapshot_budget_set = false;
  std::string snapshot_spill_dir;
  std::string metrics_out;
  std::size_t metrics_every = 0;
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 0;
  double checkpoint_seconds = 0.0;
  bool recover = false;
  std::string bad_record_policy;
  std::string quarantine_out;
  std::string inject_faults;
  std::uint64_t fault_seed = 0xfa117u;
  bool degrade = false;
  bool serve = false;
  std::size_t serve_threads = 4;
  // Multi-tenant fleet (docs/fleet.md).
  std::size_t tenants = 0;
  std::string tenant_key = "round_robin";
  // Distributed merge tree (docs/distributed.md).
  std::string role;  // "" (standalone) | leaf | agg | query
  std::string connect;
  std::string listen;
  std::size_t dims = 0;
  std::uint64_t leaf_id = 0;
  std::size_t delta_every = 4096;
  std::size_t stride = 1;
  std::size_t offset = 0;
  std::uint64_t expect_points = 0;
  double expect_timeout = 300.0;
  std::string state_out;
  double linger_seconds = 0.0;
  // Failover + chaos (docs/distributed.md).
  std::string standby;  // comma-separated HOST:PORT list (leaf role)
  bool start_as_standby = false;
  double stale_after = 0.0;  // seconds; 0 disables liveness tracking
  std::string net_chaos;
  std::uint64_t net_chaos_seed = 0xc4a05u;
  // Leaf-only flags remember whether they were given explicitly so the
  // role validation can reject them on non-leaf roles (their defaults
  // are not sentinels).
  bool delta_every_set = false;
  bool stride_set = false;
  bool offset_set = false;
};

bool ParseFlag(const std::string& arg, const char* name,
               std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses `value`, the text of flag `arg`, as one whole number: an
/// unsigned count (in `base`; 0 also accepts 0x-hex) or a finite double.
/// Empty text, trailing junk, a sign on a count and out-of-range values
/// print one diagnostic line and return false (the caller exits 2).
template <typename T>
bool ParseNumber(const std::string& arg, const std::string& value, T* out,
                 int base = 10) {
  const char* text = value.c_str();
  char* end = nullptr;
  errno = 0;
  bool ok = !value.empty() && std::isspace(static_cast<unsigned char>(
                                  text[0])) == 0;
  if constexpr (std::is_floating_point_v<T>) {
    *out = std::strtod(text, &end);
    ok = ok && std::isfinite(*out);
  } else {
    ok = ok && text[0] != '-' && text[0] != '+';
    const unsigned long long parsed = std::strtoull(text, &end, base);
    ok = ok && parsed <= std::numeric_limits<T>::max();
    *out = static_cast<T>(parsed);
  }
  ok = ok && errno == 0 && end == text + value.size();
  if (!ok) {
    std::fprintf(stderr, "invalid %s: expected %s\n", arg.c_str(),
                 std::is_floating_point_v<T> ? "a finite number"
                                             : "a non-negative integer");
  }
  return ok;
}

/// Maps the --snapshot-store flags onto the store's tiering
/// configuration. Call only after the fail-fast validation accepted the
/// combination; an empty --snapshot-store yields the full-store default.
umicro::core::SnapshotTiering MakeTiering(const CliOptions& cli) {
  umicro::core::SnapshotTiering tiering;
  if (cli.snapshot_store == "delta") {
    tiering.mode = umicro::core::SnapshotStoreMode::kDelta;
  } else if (cli.snapshot_store == "tiered") {
    tiering.mode = umicro::core::SnapshotStoreMode::kTiered;
    tiering.budget_bytes =
        cli.snapshot_budget_mb * std::size_t{1024} * std::size_t{1024};
    if (!cli.snapshot_spill_dir.empty()) {
      tiering.spill_dir = cli.snapshot_spill_dir;
      tiering.codec = umicro::io::MakeSnapshotSpillCodec();
    }
  }
  return tiering;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: umicro_cli (--input=FILE | --synthetic=NAME) [options]\n"
      "  --synthetic=NAME      syndrift|network|forest workload\n"
      "  --points=N            synthetic stream length (default 100000)\n"
      "  --algorithm=umicro|clustream|stream-kmeans   (default umicro)\n"
      "  --nmicro=N            micro-cluster budget (default 100)\n"
      "  --boundary=T          uncertainty-boundary factor t (default 3)\n"
      "  --thresh=T            dimension-counting threshold (default 3)\n"
      "  --decay=LAMBDA        exponential decay rate (default 0 = off)\n"
      "  --similarity=S        closest-cluster criterion: counting|\n"
      "                        distance (default counting)\n"
      "  --assign-index=K      candidate index for the closest-cluster\n"
      "                        scan: flat|kdtree|auto (default\n"
      "                        auto; distance similarity only --\n"
      "                        docs/indexing.md)\n"
      "  --eta=E               perturb input with the paper's noise model\n"
      "  --impute              impute missing entries (online mean)\n"
      "  --no-header           headerless CSV, last column is the label\n"
      "  --describe            print the heaviest clusters at the end\n"
      "  --threads=N           shard umicro ingest across N worker "
      "threads\n"
      "  --merge-every=M       points between global merges (default "
      "8192)\n"
      "  --backpressure=P      block|drop_oldest|drop_newest (default "
      "block)\n"
      "  --queue-capacity=N    per-shard queue capacity in batches\n"
      "  --snapshot-every=N    pyramidal snapshot cadence, 0 disables "
      "(default 4096)\n"
      "  --snapshot-store=M    store encoding: full|delta|tiered\n"
      "                        (default full; --tenants fleets default to\n"
      "                        delta -- docs/snapshots.md)\n"
      "  --snapshot-budget-mb=N  tiered-store byte budget before cold\n"
      "                        demotion (default 64; requires\n"
      "                        --snapshot-store=tiered)\n"
      "  --snapshot-spill-dir=DIR  spill demoted frames to checksummed\n"
      "                        files here instead of quantizing them\n"
      "                        (requires --snapshot-store=tiered)\n"
      "  --metrics-out=STEM    write STEM.json + STEM.csv metric dumps\n"
      "  --metrics-every=N     re-export metrics every N points\n"
      "  --sample-interval=N   purity sample cadence (default 10000)\n"
      "  --batch=N             ingest in batches of N points through the\n"
      "                        vectorized kernels (default 1 = per-point)\n"
      "  --max-rows=N          read at most N rows (default all)\n"
      "  --centroids-out=FILE  write final centroids as CSV\n"
      "  --checkpoint-dir=DIR  write crash-safe engine checkpoints here\n"
      "  --checkpoint-every=N  checkpoint every N processed points\n"
      "  --checkpoint-seconds=T  checkpoint every T wall-clock seconds\n"
      "  --recover             restore the newest valid checkpoint and\n"
      "                        replay only the remaining input\n"
      "  --bad-record-policy=P repair|quarantine|drop malformed records\n"
      "  --quarantine-out=FILE side CSV receiving quarantined records\n"
      "  --inject-faults=SPEC  deterministic stream faults, e.g.\n"
      "                        corrupt=0.01,duplicate=0.01,reorder=0.01,"
      "gap=0.001,max-gap=16\n"
      "  --fault-seed=N        fault-injection seed (default 0xfa117)\n"
      "  --degrade             adaptive load shedding + worker\n"
      "                        supervision (requires --threads)\n"
      "  --serve               after ingest, answer CLUSTER/NEAREST/\n"
      "                        ANOMALY/STATS queries on stdin/stdout\n"
      "                        (docs/serving.md; requires "
      "--algorithm=umicro)\n"
      "  --serve-threads=N     query worker threads for --serve "
      "(default 4)\n"
      "multi-tenant fleet (docs/fleet.md):\n"
      "  --tenants=N           run N independent tenant engines behind\n"
      "                        one fleet (requires --algorithm=umicro;\n"
      "                        --threads sets the shared worker count)\n"
      "  --tenant-key=K        record-to-tenant routing: round_robin|\n"
      "                        hash|label (default round_robin)\n"
      "distributed merge tree (docs/distributed.md):\n"
      "  --role=leaf|agg|query leaf ingester, aggregator, or query "
      "client\n"
      "  --connect=HOST:PORT   aggregator address (leaf and query "
      "roles)\n"
      "  --listen=HOST:PORT    bind address (agg role; port 0 = "
      "ephemeral)\n"
      "  --dims=D              stream dimensionality (agg role)\n"
      "  --leaf-id=N           this leaf's shard slot, dense from 0\n"
      "  --delta-every=N       ship a state delta every N points "
      "(default 4096,\n"
      "                        0 = only the final one)\n"
      "  --stride=N --offset=K ingest rows with index %% N == K (the\n"
      "                        round-robin substream of shard K of N)\n"
      "  --expect-points=N     agg: write --state-out once N points "
      "merged\n"
      "  --expect-timeout=T    agg: give up waiting after T seconds "
      "(default 300)\n"
      "  --state-out=FILE      canonical micro-cluster dump (agg and\n"
      "                        standalone; byte-comparable)\n"
      "  --linger-seconds=T    agg: keep serving T seconds after "
      "--state-out\n"
      "  --standby=H:P[,H:P]   leaf: standby aggregator endpoints, tried\n"
      "                        in order when the primary stops acking\n"
      "  --start-as-standby    agg: merge warm deltas but report role\n"
      "                        standby until the leaves fail over here\n"
      "  --stale-after=T       agg: exclude a leaf silent for T seconds\n"
      "                        from the merged view (degraded answers)\n"
      "  --net-chaos=SPEC      deterministic network fault injection,\n"
      "                        e.g. drop=0.05,delay=0.1,delay-ms=20,"
      "truncate=0.01,\n"
      "                        bitflip=0.01,partition=0.02,partition-ms="
      "300\n"
      "  --net-chaos-seed=N    chaos seed (default 0xc4a05)\n");
}

/// Parses the --inject-faults spec ("key=value,..." with keys corrupt,
/// duplicate, reorder, gap, max-gap); std::nullopt on any malformed or
/// out-of-range entry.
std::optional<umicro::resilience::FaultInjectionOptions> ParseFaultSpec(
    const std::string& spec, std::uint64_t seed) {
  umicro::resilience::FaultInjectionOptions options;
  options.seed = seed;
  std::size_t start = 0;
  while (start < spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string key = item.substr(0, eq);
    char* parse_end = nullptr;
    const double value = std::strtod(item.c_str() + eq + 1, &parse_end);
    if (parse_end != item.c_str() + item.size()) return std::nullopt;
    if (key == "max-gap") {
      if (value < 1.0) return std::nullopt;
      options.max_gap_length = static_cast<std::size_t>(value);
      continue;
    }
    if (value < 0.0 || value > 1.0) return std::nullopt;
    if (key == "corrupt") {
      options.corrupt_probability = value;
    } else if (key == "duplicate") {
      options.duplicate_probability = value;
    } else if (key == "reorder") {
      options.reorder_probability = value;
    } else if (key == "gap") {
      options.gap_probability = value;
    } else {
      return std::nullopt;
    }
  }
  return options;
}

/// Parses the comma-separated --standby endpoint list; std::nullopt on
/// any malformed HOST:PORT entry (or an empty list).
std::optional<std::vector<umicro::net::SocketAddress>> ParseStandbyList(
    const std::string& spec) {
  std::vector<umicro::net::SocketAddress> endpoints;
  std::size_t start = 0;
  while (start < spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::optional<umicro::net::SocketAddress> address =
        umicro::net::ParseHostPort(spec.substr(start, end - start));
    if (!address.has_value()) return std::nullopt;
    endpoints.push_back(*address);
    start = end + 1;
  }
  if (endpoints.empty()) return std::nullopt;
  return endpoints;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// --role=agg: listen, merge leaf deltas, serve queries. No dataset is
/// loaded; everything arrives over the socket.
int RunAggregatorRole(const CliOptions& cli) {
  const std::optional<umicro::net::SocketAddress> listen =
      umicro::net::ParseHostPort(cli.listen);
  if (!listen.has_value()) {
    std::fprintf(stderr, "malformed --listen address: %s\n",
                 cli.listen.c_str());
    return 2;
  }
  umicro::obs::MetricsRegistry metrics;
  umicro::dist::AggregatorOptions options;
  options.listen = *listen;
  options.dimensions = cli.dims;
  options.dimension_threshold = cli.thresh;
  options.global_budget = cli.nmicro;
  options.snapshot.snapshot_every = cli.snapshot_every;
  options.snapshot.tiering = MakeTiering(cli);
  options.decay_lambda = cli.decay;
  options.broker.num_threads = cli.serve_threads;
  options.broker.boundary_factor = cli.boundary;
  options.start_as_standby = cli.start_as_standby;
  options.stale_after_ms =
      static_cast<int>(cli.stale_after * 1000.0 + 0.5);
  umicro::dist::Aggregator aggregator(options, &metrics);
  if (!aggregator.Start()) {
    std::fprintf(stderr, "failed to listen on %s\n", cli.listen.c_str());
    return 1;
  }
  // The e2e harness scrapes this line for the resolved (ephemeral)
  // port; keep its exact shape.
  std::printf("aggregator listening on %s:%u\n", listen->host.c_str(),
              static_cast<unsigned>(aggregator.port()));
  std::printf("aggregator role: %s\n", aggregator.role().c_str());
  std::fflush(stdout);

  if (cli.expect_points > 0) {
    const int timeout_ms =
        static_cast<int>(std::max(1.0, cli.expect_timeout * 1000.0));
    if (!aggregator.WaitForPoints(cli.expect_points, timeout_ms)) {
      std::fprintf(stderr,
                   "timed out waiting for %llu points (%llu merged from "
                   "%zu leaves)\n",
                   static_cast<unsigned long long>(cli.expect_points),
                   static_cast<unsigned long long>(
                       aggregator.total_points()),
                   aggregator.leaves_known());
      aggregator.Stop();
      return 1;
    }
    std::printf("merged %llu points from %zu leaves (%llu deltas "
                "applied)\n",
                static_cast<unsigned long long>(aggregator.total_points()),
                aggregator.leaves_known(),
                static_cast<unsigned long long>(
                    aggregator.deltas_applied()));
    if (!cli.state_out.empty()) {
      if (!umicro::io::WriteMicroClustersFile(aggregator.MergedClusters(),
                                              cli.dims, cli.state_out)) {
        std::fprintf(stderr, "failed to write %s\n", cli.state_out.c_str());
        aggregator.Stop();
        return 1;
      }
      std::printf("state written to %s\n", cli.state_out.c_str());
    }
    std::fflush(stdout);
    if (cli.linger_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cli.linger_seconds));
    }
  } else {
    // No point target: serve until stdin closes (the operator's or the
    // harness's hangup signal).
    std::string line;
    while (std::getline(std::cin, line)) {
    }
  }
  aggregator.Stop();
  if (!cli.metrics_out.empty()) {
    umicro::obs::MetricsExporter exporter(&metrics, cli.metrics_out, 0);
    if (!exporter.ExportNow()) {
      std::fprintf(stderr, "failed to write metrics to %s.{json,csv}\n",
                   cli.metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

/// --role=query: a line-protocol client. Requests come from stdin, one
/// per line; responses are echoed to stdout in order.
int RunQueryRole(const CliOptions& cli) {
  const std::optional<umicro::net::SocketAddress> address =
      umicro::net::ParseHostPort(cli.connect);
  if (!address.has_value()) {
    std::fprintf(stderr, "malformed --connect address: %s\n",
                 cli.connect.c_str());
    return 2;
  }
  std::optional<umicro::net::Socket> socket =
      umicro::net::TcpConnect(*address, 5000);
  if (!socket.has_value()) {
    std::fprintf(stderr, "failed to connect to %s\n", cli.connect.c_str());
    return 1;
  }
  umicro::net::SocketStream stream(&socket.value(), 30000);
  std::string line;
  bool quit_sent = false;
  while (std::getline(std::cin, line)) {
    stream << line << "\n" << std::flush;
    if (line == "QUIT") {
      quit_sent = true;
      break;
    }
    // One request, one response -- except CLUSTER, whose response runs
    // through the END marker.
    std::string reply;
    if (!std::getline(stream, reply)) break;
    std::printf("%s\n", reply.c_str());
    if (reply.rfind("OK CLUSTER", 0) == 0) {
      while (std::getline(stream, reply)) {
        std::printf("%s\n", reply.c_str());
        if (reply == "END") break;
      }
    }
  }
  if (!quit_sent) stream << "QUIT\n" << std::flush;
  std::string reply;
  while (std::getline(stream, reply)) {
    std::printf("%s\n", reply.c_str());
  }
  return 0;
}

// ---- Fleet mode (docs/fleet.md) --------------------------------------

/// Deterministic record -> tenant routing for --tenants. Every key
/// depends only on the record and its original row index, so a
/// --recover rerun assigns each record to the same tenant and the
/// per-tenant replay offsets line up exactly.
std::uint64_t AssignTenant(const umicro::stream::UncertainPoint& point,
                           std::size_t row, const CliOptions& cli) {
  if (cli.tenant_key == "hash") {
    // FNV-1a over the value bytes: stable across runs and hosts.
    std::uint64_t hash = 1469598103934665603ull;
    for (double v : point.values) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (unsigned char b : bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
      }
    }
    return hash % cli.tenants;
  }
  if (cli.tenant_key == "label") {
    const std::uint64_t label =
        point.label < 0 ? 0u : static_cast<std::uint64_t>(point.label);
    return label % cli.tenants;
  }
  return static_cast<std::uint64_t>(row) % cli.tenants;  // round_robin
}

/// Applies --similarity and --assign-index to a UMicroOptions (shared
/// by the standalone/sharded/leaf path and the fleet path). Returns
/// false (with a diagnostic) on an unknown value.
bool ApplyAssignOptions(const CliOptions& cli,
                        umicro::core::UMicroOptions* options) {
  if (cli.similarity == "counting") {
    options->similarity = umicro::core::SimilarityMode::kDimensionCounting;
  } else if (cli.similarity == "distance") {
    options->similarity = umicro::core::SimilarityMode::kExpectedDistance;
  } else {
    std::fprintf(stderr,
                 "unknown similarity: %s (expected counting|distance)\n",
                 cli.similarity.c_str());
    return false;
  }
  const std::optional<umicro::index::IndexKind> kind =
      umicro::index::ParseIndexKind(cli.assign_index);
  if (!kind.has_value()) {
    std::fprintf(
        stderr,
        "unknown assign index: %s (expected flat|kdtree|auto)\n",
        cli.assign_index.c_str());
    return false;
  }
  options->assign_index = *kind;
  return true;
}

/// The --tenants path: one EngineFleet instead of one engine. The
/// dataset arrives already hardened/imputed/perturbed, so fleet runs
/// see exactly the stream a single-engine run would.
int RunFleetMode(const CliOptions& cli,
                 const umicro::stream::Dataset& dataset) {
  umicro::core::EngineConfig config;
  config.umicro.num_micro_clusters = cli.nmicro;
  config.umicro.boundary_factor = cli.boundary;
  config.umicro.dimension_threshold = cli.thresh;
  config.umicro.decay_lambda = cli.decay;
  if (!ApplyAssignOptions(cli, &config.umicro)) return 2;
  config.fleet.tenants = cli.tenants;
  // The fleet's per-tenant store defaults to delta encoding; an explicit
  // --snapshot-store overrides it (full for debugging, tiered to cap the
  // fleet's snapshot bytes).
  if (!cli.snapshot_store.empty()) {
    config.fleet.snapshot.tiering = MakeTiering(cli);
  }
  if (cli.threads > 0) config.fleet.workers = cli.threads;
  config.fleet.queue_capacity = cli.queue_capacity;
  config.serve.threads = cli.serve_threads;
  config.checkpoint.dir = cli.checkpoint_dir;
  config.checkpoint.every_points = cli.checkpoint_every;
  config.checkpoint.every_seconds = cli.checkpoint_seconds;

  std::unique_ptr<umicro::fleet::EngineFleet> fleet;
  std::map<std::uint64_t, std::uint64_t> resume_from;
  if (cli.recover) {
    umicro::fleet::RecoveredFleet recovered =
        umicro::fleet::RecoverOrCreateFleet(cli.checkpoint_dir,
                                            dataset.dimensions(), config);
    fleet = std::move(recovered.fleet);
    if (recovered.recovered) {
      resume_from = std::move(recovered.resume_from);
      std::printf("recovered fleet manifest %llu: %zu tenants restored, "
                  "%zu corrupt skipped, %zu manifests passed over\n",
                  static_cast<unsigned long long>(recovered.manifest_seq),
                  recovered.tenants_restored, recovered.corrupt_skipped,
                  recovered.manifests_skipped);
    } else {
      std::printf("no usable fleet manifest in %s; starting fresh\n",
                  cli.checkpoint_dir.c_str());
    }
  } else {
    fleet = std::make_unique<umicro::fleet::EngineFleet>(
        dataset.dimensions(), config);
  }
  std::printf("fleet: %zu tenants on %zu workers (%s routing)\n",
              cli.tenants,
              cli.threads > 0 ? cli.threads : config.fleet.workers,
              cli.tenant_key.c_str());

  std::unique_ptr<umicro::fleet::FleetCheckpointer> checkpointer;
  if (!cli.checkpoint_dir.empty()) {
    checkpointer = std::make_unique<umicro::fleet::FleetCheckpointer>(
        cli.checkpoint_dir, config.checkpoint, &fleet->metrics());
  }
  std::unique_ptr<umicro::obs::MetricsExporter> exporter;
  if (!cli.metrics_out.empty()) {
    exporter = std::make_unique<umicro::obs::MetricsExporter>(
        &fleet->metrics(), cli.metrics_out, cli.metrics_every);
  }
  if (cli.serve) {
    // Attach every tenant's read replica before any point flows, the
    // same ordering the single-engine path uses (docs/serving.md).
    for (std::uint64_t tenant : fleet->TenantIds()) {
      fleet->EnsureServing(tenant);
    }
  }

  // Ingest. Routing is deterministic, so each tenant's substream is
  // reproducible; after recovery the first resume_from[tenant] records
  // of that substream are exactly what its checkpoint already holds.
  const auto started = std::chrono::steady_clock::now();
  std::map<std::uint64_t, std::uint64_t> routed;  // tenant -> seen
  std::uint64_t ingested = 0;
  std::uint64_t skipped = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::uint64_t tenant = AssignTenant(dataset[i], i, cli);
    const std::uint64_t position = routed[tenant]++;
    const auto offset = resume_from.find(tenant);
    if (offset != resume_from.end() && position < offset->second) {
      ++skipped;
      continue;
    }
    fleet->Ingest(tenant, dataset[i]);
    ++ingested;
    // Cadence checks batched: Stats() walks every worker counter.
    if ((ingested & 255u) == 0) {
      if (exporter != nullptr && cli.metrics_every > 0) {
        exporter->TickPoints(static_cast<std::size_t>(ingested));
      }
      if (checkpointer != nullptr) checkpointer->MaybeCheckpoint(*fleet);
    }
  }
  fleet->Flush();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  const umicro::fleet::FleetStats stats = fleet->Stats();
  std::printf("fleet ingested %llu points",
              static_cast<unsigned long long>(ingested));
  if (skipped > 0) {
    std::printf(" (%llu already checkpointed)",
                static_cast<unsigned long long>(skipped));
  }
  std::printf(": skew %.3f, %.0f points/sec\n", stats.ingest_skew,
              elapsed > 0.0 ? static_cast<double>(ingested) / elapsed
                            : 0.0);

  if (checkpointer != nullptr) {
    if (!checkpointer->CheckpointNow(*fleet)) {
      std::fprintf(stderr, "failed to write final fleet checkpoint in "
                   "%s\n",
                   cli.checkpoint_dir.c_str());
      return 1;
    }
    std::printf("fleet checkpoints: %zu passes, last pass rewrote "
                "%zu/%zu tenants (dirty ratio %.3f), manifest seq "
                "%llu\n",
                checkpointer->checkpoints_written(),
                checkpointer->last_dirty_count(), fleet->tenant_count(),
                checkpointer->last_dirty_ratio(),
                static_cast<unsigned long long>(checkpointer->last_seq()));
  }

  if (cli.serve) {
    umicro::serve::QueryBrokerOptions broker_options =
        umicro::serve::QueryBrokerOptions::FromConfig(config);
    umicro::serve::QueryBroker broker(fleet->Resolver(), broker_options,
                                      &fleet->metrics());
    std::printf("serving %zu tenants on stdin/stdout with %zu query "
                "threads (HELLO/TENANT/CLUSTER/NEAREST/ANOMALY/STATS/"
                "QUIT)\n",
                fleet->tenant_count(), cli.serve_threads);
    std::fflush(stdout);
    const std::size_t served =
        umicro::serve::ServeLineProtocol(broker, std::cin, std::cout);
    std::printf("served %zu queries\n", served);
  }

  if (exporter != nullptr) {
    if (exporter->ExportNow()) {
      std::printf("metrics written to %s.json / %s.csv\n",
                  exporter->base_path().c_str(),
                  exporter->base_path().c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s.{json,csv}\n",
                   exporter->base_path().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "input", &value)) {
      cli.input = value;
    } else if (ParseFlag(arg, "synthetic", &value)) {
      cli.synthetic = value;
    } else if (ParseFlag(arg, "points", &value)) {
      if (!ParseNumber(arg, value, &cli.points)) return 2;
    } else if (ParseFlag(arg, "algorithm", &value)) {
      cli.algorithm = value;
    } else if (ParseFlag(arg, "nmicro", &value)) {
      if (!ParseNumber(arg, value, &cli.nmicro)) return 2;
    } else if (ParseFlag(arg, "boundary", &value)) {
      if (!ParseNumber(arg, value, &cli.boundary)) return 2;
    } else if (ParseFlag(arg, "thresh", &value)) {
      if (!ParseNumber(arg, value, &cli.thresh)) return 2;
    } else if (ParseFlag(arg, "decay", &value)) {
      if (!ParseNumber(arg, value, &cli.decay)) return 2;
    } else if (ParseFlag(arg, "similarity", &value)) {
      cli.similarity = value;
    } else if (ParseFlag(arg, "assign-index", &value)) {
      cli.assign_index = value;
    } else if (ParseFlag(arg, "eta", &value)) {
      if (!ParseNumber(arg, value, &cli.eta)) return 2;
    } else if (arg == "--impute") {
      cli.impute = true;
    } else if (arg == "--describe") {
      cli.describe = true;
    } else if (arg == "--no-header") {
      cli.no_header = true;
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!ParseNumber(arg, value, &cli.threads)) return 2;
    } else if (ParseFlag(arg, "merge-every", &value)) {
      if (!ParseNumber(arg, value, &cli.merge_every)) return 2;
    } else if (ParseFlag(arg, "backpressure", &value)) {
      cli.backpressure = value;
    } else if (ParseFlag(arg, "queue-capacity", &value)) {
      if (!ParseNumber(arg, value, &cli.queue_capacity)) return 2;
    } else if (ParseFlag(arg, "snapshot-every", &value)) {
      if (!ParseNumber(arg, value, &cli.snapshot_every)) return 2;
    } else if (ParseFlag(arg, "snapshot-store", &value)) {
      cli.snapshot_store = value;
    } else if (ParseFlag(arg, "snapshot-budget-mb", &value)) {
      if (!ParseNumber(arg, value, &cli.snapshot_budget_mb)) return 2;
      cli.snapshot_budget_set = true;
    } else if (ParseFlag(arg, "snapshot-spill-dir", &value)) {
      cli.snapshot_spill_dir = value;
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      cli.metrics_out = value;
    } else if (ParseFlag(arg, "metrics-every", &value)) {
      if (!ParseNumber(arg, value, &cli.metrics_every)) return 2;
    } else if (ParseFlag(arg, "sample-interval", &value)) {
      if (!ParseNumber(arg, value, &cli.sample_interval)) return 2;
    } else if (ParseFlag(arg, "batch", &value)) {
      if (!ParseNumber(arg, value, &cli.batch)) return 2;
    } else if (ParseFlag(arg, "max-rows", &value)) {
      if (!ParseNumber(arg, value, &cli.max_rows)) return 2;
    } else if (ParseFlag(arg, "centroids-out", &value)) {
      cli.centroids_out = value;
    } else if (ParseFlag(arg, "checkpoint-dir", &value)) {
      cli.checkpoint_dir = value;
    } else if (ParseFlag(arg, "checkpoint-every", &value)) {
      if (!ParseNumber(arg, value, &cli.checkpoint_every)) return 2;
    } else if (ParseFlag(arg, "checkpoint-seconds", &value)) {
      if (!ParseNumber(arg, value, &cli.checkpoint_seconds)) return 2;
    } else if (arg == "--recover") {
      cli.recover = true;
    } else if (ParseFlag(arg, "bad-record-policy", &value)) {
      cli.bad_record_policy = value;
    } else if (ParseFlag(arg, "quarantine-out", &value)) {
      cli.quarantine_out = value;
    } else if (ParseFlag(arg, "inject-faults", &value)) {
      cli.inject_faults = value;
    } else if (ParseFlag(arg, "fault-seed", &value)) {
      if (!ParseNumber(arg, value, &cli.fault_seed, 0)) return 2;
    } else if (arg == "--degrade") {
      cli.degrade = true;
    } else if (arg == "--serve") {
      cli.serve = true;
    } else if (ParseFlag(arg, "serve-threads", &value)) {
      if (!ParseNumber(arg, value, &cli.serve_threads)) return 2;
    } else if (ParseFlag(arg, "tenants", &value)) {
      if (!ParseNumber(arg, value, &cli.tenants)) return 2;
    } else if (ParseFlag(arg, "tenant-key", &value)) {
      cli.tenant_key = value;
    } else if (ParseFlag(arg, "role", &value)) {
      cli.role = value;
    } else if (ParseFlag(arg, "connect", &value)) {
      cli.connect = value;
    } else if (ParseFlag(arg, "listen", &value)) {
      cli.listen = value;
    } else if (ParseFlag(arg, "dims", &value)) {
      if (!ParseNumber(arg, value, &cli.dims)) return 2;
    } else if (ParseFlag(arg, "leaf-id", &value)) {
      if (!ParseNumber(arg, value, &cli.leaf_id)) return 2;
    } else if (ParseFlag(arg, "delta-every", &value)) {
      if (!ParseNumber(arg, value, &cli.delta_every)) return 2;
      cli.delta_every_set = true;
    } else if (ParseFlag(arg, "stride", &value)) {
      if (!ParseNumber(arg, value, &cli.stride)) return 2;
      cli.stride_set = true;
    } else if (ParseFlag(arg, "offset", &value)) {
      if (!ParseNumber(arg, value, &cli.offset)) return 2;
      cli.offset_set = true;
    } else if (ParseFlag(arg, "standby", &value)) {
      cli.standby = value;
    } else if (arg == "--start-as-standby") {
      cli.start_as_standby = true;
    } else if (ParseFlag(arg, "stale-after", &value)) {
      if (!ParseNumber(arg, value, &cli.stale_after)) return 2;
    } else if (ParseFlag(arg, "net-chaos", &value)) {
      cli.net_chaos = value;
    } else if (ParseFlag(arg, "net-chaos-seed", &value)) {
      if (!ParseNumber(arg, value, &cli.net_chaos_seed, 0)) return 2;
    } else if (ParseFlag(arg, "expect-points", &value)) {
      if (!ParseNumber(arg, value, &cli.expect_points)) return 2;
    } else if (ParseFlag(arg, "expect-timeout", &value)) {
      if (!ParseNumber(arg, value, &cli.expect_timeout)) return 2;
    } else if (ParseFlag(arg, "state-out", &value)) {
      cli.state_out = value;
    } else if (ParseFlag(arg, "linger-seconds", &value)) {
      if (!ParseNumber(arg, value, &cli.linger_seconds)) return 2;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  // Values the library's constructors would abort on are usage errors.
  if (cli.nmicro == 0 || cli.sample_interval == 0 ||
      cli.queue_capacity == 0) {
    std::fprintf(stderr, "--nmicro, --sample-interval and --queue-capacity "
                 "must be at least 1\n");
    return 2;
  }
  if (cli.boundary <= 0.0 || cli.thresh <= 0.0) {
    std::fprintf(stderr, "--boundary and --thresh must be > 0\n");
    return 2;
  }
  if (cli.decay < 0.0 || cli.eta < 0.0) {
    std::fprintf(stderr, "--decay and --eta must be >= 0\n");
    return 2;
  }
  // Snapshot-store flags are validated before the role dispatch: every
  // role that owns a pyramidal store honors them.
  if (!cli.snapshot_store.empty() && cli.snapshot_store != "full" &&
      cli.snapshot_store != "delta" && cli.snapshot_store != "tiered") {
    std::fprintf(stderr,
                 "unknown --snapshot-store: %s (want full, delta, or "
                 "tiered)\n",
                 cli.snapshot_store.c_str());
    return 2;
  }
  if ((cli.snapshot_budget_set || !cli.snapshot_spill_dir.empty()) &&
      cli.snapshot_store != "tiered") {
    std::fprintf(stderr,
                 "--snapshot-budget-mb/--snapshot-spill-dir require "
                 "--snapshot-store=tiered (full and delta stores never "
                 "demote frames)\n");
    return 2;
  }
  if (!cli.snapshot_spill_dir.empty() &&
      !umicro::util::EnsureDirectory(cli.snapshot_spill_dir)) {
    std::fprintf(stderr, "cannot create --snapshot-spill-dir: %s\n",
                 cli.snapshot_spill_dir.c_str());
    return 1;
  }
  // ---- Distributed roles ---------------------------------------------
  // agg and query never load a dataset; they are dispatched before the
  // standalone/leaf validation below.
  if (!cli.role.empty() && cli.role != "leaf" && cli.role != "agg" &&
      cli.role != "query") {
    std::fprintf(stderr, "unknown --role: %s (want leaf, agg, or query)\n",
                 cli.role.c_str());
    return 2;
  }
  // Role/flag combinations fail fast (exit 2) before any socket or
  // dataset work: a misconfigured process in a multi-host topology
  // should die at launch, not half-participate.
  if (cli.role != "leaf") {
    if (!cli.standby.empty()) {
      std::fprintf(stderr,
                   "--standby requires --role=leaf (the leaf owns the "
                   "failover order; an aggregator is an endpoint, not a "
                   "chooser)\n");
      return 2;
    }
    if (cli.delta_every_set || cli.stride_set || cli.offset_set) {
      std::fprintf(stderr,
                   "--delta-every/--stride/--offset require --role=leaf\n");
      return 2;
    }
  }
  if (cli.role != "agg") {
    if (cli.start_as_standby) {
      std::fprintf(stderr, "--start-as-standby requires --role=agg\n");
      return 2;
    }
    if (cli.stale_after != 0.0) {
      std::fprintf(stderr, "--stale-after requires --role=agg\n");
      return 2;
    }
  }
  if (cli.stale_after < 0.0) {
    std::fprintf(stderr, "--stale-after must be >= 0 seconds\n");
    return 2;
  }
  std::optional<umicro::net::ChaosOptions> chaos_options;
  if (!cli.net_chaos.empty()) {
    if (cli.role != "leaf" && cli.role != "agg") {
      std::fprintf(stderr,
                   "--net-chaos requires --role=leaf or --role=agg (it "
                   "wraps the merge tree's sockets)\n");
      return 2;
    }
    chaos_options =
        umicro::net::ParseChaosSpec(cli.net_chaos, cli.net_chaos_seed);
    if (!chaos_options.has_value()) {
      std::fprintf(stderr, "malformed --net-chaos spec: %s\n",
                   cli.net_chaos.c_str());
      return 2;
    }
  }
  std::vector<umicro::net::SocketAddress> standby_endpoints;
  if (!cli.standby.empty()) {
    std::optional<std::vector<umicro::net::SocketAddress>> parsed =
        ParseStandbyList(cli.standby);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "malformed --standby list: %s\n",
                   cli.standby.c_str());
      return 2;
    }
    standby_endpoints = std::move(*parsed);
  }
  if (chaos_options.has_value()) {
    umicro::net::ChaosTransport::Instance().Enable(*chaos_options);
    std::fprintf(stderr, "net chaos enabled: %s (seed %llu)\n",
                 cli.net_chaos.c_str(),
                 static_cast<unsigned long long>(cli.net_chaos_seed));
  }
  if (cli.role == "agg") {
    if (cli.listen.empty() || cli.dims == 0) {
      std::fprintf(stderr, "--role=agg requires --listen and --dims\n");
      return 2;
    }
    if (!cli.state_out.empty() &&
        !umicro::util::PathIsWritable(cli.state_out)) {
      std::fprintf(stderr, "--state-out is not writable: %s\n",
                   cli.state_out.c_str());
      return 1;
    }
    return RunAggregatorRole(cli);
  }
  if (cli.role == "query") {
    if (cli.connect.empty()) {
      std::fprintf(stderr, "--role=query requires --connect\n");
      return 2;
    }
    return RunQueryRole(cli);
  }
  const bool leaf_role = cli.role == "leaf";
  if (leaf_role) {
    if (cli.connect.empty()) {
      std::fprintf(stderr, "--role=leaf requires --connect\n");
      return 2;
    }
    if (cli.algorithm != "umicro" || cli.threads > 0 || cli.serve) {
      std::fprintf(stderr,
                   "--role=leaf requires --algorithm=umicro without "
                   "--threads or --serve (the leaf IS one shard; the "
                   "aggregator serves)\n");
      return 2;
    }
    if (cli.stride == 0 || cli.offset >= cli.stride) {
      std::fprintf(stderr,
                   "--role=leaf needs --stride >= 1 and --offset < "
                   "--stride\n");
      return 2;
    }
    if (!umicro::net::ParseHostPort(cli.connect).has_value()) {
      std::fprintf(stderr, "malformed --connect address: %s\n",
                   cli.connect.c_str());
      return 2;
    }
  }

  if (cli.input.empty() == cli.synthetic.empty()) {
    std::fprintf(stderr,
                 "exactly one of --input and --synthetic is required\n");
    PrintUsage();
    return 2;
  }

  // ---- Fail fast: flag combinations ----------------------------------
  // Usage errors exit 2 before any work is done.
  const bool checkpointing = !cli.checkpoint_dir.empty();
  if (cli.recover && !checkpointing) {
    std::fprintf(stderr, "--recover requires --checkpoint-dir\n");
    return 2;
  }
  if ((cli.checkpoint_every > 0 || cli.checkpoint_seconds > 0.0) &&
      !checkpointing) {
    std::fprintf(stderr,
                 "--checkpoint-every/--checkpoint-seconds require "
                 "--checkpoint-dir\n");
    return 2;
  }
  if (checkpointing && cli.algorithm != "umicro") {
    std::fprintf(stderr,
                 "--checkpoint-dir requires --algorithm=umicro (the "
                 "baselines have no serializable engine state)\n");
    return 2;
  }
  if (cli.degrade && cli.threads == 0) {
    std::fprintf(stderr,
                 "--degrade requires --threads (load shedding lives in "
                 "the sharded pipeline)\n");
    return 2;
  }
  if (!cli.quarantine_out.empty() && cli.bad_record_policy.empty()) {
    std::fprintf(stderr,
                 "--quarantine-out requires --bad-record-policy\n");
    return 2;
  }
  if (cli.batch == 0) {
    std::fprintf(stderr, "--batch must be at least 1\n");
    return 2;
  }
  if (!cli.inject_faults.empty() && cli.bad_record_policy.empty()) {
    std::fprintf(stderr,
                 "--inject-faults requires --bad-record-policy (an "
                 "unhardened engine would abort on corrupt records)\n");
    return 2;
  }
  if (cli.serve && cli.algorithm != "umicro") {
    std::fprintf(stderr,
                 "--serve requires --algorithm=umicro (the baselines "
                 "publish no snapshot replica)\n");
    return 2;
  }
  if (cli.serve && cli.serve_threads == 0) {
    std::fprintf(stderr, "--serve-threads must be at least 1\n");
    return 2;
  }
  if (cli.tenant_key != "round_robin" && cli.tenant_key != "hash" &&
      cli.tenant_key != "label") {
    std::fprintf(stderr,
                 "unknown --tenant-key: %s (want round_robin, hash, or "
                 "label)\n",
                 cli.tenant_key.c_str());
    return 2;
  }
  if (cli.tenants > 0) {
    if (cli.algorithm != "umicro") {
      std::fprintf(stderr,
                   "--tenants requires --algorithm=umicro (the fleet "
                   "hosts umicro tenant engines)\n");
      return 2;
    }
    if (!cli.role.empty()) {
      std::fprintf(stderr,
                   "--tenants is incompatible with --role (the fleet is "
                   "a single-process multi-tenant host)\n");
      return 2;
    }
    if (cli.degrade) {
      std::fprintf(stderr,
                   "--degrade applies to the sharded pipeline, not the "
                   "fleet\n");
      return 2;
    }
    if (!cli.state_out.empty() || !cli.centroids_out.empty() ||
        cli.describe) {
      std::fprintf(stderr,
                   "--state-out/--centroids-out/--describe are "
                   "single-engine outputs; a fleet has one state per "
                   "tenant (query it via --serve)\n");
      return 2;
    }
  }
  std::optional<umicro::resilience::BadRecordPolicy> bad_record_policy;
  if (!cli.bad_record_policy.empty()) {
    bad_record_policy =
        umicro::resilience::ParseBadRecordPolicy(cli.bad_record_policy);
    if (!bad_record_policy.has_value()) {
      std::fprintf(stderr,
                   "unknown --bad-record-policy: %s (want repair, "
                   "quarantine, or drop)\n",
                   cli.bad_record_policy.c_str());
      return 2;
    }
  }
  std::optional<umicro::resilience::FaultInjectionOptions> fault_options;
  if (!cli.inject_faults.empty()) {
    fault_options = ParseFaultSpec(cli.inject_faults, cli.fault_seed);
    if (!fault_options.has_value()) {
      std::fprintf(stderr, "malformed --inject-faults spec: %s\n",
                   cli.inject_faults.c_str());
      return 2;
    }
  }

  // ---- Fail fast: paths ----------------------------------------------
  // Environment errors (missing input, unwritable destinations) exit 1
  // with one line, before minutes of clustering work.
  if (!cli.input.empty() && !umicro::util::FileExists(cli.input)) {
    std::fprintf(stderr, "input file not found: %s\n", cli.input.c_str());
    return 1;
  }
  if (!cli.metrics_out.empty() &&
      !umicro::util::PathIsWritable(cli.metrics_out + ".json")) {
    std::fprintf(stderr, "--metrics-out is not writable: %s\n",
                 cli.metrics_out.c_str());
    return 1;
  }
  if (!cli.centroids_out.empty() &&
      !umicro::util::PathIsWritable(cli.centroids_out)) {
    std::fprintf(stderr, "--centroids-out is not writable: %s\n",
                 cli.centroids_out.c_str());
    return 1;
  }
  if (!cli.quarantine_out.empty() &&
      !umicro::util::PathIsWritable(cli.quarantine_out)) {
    std::fprintf(stderr, "--quarantine-out is not writable: %s\n",
                 cli.quarantine_out.c_str());
    return 1;
  }
  if (!cli.state_out.empty() &&
      !umicro::util::PathIsWritable(cli.state_out)) {
    std::fprintf(stderr, "--state-out is not writable: %s\n",
                 cli.state_out.c_str());
    return 1;
  }
  if (checkpointing && !umicro::util::EnsureDirectory(cli.checkpoint_dir)) {
    std::fprintf(stderr, "--checkpoint-dir is not usable: %s\n",
                 cli.checkpoint_dir.c_str());
    return 1;
  }

  // ---- Load ----------------------------------------------------------
  umicro::stream::Dataset dataset;
  umicro::io::DatasetLoadStats load_stats;
  if (!cli.synthetic.empty()) {
    // The workloads already carry the eta perturbation; do not perturb
    // a second time below.
    const double eta = cli.eta;
    cli.eta = 0.0;
    std::size_t points = cli.points;
    if (cli.max_rows != 0) points = std::min(points, cli.max_rows);
    if (cli.synthetic == "syndrift") {
      dataset = umicro::synth::MakeSynDriftWorkload(points, eta);
    } else if (cli.synthetic == "network") {
      dataset = umicro::synth::MakeNetworkWorkload(points, eta);
    } else if (cli.synthetic == "forest") {
      dataset = umicro::synth::MakeForestWorkload(points, eta);
    } else {
      std::fprintf(stderr, "unknown synthetic workload: %s\n",
                   cli.synthetic.c_str());
      return 2;
    }
    std::printf("generated %zu records x %zu dimensions (%s, eta=%.2f)\n",
                dataset.size(), dataset.dimensions(), cli.synthetic.c_str(),
                eta);
  } else if (EndsWith(cli.input, ".arff")) {
    auto loaded = umicro::io::ReadArffDataset(cli.input);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load ARFF file %s\n",
                   cli.input.c_str());
      return 1;
    }
    dataset = std::move(loaded->dataset);
    load_stats = loaded->stats;
    if (cli.max_rows != 0 && dataset.size() > cli.max_rows) {
      umicro::stream::Dataset truncated(dataset.dimensions());
      for (std::size_t i = 0; i < cli.max_rows; ++i) {
        truncated.Add(dataset[i]);
      }
      dataset = std::move(truncated);
    }
    std::printf("loaded %zu records x %zu dimensions from %s\n",
                dataset.size(), dataset.dimensions(), cli.input.c_str());
  } else {
    umicro::io::CsvReadOptions read_options;
    read_options.has_header = !cli.no_header;
    read_options.max_rows = cli.max_rows;
    auto loaded = umicro::io::ReadCsvDataset(cli.input, read_options);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load CSV file %s\n",
                   cli.input.c_str());
      return 1;
    }
    dataset = std::move(loaded->dataset);
    load_stats = loaded->stats;
    std::printf("loaded %zu records x %zu dimensions from %s\n",
                dataset.size(), dataset.dimensions(), cli.input.c_str());
  }
  if (load_stats.rows_skipped() > 0) {
    std::printf("skipped %zu malformed rows (%zu wrong arity, %zu bad "
                "numerics)\n",
                load_stats.rows_skipped(), load_stats.short_rows,
                load_stats.bad_numeric_rows);
  }

  // ---- Fault injection + input hardening ------------------------------
  // Both are StreamSource decorators; the CLI applies them as one
  // deterministic pass over the loaded dataset, so a --recover rerun
  // with the same seed replays the identical hardened stream.
  umicro::resilience::FaultInjectionStats fault_stats;
  umicro::resilience::ValidationStats validation_stats;
  const bool validating = bad_record_policy.has_value();
  if (validating) {
    umicro::stream::VectorStream raw(dataset);
    umicro::stream::StreamSource* tail = &raw;
    std::unique_ptr<umicro::resilience::FaultInjectingStream> injector;
    if (fault_options.has_value()) {
      injector = std::make_unique<umicro::resilience::FaultInjectingStream>(
          tail, *fault_options);
      tail = injector.get();
    }
    umicro::resilience::ValidationOptions validation_options;
    validation_options.policies =
        umicro::resilience::ValidationPolicies::Uniform(*bad_record_policy);
    validation_options.quarantine_path = cli.quarantine_out;
    umicro::resilience::ValidatingStream validator(
        tail, dataset.dimensions(), validation_options);
    umicro::stream::Dataset hardened(dataset.dimensions());
    while (std::optional<umicro::stream::UncertainPoint> point =
               validator.Next()) {
      hardened.Add(std::move(*point));
    }
    if (injector != nullptr) {
      fault_stats = injector->stats();
      std::printf("injected faults: %llu corrupted, %llu duplicated, "
                  "%llu reordered, %llu lost to gaps (seed %llu)\n",
                  static_cast<unsigned long long>(
                      fault_stats.records_corrupted),
                  static_cast<unsigned long long>(
                      fault_stats.records_duplicated),
                  static_cast<unsigned long long>(
                      fault_stats.records_reordered),
                  static_cast<unsigned long long>(fault_stats.records_gapped),
                  static_cast<unsigned long long>(cli.fault_seed));
    }
    validation_stats = validator.stats();
    std::printf("validated %llu records: %llu ok, %llu repaired, "
                "%llu quarantined, %llu dropped\n",
                static_cast<unsigned long long>(
                    validation_stats.records_seen),
                static_cast<unsigned long long>(validation_stats.records_ok),
                static_cast<unsigned long long>(
                    validation_stats.records_repaired),
                static_cast<unsigned long long>(
                    validation_stats.records_quarantined),
                static_cast<unsigned long long>(
                    validation_stats.records_dropped));
    dataset = std::move(hardened);
    if (dataset.empty()) {
      std::fprintf(stderr, "no records survived validation\n");
      return 1;
    }
  }

  // ---- Optional imputation -------------------------------------------
  if (cli.impute) {
    umicro::stream::OnlineMeanImputer imputer(dataset.dimensions());
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      dataset.at(i) = imputer.Impute(dataset[i]);
    }
    std::printf("imputed %zu missing entries (%zu before any data)\n",
                imputer.entries_imputed(), imputer.imputed_before_data());
  } else {
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (umicro::stream::HasMissingValues(dataset[i])) {
        std::fprintf(stderr,
                     "record %zu has missing values; rerun with --impute\n",
                     i);
        return 1;
      }
    }
  }

  // ---- Optional perturbation -----------------------------------------
  if (cli.eta > 0.0) {
    umicro::stream::StreamStats stats(dataset.dimensions());
    stats.AddAll(dataset);
    umicro::stream::PerturbationOptions perturb;
    perturb.eta = cli.eta;
    umicro::stream::Perturber perturber(stats.Stddevs(), perturb);
    perturber.PerturbDataset(dataset);
    std::printf("perturbed with eta=%.2f\n", cli.eta);
  }

  // ---- Leaf substream --------------------------------------------------
  // The filter runs after every deterministic transform above, so each
  // leaf sees exactly the rows shard `offset` of a `stride`-way
  // round-robin partition would see -- the bit-identity precondition of
  // the distributed merge (docs/distributed.md).
  if (leaf_role && cli.stride > 1) {
    umicro::stream::Dataset substream(dataset.dimensions());
    for (std::size_t i = cli.offset; i < dataset.size(); i += cli.stride) {
      substream.Add(dataset[i]);
    }
    std::printf("leaf substream: %zu of %zu rows (stride %zu, offset "
                "%zu)\n",
                substream.size(), dataset.size(), cli.stride, cli.offset);
    dataset = std::move(substream);
    if (dataset.empty()) {
      std::fprintf(stderr, "substream is empty\n");
      return 1;
    }
  }

  // ---- Fleet mode -----------------------------------------------------
  // Dispatched after every deterministic input transform, so tenant
  // substreams match what a single-engine run over the same flags would
  // have ingested.
  if (cli.tenants > 0) return RunFleetMode(cli, dataset);

  // ---- Build the clusterer --------------------------------------------
  // The umicro algorithm runs behind the unified engine interface --
  // sequential and sharded are interchangeable here. The baselines only
  // implement the plain StreamClusterer contract.
  std::unique_ptr<umicro::core::ClusteringEngine> engine;
  std::unique_ptr<umicro::stream::StreamClusterer> baseline;
  const umicro::core::UMicro* umicro_ptr = nullptr;
  std::uint64_t resume_from = 0;
  if (cli.algorithm == "umicro") {
    umicro::core::UMicroOptions umicro_options;
    umicro_options.num_micro_clusters = cli.nmicro;
    umicro_options.boundary_factor = cli.boundary;
    umicro_options.dimension_threshold = cli.thresh;
    umicro_options.decay_lambda = cli.decay;
    if (!ApplyAssignOptions(cli, &umicro_options)) return 2;
    umicro::core::SnapshotPolicy snapshot;
    snapshot.snapshot_every = cli.snapshot_every;
    snapshot.tiering = MakeTiering(cli);
    // Recovery needs a factory: RecoverOrCreateEngine builds the engine
    // fresh and restores the newest compatible checkpoint into it.
    std::function<std::unique_ptr<umicro::core::ClusteringEngine>()> factory;
    if (cli.threads > 0) {
      umicro::parallel::ParallelEngineOptions options;
      options.sharded.umicro = umicro_options;
      options.sharded.num_shards = cli.threads;
      options.sharded.merge_every = cli.merge_every;
      options.sharded.queue_capacity = cli.queue_capacity;
      if (cli.backpressure == "block") {
        options.sharded.backpressure =
            umicro::parallel::BackpressurePolicy::kBlock;
      } else if (cli.backpressure == "drop_oldest") {
        options.sharded.backpressure =
            umicro::parallel::BackpressurePolicy::kDropOldest;
      } else if (cli.backpressure == "drop_newest") {
        options.sharded.backpressure =
            umicro::parallel::BackpressurePolicy::kDropNewest;
      } else {
        std::fprintf(stderr, "unknown backpressure policy: %s\n",
                     cli.backpressure.c_str());
        return 2;
      }
      options.sharded.degrade.enabled = cli.degrade;
      options.sharded.supervisor.enabled = cli.degrade;
      options.snapshot = snapshot;
      const std::size_t dims = dataset.dimensions();
      factory = [dims, options]() {
        return std::make_unique<umicro::parallel::ParallelUMicroEngine>(
            dims, options);
      };
      std::printf("sharded ingest: %zu threads, merge every %zu points, "
                  "%s backpressure%s\n",
                  cli.threads, cli.merge_every, cli.backpressure.c_str(),
                  cli.degrade ? ", adaptive degradation armed" : "");
    } else {
      umicro::core::EngineOptions options;
      options.umicro = umicro_options;
      options.snapshot = snapshot;
      const std::size_t dims = dataset.dimensions();
      factory = [dims, options]() {
        return std::make_unique<umicro::core::UMicroEngine>(dims, options);
      };
    }
    if (cli.recover) {
      umicro::resilience::RecoveredEngine recovered =
          umicro::resilience::RecoverOrCreateEngine(cli.checkpoint_dir,
                                                    factory);
      engine = std::move(recovered.engine);
      if (recovered.recovered) {
        resume_from = recovered.resume_from;
        std::printf("recovered from %s (%llu points already processed",
                    recovered.checkpoint_path.c_str(),
                    static_cast<unsigned long long>(resume_from));
        if (recovered.corrupt_skipped > 0) {
          std::printf(", %zu unusable checkpoints skipped",
                      recovered.corrupt_skipped);
        }
        std::printf(")\n");
      } else {
        std::printf("no usable checkpoint in %s; starting fresh\n",
                    cli.checkpoint_dir.c_str());
      }
    } else {
      engine = factory();
    }
    if (auto* sequential =
            dynamic_cast<umicro::core::UMicroEngine*>(engine.get())) {
      umicro_ptr = &sequential->online();
    }
  } else if (cli.algorithm == "clustream") {
    umicro::baseline::CluStreamOptions options;
    options.num_micro_clusters = cli.nmicro;
    options.boundary_factor = cli.boundary;
    baseline = std::make_unique<umicro::baseline::CluStream>(
        dataset.dimensions(), options);
  } else if (cli.algorithm == "stream-kmeans") {
    umicro::baseline::StreamKMeansOptions options;
    options.k = cli.nmicro;
    baseline = std::make_unique<umicro::baseline::StreamKMeans>(
        dataset.dimensions(), options);
  } else {
    std::fprintf(stderr, "unknown algorithm: %s\n", cli.algorithm.c_str());
    return 2;
  }
  umicro::stream::StreamClusterer& clusterer =
      engine != nullptr ? static_cast<umicro::stream::StreamClusterer&>(
                              *engine)
                        : *baseline;

  // ---- Query-serving replica ------------------------------------------
  // Attached before any point flows, so every cadence snapshot is
  // mirrored into the read replica as it is taken (docs/serving.md).
  std::unique_ptr<umicro::serve::SnapshotReadReplica> replica;
  if (cli.serve) {
    umicro::core::SnapshotPolicy serve_policy;
    serve_policy.snapshot_every = cli.snapshot_every;
    serve_policy.tiering = MakeTiering(cli);
    replica = std::make_unique<umicro::serve::SnapshotReadReplica>(
        serve_policy, cli.decay);
    engine->AttachSnapshotSink(replica.get());
  }

  // ---- Route ingest-side counts into the engine registry -------------
  // The loader and the hardening pass ran before the engine existed, so
  // their tallies are folded in here; the exported metrics then carry
  // the full picture of what happened to the raw input.
  if (engine != nullptr) {
    umicro::obs::MetricsRegistry& metrics = engine->metrics();
    if (load_stats.rows_skipped() > 0) {
      metrics.GetCounter("io.rows_short").Increment(load_stats.short_rows);
      metrics.GetCounter("io.rows_bad_numeric")
          .Increment(load_stats.bad_numeric_rows);
    }
    if (validating) {
      metrics.GetCounter("resilience.records_ok")
          .Increment(validation_stats.records_ok);
      metrics.GetCounter("resilience.records_repaired")
          .Increment(validation_stats.records_repaired);
      metrics.GetCounter("resilience.records_quarantined")
          .Increment(validation_stats.records_quarantined);
      metrics.GetCounter("resilience.records_dropped")
          .Increment(validation_stats.records_dropped);
      metrics.GetCounter("resilience.bad.non_finite_value")
          .Increment(validation_stats.non_finite_values);
      metrics.GetCounter("resilience.bad.error_stddev")
          .Increment(validation_stats.bad_errors);
      metrics.GetCounter("resilience.bad.dimension_mismatch")
          .Increment(validation_stats.dimension_mismatches);
      metrics.GetCounter("resilience.bad.timestamp")
          .Increment(validation_stats.bad_timestamps);
    }
    if (fault_options.has_value()) {
      metrics.GetCounter("resilience.fault.corrupted")
          .Increment(fault_stats.records_corrupted);
      metrics.GetCounter("resilience.fault.duplicated")
          .Increment(fault_stats.records_duplicated);
      metrics.GetCounter("resilience.fault.reordered")
          .Increment(fault_stats.records_reordered);
      metrics.GetCounter("resilience.fault.gapped")
          .Increment(fault_stats.records_gapped);
    }
  }

  // ---- Checkpointing --------------------------------------------------
  std::unique_ptr<umicro::resilience::CheckpointManager> checkpointer;
  if (checkpointing) {
    umicro::resilience::CheckpointPolicy policy;
    policy.every_points = cli.checkpoint_every;
    policy.every_seconds = cli.checkpoint_seconds;
    checkpointer = std::make_unique<umicro::resilience::CheckpointManager>(
        cli.checkpoint_dir, policy);
  }

  // ---- Replay offset after recovery -----------------------------------
  if (resume_from > 0) {
    umicro::stream::Dataset replay(dataset.dimensions());
    for (std::size_t i = static_cast<std::size_t>(resume_from);
         i < dataset.size(); ++i) {
      replay.Add(dataset[i]);
    }
    std::printf("replaying %zu of %zu records (the rest is in the "
                "checkpoint)\n",
                replay.size(), dataset.size());
    dataset = std::move(replay);
  }

  // ---- Metrics export -------------------------------------------------
  std::unique_ptr<umicro::obs::MetricsExporter> exporter;
  umicro::eval::ProgressFn progress;
  if (!cli.metrics_out.empty()) {
    if (engine == nullptr) {
      std::fprintf(stderr,
                   "--metrics-out requires --algorithm=umicro (the "
                   "baselines are uninstrumented)\n");
      return 2;
    }
    exporter = std::make_unique<umicro::obs::MetricsExporter>(
        &engine->metrics(), cli.metrics_out, cli.metrics_every);
  }
  {
    umicro::obs::MetricsExporter* exporter_raw =
        cli.metrics_every > 0 ? exporter.get() : nullptr;
    umicro::resilience::CheckpointManager* checkpointer_raw =
        (checkpointer != nullptr &&
         (cli.checkpoint_every > 0 || cli.checkpoint_seconds > 0.0))
            ? checkpointer.get()
            : nullptr;
    umicro::core::ClusteringEngine* engine_raw = engine.get();
    if (exporter_raw != nullptr || checkpointer_raw != nullptr) {
      progress = [exporter_raw, checkpointer_raw,
                  engine_raw](std::size_t points) {
        if (exporter_raw != nullptr) exporter_raw->TickPoints(points);
        if (checkpointer_raw != nullptr) {
          checkpointer_raw->MaybeCheckpoint(*engine_raw);
        }
      };
    }
  }

  // ---- Cluster --------------------------------------------------------
  const bool labeled = !dataset.Labels().empty();
  std::optional<umicro::dist::LeafShipper> shipper;
  if (leaf_role) {
    // Leaf ingest: per-point Process (matching the reference sharded
    // run's per-shard sequences) with a state delta shipped to the
    // aggregator every --delta-every points. seq = points_processed, so
    // a restarted leaf replaying the same prefix re-ships deltas the
    // aggregator already holds -- which it acks and ignores.
    umicro::dist::LeafShipperOptions ship_options;
    ship_options.leaf_id = cli.leaf_id;
    ship_options.dimensions = dataset.dimensions();
    ship_options.standbys = standby_endpoints;
    shipper.emplace(*umicro::net::ParseHostPort(cli.connect), ship_options,
                    &engine->metrics());
    std::printf("leaf %llu: shipping to %s every %zu points"
                " (%zu standby%s)\n",
                static_cast<unsigned long long>(cli.leaf_id),
                cli.connect.c_str(), cli.delta_every,
                standby_endpoints.size(),
                standby_endpoints.size() == 1 ? "" : "s");
    std::fflush(stdout);
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      engine->Process(dataset[i]);
      const std::size_t done = engine->points_processed();
      if (progress) progress(done);
      if (cli.delta_every > 0 && done % cli.delta_every == 0) {
        const std::string text =
            umicro::io::EngineStateToString(engine->ExportEngineState());
        if (!shipper->ShipState(done, done, text)) {
          std::fprintf(stderr, "delta shipping failed at %zu points\n",
                       done);
          return 1;
        }
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    std::printf("leaf ingested %zu points (%.0f points/sec)\n",
                dataset.size(),
                elapsed > 0.0 ? dataset.size() / elapsed : 0.0);
  } else if (labeled) {
    const auto series = umicro::eval::RunPurityExperiment(
        clusterer, dataset, cli.sample_interval, progress, cli.batch);
    std::printf("\n%14s %10s %10s %8s\n", "points", "purity", "w-purity",
                "clusters");
    for (const auto& sample : series.samples) {
      std::printf("%14zu %10.4f %10.4f %8zu\n", sample.points_processed,
                  sample.purity, sample.weighted_purity,
                  sample.live_clusters);
    }
    std::printf("mean purity: %.4f (%s)\n", series.MeanPurity(),
                clusterer.name().c_str());
  } else {
    const auto series = umicro::eval::RunThroughputExperiment(
        clusterer, dataset, cli.sample_interval, 2.0, progress, cli.batch);
    std::printf("\nno labels: reporting throughput instead of purity\n");
    std::printf("overall rate: %.0f points/sec (%s)\n",
                series.overall_points_per_second,
                clusterer.name().c_str());
  }

  if (engine != nullptr) {
    engine->Flush();
    std::printf("snapshots stored: %zu\n", engine->store().TotalStored());
  }

  // ---- Final delta ship ------------------------------------------------
  if (leaf_role && shipper.has_value()) {
    const std::uint64_t done = engine->points_processed();
    const std::string text =
        umicro::io::EngineStateToString(engine->ExportEngineState());
    if (!shipper->ShipState(done, done, text)) {
      std::fprintf(stderr, "final delta ship failed\n");
      return 1;
    }
    shipper->Finish();
    std::printf("leaf deltas: %llu acked, %llu resends, %llu connects, "
                "%llu promotions\n",
                static_cast<unsigned long long>(shipper->deltas_acked()),
                static_cast<unsigned long long>(shipper->resends()),
                static_cast<unsigned long long>(shipper->connects()),
                static_cast<unsigned long long>(shipper->promotions()));
  }

  // ---- Canonical state dump --------------------------------------------
  // The merged (sharded) or live (sequential) micro-cluster set in the
  // codec's full-precision text form: the byte-comparable artifact the
  // distributed e2e check diffs against an aggregator's dump.
  if (!cli.state_out.empty() && !leaf_role && engine != nullptr) {
    std::vector<umicro::core::MicroCluster> clusters;
    if (auto* parallel =
            dynamic_cast<umicro::parallel::ParallelUMicroEngine*>(
                engine.get())) {
      clusters = parallel->sharded().GlobalClusters();
    } else if (umicro_ptr != nullptr) {
      clusters = umicro_ptr->clusters();
    }
    if (!umicro::io::WriteMicroClustersFile(clusters, dataset.dimensions(),
                                            cli.state_out)) {
      std::fprintf(stderr, "failed to write %s\n", cli.state_out.c_str());
      return 1;
    }
    std::printf("state written to %s\n", cli.state_out.c_str());
  }

  // ---- Final checkpoint + resilience summary --------------------------
  if (checkpointer != nullptr && engine != nullptr) {
    if (!checkpointer->CheckpointNow(*engine)) {
      std::fprintf(stderr, "failed to write final checkpoint in %s\n",
                   cli.checkpoint_dir.c_str());
      return 1;
    }
    std::printf("checkpoints: %zu written (%zu failed), newest %s\n",
                checkpointer->checkpoints_written(),
                checkpointer->write_failures(),
                checkpointer->last_path().c_str());
  }
  if (cli.degrade && engine != nullptr) {
    umicro::obs::MetricsRegistry& metrics = engine->metrics();
    std::printf(
        "degradation: %llu activations, %llu points shed in %llu "
        "batches, %llu worker restarts\n",
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.degrade.activations").value()),
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.degrade.points_shed").value()),
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.degrade.batches_shed").value()),
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.worker_restarts").value()));
  }

  // ---- Serve queries ---------------------------------------------------
  // Runs after Flush() (which published the freshest current snapshot),
  // so the first query already sees the full ingested stream. Blocks
  // until stdin closes or a QUIT arrives; the final metrics dump below
  // then includes the serve.* instruments.
  if (cli.serve && engine != nullptr) {
    umicro::serve::QueryBrokerOptions broker_options;
    broker_options.num_threads = cli.serve_threads;
    umicro::serve::QueryBroker broker(replica.get(), broker_options,
                                      &engine->metrics());
    std::printf("serving on stdin/stdout with %zu query threads "
                "(CLUSTER/NEAREST/ANOMALY/STATS/QUIT)\n",
                cli.serve_threads);
    std::fflush(stdout);
    const std::size_t served =
        umicro::serve::ServeLineProtocol(broker, std::cin, std::cout);
    std::printf("served %zu queries\n", served);
  }

  if (cli.describe && umicro_ptr != nullptr) {
    std::printf("\n%s",
                umicro::core::SummarizeClusters(umicro_ptr->clusters())
                    .c_str());
  } else if (cli.describe && engine != nullptr) {
    auto* parallel = dynamic_cast<umicro::parallel::ParallelUMicroEngine*>(
        engine.get());
    if (parallel != nullptr) {
      std::printf("\n%s",
                  umicro::core::SummarizeClusters(
                      parallel->sharded().GlobalClusters())
                      .c_str());
    }
  }

  // ---- Final metrics dump ---------------------------------------------
  if (exporter != nullptr) {
    if (exporter->ExportNow()) {
      std::printf("metrics written to %s.json / %s.csv\n",
                  exporter->base_path().c_str(),
                  exporter->base_path().c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s.{json,csv}\n",
                   exporter->base_path().c_str());
      return 1;
    }
  }

  // ---- Dump centroids --------------------------------------------------
  const auto centroids = clusterer.ClusterCentroids();
  std::printf("final cluster count: %zu\n", centroids.size());
  if (!cli.centroids_out.empty() && !centroids.empty()) {
    std::vector<std::string> header;
    for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
      header.push_back("c" + std::to_string(j));
    }
    umicro::util::CsvWriter writer(header);
    for (const auto& centroid : centroids) writer.AddRow(centroid);
    if (writer.WriteFile(cli.centroids_out)) {
      std::printf("centroids written to %s\n", cli.centroids_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n",
                   cli.centroids_out.c_str());
      return 1;
    }
  }
  return 0;
}
