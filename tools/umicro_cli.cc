// umicro_cli: cluster a CSV/ARFF file or synthetic workload as a stream,
// or run one process of the distributed merge tree.
//
//   umicro_cli (--input=FILE | --synthetic=NAME) [flags]
//   umicro_cli --role=agg|query ... [flags]
//
// Every flag is one row of MakeFlags() below: its name, value kind,
// default, help line, and the run modes that read it. --help-style usage
// text is generated from those rows (docs/tools.md is the reference),
// and a flag given to a run mode that never reads it is a usage error.
// Usage errors exit 2 before any environment check, dataset work or
// filesystem side effect; environment errors exit 1.
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
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

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

using umicro::core::SimilarityMode;
using umicro::core::SnapshotStoreMode;
using umicro::parallel::BackpressurePolicy;
using umicro::resilience::BadRecordPolicy;

// ---- Run modes ---------------------------------------------------------
// Every run is exactly one mode, picked by the selector flags in this
// order: --role, then --tenants, --algorithm, --threads (RunMode).

enum Mode : unsigned {
  kSequential = 1u << 0,
  kSharded = 1u << 1,
  kBaseline = 1u << 2,
  kFleet = 1u << 3,
  kLeaf = 1u << 4,
  kAgg = 1u << 5,
  kQuery = 1u << 6,
};
/// Single-process runs (no --role).
constexpr unsigned kLocal = kSequential | kSharded | kBaseline | kFleet;
/// Runs that read a stream.
constexpr unsigned kIngest = kLocal | kLeaf;
/// Runs that read a stream into umicro engines.
constexpr unsigned kEngine = kIngest & ~kBaseline;
constexpr unsigned kAnyMode = kIngest | kAgg | kQuery;

struct ModeInfo {
  Mode mode;
  char letter;       // usage column
  const char* name;  // "<name> runs ignore ..."
  const char* selector;
};
constexpr ModeInfo kModes[] = {
    {kSequential, 'S', "sequential", "a sequential umicro run"},
    {kSharded, 'T', "sharded", "--threads"},
    {kBaseline, 'B', "baseline", "a baseline --algorithm"},
    {kFleet, 'F', "fleet", "--tenants"},
    {kLeaf, 'L', "leaf", "--role=leaf"},
    {kAgg, 'A', "agg", "--role=agg"},
    {kQuery, 'Q', "query", "--role=query"},
};

/// What a run must be to read a flag with mode set `modes`, e.g.
/// "--role=leaf or --role=agg".
std::string Requirement(unsigned modes) {
  std::vector<std::string> parts;
  if ((modes & kLocal) == kLocal) {
    parts.push_back("a run without --role");
    modes &= ~kLocal;
  }
  for (const ModeInfo& info : kModes) {
    if ((modes & info.mode) != 0) parts.push_back(info.selector);
  }
  std::string text;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) text += i + 1 == parts.size() ? " or " : ", ";
    text += parts[i];
  }
  return text;
}

// ---- Enumerated values -------------------------------------------------

enum class Algorithm { kUMicro, kCluStream, kStreamKMeans };
enum class Role { kStandalone, kLeaf, kAgg, kQuery };
enum class TenantKey { kRoundRobin, kHash, kLabel };
using Workload = umicro::stream::Dataset (*)(std::size_t points, double eta);

template <typename E>
struct Choice {
  const char* name;
  E value;
};

constexpr Choice<Algorithm> kAlgorithms[] = {
    {"umicro", Algorithm::kUMicro},
    {"clustream", Algorithm::kCluStream},
    {"stream-kmeans", Algorithm::kStreamKMeans},
};
constexpr Choice<Role> kRoles[] = {
    {"leaf", Role::kLeaf}, {"agg", Role::kAgg}, {"query", Role::kQuery}};
constexpr Choice<TenantKey> kTenantKeys[] = {
    {"round_robin", TenantKey::kRoundRobin},
    {"hash", TenantKey::kHash},
    {"label", TenantKey::kLabel},
};
constexpr Choice<Workload> kWorkloads[] = {
    {"syndrift",
     [](std::size_t n, double eta) {
       return umicro::synth::MakeSynDriftWorkload(n, eta);
     }},
    {"network",
     [](std::size_t n, double eta) {
       return umicro::synth::MakeNetworkWorkload(n, eta);
     }},
    {"forest",
     [](std::size_t n, double eta) {
       return umicro::synth::MakeForestWorkload(n, eta);
     }},
};
constexpr Choice<SimilarityMode> kSimilarities[] = {
    {"counting", SimilarityMode::kDimensionCounting},
    {"distance", SimilarityMode::kExpectedDistance},
};
constexpr Choice<BackpressurePolicy> kBackpressures[] = {
    {"block", BackpressurePolicy::kBlock},
    {"drop_oldest", BackpressurePolicy::kDropOldest},
    {"drop_newest", BackpressurePolicy::kDropNewest},
};
constexpr Choice<SnapshotStoreMode> kStoreModes[] = {
    {"full", SnapshotStoreMode::kFull},
    {"delta", SnapshotStoreMode::kDelta},
    {"tiered", SnapshotStoreMode::kTiered},
};

template <typename E, std::size_t N>
const char* NameOf(const Choice<E> (&choices)[N], E value) {
  for (const Choice<E>& choice : choices) {
    if (choice.value == value) return choice.name;
  }
  return "?";
}

// ---- Options -----------------------------------------------------------
// CLI fields start zeroed and config fields at their library values; the
// CLI's defaults are stated once, in the flag rows, and parsed over both.

struct CliOptions {
  /// Engine, snapshot, checkpoint, serve and fleet settings. Flags with
  /// an EngineConfig field write it directly, and every run mode reads
  /// it from here.
  umicro::core::EngineConfig config;
  // Input.
  std::string input;
  Workload synthetic = nullptr;
  std::size_t points = 0;
  std::size_t max_rows = 0;
  bool no_header = false;
  double eta = 0.0;
  bool impute = false;
  std::optional<BadRecordPolicy> bad_record_policy;
  std::string quarantine_out;
  std::string inject_faults;
  std::uint64_t fault_seed = 0;
  Algorithm algorithm = Algorithm::kUMicro;
  // Single-engine runs and their outputs.
  std::size_t sample_interval = 0;
  std::size_t batch = 0;
  bool describe = false;
  std::string centroids_out;
  std::string state_out;
  std::string metrics_out;
  std::size_t metrics_every = 0;
  std::string checkpoint_dir;
  bool recover = false;
  bool serve = false;
  std::size_t snapshot_budget_mb = 0;
  // Sharded ingest (and the fleet's worker pool).
  std::size_t threads = 0;
  std::size_t merge_every = 0;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  std::size_t queue_capacity = 0;
  bool degrade = false;
  TenantKey tenant_key = TenantKey::kRoundRobin;
  // Distributed merge tree (docs/distributed.md).
  Role role = Role::kStandalone;
  std::string connect;
  std::string listen;
  std::size_t dims = 0;
  std::uint64_t leaf_id = 0;
  std::size_t delta_every = 0;
  std::size_t stride = 0;
  std::size_t offset = 0;
  std::string standby;
  std::uint64_t expect_points = 0;
  double expect_timeout = 0.0;
  double linger_seconds = 0.0;
  bool start_as_standby = false;
  double stale_after = 0.0;
  std::string net_chaos;
  std::uint64_t net_chaos_seed = 0;

  /// Flags given with a non-empty value (an empty value leaves a flag
  /// unset).
  std::set<std::string> given;
  bool Given(const char* name) const { return given.count(name) != 0; }

  // Parsed from the text flags once every flag is known (the specs need
  // their seeds).
  std::optional<umicro::resilience::FaultInjectionOptions> faults;
  std::optional<umicro::net::ChaosOptions> chaos;
  std::vector<umicro::net::SocketAddress> standbys;
  /// --connect (leaf, query) or --listen (agg).
  umicro::net::SocketAddress address;
};

Mode RunMode(const CliOptions& cli) {
  switch (cli.role) {
    case Role::kLeaf:
      return kLeaf;
    case Role::kAgg:
      return kAgg;
    case Role::kQuery:
      return kQuery;
    case Role::kStandalone:
      break;
  }
  if (cli.config.fleet.tenants > 0) return kFleet;
  if (cli.algorithm != Algorithm::kUMicro) return kBaseline;
  return cli.threads > 0 ? kSharded : kSequential;
}

// ---- Flag table --------------------------------------------------------

/// Parses one flag's text into its field; false after printing one
/// diagnostic line.
using Setter = std::function<bool(const char* name, const std::string& text)>;

/// A value kind: the usage placeholder (empty for a switch, the allowed
/// names for an enum) and the parser.
struct Value {
  std::string meta;
  Setter set;
  /// Numbers reject an empty value; text and enums treat it as unset.
  bool empty_is_unset = true;
};

enum class Bound { kAny, kPositive, kNonNegative };

/// Parses `value`, the text of flag `name`, as one whole number: an
/// unsigned count (in `base`; 0 also accepts 0x-hex) or a finite double.
/// Empty text, trailing junk, a sign on a count and out-of-range values
/// print one diagnostic line and return false (the caller exits 2).
template <typename T>
bool ParseNumber(const char* name, const std::string& value, T* out,
                 int base) {
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
    std::fprintf(stderr, "invalid --%s=%s: expected %s\n", name,
                 value.c_str(),
                 std::is_floating_point_v<T> ? "a finite number"
                                             : "a non-negative integer");
  }
  return ok;
}

/// A count (N), a real (X), or with base 0 a seed that also accepts
/// 0x-hex. Values the engine would abort on are rejected by `bound`.
template <typename T>
Value Number(T* field, Bound bound = Bound::kAny, int base = 10) {
  constexpr bool kReal = std::is_floating_point_v<T>;
  return {kReal ? "X" : "N",
          [=](const char* name, const std::string& text) {
            if (!ParseNumber(name, text, field, base)) return false;
            const char* need = nullptr;
            if (bound == Bound::kPositive && !(*field > 0)) {
              need = kReal ? "> 0" : "at least 1";
            }
            if constexpr (kReal) {
              if (bound == Bound::kNonNegative && !(*field >= 0)) {
                need = ">= 0";
              }
            }
            if (need != nullptr) {
              std::fprintf(stderr, "--%s must be %s\n", name, need);
            }
            return need == nullptr;
          },
          false};
}

Value Seed(std::uint64_t* field) { return Number(field, Bound::kAny, 0); }

Value Text(std::string* field, const char* meta) {
  return {meta, [=](const char*, const std::string& text) {
            *field = text;
            return true;
          }};
}

Value Switch(bool* field) {
  return {"", [=](const char*, const std::string&) {
            *field = true;
            return true;
          }};
}

/// An enum whose names the library parses.
template <typename Field, typename E>
Value Enum(Field* field, const char* noun, const char* names,
           std::optional<E> (*parse)(const std::string&)) {
  return {names, [=](const char*, const std::string& text) {
            const std::optional<E> value = parse(text);
            if (!value.has_value()) {
              std::fprintf(stderr, "unknown %s: %s (want %s)\n", noun,
                           text.c_str(), names);
              return false;
            }
            *field = *value;
            return true;
          }};
}

/// An enum whose names are listed in a Choice table.
template <typename E, std::size_t N>
Value Enum(E* field, const char* noun, const Choice<E> (&choices)[N]) {
  std::string names;
  for (const Choice<E>& choice : choices) {
    if (!names.empty()) names += '|';
    names += choice.name;
  }
  return {names, [=, &choices](const char*, const std::string& text) {
            for (const Choice<E>& choice : choices) {
              if (text == choice.name) {
                *field = choice.value;
                return true;
              }
            }
            std::fprintf(stderr, "unknown %s: %s (want %s)\n", noun,
                         text.c_str(), names.c_str());
            return false;
          }};
}

/// One command-line flag, stated once.
struct Flag {
  const char* name;
  Value value;
  /// Default, parsed into the field before argv is read; "" = none.
  const char* fallback;
  /// Run modes that read the flag (a Mode bit set).
  unsigned modes;
  const char* help;
};

std::vector<Flag> MakeFlags(CliOptions* cli) {
  umicro::core::EngineConfig& config = cli->config;
  constexpr unsigned kSingle = kSequential | kSharded | kBaseline;
  return {
      // Input.
      {"input", Text(&cli->input, "FILE"), "", kIngest,
       "CSV or ARFF (.arff) stream (docs/data_formats.md)"},
      {"synthetic", Enum(&cli->synthetic, "synthetic workload", kWorkloads),
       "", kIngest, "built-in workload instead of --input"},
      {"points", Number(&cli->points), "100000", kIngest,
       "synthetic stream length"},
      {"max-rows", Number(&cli->max_rows), "0", kIngest,
       "read at most N rows (0 = all)"},
      {"no-header", Switch(&cli->no_header), "", kIngest,
       "headerless CSV, last column is the label"},
      {"eta", Number(&cli->eta, Bound::kNonNegative), "0", kIngest,
       "perturb the input with the paper's noise model"},
      {"impute", Switch(&cli->impute), "", kIngest,
       "impute missing entries (online mean)"},
      {"bad-record-policy",
       Enum(&cli->bad_record_policy, "--bad-record-policy",
            "repair|quarantine|drop",
            umicro::resilience::ParseBadRecordPolicy),
       "", kIngest, "harden malformed records instead of aborting"},
      {"quarantine-out", Text(&cli->quarantine_out, "FILE"), "", kIngest,
       "side CSV receiving quarantined records"},
      {"inject-faults", Text(&cli->inject_faults, "SPEC"), "", kIngest,
       "deterministic stream faults, e.g. corrupt=0.01,duplicate=0.01,"
       "reorder=0.01,gap=0.001,max-gap=16"},
      {"fault-seed", Seed(&cli->fault_seed), "0xfa117", kIngest,
       "fault-injection seed"},
      // Algorithm.
      {"algorithm", Enum(&cli->algorithm, "algorithm", kAlgorithms),
       "umicro", kIngest, "clustering algorithm"},
      {"nmicro",
       Number(&config.umicro.num_micro_clusters, Bound::kPositive), "100",
       kIngest | kAgg, "micro-cluster budget (k for stream-kmeans)"},
      {"boundary", Number(&config.umicro.boundary_factor, Bound::kPositive),
       "3", kIngest | kAgg, "uncertainty-boundary factor t"},
      {"thresh",
       Number(&config.umicro.dimension_threshold, Bound::kPositive), "3",
       kEngine | kAgg, "dimension-counting threshold"},
      {"decay", Number(&config.umicro.decay_lambda, Bound::kNonNegative),
       "0", kEngine | kAgg, "exponential decay rate lambda (0 = off)"},
      {"similarity",
       Enum(&config.umicro.similarity, "similarity", kSimilarities),
       "counting", kEngine, "closest-cluster criterion"},
      {"assign-index",
       Enum(&config.umicro.assign_index, "assign index", "flat|kdtree|auto",
            umicro::index::ParseIndexKind),
       "auto", kEngine,
       "closest-cluster candidate index; distance similarity only"},
      // Single-engine runs and their outputs.
      {"sample-interval", Number(&cli->sample_interval, Bound::kPositive),
       "10000", kSingle, "purity/throughput sample cadence"},
      {"batch", Number(&cli->batch, Bound::kPositive), "1", kSingle,
       "ingest in batches of N points (1 = per point)"},
      {"describe", Switch(&cli->describe), "",
       kSequential | kSharded | kLeaf, "print the heaviest clusters"},
      {"centroids-out", Text(&cli->centroids_out, "FILE"), "",
       kSingle | kLeaf, "write the final centroids as CSV"},
      {"state-out", Text(&cli->state_out, "FILE"), "",
       kSequential | kSharded | kAgg,
       "canonical micro-cluster dump (byte-comparable)"},
      {"metrics-out", Text(&cli->metrics_out, "STEM"), "", kEngine | kAgg,
       "write STEM.json + STEM.csv metric dumps"},
      {"metrics-every", Number(&cli->metrics_every), "0", kEngine,
       "also re-export metrics every N points"},
      // Sharded ingest.
      {"threads", Number(&cli->threads), "0",
       kSequential | kSharded | kFleet,
       "shard ingest across N workers (fleet: worker count)"},
      {"merge-every", Number(&cli->merge_every), "8192", kSharded,
       "points between global merges"},
      {"backpressure",
       Enum(&cli->backpressure, "backpressure policy", kBackpressures),
       "block", kSharded, "full-queue policy"},
      {"queue-capacity", Number(&cli->queue_capacity, Bound::kPositive),
       "1024", kSharded | kFleet, "per-shard queue capacity in batches"},
      {"degrade", Switch(&cli->degrade), "", kSharded,
       "adaptive load shedding + worker supervision"},
      // Snapshots (docs/snapshots.md).
      {"snapshot-every", Number(&config.snapshot.snapshot_every), "4096",
       kSequential | kSharded | kLeaf | kAgg,
       "pyramidal snapshot cadence, 0 disables"},
      {"snapshot-store",
       Enum(&config.snapshot.tiering.mode, "--snapshot-store", kStoreModes),
       "full", kEngine | kAgg, "store encoding (fleets default to delta)"},
      {"snapshot-budget-mb", Number(&cli->snapshot_budget_mb), "64",
       kEngine | kAgg, "tiered-store byte budget before cold demotion"},
      {"snapshot-spill-dir", Text(&config.snapshot.tiering.spill_dir, "DIR"),
       "", kEngine | kAgg,
       "spill demoted frames to checksummed files, not quantized"},
      // Checkpoints (docs/resilience.md).
      {"checkpoint-dir", Text(&cli->checkpoint_dir, "DIR"), "", kEngine,
       "write crash-safe engine checkpoints here"},
      {"checkpoint-every", Number(&config.checkpoint.every_points), "0",
       kEngine, "checkpoint every N processed points (0 = off)"},
      {"checkpoint-seconds", Number(&config.checkpoint.every_seconds), "0",
       kEngine, "checkpoint every X wall-clock seconds (0 = off)"},
      {"recover", Switch(&cli->recover), "", kEngine,
       "restore the newest valid checkpoint, replay the rest"},
      // Query serving (docs/serving.md).
      {"serve", Switch(&cli->serve), "", kSequential | kSharded | kFleet,
       "after ingest, answer line-protocol queries on stdin"},
      {"serve-threads", Number(&config.serve.threads), "4",
       kSequential | kSharded | kFleet | kAgg, "query worker threads"},
      // Multi-tenant fleet (docs/fleet.md).
      {"tenants", Number(&config.fleet.tenants), "0", kLocal,
       "run N tenant engines behind one fleet"},
      {"tenant-key", Enum(&cli->tenant_key, "--tenant-key", kTenantKeys),
       "round_robin", kFleet, "record-to-tenant routing"},
      // Distributed merge tree (docs/distributed.md).
      {"role", Enum(&cli->role, "--role", kRoles), "", kAnyMode,
       "leaf ingester, aggregator, or query client"},
      {"connect", Text(&cli->connect, "HOST:PORT"), "", kLeaf | kQuery,
       "aggregator address"},
      {"listen", Text(&cli->listen, "HOST:PORT"), "", kAgg,
       "bind address (port 0 = ephemeral)"},
      {"dims", Number(&cli->dims), "0", kAgg, "stream dimensionality"},
      {"leaf-id", Number(&cli->leaf_id), "0", kLeaf,
       "this leaf's shard slot, dense from 0"},
      {"delta-every", Number(&cli->delta_every), "4096", kLeaf,
       "ship a state delta every N points (0 = final only)"},
      {"stride", Number(&cli->stride), "1", kLeaf,
       "ingest rows with index % stride == offset"},
      {"offset", Number(&cli->offset), "0", kLeaf,
       "this leaf's row offset within --stride"},
      {"standby", Text(&cli->standby, "HOST:PORT,..."), "", kLeaf,
       "standby aggregators, tried in order on failover"},
      {"expect-points", Number(&cli->expect_points), "0", kAgg,
       "write --state-out once N points are merged"},
      {"expect-timeout", Number(&cli->expect_timeout), "300", kAgg,
       "give up waiting after X seconds"},
      {"linger-seconds", Number(&cli->linger_seconds), "0", kAgg,
       "keep serving X seconds after --state-out"},
      {"start-as-standby", Switch(&cli->start_as_standby), "", kAgg,
       "report role standby until a primary delta arrives"},
      {"stale-after", Number(&cli->stale_after, Bound::kNonNegative), "0",
       kAgg, "drop a leaf silent for X seconds from the view"},
      {"net-chaos", Text(&cli->net_chaos, "SPEC"), "", kLeaf | kAgg,
       "seeded wire faults, e.g. drop=0.05,delay=0.1,delay-ms=20,"
       "truncate=0.01,bitflip=0.01,partition=0.02,partition-ms=300"},
      {"net-chaos-seed", Seed(&cli->net_chaos_seed), "0xc4a05",
       kLeaf | kAgg, "chaos seed"},
  };
}

void PrintUsage(const std::vector<Flag>& flags) {
  std::fprintf(
      stderr,
      "usage: umicro_cli (--input=FILE | --synthetic=NAME) [flags]\n"
      "       umicro_cli --role=agg|query ... [flags]\n"
      "Modes: S sequential umicro, T sharded (--threads), B baseline "
      "--algorithm,\n"
      "F fleet (--tenants), L/A/Q --role=leaf/agg/query. A flag given to "
      "a mode\n"
      "that does not read it is an error (docs/tools.md).\n");
  for (const Flag& flag : flags) {
    std::string spec = std::string("--") + flag.name;
    if (!flag.value.meta.empty()) spec += "=" + flag.value.meta;
    std::string modes;
    for (const ModeInfo& info : kModes) {
      if ((flag.modes & info.mode) != 0) modes += info.letter;
    }
    std::fprintf(stderr, "  %-7s %-26s %s", modes.c_str(), spec.c_str(),
                 flag.help);
    if (*flag.fallback != '\0') {
      std::fprintf(stderr, " (default %s)", flag.fallback);
    }
    std::fprintf(stderr, "\n");
  }
}

/// Applies every default, then argv. Returns 0, or 2 after a diagnostic.
int ParseArgs(int argc, char** argv, const std::vector<Flag>& flags,
              CliOptions* cli) {
  for (const Flag& flag : flags) {
    if (*flag.fallback != '\0') flag.value.set(flag.name, flag.fallback);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2) : std::string();
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return name == f.name; });
    // A switch takes no value; every other flag needs one.
    if (flag == flags.end() ||
        flag->value.meta.empty() != (eq == std::string::npos)) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage(flags);
      return 2;
    }
    const std::string text =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    const bool is_switch = flag->value.meta.empty();
    if (!is_switch && text.empty() && flag->value.empty_is_unset) continue;
    if (!flag->value.set(flag->name, text)) return 2;
    cli->given.insert(flag->name);
  }
  return 0;
}

// ---- Flag-on-flag rules ------------------------------------------------

using Opts = const CliOptions&;

struct Rule {
  bool (*broken)(Opts);
  const char* message;
};

bool Baseline(Opts c) { return c.algorithm != Algorithm::kUMicro; }

const Rule kRules[] = {
    {[](Opts c) { return c.recover && c.checkpoint_dir.empty(); },
     "--recover requires --checkpoint-dir"},
    {[](Opts c) {
       return (c.config.checkpoint.every_points > 0 ||
               c.config.checkpoint.every_seconds > 0.0) &&
              c.checkpoint_dir.empty();
     },
     "--checkpoint-every/--checkpoint-seconds require --checkpoint-dir"},
    {[](Opts c) { return !c.checkpoint_dir.empty() && Baseline(c); },
     "--checkpoint-dir requires --algorithm=umicro (the baselines have no "
     "serializable engine state)"},
    {[](Opts c) { return !c.metrics_out.empty() && Baseline(c); },
     "--metrics-out requires --algorithm=umicro (the baselines are "
     "uninstrumented)"},
    {[](Opts c) { return !c.quarantine_out.empty() && !c.bad_record_policy; },
     "--quarantine-out requires --bad-record-policy"},
    {[](Opts c) { return !c.inject_faults.empty() && !c.bad_record_policy; },
     "--inject-faults requires --bad-record-policy (an unhardened engine "
     "would abort on corrupt records)"},
    {[](Opts c) { return c.serve && Baseline(c); },
     "--serve requires --algorithm=umicro (the baselines publish no "
     "snapshot replica)"},
    {[](Opts c) { return c.serve && c.config.serve.threads == 0; },
     "--serve-threads must be at least 1"},
    {[](Opts c) { return c.config.fleet.tenants > 0 && Baseline(c); },
     "--tenants requires --algorithm=umicro (the fleet hosts umicro tenant "
     "engines)"},
    {[](Opts c) {
       return c.config.fleet.tenants > 0 && c.role != Role::kStandalone;
     },
     "--tenants is incompatible with --role (the fleet is a single-process "
     "multi-tenant host)"},
    {[](Opts c) {
       return (c.Given("snapshot-budget-mb") ||
               !c.config.snapshot.tiering.spill_dir.empty()) &&
              c.config.snapshot.tiering.mode != SnapshotStoreMode::kTiered;
     },
     "--snapshot-budget-mb/--snapshot-spill-dir require "
     "--snapshot-store=tiered (full and delta stores never demote frames)"},
    {[](Opts c) {
       return c.role == Role::kAgg && (c.listen.empty() || c.dims == 0);
     },
     "--role=agg requires --listen and --dims"},
    {[](Opts c) { return c.role == Role::kQuery && c.connect.empty(); },
     "--role=query requires --connect"},
    {[](Opts c) { return c.role == Role::kLeaf && c.connect.empty(); },
     "--role=leaf requires --connect"},
    {[](Opts c) { return c.role == Role::kLeaf && Baseline(c); },
     "--role=leaf requires --algorithm=umicro (the leaf IS one shard)"},
    {[](Opts c) {
       return c.role == Role::kLeaf && (c.stride == 0 || c.offset >= c.stride);
     },
     "--role=leaf needs --stride >= 1 and --offset < --stride"},
};

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

/// Every usage error (exit 2), checked before any environment check or
/// side effect: flag-on-flag rules, the mode rule, the input selection,
/// then the structured text values.
int CheckUsage(const std::vector<Flag>& flags, CliOptions* cli) {
  for (const Rule& rule : kRules) {
    if (rule.broken(*cli)) {
      std::fprintf(stderr, "%s\n", rule.message);
      return 2;
    }
  }
  // A misconfigured process should die at launch, not silently run
  // without a setting it was given.
  const Mode mode = RunMode(*cli);
  for (const Flag& flag : flags) {
    if ((flag.modes & mode) != 0 || !cli->Given(flag.name)) continue;
    const std::string requirement = Requirement(flag.modes);
    const char* mode_name = "";
    for (const ModeInfo& info : kModes) {
      if (info.mode == mode) mode_name = info.name;
    }
    std::fprintf(stderr, "--%s requires %s (%s runs ignore flags that "
                 "require %s)\n",
                 flag.name, requirement.c_str(), mode_name,
                 requirement.c_str());
    return 2;
  }
  if ((mode & kIngest) != 0 && cli->input.empty() == !cli->synthetic) {
    std::fprintf(stderr,
                 "exactly one of --input and --synthetic is required\n");
    PrintUsage(flags);
    return 2;
  }
  if (!cli->inject_faults.empty()) {
    cli->faults = ParseFaultSpec(cli->inject_faults, cli->fault_seed);
    if (!cli->faults.has_value()) {
      std::fprintf(stderr, "malformed --inject-faults spec: %s\n",
                   cli->inject_faults.c_str());
      return 2;
    }
  }
  if (!cli->net_chaos.empty()) {
    cli->chaos =
        umicro::net::ParseChaosSpec(cli->net_chaos, cli->net_chaos_seed);
    if (!cli->chaos.has_value()) {
      std::fprintf(stderr, "malformed --net-chaos spec: %s\n",
                   cli->net_chaos.c_str());
      return 2;
    }
  }
  if (!cli->standby.empty()) {
    std::optional<std::vector<umicro::net::SocketAddress>> parsed =
        ParseStandbyList(cli->standby);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "malformed --standby list: %s\n",
                   cli->standby.c_str());
      return 2;
    }
    cli->standbys = std::move(*parsed);
  }
  const bool listens = cli->role == Role::kAgg;
  const std::string& endpoint = listens ? cli->listen : cli->connect;
  if (!endpoint.empty()) {
    const std::optional<umicro::net::SocketAddress> address =
        umicro::net::ParseHostPort(endpoint);
    if (!address.has_value()) {
      std::fprintf(stderr, "malformed --%s address: %s\n",
                   listens ? "listen" : "connect", endpoint.c_str());
      return 2;
    }
    cli->address = *address;
  }
  return 0;
}

/// Environment errors (exit 1): missing input, unwritable destinations,
/// unusable directories -- with one line, before minutes of work.
/// Directories are created last, once everything else passed.
int CheckEnvironment(const CliOptions& cli) {
  if (!cli.input.empty() && !umicro::util::FileExists(cli.input)) {
    std::fprintf(stderr, "input file not found: %s\n", cli.input.c_str());
    return 1;
  }
  const struct {
    const char* name;
    const std::string& path;
    const char* suffix;
  } outputs[] = {
      {"metrics-out", cli.metrics_out, ".json"},
      {"centroids-out", cli.centroids_out, ""},
      {"quarantine-out", cli.quarantine_out, ""},
      {"state-out", cli.state_out, ""},
  };
  for (const auto& output : outputs) {
    if (!output.path.empty() &&
        !umicro::util::PathIsWritable(output.path + output.suffix)) {
      std::fprintf(stderr, "--%s is not writable: %s\n", output.name,
                   output.path.c_str());
      return 1;
    }
  }
  if (!cli.checkpoint_dir.empty() &&
      !umicro::util::EnsureDirectory(cli.checkpoint_dir)) {
    std::fprintf(stderr, "--checkpoint-dir is not usable: %s\n",
                 cli.checkpoint_dir.c_str());
    return 1;
  }
  const std::string& spill_dir = cli.config.snapshot.tiering.spill_dir;
  if (!spill_dir.empty() && !umicro::util::EnsureDirectory(spill_dir)) {
    std::fprintf(stderr, "cannot create --snapshot-spill-dir: %s\n",
                 spill_dir.c_str());
    return 1;
  }
  return 0;
}

/// Completes the config from the flags that feed more than one field.
void ResolveConfig(CliOptions* cli) {
  umicro::core::SnapshotTiering& tiering = cli->config.snapshot.tiering;
  if (tiering.mode == SnapshotStoreMode::kTiered) {
    tiering.budget_bytes =
        cli->snapshot_budget_mb * std::size_t{1024} * std::size_t{1024};
    if (!tiering.spill_dir.empty()) {
      tiering.codec = umicro::io::MakeSnapshotSpillCodec();
    }
  }
  // The fleet's per-tenant store defaults to delta encoding; an explicit
  // --snapshot-store overrides it (full for debugging, tiered to cap the
  // fleet's snapshot bytes).
  if (cli->Given("snapshot-store")) {
    cli->config.fleet.snapshot.tiering = tiering;
  }
  if (cli->threads > 0) cli->config.fleet.workers = cli->threads;
  cli->config.fleet.queue_capacity = cli->queue_capacity;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// --role=agg: listen, merge leaf deltas, serve queries. No dataset is
/// loaded; everything arrives over the socket.
int RunAggregatorRole(const CliOptions& cli) {
  const umicro::core::EngineConfig& config = cli.config;
  umicro::obs::MetricsRegistry metrics;
  umicro::dist::AggregatorOptions options;
  options.listen = cli.address;
  options.dimensions = cli.dims;
  options.dimension_threshold = config.umicro.dimension_threshold;
  options.global_budget = config.umicro.num_micro_clusters;
  options.snapshot = config.snapshot;
  options.decay_lambda = config.umicro.decay_lambda;
  options.broker = umicro::serve::QueryBrokerOptions::FromConfig(config);
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
  std::printf("aggregator listening on %s:%u\n", cli.address.host.c_str(),
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
  std::optional<umicro::net::Socket> socket =
      umicro::net::TcpConnect(cli.address, 5000);
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
                           std::size_t row, TenantKey key,
                           std::uint64_t tenants) {
  if (key == TenantKey::kHash) {
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
    return hash % tenants;
  }
  if (key == TenantKey::kLabel) {
    const std::uint64_t label =
        point.label < 0 ? 0u : static_cast<std::uint64_t>(point.label);
    return label % tenants;
  }
  return static_cast<std::uint64_t>(row) % tenants;  // round_robin
}

/// The --tenants path: one EngineFleet instead of one engine. The
/// dataset arrives already hardened/imputed/perturbed, so fleet runs
/// see exactly the stream a single-engine run would.
int RunFleetMode(const CliOptions& cli,
                 const umicro::stream::Dataset& dataset) {
  const umicro::core::EngineConfig& config = cli.config;

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
              config.fleet.tenants, config.fleet.workers,
              NameOf(kTenantKeys, cli.tenant_key));

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
    const std::uint64_t tenant =
        AssignTenant(dataset[i], i, cli.tenant_key, config.fleet.tenants);
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
    umicro::serve::QueryBroker broker(
        fleet->Resolver(), umicro::serve::QueryBrokerOptions::FromConfig(config),
        &fleet->metrics());
    std::printf("serving %zu tenants on stdin/stdout with %zu query "
                "threads (HELLO/TENANT/CLUSTER/NEAREST/ANOMALY/STATS/"
                "QUIT)\n",
                fleet->tenant_count(), config.serve.threads);
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
  const std::vector<Flag> flags = MakeFlags(&cli);
  if (const int status = ParseArgs(argc, argv, flags, &cli); status != 0) {
    return status;
  }
  if (const int status = CheckUsage(flags, &cli); status != 0) return status;
  if (const int status = CheckEnvironment(cli); status != 0) return status;
  ResolveConfig(&cli);
  const umicro::core::EngineConfig& config = cli.config;
  const Mode mode = RunMode(cli);

  if (cli.chaos.has_value()) {
    umicro::net::ChaosTransport::Instance().Enable(*cli.chaos);
    std::fprintf(stderr, "net chaos enabled: %s (seed %llu)\n",
                 cli.net_chaos.c_str(),
                 static_cast<unsigned long long>(cli.net_chaos_seed));
  }
  // agg and query never load a dataset.
  if (mode == kAgg) return RunAggregatorRole(cli);
  if (mode == kQuery) return RunQueryRole(cli);
  const bool leaf_role = mode == kLeaf;

  // ---- Load ----------------------------------------------------------
  umicro::stream::Dataset dataset;
  umicro::io::DatasetLoadStats load_stats;
  if (cli.synthetic != nullptr) {
    // The workloads already carry the eta perturbation; do not perturb
    // a second time below.
    const double eta = cli.eta;
    cli.eta = 0.0;
    std::size_t points = cli.points;
    if (cli.max_rows != 0) points = std::min(points, cli.max_rows);
    dataset = cli.synthetic(points, eta);
    std::printf("generated %zu records x %zu dimensions (%s, eta=%.2f)\n",
                dataset.size(), dataset.dimensions(),
                NameOf(kWorkloads, cli.synthetic), eta);
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
  const bool validating = cli.bad_record_policy.has_value();
  if (validating) {
    umicro::stream::VectorStream raw(dataset);
    umicro::stream::StreamSource* tail = &raw;
    std::unique_ptr<umicro::resilience::FaultInjectingStream> injector;
    if (cli.faults.has_value()) {
      injector = std::make_unique<umicro::resilience::FaultInjectingStream>(
          tail, *cli.faults);
      tail = injector.get();
    }
    umicro::resilience::ValidationOptions validation_options;
    validation_options.policies =
        umicro::resilience::ValidationPolicies::Uniform(
            *cli.bad_record_policy);
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
  if (mode == kFleet) return RunFleetMode(cli, dataset);

  // ---- Build the clusterer --------------------------------------------
  // The umicro algorithm runs behind the unified engine interface --
  // sequential and sharded are interchangeable here. The baselines only
  // implement the plain StreamClusterer contract.
  std::unique_ptr<umicro::core::ClusteringEngine> engine;
  std::unique_ptr<umicro::stream::StreamClusterer> baseline;
  std::uint64_t resume_from = 0;
  if (cli.algorithm == Algorithm::kUMicro) {
    // Recovery needs a factory: RecoverOrCreateEngine builds the engine
    // fresh and restores the newest compatible checkpoint into it.
    const std::size_t dims = dataset.dimensions();
    std::function<std::unique_ptr<umicro::core::ClusteringEngine>()> factory;
    if (mode == kSharded) {
      umicro::parallel::ParallelEngineOptions options;
      options.sharded.umicro = config.umicro;
      options.sharded.num_shards = cli.threads;
      options.sharded.merge_every = cli.merge_every;
      options.sharded.queue_capacity = cli.queue_capacity;
      options.sharded.backpressure = cli.backpressure;
      options.sharded.degrade.enabled = cli.degrade;
      options.sharded.supervisor.enabled = cli.degrade;
      options.snapshot = config.snapshot;
      factory = [dims, options]() {
        return std::make_unique<umicro::parallel::ParallelUMicroEngine>(
            dims, options);
      };
      std::printf("sharded ingest: %zu threads, merge every %zu points, "
                  "%s backpressure%s\n",
                  cli.threads, cli.merge_every,
                  NameOf(kBackpressures, cli.backpressure),
                  cli.degrade ? ", adaptive degradation armed" : "");
    } else {
      factory = [dims, &config]() {
        return std::make_unique<umicro::core::UMicroEngine>(dims, config);
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
  } else if (cli.algorithm == Algorithm::kCluStream) {
    umicro::baseline::CluStreamOptions options;
    options.num_micro_clusters = config.umicro.num_micro_clusters;
    options.boundary_factor = config.umicro.boundary_factor;
    baseline = std::make_unique<umicro::baseline::CluStream>(
        dataset.dimensions(), options);
  } else {
    umicro::baseline::StreamKMeansOptions options;
    options.k = config.umicro.num_micro_clusters;
    baseline = std::make_unique<umicro::baseline::StreamKMeans>(
        dataset.dimensions(), options);
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
    replica = std::make_unique<umicro::serve::SnapshotReadReplica>(
        config.snapshot, config.umicro.decay_lambda);
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
    if (cli.faults.has_value()) {
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
  if (!cli.checkpoint_dir.empty()) {
    umicro::resilience::CheckpointPolicy policy;
    policy.every_points = config.checkpoint.every_points;
    policy.every_seconds = config.checkpoint.every_seconds;
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
    exporter = std::make_unique<umicro::obs::MetricsExporter>(
        &engine->metrics(), cli.metrics_out, cli.metrics_every);
  }
  {
    umicro::obs::MetricsExporter* exporter_raw =
        cli.metrics_every > 0 ? exporter.get() : nullptr;
    umicro::resilience::CheckpointManager* checkpointer_raw =
        (checkpointer != nullptr && (config.checkpoint.every_points > 0 ||
                                     config.checkpoint.every_seconds > 0.0))
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
    ship_options.standbys = cli.standbys;
    shipper.emplace(cli.address, ship_options, &engine->metrics());
    std::printf("leaf %llu: shipping to %s every %zu points"
                " (%zu standby%s)\n",
                static_cast<unsigned long long>(cli.leaf_id),
                cli.connect.c_str(), cli.delta_every,
                cli.standbys.size(), cli.standbys.size() == 1 ? "" : "s");
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
  if (shipper.has_value()) {
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

  // The merged (sharded) or live (sequential) micro-cluster set. The
  // flags that read it (--state-out, --describe) only reach umicro runs.
  const auto live_clusters =
      [&engine]() -> const std::vector<umicro::core::MicroCluster>& {
    if (auto* parallel =
            dynamic_cast<umicro::parallel::ParallelUMicroEngine*>(
                engine.get())) {
      return parallel->sharded().GlobalClusters();
    }
    return dynamic_cast<umicro::core::UMicroEngine&>(*engine)
        .online()
        .clusters();
  };

  // ---- Canonical state dump --------------------------------------------
  // The live set in the codec's full-precision text form: the
  // byte-comparable artifact the distributed e2e check diffs against an
  // aggregator's dump.
  if (!cli.state_out.empty()) {
    if (!umicro::io::WriteMicroClustersFile(
            live_clusters(), dataset.dimensions(), cli.state_out)) {
      std::fprintf(stderr, "failed to write %s\n", cli.state_out.c_str());
      return 1;
    }
    std::printf("state written to %s\n", cli.state_out.c_str());
  }

  // ---- Final checkpoint + resilience summary --------------------------
  if (checkpointer != nullptr) {
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
  if (cli.degrade) {
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
  if (cli.serve) {
    umicro::serve::QueryBroker broker(
        replica.get(), umicro::serve::QueryBrokerOptions::FromConfig(config),
        &engine->metrics());
    std::printf("serving on stdin/stdout with %zu query threads "
                "(CLUSTER/NEAREST/ANOMALY/STATS/QUIT)\n",
                config.serve.threads);
    std::fflush(stdout);
    const std::size_t served =
        umicro::serve::ServeLineProtocol(broker, std::cin, std::cout);
    std::printf("served %zu queries\n", served);
  }

  if (cli.describe) {
    std::printf("\n%s",
                umicro::core::SummarizeClusters(live_clusters()).c_str());
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
      header.push_back(std::string("c").append(std::to_string(j)));
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
