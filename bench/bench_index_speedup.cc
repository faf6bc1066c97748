// Assignment-index speedup sweep: flat full scan vs kd-tree candidate
// index on the expected-distance absorb path.
//
//   bench_index_speedup [--dims=D] [--points=N] [--trials=K]
//                       [--csv=PATH]
//
// For every cluster budget q in {64, 96, 128, 192, 256, 512} the sweep
// pre-fills a UMicro instance to q live micro-clusters from q
// well-separated Gaussian blob centers, then times steady-state ingest
// of N points drawn from the same blobs (absorb-dominated: the regime
// where the closest-cluster scan is the whole cost). The rows between
// 64 and 256 locate the q at which the kd-tree starts to beat the flat
// scan: the `auto` gate (index/centroid_index.cc) sits there. Every
// backend processes the identical stream; the parity suite
// (tests/index_parity_test.cc) guarantees the decisions are
// bit-identical, so this measures pure scan cost. prune_ratio is
// 1 - candidates/scanned_rows from the index's own counters (0 for the
// flat scan by definition).
//
// The CSV (default index_speedup.csv; the checked-in artifact lives at
// results/index_speedup.csv) backs the sub-linear-assignment claim in
// docs/indexing.md: indexed rows must show >= 2x over flat at q >= 256.

#include <cstdio>
#include <string>
#include <vector>

#include "core/umicro.h"
#include "index/centroid_index.h"
#include "stream/point.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stopwatch.h"

#include "bench_common.h"

namespace {

using umicro::core::SimilarityMode;
using umicro::core::UMicro;
using umicro::core::UMicroOptions;
using umicro::index::IndexKind;
using umicro::stream::UncertainPoint;

/// q blob centers spread over [0, 100]^d: far apart relative to the
/// sigma = 0.5 blob spread, so clusters stay distinct and the index has
/// real geometry to prune with.
std::vector<std::vector<double>> MakeCenters(umicro::util::Rng& rng,
                                             std::size_t q,
                                             std::size_t dims) {
  std::vector<std::vector<double>> centers(q);
  for (auto& center : centers) {
    center.resize(dims);
    for (auto& c : center) c = rng.Uniform(0.0, 100.0);
  }
  return centers;
}

std::vector<UncertainPoint> MakeStream(
    umicro::util::Rng& rng, const std::vector<std::vector<double>>& centers,
    std::size_t count, double start_time) {
  const std::size_t dims = centers.front().size();
  std::vector<UncertainPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& center = centers[rng.NextBounded(centers.size())];
    std::vector<double> values(dims);
    std::vector<double> errors(dims);
    for (std::size_t j = 0; j < dims; ++j) {
      values[j] = center[j] + rng.Gaussian(0.0, 0.5);
      errors[j] = 0.1 + 0.1 * rng.NextDouble();
    }
    points.emplace_back(std::move(values), std::move(errors),
                        start_time + static_cast<double>(i));
  }
  return points;
}

struct RunResult {
  double points_per_sec = 0.0;
  double prune_ratio = 0.0;
};

RunResult RunBackend(IndexKind kind, std::size_t dims, std::size_t trials,
                     const std::vector<UncertainPoint>& prefill,
                     const std::vector<UncertainPoint>& warmup,
                     const std::vector<UncertainPoint>& timed) {
  // Best of `trials` fresh runs: the figure benches run on shared
  // 1-core hosts, and the minimum is the least noisy location estimate.
  RunResult result;
  for (std::size_t t = 0; t < trials; ++t) {
    UMicroOptions options;
    options.num_micro_clusters = prefill.size();
    options.similarity = SimilarityMode::kExpectedDistance;
    options.assign_index = kind;
    options.eviction_horizon = 1e18;
    UMicro clusterer(dims, options);
    for (const auto& point : prefill) clusterer.Process(point);
    for (const auto& point : warmup) clusterer.Process(point);

    umicro::util::Stopwatch timer;
    for (const auto& point : timed) clusterer.Process(point);
    const double seconds = timer.ElapsedSeconds();
    const double pps =
        seconds > 0.0 ? static_cast<double>(timed.size()) / seconds : 0.0;
    if (pps <= result.points_per_sec) continue;
    result.points_per_sec = pps;
    const umicro::index::CentroidIndex* index = clusterer.assign_index();
    if (index != nullptr && index->stats().scanned_rows > 0) {
      result.prune_ratio =
          1.0 - static_cast<double>(index->stats().candidates) /
                    static_cast<double>(index->stats().scanned_rows);
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t dims = flags.GetSize("dims", 16);
  const std::size_t timed_points = flags.GetSize("points", 40000);
  const std::size_t trials = flags.GetSize("trials", 3);
  const std::string csv_path = flags.GetString("csv", "index_speedup.csv");

  std::printf("index speedup bench: d=%zu, %zu timed points per run "
              "(%zu hardware threads)\n",
              dims, timed_points, umicro::bench::HostCores());
  std::printf("%8s %8s %14s %10s %12s\n", "nmicro", "backend", "points/s",
              "speedup", "prune_ratio");

  umicro::util::CsvWriter csv({"dims", "nmicro", "backend", "points_per_sec",
                               "speedup_vs_flat", "prune_ratio", "host_cores",
                               "cpu_model"});
  const IndexKind kinds[] = {IndexKind::kFlat, IndexKind::kKdTree};
  for (const std::size_t q : {64u, 96u, 128u, 192u, 256u, 512u}) {
    umicro::util::Rng rng(2008 + q);
    const auto centers = MakeCenters(rng, q, dims);
    // One exact point per center claims all q cluster slots up front.
    std::vector<UncertainPoint> prefill;
    prefill.reserve(q);
    for (std::size_t i = 0; i < q; ++i) {
      prefill.emplace_back(centers[i], static_cast<double>(i));
    }
    const auto warmup =
        MakeStream(rng, centers, 2000, static_cast<double>(q));
    const auto timed = MakeStream(rng, centers, timed_points,
                                  static_cast<double>(q + warmup.size()));

    double flat_pps = 0.0;
    for (const IndexKind kind : kinds) {
      const RunResult result = RunBackend(kind, dims, trials, prefill, warmup, timed);
      if (kind == IndexKind::kFlat) flat_pps = result.points_per_sec;
      const double speedup =
          flat_pps > 0.0 ? result.points_per_sec / flat_pps : 0.0;
      std::printf("%8zu %8s %14.0f %9.2fx %12.3f\n", q,
                  umicro::index::IndexKindName(kind), result.points_per_sec,
                  speedup, result.prune_ratio);
      char pps[64], sp[64], pr[64];
      std::snprintf(pps, sizeof(pps), "%.6g", result.points_per_sec);
      std::snprintf(sp, sizeof(sp), "%.4g", speedup);
      std::snprintf(pr, sizeof(pr), "%.4g", result.prune_ratio);
      csv.AddRow({std::to_string(dims), std::to_string(q),
                  umicro::index::IndexKindName(kind), pps, sp, pr,
                  std::to_string(umicro::bench::HostCores()),
                  umicro::bench::HostCpuModel()});
    }
  }
  if (!csv.WriteFile(csv_path)) {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}
