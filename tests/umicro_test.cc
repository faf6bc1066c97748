// Tests for the UMicro algorithm.

#include "core/umicro.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "eval/purity.h"
#include "stream/dataset.h"
#include "stream/perturbation.h"
#include "stream/stream_stats.h"
#include "util/math_utils.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using stream::Dataset;
using stream::UncertainPoint;

/// Builds a well-separated 3-blob labeled dataset with per-point errors.
Dataset MakeBlobs(std::size_t per_blob, double error, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::vector<double>> centers = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  Dataset dataset(2);
  double ts = 0.0;
  for (std::size_t i = 0; i < per_blob; ++i) {
    for (std::size_t c = 0; c < centers.size(); ++c) {
      std::vector<double> values = {
          centers[c][0] + rng.Gaussian(0.0, 0.5),
          centers[c][1] + rng.Gaussian(0.0, 0.5)};
      dataset.Add(UncertainPoint(std::move(values), {error, error}, ts,
                                 static_cast<int>(c)));
      ts += 1.0;
    }
  }
  return dataset;
}

TEST(UMicroTest, FirstPointCreatesSingleton) {
  UMicro algorithm(2, UMicroOptions{});
  algorithm.Process(UncertainPoint({1.0, 2.0}, {0.1, 0.1}, 0.0, 0));
  EXPECT_EQ(algorithm.points_processed(), 1u);
  ASSERT_EQ(algorithm.clusters().size(), 1u);
  EXPECT_DOUBLE_EQ(algorithm.clusters()[0].ecf.weight(), 1.0);
}

TEST(UMicroTest, RespectsClusterBudget) {
  UMicroOptions options;
  options.num_micro_clusters = 10;
  UMicro algorithm(2, options);
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    // Scatter points widely so many singletons are created.
    algorithm.Process(UncertainPoint(
        {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)}, {1.0, 1.0},
        static_cast<double>(i)));
  }
  EXPECT_LE(algorithm.clusters().size(), 10u);
}

TEST(UMicroTest, EvictsLeastRecentlyUpdated) {
  UMicroOptions options;
  options.num_micro_clusters = 2;
  options.eviction_horizon = 1.0;  // anything older than 1 tick is stale
  UMicro algorithm(1, options);
  // Three far-apart points in time order: the first cluster must be the
  // one evicted when the third arrives.
  algorithm.Process(UncertainPoint({0.0}, 0.0, 0));
  algorithm.Process(UncertainPoint({1000.0}, 1.0, 1));
  algorithm.Process(UncertainPoint({2000.0}, 2.0, 2));
  ASSERT_EQ(algorithm.clusters().size(), 2u);
  std::set<double> centroids;
  for (const auto& cluster : algorithm.clusters()) {
    centroids.insert(cluster.ecf.CentroidAt(0));
  }
  EXPECT_FALSE(centroids.count(0.0));
  EXPECT_TRUE(centroids.count(1000.0));
  EXPECT_TRUE(centroids.count(2000.0));
  EXPECT_EQ(algorithm.clusters_evicted(), 1u);
}

TEST(UMicroTest, AbsorbsPointsIntoNearbyCluster) {
  UMicroOptions options;
  options.num_micro_clusters = 50;
  UMicro algorithm(2, options);
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    algorithm.Process(UncertainPoint(
        {rng.Gaussian(0.0, 0.2), rng.Gaussian(0.0, 0.2)}, {0.05, 0.05},
        static_cast<double>(i)));
  }
  // A single tight blob should not churn: absorption must dominate
  // creation, and substantial clusters must form (mass may spread over
  // several micro-clusters of the blob).
  EXPECT_LT(algorithm.clusters_created(), 400u);
  double max_weight = 0.0;
  for (const auto& cluster : algorithm.clusters()) {
    max_weight = std::max(max_weight, cluster.ecf.weight());
  }
  EXPECT_GT(max_weight, 30.0);
}

TEST(UMicroTest, SeparatedBlobsYieldPureClusters) {
  const Dataset dataset = MakeBlobs(400, 0.1, 3);
  UMicroOptions options;
  options.num_micro_clusters = 30;
  UMicro algorithm(2, options);
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const double purity =
      eval::ClusterPurity(algorithm.ClusterLabelHistograms());
  EXPECT_GT(purity, 0.95);
}

TEST(UMicroTest, CentroidsLandOnBlobCenters) {
  const Dataset dataset = MakeBlobs(500, 0.1, 5);
  UMicroOptions options;
  options.num_micro_clusters = 12;
  UMicro algorithm(2, options);
  for (const auto& point : dataset.points()) algorithm.Process(point);

  const std::vector<std::vector<double>> truth = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (const auto& center : truth) {
    double best = 1e18;
    for (const auto& centroid : algorithm.ClusterCentroids()) {
      best = std::min(best, util::EuclideanDistance(center, centroid));
    }
    EXPECT_LT(best, 1.0);
  }
}

TEST(UMicroTest, LabelHistogramsTrackMass) {
  const Dataset dataset = MakeBlobs(100, 0.1, 7);
  UMicro algorithm(2, UMicroOptions{});
  for (const auto& point : dataset.points()) algorithm.Process(point);
  double total = 0.0;
  for (const auto& histogram : algorithm.ClusterLabelHistograms()) {
    total += stream::HistogramWeight(histogram);
  }
  // No decay, no evictions expected for 300 points in 100 clusters --
  // at most a few evicted singletons; mass is conserved up to those.
  EXPECT_NEAR(total, static_cast<double>(dataset.size()),
              static_cast<double>(algorithm.clusters_evicted()) + 1e-9);
}

TEST(UMicroTest, ExpectedDistanceModeAlsoClusters) {
  const Dataset dataset = MakeBlobs(200, 0.1, 9);
  UMicroOptions options;
  options.similarity = SimilarityMode::kExpectedDistance;
  options.num_micro_clusters = 30;
  UMicro algorithm(2, options);
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const double purity =
      eval::ClusterPurity(algorithm.ClusterLabelHistograms());
  EXPECT_GT(purity, 0.9);
}

TEST(UMicroTest, ClusterAggregateVarianceSourceWorks) {
  const Dataset dataset = MakeBlobs(200, 0.1, 11);
  UMicroOptions options;
  options.variance_source = VarianceSource::kClusterAggregate;
  options.variance_refresh_interval = 50;
  options.num_micro_clusters = 30;
  UMicro algorithm(2, options);
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const double purity =
      eval::ClusterPurity(algorithm.ClusterLabelHistograms());
  EXPECT_GT(purity, 0.9);
  for (double v : algorithm.global_variances()) EXPECT_GT(v, 0.0);
}

TEST(UMicroTest, WelfordVarianceMatchesData) {
  UMicro algorithm(1, UMicroOptions{});
  util::Rng rng(13);
  util::WelfordAccumulator reference;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.Gaussian(2.0, 3.0);
    reference.Add(v);
    algorithm.Process(UncertainPoint({v}, static_cast<double>(i)));
  }
  EXPECT_NEAR(algorithm.global_variances()[0],
              reference.PopulationVariance(), 1e-9);
}

TEST(UMicroTest, DecayShrinksOldClusterWeight) {
  UMicroOptions options;
  options.decay_lambda = 0.01;  // half-life 100 time units
  options.num_micro_clusters = 10;
  UMicro algorithm(1, options);
  algorithm.Process(UncertainPoint({0.0}, {0.1}, 0.0, 0));
  // Feed a second, far-away cluster for 200 time units.
  for (int i = 1; i <= 200; ++i) {
    algorithm.Process(UncertainPoint({100.0}, {0.1},
                                     static_cast<double>(i), 1));
  }
  double old_weight = -1.0;
  for (const auto& cluster : algorithm.clusters()) {
    if (std::abs(cluster.ecf.CentroidAt(0)) < 1.0) {
      old_weight = cluster.ecf.weight();
    }
  }
  ASSERT_GE(old_weight, 0.0) << "old cluster was unexpectedly evicted";
  // After ~200 units at half-life 100 the singleton's weight should be
  // near 2^-2 = 0.25.
  EXPECT_NEAR(old_weight, 0.25, 0.05);
}

TEST(UMicroTest, DecayKeepsCentroidsStable) {
  UMicroOptions options;
  options.decay_lambda = 0.001;
  UMicro algorithm(1, options);
  util::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    algorithm.Process(UncertainPoint({rng.Gaussian(5.0, 0.3)}, {0.1},
                                     static_cast<double>(i), 0));
  }
  bool found = false;
  for (const auto& centroid : algorithm.ClusterCentroids()) {
    if (std::abs(centroid[0] - 5.0) < 0.2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(UMicroTest, SnapshotCapturesClusters) {
  const Dataset dataset = MakeBlobs(50, 0.1, 19);
  UMicro algorithm(2, UMicroOptions{});
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const Snapshot snapshot = algorithm.TakeSnapshot(149.0);
  EXPECT_DOUBLE_EQ(snapshot.time, 149.0);
  EXPECT_EQ(snapshot.clusters.size(), algorithm.clusters().size());
  double weight = 0.0;
  for (const auto& state : snapshot.clusters) weight += state.ecf.weight();
  EXPECT_NEAR(weight, 150.0, 1e-9);
}

TEST(UMicroTest, SnapshotIdsAreUnique) {
  const Dataset dataset = MakeBlobs(100, 0.3, 21);
  UMicro algorithm(2, UMicroOptions{});
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const Snapshot snapshot = algorithm.TakeSnapshot(0.0);
  std::set<std::uint64_t> ids;
  for (const auto& state : snapshot.clusters) ids.insert(state.id);
  EXPECT_EQ(ids.size(), snapshot.clusters.size());
}

TEST(UMicroTest, UncertaintyImprovesPurityOnNoisyData) {
  // The headline claim, in miniature: with heterogeneous per-dimension
  // noise, using the error information must beat ignoring it. Here we
  // simply check UMicro still recovers structure under heavy noise.
  util::Rng rng(23);
  Dataset clean(4);
  const std::vector<std::vector<double>> centers = {
      {0, 0, 0, 0}, {6, 6, 0, 0}, {0, 6, 6, 0}};
  for (int i = 0; i < 3000; ++i) {
    const std::size_t c = rng.NextBounded(3);
    std::vector<double> values(4);
    for (int j = 0; j < 4; ++j) {
      values[j] = centers[c][j] + rng.Gaussian(0.0, 0.4);
    }
    clean.Add(UncertainPoint(std::move(values), static_cast<double>(i),
                             static_cast<int>(c)));
  }
  stream::StreamStats stats(4);
  stats.AddAll(clean);
  stream::PerturbationOptions perturb;
  perturb.eta = 0.6;
  stream::Perturber perturber(stats.Stddevs(), perturb);
  Dataset noisy = clean;
  perturber.PerturbDataset(noisy);

  UMicroOptions options;
  options.num_micro_clusters = 40;
  UMicro algorithm(4, options);
  for (const auto& point : noisy.points()) algorithm.Process(point);
  EXPECT_GT(eval::ClusterPurity(algorithm.ClusterLabelHistograms()), 0.6);
}

TEST(UMicroTest, ProcessAndExplainReportsOutcomes) {
  UMicroOptions options;
  options.num_micro_clusters = 10;
  UMicro algorithm(1, options);

  // First point always creates.
  const auto first = algorithm.ProcessAndExplain(
      UncertainPoint({0.0}, {0.1}, 0.0, 0));
  EXPECT_FALSE(first.absorbed);
  EXPECT_DOUBLE_EQ(first.expected_distance, 0.0);

  // A far point creates a second cluster...
  const auto far = algorithm.ProcessAndExplain(
      UncertainPoint({1000.0}, {0.1}, 1.0, 1));
  EXPECT_FALSE(far.absorbed);
  EXPECT_NE(far.cluster_id, first.cluster_id);
  EXPECT_GT(far.expected_distance, 100.0);

  // ...and its exact duplicate is absorbed into it.
  const auto dup = algorithm.ProcessAndExplain(
      UncertainPoint({1000.0}, {0.1}, 2.0, 1));
  EXPECT_TRUE(dup.absorbed);
  EXPECT_EQ(dup.cluster_id, far.cluster_id);
}

TEST(UMicroTest, ProcessAndExplainMatchesProcess) {
  const Dataset dataset = MakeBlobs(100, 0.2, 29);
  UMicro a(2, UMicroOptions{});
  UMicro b(2, UMicroOptions{});
  for (const auto& point : dataset.points()) {
    a.Process(point);
    b.ProcessAndExplain(point);
  }
  ASSERT_EQ(a.clusters().size(), b.clusters().size());
  for (std::size_t i = 0; i < a.clusters().size(); ++i) {
    EXPECT_EQ(a.clusters()[i].id, b.clusters()[i].id);
    EXPECT_DOUBLE_EQ(a.clusters()[i].ecf.weight(),
                     b.clusters()[i].ecf.weight());
  }
}

TEST(UMicroTest, ClustersViewFollowsEveryMutation) {
  // clusters() is materialized from the cluster table and cached; every
  // mutation (absorb, create, decay, retire, restore) must refresh it.
  const Dataset dataset = MakeBlobs(60, 0.2, 41);
  UMicroOptions options;
  options.num_micro_clusters = 4;
  options.decay_lambda = 0.01;
  UMicro algorithm(2, options);
  const auto expect_view_matches_state = [&algorithm] {
    const UMicroState state = algorithm.ExportState();
    const std::vector<MicroCluster>& view = algorithm.clusters();
    ASSERT_EQ(view.size(), state.clusters.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view[i].id, state.clusters[i].id);
      EXPECT_EQ(view[i].ecf.weight(), state.clusters[i].ecf.weight());
      EXPECT_EQ(view[i].ecf.cf1(), state.clusters[i].ecf.cf1());
      EXPECT_EQ(view[i].ecf.last_update_time(),
                state.clusters[i].ecf.last_update_time());
      EXPECT_EQ(view[i].labels, state.clusters[i].labels);
    }
  };
  for (const auto& point : dataset.points()) {
    algorithm.Process(point);
    expect_view_matches_state();
  }
  UMicroState earlier = algorithm.ExportState();
  earlier.clusters.pop_back();
  algorithm.RestoreState(earlier);
  expect_view_matches_state();
  EXPECT_EQ(algorithm.clusters().size(), earlier.clusters.size());
}

TEST(UMicroTest, NameReflectsDecay) {
  UMicro plain(2, UMicroOptions{});
  EXPECT_EQ(plain.name(), "UMicro");
  UMicroOptions decayed;
  decayed.decay_lambda = 0.5;
  UMicro with_decay(2, decayed);
  EXPECT_EQ(with_decay.name(), "UMicro(decay)");
}

}  // namespace
}  // namespace umicro::core
