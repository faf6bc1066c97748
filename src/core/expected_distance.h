// Expected-distance computations between an uncertain point and an
// uncertain micro-cluster (Lemmas 2.1 / 2.2) and the dimension-counting
// similarity function built on top of them.

#ifndef UMICRO_CORE_EXPECTED_DISTANCE_H_
#define UMICRO_CORE_EXPECTED_DISTANCE_H_

#include <cstddef>
#include <vector>

#include "core/cluster_feature.h"
#include "stream/point.h"

namespace umicro::core {

/// Lemma 2.2, one dimension: the expected squared distance along
/// dimension j between uncertain point X (instantiation x, error psi)
/// and the uncertain centroid Z of cluster C,
///   E[||X - Z||_j^2] = CF1_j^2/n^2 + EF2_j/n^2 + psi_j^2 + x_j^2
///                      - 2 x_j CF1_j / n.
/// Requires a non-empty cluster. The value can dip microscopically below
/// zero from cancellation; callers clamp where it matters.
///
/// Defined inline: this is the innermost operation of the algorithm
/// (evaluated per cluster per dimension per point) and must inline into
/// the scan loops.
inline double ExpectedSquaredDistanceAt(const stream::UncertainPoint& point,
                                        const EcfView& cluster,
                                        std::size_t j) {
  const double n = cluster.weight;
  const double cf1 = cluster.cf1[j];
  const double x = point.values[j];
  const double psi = point.ErrorAt(j);
  return cf1 * cf1 / (n * n) + cluster.ef2[j] / (n * n) + psi * psi +
         x * x - 2.0 * x * cf1 / n;
}

/// Lemma 2.2, summed over dimensions: v = E[||X - Z||^2].
double ExpectedSquaredDistance(const stream::UncertainPoint& point,
                               const EcfView& cluster);

/// Lemma 2.2 minus the cluster-error term EF2_j/n^2, one dimension.
///
/// The EF2_j/n^2 term of the expected distance shrinks as a cluster
/// grows, so the raw Lemma 2.2 value systematically favors heavier
/// clusters when used to *compare* clusters -- under strong noise this
/// rich-get-richer bias collapses the clustering into one giant cluster.
/// Dropping the cluster-dependent term (and keeping the point's own
/// psi_j^2, which is identical across candidate clusters) yields a value
/// that is safe to compare across clusters while still reflecting how
/// uncertain the point's own measurement is.
inline double ComparableSquaredDistanceAt(
    const stream::UncertainPoint& point, const EcfView& cluster,
    std::size_t j) {
  const double n = cluster.weight;
  return ExpectedSquaredDistanceAt(point, cluster, j) -
         cluster.ef2[j] / (n * n);
}

/// The purely geometric squared distance between the instantiation x and
/// the expected centroid E[Z] = CF1/n along dimension j. Equals Lemma
/// 2.2 minus both error terms (psi_j^2 and EF2_j/n^2).
inline double GeometricSquaredDistanceAt(const stream::UncertainPoint& point,
                                         const EcfView& cluster,
                                         std::size_t j) {
  const double diff = point.values[j] - cluster.cf1[j] / cluster.weight;
  return diff * diff;
}

/// Geometric squared distance summed over dimensions, clamped at 0.
double GeometricSquaredDistance(const stream::UncertainPoint& point,
                                const EcfView& cluster);

/// How the per-dimension distance inside the similarity is computed.
enum class DistanceForm {
  /// Lemma 2.2 verbatim (includes the cluster's EF2_j/n^2 term). The
  /// paper-literal form and the default.
  kPaperExpected,
  /// The bias-corrected form: Lemma 2.2 minus the cluster-error term
  /// (see ComparableSquaredDistanceAt). An engineering alternative
  /// studied by ablation A7.
  kComparable,
};

/// The dimension-counting similarity of Section II-B: for each dimension
/// j it adds max{0, 1 - dist_j^2 / (thresh * sigma_j^2)}, where
/// sigma_j^2 is the global variance of the data along dimension j and
/// dist_j^2 is the expected squared distance in the chosen form.
/// Dimensions whose distance exceeds thresh*sigma_j^2 -- typically the
/// heavily uncertain ones, since psi_j^2 inflates dist_j^2 -- contribute
/// nothing and are thereby pruned from the comparison. Larger return
/// values mean more similar. Dimensions with sigma_j^2 <= 0 are skipped.
double DimensionCountingSimilarity(
    const stream::UncertainPoint& point, const EcfView& cluster,
    const std::vector<double>& global_variances, double thresh,
    DistanceForm form = DistanceForm::kComparable);

}  // namespace umicro::core

#endif  // UMICRO_CORE_EXPECTED_DISTANCE_H_
