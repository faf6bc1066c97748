#include "core/expected_distance.h"

#include <algorithm>

#include "util/check.h"

namespace umicro::core {

double ExpectedSquaredDistance(const stream::UncertainPoint& point,
                               const EcfView& cluster) {
  UMICRO_CHECK(!cluster.empty());
  UMICRO_CHECK(point.dimensions() == cluster.dims);
  double v = 0.0;
  for (std::size_t j = 0; j < cluster.dims; ++j) {
    v += ExpectedSquaredDistanceAt(point, cluster, j);
  }
  // v is a sum of expectations of squares; clamp tiny negative residue.
  return std::max(0.0, v);
}

double GeometricSquaredDistance(const stream::UncertainPoint& point,
                                const EcfView& cluster) {
  UMICRO_DCHECK(!cluster.empty());
  UMICRO_DCHECK(point.dimensions() == cluster.dims);
  const double n = cluster.weight;
  const double* cf1 = cluster.cf1;
  const double* x = point.values.data();
  double g = 0.0;
  for (std::size_t j = 0; j < cluster.dims; ++j) {
    const double diff = x[j] - cf1[j] / n;
    g += diff * diff;
  }
  return g;
}

double DimensionCountingSimilarity(
    const stream::UncertainPoint& point, const EcfView& cluster,
    const std::vector<double>& global_variances, double thresh,
    DistanceForm form) {
  UMICRO_DCHECK(!cluster.empty());
  UMICRO_DCHECK(point.dimensions() == cluster.dims);
  UMICRO_DCHECK(global_variances.size() == cluster.dims);
  UMICRO_DCHECK(thresh > 0.0);
  const std::size_t dims = cluster.dims;
  const double n = cluster.weight;
  const double inv_n = 1.0 / n;
  const double inv_n2 = inv_n * inv_n;
  const double* cf1 = cluster.cf1;
  const double* ef2 = cluster.ef2;
  const double* x = point.values.data();
  const double* psi = point.errors.empty() ? nullptr : point.errors.data();
  const bool include_cluster_error = form == DistanceForm::kPaperExpected;

  double similarity = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    const double sigma2 = global_variances[j];
    if (sigma2 <= 0.0) continue;
    const double diff = x[j] - cf1[j] * inv_n;
    double dist2 = diff * diff;
    if (psi != nullptr) dist2 += psi[j] * psi[j];
    if (include_cluster_error) dist2 += ef2[j] * inv_n2;
    if (dist2 < 0.0) dist2 = 0.0;
    const double vote = 1.0 - dist2 / (thresh * sigma2);
    if (vote > 0.0) similarity += vote;
  }
  return similarity;
}

}  // namespace umicro::core
