// Error-based cluster feature vector (the paper's ECF, Definition 2.1,
// and its time-decayed form, Definition 2.3).
//
// An uncertain micro-cluster over points X_i1..X_in with error vectors
// psi(X_i1)..psi(X_in) is the (3d+2)-tuple
//     ( CF2x(C), EF2x(C), CF1x(C), t(C), n(C) )
// where, along each dimension p,
//     CF2x_p = sum_i x_p(i)^2        (second moment of the values)
//     EF2x_p = sum_i psi_p(X_i)^2    (sum of squared errors)
//     CF1x_p = sum_i x_p(i)          (first moment of the values)
// n(C) is the point count and t(C) the last-update timestamp. In the
// weighted variant every sum carries the decay weight w_t(X) and n(C)
// becomes the total weight W(C); both cases share this one class, with
// `weight()` playing the role of n(C)/W(C).

#ifndef UMICRO_CORE_CLUSTER_FEATURE_H_
#define UMICRO_CORE_CLUSTER_FEATURE_H_

#include <cstddef>
#include <vector>

#include "stream/point.h"

namespace umicro::core {

class ErrorClusterFeature;

/// Read-only view of one cluster's raw ECF statistics: the moment arrays
/// CF1x, CF2x, EF2x (each `dims` long) and the weight n(C). Both an
/// ErrorClusterFeature and a row of kernels::ClusterTable produce one, so
/// each formula over the statistics (Eq. 6, BIRCH variance, Lemma 2.2 in
/// core/expected_distance.h) has a single implementation whichever
/// container holds the numbers.
struct EcfView {
  EcfView(const double* cf1_in, const double* cf2_in, const double* ef2_in,
          double weight_in, std::size_t dims_in)
      : cf1(cf1_in), cf2(cf2_in), ef2(ef2_in), weight(weight_in),
        dims(dims_in) {}
  /// Views an ErrorClusterFeature (implicit: every formula taking a view
  /// accepts the value type directly).
  EcfView(const ErrorClusterFeature& ecf);  // NOLINT(runtime/explicit)

  const double* cf1;
  const double* cf2;
  const double* ef2;
  double weight;
  std::size_t dims;

  /// True when no weight has been folded in.
  bool empty() const { return weight <= 0.0; }

  /// Squared uncertain radius (Eq. 6); see
  /// ErrorClusterFeature::UncertainRadiusSquared.
  double UncertainRadiusSquared() const;

  /// BIRCH variance along dimension `j`; see
  /// ErrorClusterFeature::VarianceAt.
  double VarianceAt(std::size_t j) const;
};

/// Additive error-based cluster feature vector (ECF).
class ErrorClusterFeature {
 public:
  ErrorClusterFeature() = default;

  /// Creates an empty ECF for `dimensions`-dimensional points.
  explicit ErrorClusterFeature(std::size_t dimensions);

  /// Creates a singleton ECF from one (possibly weighted) point.
  static ErrorClusterFeature FromPoint(const stream::UncertainPoint& point,
                                       double weight = 1.0);

  /// Folds one point with the given weight into the feature vector and
  /// advances t(C) to the point's timestamp.
  void AddPoint(const stream::UncertainPoint& point, double weight = 1.0);

  /// Additive property (Property 2.1): component-wise sum of all
  /// non-temporal statistics; t(C1 u C2) = max(t(C1), t(C2)).
  void Merge(const ErrorClusterFeature& other);

  /// Subtractivity: removes `other`'s contribution (used by the pyramidal
  /// time frame to recover horizon-specific statistics). `other` must
  /// describe a subset of this cluster's points. If the subtraction
  /// drives the weight to (or past) zero, the whole feature vector is
  /// zeroed -- a cluster with no weight has no statistics.
  void Subtract(const ErrorClusterFeature& other);

  /// Multiplies every additive statistic by `factor` (exponential time
  /// decay; the temporal stamp is left untouched).
  void Scale(double factor);

  /// Dimensionality d.
  std::size_t dimensions() const { return cf1_.size(); }

  /// Point count n(C), or total weight W(C) in the decayed setting.
  double weight() const { return weight_; }

  /// True when no points have been folded in (weight == 0).
  bool empty() const { return weight_ <= 0.0; }

  /// Last-update timestamp t(C).
  double last_update_time() const { return last_update_time_; }

  /// Overrides t(C) (used when deserializing snapshots).
  void set_last_update_time(double t) { last_update_time_ = t; }

  /// First-moment vector CF1x.
  const std::vector<double>& cf1() const { return cf1_; }

  /// Second-moment vector CF2x.
  const std::vector<double>& cf2() const { return cf2_; }

  /// Squared-error vector EF2x.
  const std::vector<double>& ef2() const { return ef2_; }

  /// Cluster centroid: CF1x / weight. Must not be empty.
  std::vector<double> Centroid() const;

  /// Centroid coordinate along dimension `j`.
  double CentroidAt(std::size_t j) const;

  /// Lemma 2.1: E[||Z||^2] = sum_j CF1_j^2/n^2 + sum_j EF2_j/n^2, where Z
  /// is the (random) centroid of the cluster.
  double ExpectedCentroidNormSquared() const;

  /// Squared uncertain radius (Eq. 6): the mean over the cluster's points
  /// of the expected squared distance to the centroid,
  ///   U^2 = (1/n) sum_i E[||Y_i - W||^2]
  ///       = (1/n) sum_j [ CF2_j + EF2_j (1 + 1/n) - CF1_j^2 / n ].
  /// Derived by summing Lemma 2.2 over the member points; the closed form
  /// needs only the ECF. Clamped at 0 against floating-point cancellation.
  double UncertainRadiusSquared() const;

  /// Uncertain radius U (square root of the above).
  double UncertainRadius() const;

  /// Per-dimension variance of the stored values: CF2_j/n - (CF1_j/n)^2
  /// (the BIRCH formula, clamped at 0). Used to derive the global
  /// dimension variances for the dimension-counting similarity.
  double VarianceAt(std::size_t j) const;

  /// Direct construction from raw statistics (deserialization hook).
  static ErrorClusterFeature FromRaw(std::vector<double> cf1,
                                     std::vector<double> cf2,
                                     std::vector<double> ef2, double weight,
                                     double last_update_time);

 private:
  std::vector<double> cf1_;
  std::vector<double> cf2_;
  std::vector<double> ef2_;
  double weight_ = 0.0;
  double last_update_time_ = 0.0;
};

inline EcfView::EcfView(const ErrorClusterFeature& ecf)
    : EcfView(ecf.cf1().data(), ecf.cf2().data(), ecf.ef2().data(),
              ecf.weight(), ecf.dimensions()) {}

}  // namespace umicro::core

#endif  // UMICRO_CORE_CLUSTER_FEATURE_H_
