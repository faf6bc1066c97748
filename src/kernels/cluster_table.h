// Structure-of-arrays store of the live micro-cluster statistics.
//
// The UMicro hot path evaluates every arriving point against all q
// micro-clusters (expected distance / dimension-counting similarity,
// Lemmas 2.1/2.2). This table holds the clusters' ECF statistics as q
// contiguous, zero-padded rows so the scan kernels stream through memory
// and vectorize. It is the sole owner of that state inside core::UMicro;
// value types (core::ErrorClusterFeature / core::MicroCluster) are
// materialized from the rows only at the edges -- snapshots,
// checkpoints, shard merges and UMicro::clusters().
//
// Per cluster row i (stride-padded, zeros beyond `dims`):
//   cf1[i][j]       first moments          (state)
//   cf2[i][j]       second moments         (state)
//   ef2[i][j]       squared-error sums     (state)
//   centroid[i][j]  cf1[j] * (1/n)         (derived, scan input)
//   ef2n2[i][j]     ef2[j] / n^2           (derived, scan input)
// plus per-cluster scalars: weight n (state) and sum_j ef2n2[j] (the
// cluster-error constant of the expected distance).
//
// The update entry points below perform the same IEEE multiply-then-add
// sequence as ErrorClusterFeature, on every backend, so a row evolves
// bit-identically to the value type fed the same updates -- which keeps
// the "ucheckpoint 2" payloads, serialized from materialized value types,
// byte-compatible. The derived rows are refreshed by shared
// (tier-independent) code so every backend sees the same scan inputs;
// they round differently from `cf1[j] / n`, so formulas that must match
// the value type read the state rows, not the derived ones.

#ifndef UMICRO_KERNELS_CLUSTER_TABLE_H_
#define UMICRO_KERNELS_CLUSTER_TABLE_H_

#include <cstddef>
#include <vector>

#include "kernels/dispatch.h"

namespace umicro::kernels {

/// Contiguous SoA store of q micro-clusters' ECF statistics.
class ClusterTable {
 public:
  ClusterTable() = default;

  /// Creates an empty table for `dimensions`-dimensional clusters.
  explicit ClusterTable(std::size_t dimensions);

  /// Re-initializes for `dimensions`, dropping all rows.
  void Reset(std::size_t dimensions);

  /// Pre-allocates storage for `rows` clusters.
  void Reserve(std::size_t rows);

  /// Appends a row from raw ECF statistics (arrays of length `dims()`).
  /// `weight` must be positive.
  void PushRow(const double* cf1, const double* cf2, const double* ef2,
               double weight);

  /// Appends a singleton row for one point: cf1 = w*x, cf2 = w*x^2,
  /// ef2 = w*psi^2 (`errors` may be null for deterministic points).
  void PushPointRow(const double* values, const double* errors,
                    double weight);

  /// Fused ECF update: folds one weighted point into row `i` (CF1 += w*x,
  /// CF2 += w*x^2, EF2 += w*psi^2, n += w) and refreshes the derived
  /// rows, in one pass. Bit-identical to ErrorClusterFeature::AddPoint.
  void AddPoint(std::size_t i, const double* values, const double* errors,
                double weight);

  /// Fused decay: multiplies every additive statistic of every row by
  /// `factor` (> 0) and refreshes the derived rows. Bit-identical to
  /// calling ErrorClusterFeature::Scale on each cluster.
  void ScaleAll(double factor);

  /// Merges row `from` into row `into` (component-wise ECF addition,
  /// Property 2.1) and refreshes `into`'s derived rows. `from` is left
  /// untouched; remove it separately.
  void MergeRows(std::size_t into, std::size_t from);

  /// Removes row `i`, shifting later rows down (order-preserving, so row
  /// indices keep matching the owner's per-row bookkeeping).
  void RemoveRow(std::size_t i);

  /// Number of live rows q.
  std::size_t rows() const { return rows_; }

  /// Dimensionality d.
  std::size_t dims() const { return dims_; }

  /// Padded row length (multiple of 8 doubles; zeros beyond dims()).
  std::size_t stride() const { return stride_; }

  /// Backend used by the update kernels (bit-identical across tiers;
  /// settable for parity tests and benchmarks).
  Backend backend() const { return backend_; }
  void set_backend(Backend backend) { backend_ = backend; }

  // Row accessors (pointers into the contiguous arrays, stride() long).
  const double* cf1_row(std::size_t i) const { return &cf1_[i * stride_]; }
  const double* cf2_row(std::size_t i) const { return &cf2_[i * stride_]; }
  const double* ef2_row(std::size_t i) const { return &ef2_[i * stride_]; }
  const double* centroid_row(std::size_t i) const {
    return &centroid_[i * stride_];
  }
  const double* ef2n2_row(std::size_t i) const {
    return &ef2n2_[i * stride_];
  }

  /// Cluster weight n(C) of row `i`.
  double weight(std::size_t i) const { return weight_[i]; }

  /// Cached sum_j EF2_j/n^2 of row `i` (Lemma 2.1's cluster-error term).
  double ef2n2_sum(std::size_t i) const { return ef2n2_sum_[i]; }

  /// The whole centroid array (rows() * stride() doubles) -- input of
  /// the closest-pair kernel.
  const double* centroid_data() const { return centroid_.data(); }

 private:
  /// Recomputes the derived rows (centroid, ef2n2, ef2n2_sum) of row
  /// `i`. Shared scalar code so every backend derives identical
  /// scan inputs.
  void RefreshDerived(std::size_t i);

  std::size_t dims_ = 0;
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  Backend backend_ = DetectBackend();

  std::vector<double> cf1_;
  std::vector<double> cf2_;
  std::vector<double> ef2_;
  std::vector<double> centroid_;
  std::vector<double> ef2n2_;
  std::vector<double> weight_;
  std::vector<double> ef2n2_sum_;

  // Padded staging buffers for AddPoint (point values and pre-weighted
  // squared errors), reused across calls to avoid allocation.
  std::vector<double> x_stage_;
  std::vector<double> psi2w_stage_;
};

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_CLUSTER_TABLE_H_
