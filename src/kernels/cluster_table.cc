#include "kernels/cluster_table.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define UMICRO_KERNELS_X64 1
#else
#define UMICRO_KERNELS_X64 0
#endif

namespace umicro::kernels {

namespace {

/// Rows are padded to a multiple of 8 doubles (one cache line) so both
/// the 2-wide and 4-wide tiers run without scalar remainders and the
/// padding lanes (all zeros) contribute nothing to any kernel.
constexpr std::size_t kStrideQuantum = 8;

std::size_t PaddedStride(std::size_t dims) {
  return (dims + kStrideQuantum - 1) / kStrideQuantum * kStrideQuantum;
}

// ---- Element-wise update tiers --------------------------------------
// Each tier performs the identical per-element IEEE operation sequence
// (multiply, then add -- deliberately no FMA), so results are
// bit-identical across tiers and match ErrorClusterFeature's loops.

void AddPointRowScalar(double* cf1, double* cf2, double* ef2,
                       const double* x, const double* psi2w,
                       double weight, std::size_t stride) {
  for (std::size_t j = 0; j < stride; ++j) {
    const double wx = weight * x[j];
    cf1[j] += wx;
    cf2[j] += wx * x[j];
    ef2[j] += psi2w[j];
  }
}

void ScaleRowScalar(double* cf1, double* cf2, double* ef2, double factor,
                    std::size_t stride) {
  for (std::size_t j = 0; j < stride; ++j) {
    cf1[j] *= factor;
    cf2[j] *= factor;
    ef2[j] *= factor;
  }
}

void MergeRowScalar(double* into_cf1, double* into_cf2, double* into_ef2,
                    const double* from_cf1, const double* from_cf2,
                    const double* from_ef2, std::size_t stride) {
  for (std::size_t j = 0; j < stride; ++j) {
    into_cf1[j] += from_cf1[j];
    into_cf2[j] += from_cf2[j];
    into_ef2[j] += from_ef2[j];
  }
}

#if UMICRO_KERNELS_X64

__attribute__((target("sse2"))) void AddPointRowSse2(
    double* cf1, double* cf2, double* ef2, const double* x,
    const double* psi2w, double weight, std::size_t stride) {
  const __m128d w = _mm_set1_pd(weight);
  for (std::size_t j = 0; j < stride; j += 2) {
    const __m128d xv = _mm_loadu_pd(x + j);
    const __m128d wx = _mm_mul_pd(w, xv);
    _mm_storeu_pd(cf1 + j, _mm_add_pd(_mm_loadu_pd(cf1 + j), wx));
    _mm_storeu_pd(cf2 + j,
                  _mm_add_pd(_mm_loadu_pd(cf2 + j), _mm_mul_pd(wx, xv)));
    _mm_storeu_pd(ef2 + j,
                  _mm_add_pd(_mm_loadu_pd(ef2 + j), _mm_loadu_pd(psi2w + j)));
  }
}

__attribute__((target("sse2"))) void ScaleRowSse2(double* cf1, double* cf2,
                                                  double* ef2, double factor,
                                                  std::size_t stride) {
  const __m128d f = _mm_set1_pd(factor);
  for (std::size_t j = 0; j < stride; j += 2) {
    _mm_storeu_pd(cf1 + j, _mm_mul_pd(_mm_loadu_pd(cf1 + j), f));
    _mm_storeu_pd(cf2 + j, _mm_mul_pd(_mm_loadu_pd(cf2 + j), f));
    _mm_storeu_pd(ef2 + j, _mm_mul_pd(_mm_loadu_pd(ef2 + j), f));
  }
}

__attribute__((target("avx2"))) void AddPointRowAvx2(
    double* cf1, double* cf2, double* ef2, const double* x,
    const double* psi2w, double weight, std::size_t stride) {
  const __m256d w = _mm256_set1_pd(weight);
  for (std::size_t j = 0; j < stride; j += 4) {
    const __m256d xv = _mm256_loadu_pd(x + j);
    const __m256d wx = _mm256_mul_pd(w, xv);
    _mm256_storeu_pd(cf1 + j, _mm256_add_pd(_mm256_loadu_pd(cf1 + j), wx));
    _mm256_storeu_pd(
        cf2 + j, _mm256_add_pd(_mm256_loadu_pd(cf2 + j), _mm256_mul_pd(wx, xv)));
    _mm256_storeu_pd(ef2 + j, _mm256_add_pd(_mm256_loadu_pd(ef2 + j),
                                            _mm256_loadu_pd(psi2w + j)));
  }
}

__attribute__((target("avx2"))) void ScaleRowAvx2(double* cf1, double* cf2,
                                                  double* ef2, double factor,
                                                  std::size_t stride) {
  const __m256d f = _mm256_set1_pd(factor);
  for (std::size_t j = 0; j < stride; j += 4) {
    _mm256_storeu_pd(cf1 + j, _mm256_mul_pd(_mm256_loadu_pd(cf1 + j), f));
    _mm256_storeu_pd(cf2 + j, _mm256_mul_pd(_mm256_loadu_pd(cf2 + j), f));
    _mm256_storeu_pd(ef2 + j, _mm256_mul_pd(_mm256_loadu_pd(ef2 + j), f));
  }
}

#endif  // UMICRO_KERNELS_X64

}  // namespace

ClusterTable::ClusterTable(std::size_t dimensions) { Reset(dimensions); }

void ClusterTable::Reset(std::size_t dimensions) {
  UMICRO_CHECK(dimensions > 0);
  dims_ = dimensions;
  stride_ = PaddedStride(dimensions);
  rows_ = 0;
  cf1_.clear();
  cf2_.clear();
  ef2_.clear();
  centroid_.clear();
  ef2n2_.clear();
  weight_.clear();
  ef2n2_sum_.clear();
}

void ClusterTable::Reserve(std::size_t rows) {
  cf1_.reserve(rows * stride_);
  cf2_.reserve(rows * stride_);
  ef2_.reserve(rows * stride_);
  centroid_.reserve(rows * stride_);
  ef2n2_.reserve(rows * stride_);
  weight_.reserve(rows);
  ef2n2_sum_.reserve(rows);
}

void ClusterTable::PushRow(const double* cf1, const double* cf2,
                           const double* ef2, double weight) {
  UMICRO_CHECK(weight > 0.0);
  cf1_.resize((rows_ + 1) * stride_, 0.0);
  cf2_.resize((rows_ + 1) * stride_, 0.0);
  ef2_.resize((rows_ + 1) * stride_, 0.0);
  centroid_.resize((rows_ + 1) * stride_, 0.0);
  ef2n2_.resize((rows_ + 1) * stride_, 0.0);
  weight_.push_back(weight);
  ef2n2_sum_.push_back(0.0);
  double* c1 = &cf1_[rows_ * stride_];
  double* c2 = &cf2_[rows_ * stride_];
  double* e2 = &ef2_[rows_ * stride_];
  std::memcpy(c1, cf1, dims_ * sizeof(double));
  std::memcpy(c2, cf2, dims_ * sizeof(double));
  std::memcpy(e2, ef2, dims_ * sizeof(double));
  std::fill(c1 + dims_, c1 + stride_, 0.0);
  std::fill(c2 + dims_, c2 + stride_, 0.0);
  std::fill(e2 + dims_, e2 + stride_, 0.0);
  ++rows_;
  RefreshDerived(rows_ - 1);
}

void ClusterTable::PushPointRow(const double* values, const double* errors,
                                double weight) {
  UMICRO_CHECK(weight > 0.0);
  cf1_.resize((rows_ + 1) * stride_, 0.0);
  cf2_.resize((rows_ + 1) * stride_, 0.0);
  ef2_.resize((rows_ + 1) * stride_, 0.0);
  centroid_.resize((rows_ + 1) * stride_, 0.0);
  ef2n2_.resize((rows_ + 1) * stride_, 0.0);
  weight_.push_back(0.0);
  ef2n2_sum_.push_back(0.0);
  ++rows_;
  // Zero row + fused add reproduces the exact operation sequence a
  // fresh ErrorClusterFeature sees when absorbing its first point.
  AddPoint(rows_ - 1, values, errors, weight);
}

void ClusterTable::AddPoint(std::size_t i, const double* values,
                            const double* errors, double weight) {
  UMICRO_DCHECK(i < rows_);
  UMICRO_CHECK(weight > 0.0);
  // Padded stage buffers for the point: x (zeros beyond dims) and the
  // pre-weighted squared errors w*psi^2 (matching ErrorClusterFeature's
  // `weight * psi * psi` with psi = 0 when no error vector is attached).
  x_stage_.resize(stride_);
  psi2w_stage_.resize(stride_);
  for (std::size_t j = 0; j < dims_; ++j) {
    x_stage_[j] = values[j];
    const double psi = errors == nullptr ? 0.0 : errors[j];
    psi2w_stage_[j] = weight * psi * psi;
  }
  std::fill(x_stage_.begin() + static_cast<std::ptrdiff_t>(dims_),
            x_stage_.end(), 0.0);
  std::fill(psi2w_stage_.begin() + static_cast<std::ptrdiff_t>(dims_),
            psi2w_stage_.end(), 0.0);

  double* c1 = &cf1_[i * stride_];
  double* c2 = &cf2_[i * stride_];
  double* e2 = &ef2_[i * stride_];
  switch (backend_) {
#if UMICRO_KERNELS_X64
    case Backend::kAvx2:
      AddPointRowAvx2(c1, c2, e2, x_stage_.data(), psi2w_stage_.data(),
                      weight, stride_);
      break;
    case Backend::kSse2:
      AddPointRowSse2(c1, c2, e2, x_stage_.data(), psi2w_stage_.data(),
                      weight, stride_);
      break;
#endif
    default:
      AddPointRowScalar(c1, c2, e2, x_stage_.data(), psi2w_stage_.data(),
                        weight, stride_);
      break;
  }
  weight_[i] += weight;
  RefreshDerived(i);
}

void ClusterTable::ScaleAll(double factor) {
  UMICRO_CHECK(factor > 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* c1 = &cf1_[i * stride_];
    double* c2 = &cf2_[i * stride_];
    double* e2 = &ef2_[i * stride_];
    switch (backend_) {
#if UMICRO_KERNELS_X64
      case Backend::kAvx2:
        ScaleRowAvx2(c1, c2, e2, factor, stride_);
        break;
      case Backend::kSse2:
        ScaleRowSse2(c1, c2, e2, factor, stride_);
        break;
#endif
      default:
        ScaleRowScalar(c1, c2, e2, factor, stride_);
        break;
    }
    weight_[i] *= factor;
    RefreshDerived(i);
  }
}

void ClusterTable::MergeRows(std::size_t into, std::size_t from) {
  UMICRO_DCHECK(into < rows_ && from < rows_ && into != from);
  MergeRowScalar(&cf1_[into * stride_], &cf2_[into * stride_],
                 &ef2_[into * stride_], &cf1_[from * stride_],
                 &cf2_[from * stride_], &ef2_[from * stride_], stride_);
  weight_[into] += weight_[from];
  RefreshDerived(into);
}

void ClusterTable::RemoveRow(std::size_t i) {
  UMICRO_DCHECK(i < rows_);
  const std::size_t tail_rows = rows_ - i - 1;
  if (tail_rows > 0) {
    const std::size_t tail = tail_rows * stride_;
    std::memmove(&cf1_[i * stride_], &cf1_[(i + 1) * stride_],
                 tail * sizeof(double));
    std::memmove(&cf2_[i * stride_], &cf2_[(i + 1) * stride_],
                 tail * sizeof(double));
    std::memmove(&ef2_[i * stride_], &ef2_[(i + 1) * stride_],
                 tail * sizeof(double));
    std::memmove(&centroid_[i * stride_], &centroid_[(i + 1) * stride_],
                 tail * sizeof(double));
    std::memmove(&ef2n2_[i * stride_], &ef2n2_[(i + 1) * stride_],
                 tail * sizeof(double));
    std::memmove(&weight_[i], &weight_[i + 1], tail_rows * sizeof(double));
    std::memmove(&ef2n2_sum_[i], &ef2n2_sum_[i + 1],
                 tail_rows * sizeof(double));
  }
  --rows_;
  cf1_.resize(rows_ * stride_);
  cf2_.resize(rows_ * stride_);
  ef2_.resize(rows_ * stride_);
  centroid_.resize(rows_ * stride_);
  ef2n2_.resize(rows_ * stride_);
  weight_.resize(rows_);
  ef2n2_sum_.resize(rows_);
}

void ClusterTable::RefreshDerived(std::size_t i) {
  const double inv_n = 1.0 / weight_[i];
  const double inv_n2 = inv_n * inv_n;
  const double* c1 = &cf1_[i * stride_];
  const double* e2 = &ef2_[i * stride_];
  double* centroid = &centroid_[i * stride_];
  double* ef2n2 = &ef2n2_[i * stride_];
  double sum = 0.0;
  for (std::size_t j = 0; j < stride_; ++j) {
    centroid[j] = c1[j] * inv_n;
    ef2n2[j] = e2[j] * inv_n2;
    sum += ef2n2[j];
  }
  ef2n2_sum_[i] = sum;
}

}  // namespace umicro::kernels
