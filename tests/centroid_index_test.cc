// Unit tests for the centroid candidate index against a brute-force
// reference: every shortlist must be sorted, duplicate-free, and --
// the safety contract -- contain the row the full scan would pick.

#include "index/centroid_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "index/kdtree_index.h"
#include "kernels/kernels.h"
#include "util/random.h"

namespace umicro::index {
namespace {

using kernels::Backend;
using kernels::ClusterTable;
using kernels::DistanceKind;
using kernels::PointContext;

/// Builds a table of `rows` random point-clusters in [-scale, scale]^d
/// with per-dimension errors in [0, err].
ClusterTable RandomTable(util::Rng& rng, std::size_t rows, std::size_t dims,
                         double scale, double err) {
  ClusterTable table(dims);
  std::vector<double> values(dims);
  std::vector<double> errors(dims);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dims; ++j) {
      values[j] = rng.Uniform(-scale, scale);
      errors[j] = rng.Uniform(0.0, err);
    }
    table.PushPointRow(values.data(), errors.data(), 1.0);
  }
  return table;
}

/// Full-scan winner under the expected-distance kernel (first wins).
std::size_t FullScanWinner(const ClusterTable& table, const PointContext& ctx,
                           bool include_cluster_error) {
  std::vector<double> scores(table.rows());
  kernels::BatchSquaredDistances(
      table, ctx,
      include_cluster_error ? DistanceKind::kExpected : DistanceKind::kGeometric,
      Backend::kScalar, scores.data());
  return kernels::ArgMin(scores.data(), scores.size());
}

void ExpectShortlistSafe(CentroidIndex* index, const ClusterTable& table,
                         util::Rng& rng, std::size_t queries, double scale,
                         bool include_cluster_error) {
  const std::size_t dims = table.dims();
  std::vector<double> values(dims);
  std::vector<double> errors(dims);
  std::vector<std::uint32_t> shortlist;
  PointContext ctx;
  for (std::size_t qi = 0; qi < queries; ++qi) {
    double psi2 = 0.0;
    for (std::size_t j = 0; j < dims; ++j) {
      values[j] = rng.Uniform(-scale, scale);
      errors[j] = rng.Uniform(0.0, 0.5);
      psi2 += errors[j] * errors[j];
    }
    ctx.Prepare(table, values.data(), errors.data(), nullptr);
    if (!index->Collect(table, values.data(), include_cluster_error,
                        include_cluster_error ? psi2 : 0.0, &shortlist)) {
      continue;  // fallback is always allowed, never wrong
    }
    ASSERT_FALSE(shortlist.empty());
    ASSERT_TRUE(std::is_sorted(shortlist.begin(), shortlist.end()));
    ASSERT_EQ(std::adjacent_find(shortlist.begin(), shortlist.end()),
              shortlist.end())
        << "duplicate candidate row";
    ASSERT_LT(shortlist.back(), table.rows());
    const std::uint32_t winner =
        static_cast<std::uint32_t>(FullScanWinner(table, ctx,
                                                  include_cluster_error));
    EXPECT_TRUE(std::binary_search(shortlist.begin(), shortlist.end(), winner))
        << "safety violation: full-scan winner " << winner
        << " missing from shortlist of " << shortlist.size();
  }
}

TEST(CentroidIndexTest, ParseAndNameRoundTrip) {
  for (const IndexKind kind :
       {IndexKind::kFlat, IndexKind::kKdTree, IndexKind::kAuto}) {
    const auto parsed = ParseIndexKind(IndexKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseIndexKind("ivf").has_value());
  EXPECT_FALSE(ParseIndexKind("coarse").has_value());
  EXPECT_FALSE(ParseIndexKind("").has_value());
}

TEST(CentroidIndexTest, FlatKindMakesNoIndex) {
  EXPECT_EQ(MakeCentroidIndex(IndexKind::kFlat), nullptr);
  EXPECT_NE(MakeCentroidIndex(IndexKind::kKdTree), nullptr);
  EXPECT_NE(MakeCentroidIndex(IndexKind::kAuto), nullptr);
}

TEST(CentroidIndexTest, ShortlistContainsWinnerRandomized) {
  util::Rng rng(101);
  for (const IndexKind kind : {IndexKind::kKdTree}) {
    SCOPED_TRACE(IndexKindName(kind));
    for (const std::size_t rows : {2u, 3u, 17u, 64u, 257u}) {
      for (const std::size_t dims : {1u, 2u, 7u, 16u, 33u}) {
        ClusterTable table = RandomTable(rng, rows, dims, 20.0, 0.5);
        auto index = MakeCentroidIndex(kind);
        ExpectShortlistSafe(index.get(), table, rng, 40, 25.0, true);
        ExpectShortlistSafe(index.get(), table, rng, 10, 25.0, false);
      }
    }
  }
}

TEST(CentroidIndexTest, AllRowsIdentical) {
  // Degenerate geometry: every centroid at the same location. The
  // kd-tree must terminate (zero split extent) and still return the
  // first row among the tied winners.
  util::Rng rng(7);
  std::vector<double> values(4, 3.25);
  std::vector<double> errors(4, 0.1);
  for (const IndexKind kind : {IndexKind::kKdTree}) {
    SCOPED_TRACE(IndexKindName(kind));
    ClusterTable table(4);
    for (int i = 0; i < 100; ++i) {
      table.PushPointRow(values.data(), errors.data(), 1.0);
    }
    auto index = MakeCentroidIndex(kind);
    ExpectShortlistSafe(index.get(), table, rng, 20, 10.0, true);
  }
}

TEST(CentroidIndexTest, SurvivesMutationHooks) {
  // Drive the full mutation protocol -- absorb drift, appends, decay
  // scales, removals -- re-checking safety after each phase.
  util::Rng rng(211);
  for (const IndexKind kind : {IndexKind::kKdTree}) {
    SCOPED_TRACE(IndexKindName(kind));
    ClusterTable table = RandomTable(rng, 80, 6, 20.0, 0.5);
    auto index = MakeCentroidIndex(kind);
    ExpectShortlistSafe(index.get(), table, rng, 20, 25.0, true);

    // Absorb points into random rows, reporting exact centroid motion.
    std::vector<double> values(6);
    std::vector<double> errors(6, 0.2);
    for (int step = 0; step < 200; ++step) {
      const std::size_t row = rng.NextBounded(table.rows());
      for (auto& v : values) v = rng.Uniform(-25.0, 25.0);
      double d2 = 0.0;
      const double* centroid = table.centroid_row(row);
      for (std::size_t j = 0; j < 6; ++j) {
        const double diff = values[j] - centroid[j];
        d2 += diff * diff;
      }
      index->NoteDrift(row, std::sqrt(d2) / (table.weight(row) + 1.0));
      table.AddPoint(row, values.data(), errors.data(), 1.0);
    }
    ExpectShortlistSafe(index.get(), table, rng, 20, 25.0, true);

    // Appended rows are always candidates before the next rebuild.
    for (int step = 0; step < 10; ++step) {
      for (auto& v : values) v = rng.Uniform(-25.0, 25.0);
      table.PushPointRow(values.data(), errors.data(), 1.0);
      index->NoteAppend();
    }
    ExpectShortlistSafe(index.get(), table, rng, 20, 25.0, true);

    // Decay scaling leaves centroids put in real arithmetic but wobbles
    // them by ulps; NoteScale charges the slack.
    for (int step = 0; step < 50; ++step) {
      table.ScaleAll(0.9999);
      index->NoteScale();
    }
    ExpectShortlistSafe(index.get(), table, rng, 20, 25.0, true);

    // Structural edits demand invalidation.
    table.RemoveRow(3);
    table.MergeRows(0, table.rows() - 1);
    table.RemoveRow(table.rows() - 1);
    index->Invalidate();
    const std::uint64_t rebuilds_before = index->stats().rebuilds;
    ExpectShortlistSafe(index.get(), table, rng, 20, 25.0, true);
    EXPECT_GT(index->stats().rebuilds, rebuilds_before);
  }
}

TEST(CentroidIndexTest, GatherMatchesBatchBitwise) {
  util::Rng rng(17);
  ClusterTable table = RandomTable(rng, 50, 9, 15.0, 0.5);
  std::vector<double> values(9);
  std::vector<double> errors(9);
  for (auto& v : values) v = rng.Uniform(-15.0, 15.0);
  for (auto& e : errors) e = rng.Uniform(0.0, 0.4);
  PointContext ctx;
  ctx.Prepare(table, values.data(), errors.data(), nullptr);

  std::vector<double> full(table.rows());
  std::vector<std::uint32_t> rows = {0, 7, 8, 23, 49};
  std::vector<double> gathered(rows.size());
  for (const Backend backend :
       {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    for (const DistanceKind kind :
         {DistanceKind::kExpected, DistanceKind::kGeometric}) {
      kernels::BatchSquaredDistances(table, ctx, kind, backend, full.data());
      kernels::GatherSquaredDistances(table, ctx, kind, backend, rows.data(),
                                      rows.size(), gathered.data());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        EXPECT_EQ(gathered[k], full[rows[k]])
            << "backend " << static_cast<int>(backend) << " row " << rows[k];
      }
    }
  }
}

TEST(CentroidIndexTest, MinRowsGateFallsBack) {
  util::Rng rng(3);
  ClusterTable table = RandomTable(rng, 8, 3, 10.0, 0.2);
  CentroidIndex::Options options;
  options.min_rows = 16;
  KdTreeIndex index(options);
  std::vector<std::uint32_t> shortlist;
  const double x[3] = {0.0, 1.0, 2.0};
  EXPECT_FALSE(index.Collect(table, x, true, 0.0, &shortlist));
  EXPECT_EQ(index.stats().queries, 0u);
  EXPECT_GT(index.stats().fallbacks, 0u);
}

}  // namespace
}  // namespace umicro::index
