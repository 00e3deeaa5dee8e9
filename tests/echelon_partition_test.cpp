// Tests for the integer column-echelon decomposition, unimodular
// completion, and the independent-partitioning analysis built on them.
#include <gtest/gtest.h>

#include "tilo/lattice/echelon.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/sched/partition.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using lat::ColumnEchelon;
using lat::Mat;
using lat::Vec;
using loop::DependenceSet;
using util::i64;

namespace {

/// First nonzero row index of a column (rows() when all zero).
std::size_t pivot_row(const Mat& m, std::size_t c) {
  for (std::size_t r = 0; r < m.rows(); ++r)
    if (m(r, c) != 0) return r;
  return m.rows();
}

void check_echelon_invariants(const Mat& a, const ColumnEchelon& e) {
  // A * U == H and U unimodular.
  EXPECT_EQ(a * e.u, e.h);
  EXPECT_EQ(std::abs(e.u.det()), 1);
  // Pivot rows strictly increase; zero columns trail.
  std::size_t last = 0;
  bool seen_zero = false;
  for (std::size_t c = 0; c < e.h.cols(); ++c) {
    const std::size_t p = pivot_row(e.h, c);
    if (p == e.h.rows()) {
      seen_zero = true;
      continue;
    }
    EXPECT_FALSE(seen_zero) << "nonzero column after a zero column";
    if (c > 0 && c <= e.rank) {
      EXPECT_GT(p, last);
    }
    last = p;
    EXPECT_GT(e.h(p, c), 0) << "pivot must be positive";
    // Entries right of the pivot in its row are zero.
    for (std::size_t j = c + 1; j < e.h.cols(); ++j)
      EXPECT_EQ(e.h(p, j), 0);
  }
}

}  // namespace

TEST(EchelonTest, SmallHandCase) {
  const Mat a{{4, 6}, {2, 2}};
  const ColumnEchelon e = lat::column_echelon(a);
  check_echelon_invariants(a, e);
  EXPECT_EQ(e.rank, 2u);
}

TEST(EchelonTest, RankDeficientMatrix) {
  const Mat a{{1, 2, 3}, {2, 4, 6}};  // rank 1
  const ColumnEchelon e = lat::column_echelon(a);
  check_echelon_invariants(a, e);
  EXPECT_EQ(e.rank, 1u);
  EXPECT_EQ(lat::int_rank(a), 1u);
}

TEST(EchelonTest, PreservesAbsDeterminant) {
  tilo::util::Rng rng(55);
  for (int iter = 0; iter < 30; ++iter) {
    Mat a(3, 3);
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.uniform(-5, 5);
    const ColumnEchelon e = lat::column_echelon(a);
    check_echelon_invariants(a, e);
    EXPECT_EQ(std::abs(e.h.det()), std::abs(a.det()));
  }
}

TEST(EchelonTest, RandomShapesKeepInvariants) {
  tilo::util::Rng rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t rows = static_cast<std::size_t>(rng.uniform(1, 4));
    const std::size_t cols = static_cast<std::size_t>(rng.uniform(1, 5));
    Mat a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) a(r, c) = rng.uniform(-6, 6);
    check_echelon_invariants(a, lat::column_echelon(a));
  }
}

TEST(CompletionTest, FirstRowIsInput) {
  for (const Vec& v : {Vec{1, 1}, Vec{2, 3}, Vec{1, 2, 2}, Vec{3, 5, 7},
                       Vec{0, 1, 0, 0}}) {
    const Mat m = lat::unimodular_complete(v);
    EXPECT_EQ(m.row(0), v) << v.str();
    EXPECT_EQ(std::abs(m.det()), 1) << v.str();
  }
}

TEST(CompletionTest, RequiresGcdOne) {
  EXPECT_THROW(lat::unimodular_complete(Vec{2, 4}), util::Error);
  EXPECT_THROW(lat::unimodular_complete(Vec{0, 0}), util::Error);
}

TEST(CompletionTest, CompletesScheduleVectors) {
  // The overlap hyperplane (2, 2, 1) extends to a full space-time basis.
  const Mat m = lat::unimodular_complete(Vec{2, 2, 1});
  EXPECT_EQ(m.row(0), (Vec{2, 2, 1}));
  EXPECT_EQ(std::abs(m.det()), 1);
}

TEST(PartitionTest, FullRankStencilIsNotPartitionable) {
  // The paper's evaluation kernel: deps span all three dimensions, so no
  // communication-free partitioning exists — tiling is required.
  const auto p = sched::independent_partitioning(
      loop::paper_space_i().deps());
  EXPECT_EQ(p.rank, 3u);
  EXPECT_EQ(p.degree, 0u);
  EXPECT_FALSE(p.is_partitionable());
  EXPECT_TRUE(p.basis.empty());
}

TEST(PartitionTest, RankDeficientDepsSplit) {
  // Dependencies confined to the (i, j) plane: the k direction partitions.
  const DependenceSet deps({Vec{1, 0, 0}, Vec{1, 1, 0}});
  const auto p = sched::independent_partitioning(deps);
  EXPECT_EQ(p.rank, 2u);
  EXPECT_EQ(p.degree, 1u);
  ASSERT_EQ(p.basis.size(), 1u);
  for (const Vec& d : deps) EXPECT_EQ(p.basis[0].dot(d), 0);
  EXPECT_FALSE(p.basis[0].is_zero());
}

TEST(PartitionTest, SingleDependenceChain) {
  // One dependence in 3-D: two independent directions.
  const auto p =
      sched::independent_partitioning(DependenceSet({Vec{1, 2, 3}}));
  EXPECT_EQ(p.degree, 2u);
  ASSERT_EQ(p.basis.size(), 2u);
  // Basis is linearly independent.
  Mat b = Mat::from_columns({p.basis[0], p.basis[1]});
  EXPECT_EQ(lat::int_rank(b), 2u);
}
