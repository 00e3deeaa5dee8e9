// Tests for skewed views: executing wavefront (negative-component)
// dependence sets through the rectangular tiling machinery by unimodular
// skewing — sequential equivalence at image points, distributed execution
// on both schedules, and the full skew pipeline on random nests.
#include <gtest/gtest.h>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/skewview.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/tiling/skew.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using lat::Box;
using lat::Mat;
using lat::Vec;
using loop::DependenceSet;
using loop::LoopNest;
using sched::ScheduleKind;
using util::i64;

namespace {

mach::MachineParams tiny_params() {
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.02e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 1e-6;
  p.fill_mpi_buffer = mach::AffineCost{3e-6, 0.0};
  p.fill_kernel_buffer = mach::AffineCost{3e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> tiny_model() {
  return std::make_shared<mach::IdealOverlapModel>(tiny_params());
}

/// A wavefront (SOR-like) nest: deps {(1,-1), (1,0), (1,1)}.
LoopNest wavefront_nest(i64 n0, i64 n1) {
  return LoopNest("wavefront", Box::from_extents(Vec{n0, n1}),
                  DependenceSet({Vec{1, -1}, Vec{1, 0}, Vec{1, 1}}),
                  std::make_shared<loop::SumKernel>(0.3));
}

}  // namespace

TEST(SkewViewTest, RectangularTilingRejectsWavefront) {
  const LoopNest nest = wavefront_nest(12, 12);
  EXPECT_THROW(tile::TiledSpace(nest, tile::RectTiling(Vec{4, 4})),
               util::Error);
}

TEST(SkewViewTest, SkewedDepsAreNonnegative) {
  const LoopNest nest = wavefront_nest(12, 12);
  const auto skew = tile::find_legal_skew(nest.deps());
  ASSERT_TRUE(skew.has_value());
  const LoopNest view = loop::make_skewed_nest(nest, *skew);
  EXPECT_TRUE(view.deps().is_nonneg());
  EXPECT_EQ(view.deps().size(), nest.deps().size());
}

TEST(SkewViewTest, SequentialValuesMatchAtImagePoints) {
  const LoopNest nest = wavefront_nest(10, 8);
  const auto skew = tile::find_legal_skew(nest.deps());
  ASSERT_TRUE(skew.has_value());
  const LoopNest view = loop::make_skewed_nest(nest, *skew);

  const loop::DenseField direct = loop::run_sequential(nest);
  const loop::DenseField skewed = loop::run_sequential(view);
  const loop::DenseField mapped =
      loop::unskew_field(skewed, *skew, nest.domain());
  EXPECT_DOUBLE_EQ(loop::max_abs_diff(direct, mapped), 0.0);
}

TEST(SkewViewTest, DistributedWavefrontBothSchedules) {
  const LoopNest nest = wavefront_nest(16, 10);
  const auto skew = tile::find_legal_skew(nest.deps());
  ASSERT_TRUE(skew.has_value());
  const LoopNest view = loop::make_skewed_nest(nest, *skew);

  // Tile the skewed space: sides must exceed the skewed dep components.
  Vec sides(2);
  for (std::size_t d = 0; d < 2; ++d)
    sides[d] = view.deps().max_component(d) + 2;

  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const exec::TilePlan plan =
        exec::make_plan(view, tile::RectTiling(sides), kind);
    exec::RunOptions opts;
    opts.functional = true;
    const exec::RunResult run = exec::run_plan(view, plan, tiny_model(),
                                               opts);
    // The distributed skewed result, mapped back, equals the direct
    // sequential execution of the original wavefront nest.
    const loop::DenseField mapped =
        loop::unskew_field(*run.field, *skew, nest.domain());
    const loop::DenseField direct = loop::run_sequential(nest);
    EXPECT_DOUBLE_EQ(loop::max_abs_diff(direct, mapped), 0.0)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(SkewViewTest, BadSkewRejected) {
  const LoopNest nest = wavefront_nest(8, 8);
  // Identity does not legalize (1,-1).
  EXPECT_THROW(loop::make_skewed_nest(nest, Mat::identity(2)), util::Error);
  // Non-unimodular.
  EXPECT_THROW(loop::make_skewed_nest(nest, Mat{{2, 0}, {0, 1}}),
               util::Error);
}

class SkewPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(SkewPipelineTest, RandomNegativeDepsEndToEnd) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48611u + 29u);
  loop::RandomNestOptions opts;
  opts.dims = 2;
  opts.num_deps = static_cast<std::size_t>(rng.uniform(1, 3));
  opts.max_dep_component = 2;
  opts.min_extent = 8;
  opts.max_extent = 16;
  opts.nonneg_deps = false;
  const LoopNest nest = loop::random_nest(rng, opts);

  const auto skew = tile::find_legal_skew(nest.deps());
  ASSERT_TRUE(skew.has_value());
  const LoopNest view = loop::make_skewed_nest(nest, *skew);
  Vec sides(2);
  for (std::size_t d = 0; d < 2; ++d)
    sides[d] = view.deps().max_component(d) +
               static_cast<i64>(rng.uniform(1, 3));

  const exec::TilePlan plan = exec::make_plan(
      view, tile::RectTiling(sides), ScheduleKind::kOverlap);
  exec::RunOptions ropts;
  ropts.functional = true;
  const exec::RunResult run =
      exec::run_plan(view, plan, tiny_model(), ropts);
  const loop::DenseField mapped =
      loop::unskew_field(*run.field, *skew, nest.domain());
  EXPECT_DOUBLE_EQ(
      loop::max_abs_diff(loop::run_sequential(nest), mapped), 0.0)
      << "deps " << nest.deps().str() << " skew " << skew->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkewPipelineTest, ::testing::Range(0, 10));
