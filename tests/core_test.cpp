// Tests for the tilo::core facade: paper-style problems/plans, closed-form
// predictions vs simulation, sweeps and autotuning.
#include <gtest/gtest.h>

#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using core::Problem;
using lat::Vec;
using sched::ScheduleKind;
using util::i64;

namespace {

Problem small_problem() {
  return Problem{loop::stencil3d_nest(8, 8, 2048),
                 mach::MachineParams::paper_cluster(), Vec{4, 4, 1}, nullptr};
}

}  // namespace

TEST(ProblemTest, PaperProblemsHaveDocumentedGeometry) {
  const Problem p1 = core::paper_problem_i();
  EXPECT_EQ(p1.mapped_dim(), 2u);
  EXPECT_EQ(p1.tile_sides(444), (Vec{4, 4, 444}));
  EXPECT_EQ(p1.max_tile_height(), 16384);
  const Problem p3 = core::paper_problem_iii();
  EXPECT_EQ(p3.tile_sides(164), (Vec{8, 8, 164}));  // 32/4 = 8 per proc
}

TEST(ProblemTest, PlanGeometryMatchesPaperExperimentI) {
  const Problem p = core::paper_problem_i();
  const exec::TilePlan plan = p.plan(444, ScheduleKind::kOverlap);
  EXPECT_EQ(plan.mapping.num_ranks(), 16);
  EXPECT_EQ(plan.space.tile_space().extents(), (Vec{4, 4, 37}));
  // P(g) = 2*3 + 2*3 + 36 + 1 = 49; the paper rounds 16384/444 up to ~53
  // using a plain quotient — the closed form on the actual tiled space:
  EXPECT_EQ(plan.schedule_length(), 49);
}

TEST(ProblemTest, TileHeightClampsToExtent) {
  const Problem p = small_problem();
  EXPECT_EQ(p.tile_sides(100000)[2], 2048);
  EXPECT_THROW(p.tile_sides(0), util::Error);
}

TEST(PredictTest, SteadyShapeMatchesPaperPacketSize) {
  // Experiment i at V = 444: messages are 4 x 444 floats = 7104 bytes.
  const Problem p = core::paper_problem_i();
  const exec::TilePlan plan = p.plan(444, ScheduleKind::kOverlap);
  const mach::StepShape shape = core::steady_step_shape(plan, p.machine);
  ASSERT_EQ(shape.send_bytes.size(), 2u);  // to (i+1,j) and (i,j+1)
  ASSERT_EQ(shape.recv_bytes.size(), 2u);
  EXPECT_EQ(shape.send_bytes[0], 7104);
  EXPECT_EQ(shape.send_bytes[1], 7104);
  EXPECT_EQ(shape.iterations, 4 * 4 * 444);
}

TEST(PredictTest, PredictionTracksSimulationForOverlap) {
  // In the CPU-bound regime the eq. (4) prediction should be within a few
  // percent of the discrete-event simulation.
  const Problem p = small_problem();
  const exec::TilePlan plan = p.plan(64, ScheduleKind::kOverlap);
  const auto model = std::make_shared<mach::IdealOverlapModel>(p.machine);
  const double predicted = core::predict_completion(plan, *model);
  const double simulated = exec::run_plan(p.nest, plan, model).seconds;
  EXPECT_NEAR(simulated, predicted, 0.15 * predicted);
}

TEST(PredictTest, CpuBoundFormulaLowerBoundsOverlapPrediction) {
  const Problem p = small_problem();
  const exec::TilePlan plan = p.plan(32, ScheduleKind::kOverlap);
  const mach::IdealOverlapModel model(p.machine);
  EXPECT_LE(core::predict_overlap_cpu_bound(plan, model),
            core::predict_completion(plan, model) + 1e-12);
}

TEST(SweepTest, SweepProducesMonotoneGrid) {
  const auto grid = core::height_grid(4, 256, 2.0);
  ASSERT_GE(grid.size(), 2u);
  EXPECT_EQ(grid.front(), 4);
  EXPECT_EQ(grid.back(), 256);
  for (std::size_t i = 1; i < grid.size(); ++i)
    EXPECT_GT(grid[i], grid[i - 1]);
}

TEST(SweepTest, OverlapOptimumBeatsNonOverlapOptimum) {
  // The paper's claim is about the *tuned* schedules: at its own optimal V
  // the overlapping schedule beats the non-overlapping one at its optimal
  // V.  (For very tall tiles the pipeline is too short to amortize the
  // overlap hyperplane's doubled coefficients, so a pointwise comparison
  // would be too strong.)
  const Problem p = small_problem();
  const auto points =
      core::sweep_tile_height(p, core::height_grid(4, 2048, 2.5));
  ASSERT_GE(points.size(), 4u);
  double best_over = points.front().t_overlap;
  double best_non = points.front().t_nonoverlap;
  for (const core::SweepPoint& pt : points) {
    EXPECT_GT(pt.g, 0);
    best_over = std::min(best_over, pt.t_overlap);
    best_non = std::min(best_non, pt.t_nonoverlap);
  }
  EXPECT_LT(best_over, best_non);
  // In the communication-dominated regime (small V) overlap always wins.
  EXPECT_LT(points.front().t_overlap, points.front().t_nonoverlap);
}

TEST(SweepTest, CompletionCurveIsUShaped) {
  // Tiny V pays per-step startup; huge V kills pipelining: the optimum is
  // interior, so the curve's minimum beats both endpoints.
  const Problem p = small_problem();
  const auto points =
      core::sweep_tile_height(p, core::height_grid(4, 2048, 1.8));
  double best = points.front().t_overlap;
  for (const auto& pt : points) best = std::min(best, pt.t_overlap);
  EXPECT_LT(best, points.front().t_overlap);
  EXPECT_LT(best, points.back().t_overlap);
}

TEST(SweepTest, AutotuneFindsInteriorOptimum) {
  const Problem p = small_problem();
  const core::Autotune best = core::autotune_tile_height(
      p, ScheduleKind::kOverlap, 4, p.max_tile_height());
  EXPECT_GT(best.V_opt, 4);
  EXPECT_LT(best.V_opt, p.max_tile_height());
  // The tuned time is at least as good as two arbitrary probes.
  const auto probe = core::sweep_tile_height(p, {8, 128});
  for (const auto& pt : probe) EXPECT_LE(best.t_opt, pt.t_overlap + 1e-12);
}

TEST(SweepTest, AutotuneTimeIsTheSweepPointTime) {
  // An autotune probe and a sweep point at the same height are the same
  // simulation, so the tuned time is bit-equal to the sweep's time there.
  for (const Problem& p : {core::paper_problem_i(), core::paper_problem_ii(),
                           core::paper_problem_iii()}) {
    for (const ScheduleKind kind :
         {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
      SCOPED_TRACE(p.nest.name() + (kind == ScheduleKind::kOverlap
                                        ? " overlap"
                                        : " non-overlap"));
      const core::Autotune best =
          core::autotune_tile_height(p, kind, 16, p.max_tile_height());
      const auto points = core::sweep_tile_height(p, {best.V_opt});
      ASSERT_EQ(points.size(), 1u);
      EXPECT_EQ(best.t_opt, kind == ScheduleKind::kOverlap
                                ? points[0].t_overlap
                                : points[0].t_nonoverlap);
    }
  }
}

TEST(SweepTest, SkippingSchedulesLeavesZeros)
{
  const Problem p = small_problem();
  core::SweepOptions opts;
  opts.run_nonoverlap = false;
  const auto points = core::sweep_tile_height(p, {16}, opts);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].t_overlap, 0.0);
  EXPECT_EQ(points[0].t_nonoverlap, 0.0);
  EXPECT_GT(points[0].predicted_nonoverlap, 0.0);
}
