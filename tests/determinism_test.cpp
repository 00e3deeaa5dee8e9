// Determinism gates for the hot-path machinery: the pooled event engine,
// the workspace/comm-table reuse and the parallel sweep must all reproduce
// the exact timed traces of the original implementation.
//
// The integer goldens below (completion ns / events / messages) were
// captured from the seed implementation on the paper's three experiment
// problems; any drift in the engine's (time, seq) ordering, the executors'
// scheduling, or the sweep orchestration shows up here as a hard failure.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "tilo/core/sweep.hpp"
#include "tilo/trace/timeline.hpp"

namespace {

using tilo::core::Problem;
using tilo::core::ScheduleKind;
using tilo::core::SweepOptions;
using tilo::core::SweepPoint;
using tilo::lat::Box;
using tilo::lat::Vec;
using tilo::loop::DependenceSet;
using tilo::loop::LoopNest;
using tilo::util::i64;

Problem problem_for_space(int space) {
  switch (space) {
    case 0: return tilo::core::paper_problem_i();
    case 1: return tilo::core::paper_problem_ii();
    default: return tilo::core::paper_problem_iii();
  }
}

/// The ideal model over a problem's machine (the paper problems carry no
/// model of their own).
std::shared_ptr<const tilo::mach::Model> ideal_model(const Problem& problem) {
  return std::make_shared<tilo::mach::IdealOverlapModel>(problem.machine);
}

struct RunGolden {
  int space;
  i64 V;
  ScheduleKind kind;
  tilo::sim::Time completion;
  std::uint64_t events;
  i64 messages;
};

// Seed-captured timed-run goldens (RunOptions defaults: kDma, switched).
const RunGolden kRunGoldens[] = {
    {0, 64, ScheduleKind::kOverlap, 286221620, 28672, 6144},
    {0, 64, ScheduleKind::kNonOverlap, 471755472, 40960, 6144},
    {0, 444, ScheduleKind::kOverlap, 261890396, 4144, 888},
    {0, 444, ScheduleKind::kNonOverlap, 382022512, 5920, 888},
    {1, 64, ScheduleKind::kOverlap, 561798512, 57344, 12288},
    {1, 64, ScheduleKind::kNonOverlap, 935856848, 81920, 12288},
    {1, 444, ScheduleKind::kOverlap, 468912760, 8288, 1776},
    {1, 444, ScheduleKind::kNonOverlap, 723534608, 11840, 1776},
    {2, 64, ScheduleKind::kOverlap, 197542220, 7168, 1536},
    {2, 64, ScheduleKind::kNonOverlap, 272978640, 10240, 1536},
    {2, 444, ScheduleKind::kOverlap, 297799868, 1120, 240},
    {2, 444, ScheduleKind::kNonOverlap, 339391040, 1600, 240},
};

TEST(DeterminismTest, TimedRunsMatchSeedGoldens) {
  for (const RunGolden& g : kRunGoldens) {
    const Problem problem = problem_for_space(g.space);
    const tilo::exec::TilePlan plan = problem.plan(g.V, g.kind);
    const tilo::exec::RunResult r =
        tilo::exec::run_plan(problem.nest, plan, ideal_model(problem));
    EXPECT_EQ(r.completion, g.completion)
        << "space " << g.space << " V " << g.V;
    EXPECT_EQ(r.events, g.events) << "space " << g.space << " V " << g.V;
    EXPECT_EQ(r.messages, g.messages) << "space " << g.space << " V " << g.V;
  }
}

std::string timeline_csv(const Problem& problem, i64 V, ScheduleKind kind,
                         tilo::exec::RunWorkspace* ws) {
  const tilo::exec::TilePlan plan = problem.plan(V, kind);
  tilo::trace::Timeline tl;
  tilo::exec::RunOptions opts;
  opts.sink = &tl;
  tilo::exec::run_plan(problem.nest, plan, ideal_model(problem), opts, ws);
  std::ostringstream os;
  tl.write_csv(os);
  return os.str();
}

TEST(DeterminismTest, TimelinesByteIdenticalAcrossRunsAndWorkspaces) {
  const Problem problem = tilo::core::paper_problem_i();
  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    const std::string first = timeline_csv(problem, 444, kind, nullptr);
    const std::string second = timeline_csv(problem, 444, kind, nullptr);
    EXPECT_EQ(first, second);
    ASSERT_FALSE(first.empty());

    // A reused workspace (comm table + rank buffers warm from a previous
    // run, including the sibling schedule's) must not perturb the trace.
    tilo::exec::RunWorkspace ws;
    const std::string warmup =
        timeline_csv(problem, 444, ScheduleKind::kOverlap, &ws);
    (void)warmup;
    const std::string reused = timeline_csv(problem, 444, kind, &ws);
    EXPECT_EQ(first, reused);
  }
}

struct SweepGolden {
  i64 V;
  i64 g;
  double t_overlap;
  double t_nonoverlap;
  double predicted_overlap;
  double predicted_nonoverlap;
  double predicted_cpu_bound;
};

// Seed-captured sweep goldens for experiment (i) at V in {64, 444, 2048}.
const SweepGolden kSweepGoldens[] = {
    {64, 1024, 0.28622162000000001, 0.47175547200000001,
     0.28148575999999997, 0.49069875200000002, 0.28148575999999997},
    {444, 7104, 0.26189039600000003, 0.38202251200000004,
     0.27639527999999997, 0.40184428799999999, 0.27639527999999997},
    {2048, 32768, 0.43065964400000001, 0.50580884800000003,
     0.50034080000000003, 0.57240780800000002, 0.50034080000000003},
};

TEST(DeterminismTest, SerialSweepMatchesSeedGoldens) {
  const Problem problem = tilo::core::paper_problem_i();
  const std::vector<i64> heights{64, 444, 2048};
  const std::vector<SweepPoint> pts =
      tilo::core::sweep_tile_height(problem, heights);
  ASSERT_EQ(pts.size(), std::size(kSweepGoldens));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const SweepGolden& g = kSweepGoldens[i];
    EXPECT_EQ(pts[i].V, g.V);
    EXPECT_EQ(pts[i].g, g.g);
    EXPECT_EQ(pts[i].t_overlap, g.t_overlap);
    EXPECT_EQ(pts[i].t_nonoverlap, g.t_nonoverlap);
    EXPECT_EQ(pts[i].predicted_overlap, g.predicted_overlap);
    EXPECT_EQ(pts[i].predicted_nonoverlap, g.predicted_nonoverlap);
    EXPECT_EQ(pts[i].predicted_cpu_bound, g.predicted_cpu_bound);
  }
}

void expect_points_identical(const std::vector<SweepPoint>& a,
                             const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].V, b[i].V);
    EXPECT_EQ(a[i].g, b[i].g);
    // Exact: the simulations are deterministic, so parallel orchestration
    // must not change a single bit.
    EXPECT_EQ(a[i].t_overlap, b[i].t_overlap);
    EXPECT_EQ(a[i].t_nonoverlap, b[i].t_nonoverlap);
    EXPECT_EQ(a[i].predicted_overlap, b[i].predicted_overlap);
    EXPECT_EQ(a[i].predicted_nonoverlap, b[i].predicted_nonoverlap);
    EXPECT_EQ(a[i].predicted_cpu_bound, b[i].predicted_cpu_bound);
    EXPECT_EQ(a[i].events, b[i].events);
  }
}

TEST(DeterminismTest, ParallelSweepIdenticalToSerialAllSpaces) {
  for (int space = 0; space < 3; ++space) {
    const Problem problem = problem_for_space(space);
    const std::vector<i64> heights =
        tilo::core::height_grid(32, problem.max_tile_height(), 3.0);
    SweepOptions serial;
    const std::vector<SweepPoint> base =
        tilo::core::sweep_tile_height(problem, heights, serial);

    for (const int threads : {2, 4}) {
      SweepOptions par;
      par.threads = threads;
      const std::vector<SweepPoint> got =
          tilo::core::sweep_tile_height(problem, heights, par);
      expect_points_identical(base, got);
    }
  }
}

TEST(DeterminismTest, ReusedWorkspaceMatchesFreshRunForAnotherNest) {
  // Two nests over one domain, processor grid and tile height whose
  // dependences differ, so their messages differ.  The comm table a run
  // leaves in a workspace — or in a sweep thread's persistent arena — must
  // not serve the other nest.
  const Box domain = Box::from_extents(Vec{16, 16, 2048});
  const auto machine = tilo::mach::MachineParams::paper_cluster();
  const Problem a{
      LoopNest("a", domain,
               DependenceSet({Vec{1, 0, 0}, Vec{0, 1, 0}, Vec{0, 0, 1}})),
      machine, Vec{4, 4, 1}, nullptr};
  const Problem b{
      LoopNest("b", domain,
               DependenceSet({Vec{1, 1, 0}, Vec{0, 1, 0}, Vec{0, 0, 2}})),
      machine, Vec{4, 4, 1}, nullptr};
  const i64 V = 64;
  const auto model = std::make_shared<tilo::mach::IdealOverlapModel>(machine);

  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    const tilo::exec::TilePlan plan_a = a.plan(V, kind);
    const tilo::exec::TilePlan plan_b = b.plan(V, kind);
    const tilo::exec::RunResult fresh =
        tilo::exec::run_plan(b.nest, plan_b, model);
    tilo::exec::RunWorkspace ws;
    tilo::exec::run_plan(a.nest, plan_a, model, {}, &ws);
    const tilo::exec::RunResult reused =
        tilo::exec::run_plan(b.nest, plan_b, model, {}, &ws);
    EXPECT_EQ(reused.completion, fresh.completion);
    EXPECT_EQ(reused.messages, fresh.messages);
    EXPECT_EQ(reused.bytes, fresh.bytes);
  }

  // The same through the sweep: this thread's arena has seen nest a, a
  // new thread's has not.
  const std::vector<i64> heights{V};
  std::vector<SweepPoint> fresh_points;
  std::thread([&] {
    fresh_points = tilo::core::sweep_tile_height(b, heights);
  }).join();
  (void)tilo::core::sweep_tile_height(a, heights);
  expect_points_identical(fresh_points,
                          tilo::core::sweep_tile_height(b, heights));
}

TEST(DeterminismTest, ParallelAutotuneIdenticalToSerial) {
  const Problem problem = tilo::core::paper_problem_iii();
  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    SweepOptions serial;
    const tilo::core::Autotune base = tilo::core::autotune_tile_height(
        problem, kind, 16, problem.max_tile_height(), serial);
    SweepOptions par;
    par.threads = 4;
    const tilo::core::Autotune got = tilo::core::autotune_tile_height(
        problem, kind, 16, problem.max_tile_height(), par);
    EXPECT_EQ(base.V_opt, got.V_opt);
    EXPECT_EQ(base.t_opt, got.t_opt);
  }
}

}  // namespace
