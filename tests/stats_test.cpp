// The paper's utilization claim, measured through obs::RunReport: per-rank
// compute utilization and its mean/min/max, and the pipelined schedule
// keeping processors computing a larger share of the makespan.
#include <gtest/gtest.h>

#include <sstream>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/obs/report.hpp"

using namespace tilo;
using obs::Phase;

TEST(StatsTest, SummarizeAggregatesPerNode) {
  obs::ReportSink sink;
  sink.span(0, Phase::kCompute, 0, 60);
  sink.span(0, Phase::kFillMpiSend, 60, 70);
  sink.span(0, Phase::kBlocked, 70, 100);
  sink.span(1, Phase::kCompute, 0, 100);
  const obs::RunReport s = sink.report();
  EXPECT_EQ(s.makespan, 100);
  ASSERT_EQ(s.ranks.size(), 2u);
  EXPECT_EQ(s.ranks[0].time(Phase::kCompute), 60);
  EXPECT_EQ(s.ranks[0].cpu_ns(), 70);
  EXPECT_DOUBLE_EQ(s.mean_compute_utilization, 0.8);
  EXPECT_DOUBLE_EQ(s.min_compute_utilization, 0.6);
  EXPECT_DOUBLE_EQ(s.max_compute_utilization, 1.0);
}

TEST(StatsTest, EmptyTimeline) {
  const obs::RunReport s = obs::ReportSink{}.report();
  EXPECT_EQ(s.makespan, 0);
  EXPECT_TRUE(s.ranks.empty());
  EXPECT_DOUBLE_EQ(s.mean_compute_utilization, 0.0);
}

TEST(StatsTest, TableRendersAllNodes) {
  obs::ReportSink sink;
  sink.span(0, Phase::kCompute, 0, 50);
  sink.span(1, Phase::kWire, 0, 25);
  std::ostringstream os;
  sink.report().write_table(os);
  EXPECT_NE(os.str().find("util %"), std::string::npos);
  EXPECT_NE(os.str().find("makespan"), std::string::npos);
  EXPECT_NE(os.str().find("100.0"), std::string::npos);
}

TEST(StatsTest, OverlapScheduleRaisesComputeUtilization) {
  // The paper's Section 4 argument, measured: at the same grain the
  // pipelined schedule computes a strictly larger share of the makespan.
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 512);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  double util[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const auto kind = i == 0 ? sched::ScheduleKind::kNonOverlap
                             : sched::ScheduleKind::kOverlap;
    const exec::TilePlan plan =
        exec::make_plan(nest, tile::RectTiling(lat::Vec{4, 4, 32}), kind);
    obs::ReportSink sink;
    exec::RunOptions opts;
    opts.sink = &sink;
    exec::run_plan(nest, plan, model, opts);
    util[i] = sink.report().mean_compute_utilization;
  }
  EXPECT_GT(util[1], util[0]);
}

TEST(StatsTest, CpuBusyNeverExceedsMakespan) {
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 8}),
      sched::ScheduleKind::kOverlap);
  obs::ReportSink sink;
  exec::RunOptions opts;
  opts.sink = &sink;
  exec::run_plan(nest, plan,
                 std::make_shared<mach::IdealOverlapModel>(
                     mach::MachineParams::paper_cluster()),
                 opts);
  const obs::RunReport s = sink.report();
  ASSERT_FALSE(s.ranks.empty());
  for (const obs::RankBreakdown& r : s.ranks)
    EXPECT_LE(r.cpu_ns(), s.makespan) << "rank " << r.node;
}
