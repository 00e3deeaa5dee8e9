// Failure-injection tests: a lost message must surface as a loud stall
// diagnostic, never as silent partial results.
#include <gtest/gtest.h>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using lat::Vec;
using loop::LoopNest;
using sched::ScheduleKind;

namespace {

mach::MachineParams fast_params() {
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.01e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 2e-6;
  p.fill_mpi_buffer = mach::AffineCost{5e-6, 0.0};
  p.fill_kernel_buffer = mach::AffineCost{5e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> fast_model() {
  return std::make_shared<mach::IdealOverlapModel>(fast_params());
}

}  // namespace

class MessageLossTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MessageLossTest, LostMessageIsDetectedAsStall) {
  const auto [kind_idx, which] = GetParam();
  const auto kind = kind_idx == 0 ? ScheduleKind::kNonOverlap
                                  : ScheduleKind::kOverlap;
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const exec::TilePlan plan =
      exec::make_plan(nest, tile::RectTiling(Vec{4, 4, 4}), kind);
  exec::RunOptions opts;
  opts.faults.drop_message = which;  // lose an early or a late message
  try {
    exec::run_plan(nest, plan, fast_model(), opts);
    FAIL() << "expected a stall diagnostic";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("stalled"), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndIndexes, MessageLossTest,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 7)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == 0 ? "blocking"
                                                      : "nonblocking") +
             "_msg" + std::to_string(std::get<1>(info.param));
    });

TEST(MessageLossTest, NoInjectionStillCompletes) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 4}), ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.faults.drop_message = -1;
  EXPECT_NO_THROW(exec::run_plan(nest, plan, fast_model(), opts));
}

TEST(MessageLossTest, DropBeyondTrafficIsHarmless) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 4}), ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.faults.drop_message = 1'000'000;  // more than the run ever sends
  EXPECT_NO_THROW(exec::run_plan(nest, plan, fast_model(), opts));
}

TEST(MessageLossTest, SenderOfLostMessageStillProgresses) {
  // The wire loss completes the local send, so only the receiver side
  // stalls — the diagnostic must report fewer-than-all but more-than-zero
  // completed ranks on a multi-rank run.
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 4}), ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.faults.drop_message = 3;
  try {
    exec::run_plan(nest, plan, fast_model(), opts);
    FAIL() << "expected a stall diagnostic";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("only 0 of"), std::string::npos) << what;
  }
}
