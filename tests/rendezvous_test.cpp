// Tests for the rendezvous protocol extension: handshake timing, parked
// senders, and end-to-end executor behavior (functional equality, timing
// never better than eager).
#include <gtest/gtest.h>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/msg/cluster.hpp"

using namespace tilo;
using mach::AffineCost;
using mach::MachineParams;
using msg::Cluster;
using msg::Protocol;
using sim::Time;
using util::i64;

namespace {

MachineParams round_params() {
  MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 1e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 5e-6;
  p.fill_mpi_buffer = AffineCost{10e-6, 0.0};
  p.fill_kernel_buffer = AffineCost{20e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> round_model() {
  return std::make_shared<mach::IdealOverlapModel>(round_params());
}

std::shared_ptr<const mach::Model> paper_model() {
  return std::make_shared<mach::IdealOverlapModel>(
      MachineParams::paper_cluster());
}

constexpr Time kUs = 1000;

}  // namespace

TEST(RendezvousTest, PostedReceiveGrantsAfterOneRoundTrip) {
  // RTS at t=0 arrives at 5 us; recv already posted -> CTS back by 10 us;
  // pipeline B3+B4 = 70 us on the sender channel -> done 80 us; +5 us
  // latency; receiver leg B1+B2 = 70 us -> kernel-ready at 155 us
  // (eager would be 145 us: one extra round trip minus the overlap of...
  // exactly 2*latency later on the send start).
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  Time ready = -1;
  auto h = c.node(1).irecv(0, 1);
  msg::Endpoint::when_ready(h, [&] { ready = c.engine().now(); });
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 100); });
  c.run();
  EXPECT_EQ(ready, (10 + 70 + 5 + 70) * kUs);
}

TEST(RendezvousTest, UnpostedReceiveParksTheSender) {
  // RTS arrives at 5 us but the recv is posted at t = 100 us: CTS leaves
  // then, pipeline starts at 105 us.
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  Time ready = -1;
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 100); });
  c.engine().at(100 * kUs, [&] {
    auto h = c.node(1).irecv(0, 1);
    msg::Endpoint::when_ready(h, [&] { ready = c.engine().now(); });
  });
  c.run();
  EXPECT_EQ(ready, (100 + 5 + 70 + 5 + 70) * kUs);
}

TEST(RendezvousTest, SendDoneWaitsForHandshake) {
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  Time done = -1;
  c.node(1).irecv(0, 1);
  c.engine().at(0, [&] {
    auto sh = c.node(0).isend(1, 1, 100);
    msg::Endpoint::when_done(sh, [&] { done = c.engine().now(); });
  });
  c.run();
  EXPECT_EQ(done, (10 + 70) * kUs);  // handshake + local pipeline
}

TEST(RendezvousTest, TwoSendersFifoPerKey) {
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  auto p1 = std::make_shared<std::vector<double>>(std::vector<double>{1.0});
  auto p2 = std::make_shared<std::vector<double>>(std::vector<double>{2.0});
  c.engine().at(0, [&] {
    c.node(0).isend(1, 5, 8, msg::Payload{p1});
    c.node(0).isend(1, 5, 8, msg::Payload{p2});
  });
  std::vector<double> got;
  c.engine().at(1 * kUs, [&] {
    for (int i = 0; i < 2; ++i) {
      auto h = c.node(1).irecv(0, 5);
      // Waiters must be trivially copyable; the endpoint owns the posted
      // handle until delivery, so a raw pointer suffices.
      msg::RecvHandle* hp = h.get();
      msg::Endpoint::when_ready(
          h, [&got, hp] { got.push_back((*hp->payload.data)[0]); });
    }
  });
  c.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
}

TEST(RendezvousTest, ExecutorStillComputesCorrectly) {
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 24);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 6}),
      sched::ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.functional = true;
  opts.comm.protocol = Protocol::kRendezvous;
  const exec::RunResult run =
      exec::run_plan(nest, plan, round_model(), opts);
  const loop::DenseField ref = loop::run_sequential(nest);
  EXPECT_DOUBLE_EQ(loop::max_abs_diff(*run.field, ref), 0.0);
}

TEST(RendezvousTest, CommBoundRunsPayTheHandshake) {
  // At small grain (communication-bound steps) the per-message round trip
  // must show up as real overhead.  (At large grain rendezvous can even
  // edge out eager by a hair — deferring pipelines relieves the shared
  // DMA channel — so the comparison is only one-sided here.)
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 128);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 8}),
      sched::ScheduleKind::kOverlap);
  const auto model = paper_model();
  exec::RunOptions eager;
  exec::RunOptions rdv;
  rdv.comm.protocol = Protocol::kRendezvous;
  const double t_eager = exec::run_plan(nest, plan, model, eager).seconds;
  const double t_rdv = exec::run_plan(nest, plan, model, rdv).seconds;
  EXPECT_GT(t_rdv, t_eager);
  EXPECT_LT(t_rdv, 1.6 * t_eager);  // but bounded
}

TEST(RendezvousTest, OverheadShrinksWithGrain) {
  // The handshake penalty is per message: the ProcNB wait-for-sends pulls
  // it into the step's critical path, so the relative overhead falls as
  // the tile grain (steps' compute share) grows — the same grain argument
  // the paper makes for the startup costs.
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 1024);
  const auto model = paper_model();
  auto overhead = [&](util::i64 V) {
    const exec::TilePlan plan = exec::make_plan(
        nest, tile::RectTiling(lat::Vec{4, 4, V}),
        sched::ScheduleKind::kOverlap);
    exec::RunOptions eager;
    exec::RunOptions rdv;
    rdv.comm.protocol = Protocol::kRendezvous;
    const double t_eager = exec::run_plan(nest, plan, model, eager).seconds;
    const double t_rdv = exec::run_plan(nest, plan, model, rdv).seconds;
    return (t_rdv - t_eager) / t_eager;
  };
  const double small_grain = overhead(8);
  const double large_grain = overhead(256);
  EXPECT_GE(small_grain, 0.0);
  EXPECT_LT(large_grain, small_grain);
  EXPECT_LT(large_grain, 0.25);
}
