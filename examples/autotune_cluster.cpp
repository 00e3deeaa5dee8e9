// End-to-end walkthrough of the public API on a user-defined problem:
// describe a loop nest and a cluster, pick a communication-minimal tile
// shape, autotune the tile height for both schedules, and report the
// tuned plans — what a compiler or runtime would do with this library.
//
//   ./examples/autotune_cluster
#include <iostream>

#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/tiling/shape.hpp"
#include "tilo/util/csv.hpp"

int main() {
  using namespace tilo;
  using lat::Vec;
  using util::i64;

  // A 2-D wavefront relaxation: 4096 x 512 points, deps {(1,0),(0,1),(1,1)},
  // on an 8-node cluster with a gigabit-class interconnect.
  mach::MachineParams machine;
  machine.t_c = 0.2e-6;
  machine.t_t = 0.008e-6;  // ~1 Gb/s
  machine.bytes_per_element = 8;
  machine.wire_latency = 15e-6;
  machine.fill_mpi_buffer = mach::AffineCost{25e-6, 8e-9};
  machine.fill_kernel_buffer = mach::AffineCost{25e-6, 8e-9};

  const core::Problem problem{
      loop::LoopNest("relaxation", lat::Box::from_extents(Vec{4096, 512}),
                     loop::DependenceSet({Vec{1, 0}, Vec{0, 1}, Vec{1, 1}}),
                     std::make_shared<loop::SumKernel>(0.3)),
      machine,
      Vec{1, 8}, nullptr};  // 8 processors across dimension 1

  std::cout << "problem: " << problem.nest.domain().extents().str()
            << " nest, deps " << problem.nest.deps().str() << ", 8 nodes\n";
  std::cout << "mapping dimension (largest extent): "
            << problem.mapped_dim() << "\n\n";

  // What would a communication-minimal shape look like at a given grain?
  const tile::ShapeResult shape =
      tile::comm_minimal_shape(problem.nest.deps(), 4096);
  std::cout << "comm-minimal free shape at g = 4096: sides "
            << shape.sides.str() << ", V_comm " << shape.v_comm << "\n\n";

  // The paper's procedure: sweep the tile height, both schedules.
  util::Table table;
  table.set_header({"V", "t_overlap", "t_nonoverlap", "predicted eq(4)"});
  const auto pts = core::sweep_tile_height(
      problem, core::height_grid(8, problem.max_tile_height() / 2, 2.0));
  for (const auto& p : pts)
    table.add_row({std::to_string(p.V), util::fmt_seconds(p.t_overlap),
                   util::fmt_seconds(p.t_nonoverlap),
                   util::fmt_seconds(p.predicted_overlap)});
  table.write_text(std::cout);

  const core::Autotune over = core::autotune_tile_height(
      problem, sched::ScheduleKind::kOverlap, 8,
      problem.max_tile_height() / 2);
  const core::Autotune non = core::autotune_tile_height(
      problem, sched::ScheduleKind::kNonOverlap, 8,
      problem.max_tile_height() / 2);

  std::cout << "\ntuned overlapping plan:     V = " << over.V_opt
            << ", completion " << util::fmt_seconds(over.t_opt) << '\n';
  std::cout << "tuned non-overlapping plan: V = " << non.V_opt
            << ", completion " << util::fmt_seconds(non.t_opt) << '\n';
  std::cout << "overlap saves "
            << util::fmt_fixed(100.0 * (non.t_opt - over.t_opt) / non.t_opt,
                               1)
            << " %\n";

  // Sanity: the tuned plan still computes the right answer.
  const double err = exec::run_and_validate(
      problem.nest, problem.plan(over.V_opt, sched::ScheduleKind::kOverlap),
      std::make_shared<mach::IdealOverlapModel>(problem.machine));
  std::cout << "functional validation vs sequential: max |err| = " << err
            << '\n';
  return 0;
}
