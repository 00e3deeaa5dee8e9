// Extension bench: processor scaling.  The paper fixes 16 processors;
// this sweeps the grid (1x1 .. 8x8) on the space-i workload at a fixed
// per-processor tile cross-section, reporting completion time, speedup
// and parallel efficiency for both schedules — the overlapping schedule's
// edge grows with the processor count because every added boundary adds
// hidden-able communication.
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"

int main() {
  using namespace tilo;
  using lat::Vec;
  using util::i64;

  const loop::LoopNest nest = loop::paper_space_i();
  const auto model = std::make_shared<const mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  const i64 V = 256;

  std::cout << "== Processor scaling — 16 x 16 x 16384 space, V = " << V
            << " ==\n\n";
  util::Table table;
  table.set_header({"grid", "ranks", "t overlap", "speedup", "efficiency",
                    "t non-overlap", "overlap advantage"});

  double t1_overlap = 0.0;
  for (i64 g : {1, 2, 4, 8}) {
    // Tile cross-section shrinks as the grid grows: sides 16/g.
    const Vec sides{16 / g, 16 / g, V};
    const auto over = exec::make_plan_explicit(
        nest, tile::RectTiling(sides), sched::ScheduleKind::kOverlap, 2,
        Vec{g, g, 1});
    const auto non = exec::make_plan_explicit(
        nest, tile::RectTiling(sides), sched::ScheduleKind::kNonOverlap, 2,
        Vec{g, g, 1});
    const double t_over = exec::run_plan(nest, over, model).seconds;
    const double t_non = exec::run_plan(nest, non, model).seconds;
    if (g == 1) t1_overlap = t_over;
    const double speedup = t1_overlap / t_over;
    const double eff = speedup / static_cast<double>(g * g);
    table.add_row({util::concat(g, "x", g), std::to_string(g * g),
                   util::fmt_seconds(t_over),
                   util::fmt_fixed(speedup, 2) + "x",
                   util::fmt_fixed(100.0 * eff, 1) + " %",
                   util::fmt_seconds(t_non),
                   util::fmt_fixed(100.0 * (t_non - t_over) / t_non, 1) +
                       " %"});
  }
  table.write_text(std::cout);
  std::cout << "\n(1x1 has no communication, so both schedules coincide "
               "and the overlap advantage is zero by construction.)\n";
  return 0;
}
