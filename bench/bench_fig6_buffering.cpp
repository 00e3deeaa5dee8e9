// Reproduces the concept of paper Fig. 6: the extra buffer space the
// overlapping execution needs on each node — halo storage for the surfaces
// being received/sent while the tile computes, plus message buffers for
// the data in flight.  Reports both schedules across tile heights on the
// space-i workload: the overlap keeps more bytes in flight (its sends and
// receives from adjacent steps coexist), which is exactly the paper's
// "extra space, besides the tile space, on each node".
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/exec/run.hpp"

int main() {
  using namespace tilo;
  using util::i64;

  const core::Problem p = core::paper_problem_i();
  const auto model = std::make_shared<const mach::IdealOverlapModel>(p.machine);
  std::cout << "== Fig. 6 — extra buffering for the overlapping case ==\n";
  std::cout << "space 16 x 16 x 16384, 16 processors, 4-byte elements\n\n";

  util::Table table;
  table.set_header({"V", "tile bytes", "halo bytes/rank",
                    "peak in-flight (non-ovl)", "peak in-flight (ovl)",
                    "ovl / non-ovl"});
  for (i64 V : {64, 223, 444, 1024}) {
    const exec::TilePlan over = p.plan(V, sched::ScheduleKind::kOverlap);
    const exec::TilePlan non = p.plan(V, sched::ScheduleKind::kNonOverlap);
    const exec::RunResult r_over = exec::run_plan(p.nest, over, model);
    const exec::RunResult r_non = exec::run_plan(p.nest, non, model);
    const i64 ranks = over.mapping.num_ranks();
    const i64 tile_bytes = over.space.tiling().tile_volume() *
                           p.machine.bytes_per_element;
    table.add_row(
        {std::to_string(V), std::to_string(tile_bytes),
         std::to_string(r_over.halo_bytes / ranks),
         std::to_string(r_non.peak_inflight_bytes),
         std::to_string(r_over.peak_inflight_bytes),
         util::fmt_fixed(static_cast<double>(r_over.peak_inflight_bytes) /
                             static_cast<double>(
                                 std::max<i64>(1,
                                               r_non.peak_inflight_bytes)),
                         2) +
             "x"});
  }
  table.write_text(std::cout);
  std::cout << "\nhalo storage is identical for both schedules (it depends "
               "only on the dependence widths); the in-flight buffering\n"
               "is where the overlap pays for its pipelining — several "
               "steps' messages coexist, where the blocking program\n"
               "holds at most a step's worth.\n";
  return 0;
}
