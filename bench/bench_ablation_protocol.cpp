// Ablation: eager vs rendezvous message protocol under the overlapping
// schedule.  The paper's measurements sit in MPICH's eager regime (its
// packets are a few KB); this probes how the pipelined schedule degrades
// when large-message handshakes enter the picture, across tile heights.
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/exec/run.hpp"

int main() {
  using namespace tilo;
  using util::i64;

  const core::Problem p = core::paper_problem_i();
  const auto model = std::make_shared<const mach::IdealOverlapModel>(p.machine);
  std::cout << "== Ablation — eager vs rendezvous (space i, overlap "
               "schedule) ==\n\n";
  util::Table table;
  table.set_header({"V", "t eager", "t rendezvous", "overhead",
                    "t non-overlap (eager)"});
  for (i64 V : {16, 64, 223, 444, 1024}) {
    const exec::TilePlan over = p.plan(V, sched::ScheduleKind::kOverlap);
    const exec::TilePlan non = p.plan(V, sched::ScheduleKind::kNonOverlap);
    exec::RunOptions eager;
    exec::RunOptions rdv;
    rdv.comm.protocol = msg::Protocol::kRendezvous;
    const double t_eager = exec::run_plan(p.nest, over, model, eager).seconds;
    const double t_rdv = exec::run_plan(p.nest, over, model, rdv).seconds;
    const double t_non = exec::run_plan(p.nest, non, model).seconds;
    table.add_row({std::to_string(V), util::fmt_seconds(t_eager),
                   util::fmt_seconds(t_rdv),
                   util::fmt_fixed(100.0 * (t_rdv - t_eager) / t_eager, 1) +
                       " %",
                   util::fmt_seconds(t_non)});
  }
  table.write_text(std::cout);
  std::cout << "\nthe handshake penalty is per message, so it dilutes as "
               "the grain grows; even under rendezvous the overlapping\n"
               "schedule keeps beating the non-overlapping one at "
               "practical tile heights.\n";
  return 0;
}
