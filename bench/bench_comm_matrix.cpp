// Extension bench: the communication matrix of the space-i run — which
// rank ships how many bytes to which.  Makes the paper's "every processor
// in the ij plane receives from (i-1,j) and (i,j-1), sends to (i+1,j) and
// (i,j+1)" data flow directly visible, and checks the totals against the
// V_comm accounting of eq. (2).
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/tiling/cost.hpp"

int main() {
  using namespace tilo;
  using util::i64;

  const core::Problem p = core::paper_problem_i();
  const i64 V = 444;

  // Plan and simulation both come out of the staged pipeline: Analysis →
  // Tiling → Scheduling → Lowering build the verified plan, the Backend
  // runs it.
  pipeline::CompileOptions copts;
  copts.procs = p.procs;
  copts.height = V;
  copts.kind = sched::ScheduleKind::kOverlap;
  const pipeline::ArtifactStore out =
      pipeline::Compiler(copts).compile_nest(p.nest);
  const exec::TilePlan& plan = *out.plan().plan;
  const exec::RunResult& r = *out.backend().run;

  std::cout << "== Communication matrix — space i at V = " << V
            << " (bytes, KiB) ==\n";
  std::cout << "ranks are row-major over the 4x4 grid: rank = 4*pi + pj\n\n";

  // Render as a 16 x 16 grid in KiB.
  const int n = static_cast<int>(plan.mapping.num_ranks());
  util::Table table;
  {
    std::vector<std::string> header{"src\\dst"};
    for (int d = 0; d < n; ++d) header.push_back(std::to_string(d));
    table.set_header(std::move(header));
  }
  for (int s = 0; s < n; ++s) {
    std::vector<std::string> row{std::to_string(s)};
    for (int d = 0; d < n; ++d) {
      const auto it = r.traffic.find({s, d});
      row.push_back(it == r.traffic.end()
                        ? "."
                        : std::to_string(it->second / 1024));
    }
    table.add_row(std::move(row));
  }
  table.write_text(std::cout);

  // Totals vs eq. (2): every tile step ships V_comm(eq.2) points; a rank's
  // column has K/V steps of 2 outgoing faces (interior ranks).
  const i64 v_comm = tile::v_comm_mapped_rect(plan.space.tiling(),
                                              p.nest.deps(), 2);
  std::cout << "\ntotal bytes on the wire: " << r.bytes << " ("
            << r.messages << " messages); eq. (2) per tile: " << v_comm
            << " points = " << v_comm * p.machine.bytes_per_element
            << " bytes across both faces\n";
  std::cout << "each rank talks only to its +i and +j neighbors — the "
               "wavefront data flow of the paper's Fig. 2.\n";
  return 0;
}
