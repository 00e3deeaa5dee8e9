// core::recommend_plan, implemented on the staged pipeline: the Analysis
// stage's grid search picks the factorization, Tiling derives the analytic
// grain, Lowering builds and verifies the plan and attaches the eq. (3)/(4)
// prediction.  Lives in the pipeline library (the core header is unchanged)
// so the one-call planner and the explicit Compiler cannot drift apart.
#include "tilo/core/recommend.hpp"

#include "tilo/pipeline/compiler.hpp"

namespace tilo::core {

Recommendation recommend_plan(const loop::LoopNest& nest,
                              std::shared_ptr<const mach::Model> model,
                              util::i64 total_procs,
                              sched::ScheduleKind kind) {
  pipeline::CompileOptions opts;
  opts.model = std::move(model);
  opts.auto_procs = total_procs;
  opts.kind = kind;
  opts.simulate = false;  // planning only: stop after Lowering's verify
  const pipeline::Compiler compiler(std::move(opts));
  const pipeline::ArtifactStore store = compiler.compile_nest(nest);

  const pipeline::AnalysisArtifact& analysis = store.analysis();
  const pipeline::TilingArtifact& tiling = store.tiling();
  const pipeline::PlanArtifact& plan = store.plan();
  return Recommendation{analysis.problem, *plan.plan, tiling.V,
                        plan.predicted_seconds, tiling.analytic};
}

}  // namespace tilo::core
