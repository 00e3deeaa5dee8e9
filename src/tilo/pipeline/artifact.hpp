// The pipeline's typed artifacts and the store that carries them between
// stages.
//
// Each stage consumes artifacts produced by earlier stages and deposits
// exactly one new artifact:
//
//   Frontend    source text            -> LoopNest
//   Analysis    LoopNest               -> AnalysisArtifact  (machine, grid)
//   Tiling      AnalysisArtifact       -> TilingArtifact    (V, H = diag(1/s))
//   Scheduling  Tiling + Analysis      -> ScheduleArtifact  (Π, P(g))
//   Lowering    all of the above       -> PlanArtifact      (exec::TilePlan)
//   Backend     PlanArtifact           -> BackendArtifact   (run / program)
//
// Reading an artifact that an earlier stage never produced throws
// util::Error naming the consuming stage — a malformed pipeline fails
// loudly instead of running stages out of order.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tilo/core/analytic.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/tiling/rect.hpp"
#include "tilo/workload/dag.hpp"
#include "tilo/workload/workload.hpp"

namespace tilo::pipeline {

/// The pipeline's stages, in execution order.
enum class Stage {
  kFrontend,
  kAnalysis,
  kTiling,
  kScheduling,
  kLowering,
  kBackend,
};

std::string_view stage_name(Stage stage);

/// Throws util::Error with the failing stage named:
/// "pipeline stage <Name>: <message>".
[[noreturn]] void stage_fail(Stage stage, const std::string& message);

/// Frontend input: a named piece of loop-nest source text.
struct SourceArtifact {
  std::string name;  ///< file name / workload name, for diagnostics
  std::string text;
};

/// Analysis output: the nest bound to a machine and a processor grid.
/// problem.model is never null here: every stage after Analysis costs
/// through it.
struct AnalysisArtifact {
  core::Problem problem;
  std::size_t mapped_dim = 0;  ///< the paper's largest-extent mapping rule
  bool auto_grid = false;      ///< grid chosen by factorization search
};

/// Tiling output: the chosen rectangular supernode transformation.
struct TilingArtifact {
  util::i64 V = 0;              ///< tile height along the mapped dimension
  bool analytic_height = false; ///< V from the closed form, not the caller
  core::AnalyticOptimum analytic;  ///< the grain derivation
  tile::RectTiling tiling;
};

/// Scheduling output: the linear time schedule Π over the tiled space.
struct ScheduleArtifact {
  sched::ScheduleKind kind = sched::ScheduleKind::kOverlap;
  lat::Vec pi;
  util::i64 length = 0;  ///< number of time hyperplanes P(g)
};

/// Lowering output: the executable plan.
struct PlanArtifact {
  std::shared_ptr<const exec::TilePlan> plan;
  double predicted_seconds = 0.0;  ///< eq. (3)/(4) for the plan's kind
};

/// Backend output: a simulated run and/or the generated MPI program.
struct BackendArtifact {
  std::optional<exec::RunResult> run;
  std::string program;  ///< non-empty when codegen was requested
};

/// Analysis output for DAG workloads: the task graph bound to a rank count
/// with owners assigned and the ALAP makespan lower bound derived.  DAG
/// compilations skip Tiling/Scheduling/Lowering — the task graph carries
/// its own dependence structure.
struct DagPlanArtifact {
  std::shared_ptr<const workload::TileDagWorkload> dag;
  int ranks = 1;
  std::vector<int> owner;
  workload::AlapBound bound;
};

/// The typed artifact store one compilation flows through.
class ArtifactStore {
 public:
  void put(SourceArtifact a) { source_ = std::move(a); }
  void put(workload::WorkloadPtr w) { workload_ = std::move(w); }
  void put(loop::LoopNest nest) { nest_ = std::move(nest); }
  void put(DagPlanArtifact a) { dag_plan_ = std::move(a); }
  void put(AnalysisArtifact a) { analysis_ = std::move(a); }
  void put(TilingArtifact a) { tiling_ = std::move(a); }
  void put(ScheduleArtifact a) { schedule_ = std::move(a); }
  void put(PlanArtifact a) { plan_ = std::move(a); }
  void put(BackendArtifact a) { backend_ = std::move(a); }

  bool has_source() const { return source_.has_value(); }
  bool has_workload() const { return workload_ != nullptr; }
  /// The owning pointer (nullptr when no workload artifact was produced);
  /// for consumers that need shared ownership or a kind-specific downcast.
  const workload::WorkloadPtr& workload_ptr() const { return workload_; }
  bool has_nest() const { return nest_.has_value(); }
  bool has_dag_plan() const { return dag_plan_.has_value(); }
  bool has_analysis() const { return analysis_.has_value(); }
  bool has_tiling() const { return tiling_.has_value(); }
  bool has_schedule() const { return schedule_.has_value(); }
  bool has_plan() const { return plan_.has_value(); }
  bool has_backend() const { return backend_.has_value(); }

  /// Accessors throw util::Error naming `consumer` when the artifact has
  /// not been produced yet.
  const SourceArtifact& source(Stage consumer) const;
  const workload::Workload& workload(Stage consumer) const;
  const loop::LoopNest& nest(Stage consumer) const;
  const DagPlanArtifact& dag_plan(Stage consumer) const;
  const AnalysisArtifact& analysis(Stage consumer) const;
  const TilingArtifact& tiling(Stage consumer) const;
  const ScheduleArtifact& schedule(Stage consumer) const;
  const PlanArtifact& plan(Stage consumer) const;
  const BackendArtifact& backend(Stage consumer) const;

  /// Post-compile accessors for consumers outside the pipeline; throw
  /// util::Error when the artifact was never produced.
  const SourceArtifact& source() const;
  const workload::Workload& workload() const;
  const loop::LoopNest& nest() const;
  const DagPlanArtifact& dag_plan() const;
  const AnalysisArtifact& analysis() const;
  const TilingArtifact& tiling() const;
  const ScheduleArtifact& schedule() const;
  const PlanArtifact& plan() const;
  const BackendArtifact& backend() const;

 private:
  std::optional<SourceArtifact> source_;
  workload::WorkloadPtr workload_;
  std::optional<loop::LoopNest> nest_;
  std::optional<DagPlanArtifact> dag_plan_;
  std::optional<AnalysisArtifact> analysis_;
  std::optional<TilingArtifact> tiling_;
  std::optional<ScheduleArtifact> schedule_;
  std::optional<PlanArtifact> plan_;
  std::optional<BackendArtifact> backend_;
};

/// Writes a human-readable one-line-per-stage artifact log (the CLI's
/// --pipeline view).
void write_stage_log(std::ostream& os, const ArtifactStore& store);

}  // namespace tilo::pipeline
