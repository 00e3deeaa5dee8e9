// The pass manager: sequences the pipeline's stages over an ArtifactStore,
// times each stage through obs::Sink host spans, and guarantees that any
// failure surfaces as util::Error naming the failing stage.
//
//   pipeline::CompileOptions opts;
//   opts.auto_procs = 16;
//   pipeline::Compiler compiler(opts);
//   pipeline::ArtifactStore out = compiler.compile_source("demo", text);
//   const exec::RunResult& r = *out.backend(Stage::kBackend).run;
//
// One Compiler invocation can also run a whole ScenarioFile (a batch of
// workloads over one shared machine model), or replay a deserialized plan:
// replay() re-runs Scheduling verification and Lowering consistency checks
// on the loaded plan before the Backend touches it, so a corrupted plan
// file cannot reach the simulator.
#pragma once

#include <string>
#include <vector>

#include "tilo/pipeline/scenario.hpp"
#include "tilo/pipeline/stages.hpp"

namespace tilo::pipeline {

/// Everything a compilation might need; per-scenario-workload fields can
/// override procs/auto_procs/height/kind.
struct CompileOptions {
  /// The machine model that supplies every cost (ranking, prediction,
  /// simulation); its params() are the machine.  Defaults to the paper's
  /// ideal-overlap cluster.  A null model is rejected by the compile.
  std::shared_ptr<const mach::Model> model =
      std::make_shared<const mach::IdealOverlapModel>(
          mach::MachineParams::paper_cluster());
  std::optional<lat::Vec> procs;        ///< explicit grid
  std::optional<util::i64> auto_procs;  ///< planner budget (wins over procs)
  std::optional<util::i64> height;      ///< tile height V; empty = analytic
  sched::ScheduleKind kind = sched::ScheduleKind::kOverlap;
  /// Workload family the source text belongs to.  kUniformNest is the
  /// historical path; kTileDag routes Frontend → Analysis → Backend over
  /// the task graph (no Tiling/Scheduling/Lowering); kProjectiveNest runs
  /// the uniform stages on the bounding nest and threads the workload's
  /// per-tile cost model into the Backend.
  workload::Kind workload_kind = workload::Kind::kUniformNest;
  /// Projective cut planes ("d1 <= d0 + c" grammar); must be empty for
  /// other kinds.
  std::vector<std::string> constraints;
  exec::CommConfig comm;
  bool functional = false;     ///< Backend: move real values
  bool simulate = true;        ///< Backend: run the simulator
  bool emit_program = false;   ///< Backend: generate the C + MPI program
  gen::CodegenOptions codegen;
  /// Optional observer: every stage emits a wall-clock host span
  /// "pipeline.<Stage>" (suffixed "[<workload>]" in scenario compiles,
  /// lane = workload index) and bumps the "pipeline.stages" counter; the
  /// Backend also forwards it into run_plan for simulated phase spans.
  obs::Sink* sink = nullptr;
};

/// The staged compiler.
class Compiler {
 public:
  Compiler() = default;
  explicit Compiler(CompileOptions opts) : opts_(std::move(opts)) {}

  const CompileOptions& options() const { return opts_; }

  /// Frontend → … → Backend over source text.
  ArtifactStore compile_source(const std::string& name,
                               const std::string& text) const;

  /// Analysis → … → Backend over an already-built nest.
  ArtifactStore compile_nest(const loop::LoopNest& nest) const;

  /// Re-verifies and executes a deserialized plan: Scheduling legality and
  /// Lowering consistency run against the loaded plan (nothing is rebuilt),
  /// then the Backend simulates it under `model` (the plan's own machine
  /// model, see PlanBundle; nullptr = the compile options' model).  The
  /// plan's own kind and grid override the compile options.
  ArtifactStore replay(const loop::LoopNest& nest,
                       std::shared_ptr<const mach::Model> model,
                       const exec::TilePlan& plan) const;

  /// Compiles every workload of a scenario in one invocation; workload i's
  /// stage spans land on lane i.  The scenario's machine (when present, as
  /// a "machine_model" envelope or a bare "machine") overrides the
  /// compiler's model.
  std::vector<ArtifactStore> compile(const ScenarioFile& scenario) const;

 private:
  /// Runs the standard stage sequence on a store that already holds a
  /// source or a nest.
  void run_stages(ArtifactStore& store, const CompileOptions& opts,
                  const std::string& label, int lane) const;

  CompileOptions opts_;
};

}  // namespace tilo::pipeline
