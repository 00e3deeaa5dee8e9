// JSON (de)serialization of the pipeline's durable artifacts: machine
// models, loop nests, lowered plans and planner recommendations.
//
// The writer is deterministic (fixed field order, exact %.17g doubles), so
// serialize → deserialize → serialize is byte-identical — saved plans can
// be diffed and used as cache keys.  A serialized plan is a self-contained
// bundle (nest + machine model + tiling + mapping + schedule kind): loading
// it back reconstructs an exec::TilePlan that simulates to bit-identical
// results, and when the nest's body was printable the bundle carries its
// source so functional replay works too.
//
// Schema versioning: every top-level document carries {"tilo": <type>,
// "version": N}.  Readers accept exactly kSchemaVersion and reject
// anything else with a clear error, so stale files fail loudly instead of
// deserializing garbage.
#pragma once

#include <string_view>

#include "tilo/core/recommend.hpp"
#include "tilo/pipeline/json.hpp"

namespace tilo::pipeline {

/// Version stamped into (and required of) every serialized document.
inline constexpr i64 kSchemaVersion = 1;

/// "overlap" / "nonoverlap".
std::string_view schedule_kind_name(sched::ScheduleKind kind);
sched::ScheduleKind schedule_kind_from(std::string_view name);

Json machine_to_json(const mach::MachineParams& machine);
mach::MachineParams machine_from_json(const Json& j);

/// Versioned machine-model envelope: {"tilo": "machine_model",
/// "version": N, "model": <kind>, "machine": {...}[, "config": {...}]}.
/// The config block carries the concrete model's knobs (interference
/// betas / Mcrit, hetero links, offload spec); ideal models omit it.
Json model_to_json(const mach::Model& model);

/// Reads a machine_model envelope back into a model.  For backward
/// compatibility a bare MachineParams object (no "tilo" key — the
/// pre-model machine-file format) loads as an IdealOverlapModel whose
/// results are byte-identical to the historical params path.
std::shared_ptr<const mach::Model> model_from_json(const Json& j);

/// Nest = name + domain + deps (+ source text when the body is printable,
/// which is what makes functional replay possible).
Json nest_to_json(const loop::LoopNest& nest);
loop::LoopNest nest_from_json(const Json& j);

/// A self-contained, replayable plan.
struct PlanBundle {
  loop::LoopNest nest;
  exec::TilePlan plan;
  /// The machine model the plan was compiled under (never null): the
  /// document's "machine_model" envelope when it has one, else the ideal
  /// model over its "machine".
  std::shared_ptr<const mach::Model> model;
};

/// Writes a plan bundle.  "machine" is model.params(); a non-ideal model
/// is also written as a "machine_model" envelope next to it.  An ideal
/// model writes "machine" alone, which reads back as the ideal model over
/// it (so ideal-model plans keep their historical bytes).
Json plan_to_json(const loop::LoopNest& nest, const exec::TilePlan& plan,
                  const mach::Model& model);
PlanBundle plan_from_json(const Json& j);

Json recommendation_to_json(const core::Recommendation& rec);
core::Recommendation recommendation_from_json(const Json& j);

}  // namespace tilo::pipeline
