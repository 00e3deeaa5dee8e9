// Scenario files: a batch of workloads compiled in one Compiler
// invocation.
//
//   {"tilo": "scenario", "version": 1,
//    "machine": { ... },                    // optional bare machine
//    "machine_model": { ... },              // optional machine_model envelope
//                                           //   (wins over "machine")
//    "workloads": [
//      {"name": "wl1",
//       "source": "FOR i = 0 TO 15 ...",    // loop-nest grammar text
//       "kind": "uniform",                  // optional workload family:
//                                           //   uniform | dag | projective
//       "constraints": ["d1 <= d0"],        // projective cut planes only
//       "procs": [4, 4, 1],                 // optional explicit grid
//       "auto_procs": 16,                   // optional planner budget
//       "height": 64,                       // optional tile height V
//       "schedule": "overlap"},             // optional; default overlap
//      ...]}
//
// The file's machine, in either form, overrides the compiler's model;
// with neither key the compiler's model applies.  Per-workload fields
// override the compiler's defaults; absent fields fall back to them.
// `auto_procs` wins over `procs` when both are present.
// "kind" selects the workload family ("source" is the generator spec for
// DAGs, e.g. "cholesky nt=6 b=32"); an absent "kind" means uniform, so
// every pre-existing scenario file parses and compiles unchanged — the
// schema version stays at 1.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tilo/lattice/vec.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/pipeline/json.hpp"
#include "tilo/sched/tiled.hpp"
#include "tilo/workload/workload.hpp"

namespace tilo::pipeline {

/// One workload of a scenario.
struct ScenarioWorkload {
  std::string name;
  std::string source;  ///< loop-nest grammar text / DAG generator spec
  /// Workload family ("kind" in JSON); absent = uniform, the historical
  /// default — pre-existing files compile byte-identically.
  std::optional<workload::Kind> workload_kind;
  std::vector<std::string> constraints;  ///< projective cut planes
  std::optional<lat::Vec> procs;
  std::optional<i64> auto_procs;
  std::optional<i64> height;
  std::optional<sched::ScheduleKind> kind;
};

/// A parsed scenario file.
struct ScenarioFile {
  /// The file's machine: its "machine_model" envelope (see serialize.hpp)
  /// when it has one, else the ideal model over its bare "machine"; null
  /// when the file names neither, so the compiler's model applies.
  std::shared_ptr<const mach::Model> model;
  std::vector<ScenarioWorkload> workloads;
};

ScenarioFile scenario_from_json(const Json& j);

/// Parses scenario JSON text; throws util::Error on malformed input.
ScenarioFile parse_scenario(std::string_view text);

}  // namespace tilo::pipeline
