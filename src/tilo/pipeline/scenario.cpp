#include "tilo/pipeline/scenario.hpp"

#include <utility>

#include "tilo/pipeline/serialize.hpp"
#include "tilo/util/error.hpp"

namespace tilo::pipeline {

ScenarioFile scenario_from_json(const Json& j) {
  const std::string& type = j.at("tilo").as_string("tilo");
  TILO_REQUIRE(type == "scenario",
               "expected a tilo 'scenario' document, found '", type, "'");
  const i64 version = j.at("version").as_integer("version");
  TILO_REQUIRE(version == kSchemaVersion,
               "unsupported scenario schema version ", version,
               " (this build reads version ", kSchemaVersion, ")");

  ScenarioFile file;
  // A bare "machine" reads back as the ideal model over it; a
  // "machine_model" envelope wins over it.
  if (const Json* machine = j.find("machine"))
    file.model = model_from_json(*machine);
  if (const Json* envelope = j.find("machine_model"))
    file.model = model_from_json(*envelope);

  const Json::Array& workloads = j.at("workloads").as_array("workloads");
  TILO_REQUIRE(!workloads.empty(), "scenario has no workloads");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Json& w = workloads[i];
    ScenarioWorkload wl;
    if (const Json* name = w.find("name"))
      wl.name = name->as_string("name");
    else
      wl.name = util::concat("workload", i);
    wl.source = w.at("source").as_string("source");
    if (const Json* kind = w.find("kind"))
      wl.workload_kind = workload::kind_from(kind->as_string("kind"));
    if (const Json* constraints = w.find("constraints"))
      for (const Json& c : constraints->as_array("constraints"))
        wl.constraints.push_back(c.as_string("constraints"));
    if (const Json* procs = w.find("procs")) {
      std::vector<i64> grid;
      for (const Json& c : procs->as_array("procs"))
        grid.push_back(c.as_integer("procs"));
      wl.procs = lat::Vec(std::move(grid));
    }
    if (const Json* auto_procs = w.find("auto_procs"))
      wl.auto_procs = auto_procs->as_integer("auto_procs");
    if (const Json* height = w.find("height"))
      wl.height = height->as_integer("height");
    if (const Json* schedule = w.find("schedule"))
      wl.kind = schedule_kind_from(schedule->as_string("schedule"));
    file.workloads.push_back(std::move(wl));
  }
  return file;
}

ScenarioFile parse_scenario(std::string_view text) {
  return scenario_from_json(Json::parse(text));
}

}  // namespace tilo::pipeline
