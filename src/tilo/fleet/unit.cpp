#include "tilo/fleet/unit.hpp"

#include <algorithm>

#include "tilo/core/analytic.hpp"
#include "tilo/pipeline/serialize.hpp"
#include "tilo/svc/compile.hpp"
#include "tilo/util/error.hpp"

namespace tilo::fleet {

namespace {

void stamp_envelope(Json& j, std::string_view kind) {
  j.set("tilo", Json::string("fleet.unit"));
  j.set("version", Json::integer(kFleetVersion));
  j.set("kind", Json::string(std::string(kind)));
}

void require_unit_envelope(const Json& j) {
  TILO_REQUIRE(j.is_object(), "fleet unit: not a JSON object");
  const Json* tag = j.find("tilo");
  TILO_REQUIRE(tag && tag->as_string("tilo") == "fleet.unit",
               "fleet unit: missing or wrong \"tilo\" tag");
  const i64 v = j.at("version").as_integer("version");
  TILO_REQUIRE(v == kFleetVersion, "fleet unit: version ", v,
               " unsupported (this build speaks fleet version ",
               kFleetVersion, ")");
}

Json vec_to_json(const lat::Vec& v) {
  Json a = Json::array();
  for (std::size_t i = 0; i < v.size(); ++i) a.push(Json::integer(v[i]));
  return a;
}

lat::Vec vec_from_json(const Json& j, std::string_view what) {
  const Json::Array& a = j.as_array(what);
  std::vector<i64> v;
  v.reserve(a.size());
  for (const Json& e : a) v.push_back(e.as_integer(what));
  return lat::Vec(std::move(v));
}

/// Optional per-unit machine model ("machine_model" envelope); absent in
/// every pre-model payload, so historical unit bytes still execute the
/// params path unchanged.
std::shared_ptr<const mach::Model> unit_model(const Json& j) {
  const Json* m = j.find("machine_model");
  return m ? pipeline::model_from_json(*m) : nullptr;
}

std::string execute_sweep_unit(const Json& j) {
  core::Problem problem{pipeline::nest_from_json(j.at("nest")),
                        pipeline::machine_from_json(j.at("machine")),
                        vec_from_json(j.at("procs"), "fleet unit procs"),
                        unit_model(j)};
  const i64 V = j.at("V").as_integer("fleet unit V");
  // A one-height sweep with default options: byte-for-byte the same
  // SweepPoint the single-node sweep computes at this height (each point
  // is an independent simulation — the PR 1 determinism property).
  const std::vector<core::SweepPoint> points =
      core::sweep_tile_height(problem, {V});
  return sweep_point_to_json(points.front()).dump();
}

std::string execute_sweep_batch(const Json& j) {
  core::Problem problem{pipeline::nest_from_json(j.at("nest")),
                        pipeline::machine_from_json(j.at("machine")),
                        vec_from_json(j.at("procs"), "fleet unit procs"),
                        unit_model(j)};
  const Json::Array& hs = j.at("heights").as_array("fleet unit heights");
  std::vector<i64> heights;
  heights.reserve(hs.size());
  for (const Json& h : hs)
    heights.push_back(h.as_integer("fleet unit heights"));
  TILO_REQUIRE(!heights.empty(), "fleet unit: empty sweep batch");
  // One parse, one analysis, one reusable workspace for the whole chunk —
  // the dispatch amortization the batch exists for.  Each point is still
  // an independent deterministic simulation, so the bytes match the
  // one-height units exactly.
  const std::vector<core::SweepPoint> points =
      core::sweep_tile_height(problem, heights);
  Json out = Json::object();
  Json arr = Json::array();
  for (const core::SweepPoint& p : points) arr.push(sweep_point_to_json(p));
  out.set("points", std::move(arr));
  return out.dump();
}

std::string execute_scenario_unit(const Json& j) {
  // A unit's machine reads the way a scenario file's does: the
  // "machine_model" envelope, else the ideal model over a bare "machine";
  // a unit that names neither keeps the default.
  pipeline::CompileOptions base;
  if (const Json* machine = j.find("machine"))
    base.model = pipeline::model_from_json(*machine);
  if (const Json* envelope = j.find("machine_model"))
    base.model = pipeline::model_from_json(*envelope);
  const svc::CompileParams params = svc::workload_from_json(j.at("workload"));
  const svc::Response resp = svc::execute_compile(base, params);
  if (resp.status == svc::RespStatus::kOk) return resp.result;
  Json err = Json::object();
  err.set("error", Json::string(resp.error));
  return err.dump();
}

}  // namespace

std::vector<WorkUnit> sweep_units(const core::Problem& problem,
                                  const std::vector<i64>& heights) {
  const Json nest = pipeline::nest_to_json(problem.nest);
  const Json machine = pipeline::machine_to_json(problem.machine);
  const Json procs = vec_to_json(problem.procs);
  std::vector<WorkUnit> units;
  units.reserve(heights.size());
  for (std::size_t i = 0; i < heights.size(); ++i) {
    Json j = Json::object();
    stamp_envelope(j, "sweep_point");
    j.set("nest", nest);
    j.set("machine", machine);
    // Only model-carrying problems grow the payload; params-only sweeps
    // keep their historical unit bytes.
    if (problem.model)
      j.set("machine_model", pipeline::model_to_json(*problem.model));
    j.set("procs", procs);
    j.set("V", Json::integer(heights[i]));
    units.push_back(WorkUnit{i, j.dump()});
  }
  return units;
}

std::vector<WorkUnit> sweep_batch_units(const core::Problem& problem,
                                        const std::vector<i64>& heights,
                                        const SweepBatchOptions& opts) {
  TILO_REQUIRE(opts.max_heights >= 1, "fleet: max_heights must be >= 1");
  TILO_REQUIRE(opts.balance > 0, "fleet: balance must be > 0");
  // Analytic per-height cost proxy: simulated work scales with the number
  // of tiles (mapped extent K over V) per processor wave; the +1 covers
  // the per-run fixed cost.  Only relative magnitudes matter here.
  const core::AnalyticModel model = core::derive_analytic_model(problem);
  const auto cost = [&](i64 V) {
    return 1.0 + model.k / static_cast<double>(std::max<i64>(1, V));
  };
  double max_cost = 0;
  for (i64 V : heights) max_cost = std::max(max_cost, cost(V));
  const double cap = opts.balance * max_cost;

  const Json nest = pipeline::nest_to_json(problem.nest);
  const Json machine = pipeline::machine_to_json(problem.machine);
  const Json procs = vec_to_json(problem.procs);
  std::vector<WorkUnit> units;
  std::size_t i = 0;
  while (i < heights.size()) {
    // Greedy contiguous chunk: close when the next height would blow the
    // cost cap (unless the chunk is still empty) or the length cap.
    std::size_t end = i;
    double acc = 0;
    while (end < heights.size() &&
           static_cast<i64>(end - i) < opts.max_heights &&
           (end == i || acc + cost(heights[end]) <= cap)) {
      acc += cost(heights[end]);
      ++end;
    }
    Json j = Json::object();
    stamp_envelope(j, "sweep_batch");
    j.set("nest", nest);
    j.set("machine", machine);
    if (problem.model)
      j.set("machine_model", pipeline::model_to_json(*problem.model));
    j.set("procs", procs);
    Json hs = Json::array();
    for (std::size_t k = i; k < end; ++k)
      hs.push(Json::integer(heights[k]));
    j.set("heights", std::move(hs));
    units.push_back(WorkUnit{units.size(), j.dump()});
    i = end;
  }
  return units;
}

std::vector<WorkUnit> scenario_units(const pipeline::ScenarioFile& scenario) {
  std::vector<WorkUnit> units;
  units.reserve(scenario.workloads.size());
  for (std::size_t i = 0; i < scenario.workloads.size(); ++i) {
    const pipeline::ScenarioWorkload& wl = scenario.workloads[i];
    svc::CompileParams params;
    params.name = wl.name;
    params.source = wl.source;
    params.procs = wl.procs;
    params.auto_procs = wl.auto_procs;
    params.height = wl.height;
    if (wl.kind) params.kind = *wl.kind;
    if (wl.workload_kind)
      params.workload_kind =
          std::string(workload::kind_name(*wl.workload_kind));
    params.constraints = wl.constraints;
    params.simulate = true;  // scenario compiles simulate by default
    Json j = Json::object();
    stamp_envelope(j, "scenario_workload");
    j.set("workload", svc::workload_to_json(params));
    // As in a plan document: "machine", plus the envelope only for a
    // non-ideal model.
    if (scenario.model) {
      j.set("machine", pipeline::machine_to_json(scenario.model->params()));
      if (!scenario.model->ideal())
        j.set("machine_model", pipeline::model_to_json(*scenario.model));
    }
    units.push_back(WorkUnit{i, j.dump()});
  }
  return units;
}

std::vector<double> unit_cost_estimates(const core::Problem& problem,
                                        const std::vector<WorkUnit>& units,
                                        double ns_per_cost) {
  TILO_REQUIRE(ns_per_cost > 0, "fleet: ns_per_cost must be > 0");
  const core::AnalyticModel model = core::derive_analytic_model(problem);
  const auto cost = [&](i64 V) {
    return 1.0 + model.k / static_cast<double>(std::max<i64>(1, V));
  };
  std::vector<double> out(units.size(), 0.0);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Json j = Json::parse(units[i].payload);
    const Json* kind = j.find("kind");
    if (!kind) continue;
    const std::string k = kind->as_string("fleet.kind");
    if (k == "sweep_point") {
      out[i] = ns_per_cost * cost(j.at("V").as_integer("fleet.V"));
    } else if (k == "sweep_batch") {
      double sum = 0;
      for (const Json& h : j.at("heights").as_array("fleet.heights"))
        sum += cost(h.as_integer("fleet.heights"));
      out[i] = ns_per_cost * sum;
    }
  }
  return out;
}

std::string execute_unit(std::string_view payload) {
  const Json j = Json::parse(payload);
  require_unit_envelope(j);
  const std::string kind = j.at("kind").as_string("fleet unit kind");
  if (kind == "sweep_point") return execute_sweep_unit(j);
  if (kind == "sweep_batch") return execute_sweep_batch(j);
  if (kind == "scenario_workload") return execute_scenario_unit(j);
  TILO_REQUIRE(false, "fleet unit: unknown kind \"", kind, "\"");
  return {};  // unreachable
}

Json sweep_point_to_json(const core::SweepPoint& p) {
  Json j = Json::object();
  j.set("V", Json::integer(p.V));
  j.set("g", Json::integer(p.g));
  j.set("t_overlap", Json::number(p.t_overlap));
  j.set("t_nonoverlap", Json::number(p.t_nonoverlap));
  j.set("predicted_overlap", Json::number(p.predicted_overlap));
  j.set("predicted_nonoverlap", Json::number(p.predicted_nonoverlap));
  j.set("predicted_cpu_bound", Json::number(p.predicted_cpu_bound));
  j.set("events", Json::integer(static_cast<i64>(p.events)));
  return j;
}

core::SweepPoint sweep_point_from_json(const Json& j) {
  TILO_REQUIRE(j.is_object(), "fleet sweep point: not a JSON object");
  core::SweepPoint p;
  p.V = j.at("V").as_integer("V");
  p.g = j.at("g").as_integer("g");
  p.t_overlap = j.at("t_overlap").as_number("t_overlap");
  p.t_nonoverlap = j.at("t_nonoverlap").as_number("t_nonoverlap");
  p.predicted_overlap = j.at("predicted_overlap").as_number("predicted_overlap");
  p.predicted_nonoverlap =
      j.at("predicted_nonoverlap").as_number("predicted_nonoverlap");
  p.predicted_cpu_bound =
      j.at("predicted_cpu_bound").as_number("predicted_cpu_bound");
  p.events =
      static_cast<std::uint64_t>(j.at("events").as_integer("events"));
  return p;
}

std::vector<core::SweepPoint> sweep_points_from_payloads(
    const std::vector<std::string>& payloads) {
  std::vector<core::SweepPoint> points;
  points.reserve(payloads.size());
  for (const std::string& text : payloads) {
    const Json j = Json::parse(text);
    if (const Json* batch = j.find("points")) {
      for (const Json& p : batch->as_array("points"))
        points.push_back(sweep_point_from_json(p));
    } else {
      points.push_back(sweep_point_from_json(j));
    }
  }
  return points;
}

std::string sweep_points_document(const std::vector<std::string>& payloads) {
  const std::vector<core::SweepPoint> points =
      sweep_points_from_payloads(payloads);
  Json doc = Json::object();
  doc.set("tilo", Json::string("fleet.sweep"));
  doc.set("version", Json::integer(kFleetVersion));
  Json arr = Json::array();
  for (const core::SweepPoint& p : points) arr.push(sweep_point_to_json(p));
  doc.set("points", std::move(arr));
  return doc.dump();
}

}  // namespace tilo::fleet
