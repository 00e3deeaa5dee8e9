#include "tilo/pipeline/serialize.hpp"

#include <utility>
#include <vector>

#include "tilo/loopnest/parse.hpp"
#include "tilo/util/error.hpp"

namespace tilo::pipeline {

namespace {

Json vec_to_json(const lat::Vec& v) {
  Json arr = Json::array();
  for (i64 c : v) arr.push(Json::integer(c));
  return arr;
}

lat::Vec vec_from_json(const Json& j, std::string_view what) {
  std::vector<i64> out;
  for (const Json& c : j.as_array(what)) out.push_back(c.as_integer(what));
  return lat::Vec(std::move(out));
}

Json affine_to_json(const mach::AffineCost& c) {
  Json j = Json::object();
  j.set("base", Json::number(c.base));
  j.set("per_byte", Json::number(c.per_byte));
  return j;
}

mach::AffineCost affine_from_json(const Json& j, std::string_view what) {
  mach::AffineCost c;
  c.base = j.at("base").as_number("base");
  c.per_byte = j.at("per_byte").as_number("per_byte");
  (void)what;
  return c;
}

/// Checks the {"tilo": <type>, "version": N} envelope.
void check_envelope(const Json& j, std::string_view type) {
  const std::string& got = j.at("tilo").as_string("tilo");
  TILO_REQUIRE(got == type, "expected a tilo '", type,
               "' document, found '", got, "'");
  const i64 version = j.at("version").as_integer("version");
  TILO_REQUIRE(version == kSchemaVersion, "unsupported ", type,
               " schema version ", version, " (this build reads version ",
               kSchemaVersion, ")");
}

}  // namespace

std::string_view schedule_kind_name(sched::ScheduleKind kind) {
  return kind == sched::ScheduleKind::kOverlap ? "overlap" : "nonoverlap";
}

sched::ScheduleKind schedule_kind_from(std::string_view name) {
  if (name == "overlap") return sched::ScheduleKind::kOverlap;
  if (name == "nonoverlap") return sched::ScheduleKind::kNonOverlap;
  throw util::Error(util::concat("unknown schedule kind '", name,
                                 "' (expected overlap or nonoverlap)"));
}

Json machine_to_json(const mach::MachineParams& machine) {
  Json j = Json::object();
  j.set("t_c", Json::number(machine.t_c));
  j.set("t_t", Json::number(machine.t_t));
  j.set("bytes_per_element", Json::integer(machine.bytes_per_element));
  j.set("wire_latency", Json::number(machine.wire_latency));
  j.set("fill_mpi_buffer", affine_to_json(machine.fill_mpi_buffer));
  j.set("fill_kernel_buffer", affine_to_json(machine.fill_kernel_buffer));
  Json cache = Json::object();
  cache.set("capacity_bytes", Json::integer(machine.cache.capacity_bytes));
  cache.set("miss_penalty", Json::number(machine.cache.miss_penalty));
  j.set("cache", std::move(cache));
  return j;
}

mach::MachineParams machine_from_json(const Json& j) {
  mach::MachineParams m;
  m.t_c = j.at("t_c").as_number("t_c");
  m.t_t = j.at("t_t").as_number("t_t");
  m.bytes_per_element =
      static_cast<int>(j.at("bytes_per_element").as_integer(
          "bytes_per_element"));
  m.wire_latency = j.at("wire_latency").as_number("wire_latency");
  m.fill_mpi_buffer =
      affine_from_json(j.at("fill_mpi_buffer"), "fill_mpi_buffer");
  m.fill_kernel_buffer =
      affine_from_json(j.at("fill_kernel_buffer"), "fill_kernel_buffer");
  const Json& cache = j.at("cache");
  m.cache.capacity_bytes =
      cache.at("capacity_bytes").as_integer("capacity_bytes");
  m.cache.miss_penalty = cache.at("miss_penalty").as_number("miss_penalty");
  return m;
}

Json model_to_json(const mach::Model& model) {
  Json j = Json::object();
  j.set("tilo", Json::string("machine_model"));
  j.set("version", Json::integer(kSchemaVersion));
  j.set("model", Json::string(model.kind()));
  j.set("machine", machine_to_json(model.params()));
  if (const auto* m = dynamic_cast<const mach::InterferenceModel*>(&model)) {
    Json cfg = Json::object();
    cfg.set("beta_kernel", Json::number(m->config().beta_kernel));
    cfg.set("beta_wire", Json::number(m->config().beta_wire));
    cfg.set("mcrit", Json::integer(m->config().mcrit));
    cfg.set("factor_below", Json::number(m->config().factor_below));
    j.set("config", std::move(cfg));
  } else if (const auto* h =
                 dynamic_cast<const mach::HeteroLinkModel*>(&model)) {
    Json cfg = Json::object();
    cfg.set("contention", Json::number(h->config().contention));
    Json links = Json::array();
    for (const mach::LinkParams& l : h->config().links) {
      Json link = Json::object();
      link.set("src", Json::integer(l.src));
      link.set("dst", Json::integer(l.dst));
      link.set("t_t", Json::number(l.t_t));
      link.set("latency", Json::number(l.latency));
      links.push(std::move(link));
    }
    cfg.set("links", std::move(links));
    j.set("config", std::move(cfg));
  } else if (const auto* o = dynamic_cast<const mach::OffloadModel*>(&model)) {
    Json cfg = Json::object();
    cfg.set("kernel_recv", Json::boolean(o->spec().kernel_recv));
    cfg.set("kernel_send", Json::boolean(o->spec().kernel_send));
    cfg.set("wire", Json::boolean(o->spec().wire));
    cfg.set("duplex", Json::boolean(o->spec().duplex));
    cfg.set("mpi_fill", Json::boolean(o->spec().mpi_fill));
    j.set("config", std::move(cfg));
  }
  return j;
}

std::shared_ptr<const mach::Model> model_from_json(const Json& j) {
  if (!j.find("tilo")) {
    // Pre-model machine files were a bare MachineParams object; they load
    // as the ideal model, which reproduces their historical results.
    return std::make_shared<mach::IdealOverlapModel>(machine_from_json(j));
  }
  check_envelope(j, "machine_model");
  const std::string& name = j.at("model").as_string("model");
  const mach::MachineParams machine = machine_from_json(j.at("machine"));
  if (name == "ideal")
    return std::make_shared<mach::IdealOverlapModel>(machine);
  if (name == "interference") {
    mach::InterferenceConfig cfg;
    const Json& c = j.at("config");
    cfg.beta_kernel = c.at("beta_kernel").as_number("beta_kernel");
    cfg.beta_wire = c.at("beta_wire").as_number("beta_wire");
    cfg.mcrit = c.at("mcrit").as_integer("mcrit");
    cfg.factor_below = c.at("factor_below").as_number("factor_below");
    return std::make_shared<mach::InterferenceModel>(machine, cfg);
  }
  if (name == "hetero") {
    mach::HeteroConfig cfg;
    const Json& c = j.at("config");
    cfg.contention = c.at("contention").as_number("contention");
    for (const Json& l : c.at("links").as_array("links")) {
      mach::LinkParams link;
      link.src = static_cast<int>(l.at("src").as_integer("src"));
      link.dst = static_cast<int>(l.at("dst").as_integer("dst"));
      link.t_t = l.at("t_t").as_number("t_t");
      link.latency = l.at("latency").as_number("latency");
      cfg.links.push_back(link);
    }
    return std::make_shared<mach::HeteroLinkModel>(machine, std::move(cfg));
  }
  if (name == "offload") {
    mach::OffloadSpec spec;
    const Json& c = j.at("config");
    spec.kernel_recv = c.at("kernel_recv").as_bool("kernel_recv");
    spec.kernel_send = c.at("kernel_send").as_bool("kernel_send");
    spec.wire = c.at("wire").as_bool("wire");
    spec.duplex = c.at("duplex").as_bool("duplex");
    spec.mpi_fill = c.at("mpi_fill").as_bool("mpi_fill");
    return std::make_shared<mach::OffloadModel>(machine, spec);
  }
  throw util::Error(util::concat("unknown machine model kind '", name,
                                 "' in machine_model document"));
}

Json nest_to_json(const loop::LoopNest& nest) {
  Json j = Json::object();
  j.set("name", Json::string(nest.name()));
  Json domain = Json::object();
  domain.set("lo", vec_to_json(nest.domain().lo()));
  domain.set("hi", vec_to_json(nest.domain().hi()));
  j.set("domain", std::move(domain));
  Json deps = Json::array();
  for (const lat::Vec& d : nest.deps()) deps.push(vec_to_json(d));
  j.set("deps", std::move(deps));
  if (nest.has_kernel()) {
    // Printable bodies travel with the nest so functional replay works;
    // point-dependent kernels silently serialize timing-only.  One extra
    // parse -> print round canonicalizes the text (the printer fully
    // parenthesizes, hand-built kernels may not), so serialize after
    // deserialize stays byte-identical.
    try {
      j.set("source", Json::string(loop::to_source(
                          loop::parse_nest(loop::to_source(nest)))));
    } catch (const util::Error&) {
    }
  }
  return j;
}

loop::LoopNest nest_from_json(const Json& j) {
  const std::string& name = j.at("name").as_string("name");
  const Json& domain = j.at("domain");
  lat::Box box(vec_from_json(domain.at("lo"), "domain.lo"),
               vec_from_json(domain.at("hi"), "domain.hi"));
  std::vector<lat::Vec> deps;
  for (const Json& d : j.at("deps").as_array("deps"))
    deps.push_back(vec_from_json(d, "deps"));
  loop::DependenceSet dep_set(std::move(deps));

  std::shared_ptr<const loop::Kernel> kernel;
  if (const Json* source = j.find("source")) {
    const loop::LoopNest parsed =
        loop::parse_nest(source->as_string("source"));
    TILO_REQUIRE(parsed.domain() == box,
                 "nest source does not reproduce the recorded domain "
                 "(file corrupt or hand-edited?): source gives ",
                 parsed.domain().str(), ", record says ", box.str());
    TILO_REQUIRE(parsed.deps().vectors() == dep_set.vectors(),
                 "nest source does not reproduce the recorded dependence "
                 "set: source gives ", parsed.deps().str(),
                 ", record says ", dep_set.str());
    kernel = parsed.kernel_ptr();
  }
  return loop::LoopNest(name, std::move(box), std::move(dep_set),
                        std::move(kernel));
}

Json plan_to_json(const loop::LoopNest& nest, const exec::TilePlan& plan,
                  const mach::Model& model) {
  Json j = Json::object();
  j.set("tilo", Json::string("plan"));
  j.set("version", Json::integer(kSchemaVersion));
  j.set("nest", nest_to_json(nest));
  j.set("machine", machine_to_json(model.params()));
  if (!model.ideal()) j.set("machine_model", model_to_json(model));
  Json tiling = Json::object();
  tiling.set("sides", vec_to_json(plan.space.tiling().sides()));
  j.set("tiling", std::move(tiling));
  j.set("mapped_dim", Json::integer(static_cast<i64>(plan.mapped_dim)));
  j.set("procs", vec_to_json(plan.mapping.procs()));
  j.set("kind", Json::string(std::string(schedule_kind_name(plan.kind))));
  return j;
}

PlanBundle plan_from_json(const Json& j) {
  check_envelope(j, "plan");
  loop::LoopNest nest = nest_from_json(j.at("nest"));
  // As in scenario files, a "machine_model" envelope wins over "machine".
  std::shared_ptr<const mach::Model> model = model_from_json(j.at("machine"));
  if (const Json* envelope = j.find("machine_model"))
    model = model_from_json(*envelope);
  const lat::Vec sides =
      vec_from_json(j.at("tiling").at("sides"), "tiling.sides");
  const i64 mapped = j.at("mapped_dim").as_integer("mapped_dim");
  TILO_REQUIRE(mapped >= 0 &&
                   static_cast<std::size_t>(mapped) < nest.dims(),
               "mapped_dim ", mapped, " out of range for a ", nest.dims(),
               "-dimensional nest");
  lat::Vec procs = vec_from_json(j.at("procs"), "procs");
  const sched::ScheduleKind kind =
      schedule_kind_from(j.at("kind").as_string("kind"));
  exec::TilePlan plan = exec::make_plan_explicit(
      nest, tile::RectTiling(sides), kind,
      static_cast<std::size_t>(mapped), std::move(procs));
  return PlanBundle{std::move(nest), std::move(plan), std::move(model)};
}

Json recommendation_to_json(const core::Recommendation& rec) {
  Json j = Json::object();
  j.set("tilo", Json::string("recommendation"));
  j.set("version", Json::integer(kSchemaVersion));
  TILO_REQUIRE(rec.problem.model != nullptr,
               "recommendation has no machine model");
  j.set("plan", plan_to_json(rec.problem.nest, rec.plan, *rec.problem.model));
  j.set("V", Json::integer(rec.V));
  j.set("predicted_seconds", Json::number(rec.predicted_seconds));
  Json analytic = Json::object();
  analytic.set("V_continuous", Json::number(rec.analytic.V_continuous));
  analytic.set("V", Json::integer(rec.analytic.V));
  analytic.set("t_predicted", Json::number(rec.analytic.t_predicted));
  analytic.set("cpu_bound", Json::boolean(rec.analytic.cpu_bound));
  j.set("analytic", std::move(analytic));
  return j;
}

core::Recommendation recommendation_from_json(const Json& j) {
  check_envelope(j, "recommendation");
  PlanBundle bundle = plan_from_json(j.at("plan"));
  core::AnalyticOptimum analytic;
  const Json& a = j.at("analytic");
  analytic.V_continuous = a.at("V_continuous").as_number("V_continuous");
  analytic.V = a.at("V").as_integer("V");
  analytic.t_predicted = a.at("t_predicted").as_number("t_predicted");
  analytic.cpu_bound = a.at("cpu_bound").as_bool("cpu_bound");
  core::Problem problem{bundle.nest, bundle.model->params(),
                        bundle.plan.mapping.procs(), bundle.model};
  return core::Recommendation{std::move(problem), std::move(bundle.plan),
                              j.at("V").as_integer("V"),
                              j.at("predicted_seconds")
                                  .as_number("predicted_seconds"),
                              analytic};
}

}  // namespace tilo::pipeline
