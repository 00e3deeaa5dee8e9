#include "tilo/svc/compile.hpp"

#include "tilo/pipeline/serialize.hpp"
#include "tilo/util/error.hpp"

namespace tilo::svc {

Response execute_compile(const pipeline::CompileOptions& base,
                         const CompileParams& params) {
  pipeline::CompileOptions opts = base;
  opts.procs.reset();
  opts.auto_procs.reset();
  opts.height.reset();
  if (params.procs) opts.procs = *params.procs;
  if (params.auto_procs) opts.auto_procs = *params.auto_procs;
  if (params.height) opts.height = *params.height;
  opts.kind = params.kind;
  opts.simulate = params.simulate;
  opts.functional = false;
  opts.emit_program = false;
  Response resp;
  if (!params.workload_kind.empty()) {
    try {
      opts.workload_kind = workload::kind_from(params.workload_kind);
    } catch (const util::Error& e) {
      resp.status = RespStatus::kBadRequest;
      resp.error = e.what();
      return resp;
    }
  } else {
    opts.workload_kind = workload::Kind::kUniformNest;
  }
  opts.constraints = params.constraints;
  // A named model is built over the server's own machine.  (A null base
  // model is left for the compile below to reject.)
  if (!params.model.empty() && opts.model) {
    std::shared_ptr<const mach::Model> model =
        mach::make_model(params.model, opts.model->params());
    if (!model) {
      resp.status = RespStatus::kBadRequest;
      std::string names;
      for (const std::string& n : mach::model_names()) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      resp.error = util::concat("unknown machine model \"", params.model,
                                "\" (known: ", names, ")");
      return resp;
    }
    opts.model = std::move(model);
  }
  try {
    const pipeline::Compiler compiler(opts);
    const pipeline::ArtifactStore out =
        compiler.compile_source(params.name, params.source);
    if (opts.workload_kind == workload::Kind::kTileDag) {
      const pipeline::DagPlanArtifact& dag = out.dag_plan();
      Json r = Json::object();
      r.set("name", Json::string(params.name));
      r.set("kind", Json::string(std::string(
                        workload::kind_name(opts.workload_kind))));
      r.set("ranks", Json::integer(dag.ranks));
      r.set("tasks", Json::integer(dag.dag->num_tasks()));
      r.set("alap_lower_bound_seconds",
            Json::number(1e-9 * static_cast<double>(dag.bound.bound_ns)));
      if (params.simulate && out.backend().run) {
        const exec::RunResult& run = *out.backend().run;
        r.set("simulated_seconds", Json::number(run.seconds));
        if (run.alap_lower_bound > 0)
          r.set("bound_ratio",
                Json::number(static_cast<double>(run.completion) /
                             static_cast<double>(run.alap_lower_bound)));
      }
      resp.result = r.dump();
      return resp;
    }
    Json r = Json::object();
    r.set("name", Json::string(params.name));
    if (opts.workload_kind != workload::Kind::kUniformNest)
      r.set("kind", Json::string(std::string(
                        workload::kind_name(opts.workload_kind))));
    const lat::Vec& procs = out.analysis().problem.procs;
    Json procs_json = Json::array();
    for (std::size_t d = 0; d < procs.size(); ++d)
      procs_json.push(Json::integer(procs[d]));
    r.set("procs", std::move(procs_json));
    r.set("mapped_dim",
          Json::integer(static_cast<i64>(out.analysis().mapped_dim)));
    r.set("V", Json::integer(out.tiling().V));
    r.set("schedule", Json::string(std::string(
                          pipeline::schedule_kind_name(params.kind))));
    r.set("schedule_length", Json::integer(out.schedule().length));
    r.set("predicted_seconds", Json::number(out.plan().predicted_seconds));
    if (params.simulate && out.backend().run)
      r.set("simulated_seconds", Json::number(out.backend().run->seconds));
    if (params.include_plan) {
      r.set("plan", pipeline::plan_to_json(out.nest(), *out.plan().plan,
                                           *out.analysis().problem.model));
    }
    resp.result = r.dump();
  } catch (const util::Error& e) {
    resp.status = RespStatus::kError;
    resp.error = e.what();
  }
  return resp;
}

}  // namespace tilo::svc
