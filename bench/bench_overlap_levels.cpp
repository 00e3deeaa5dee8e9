// Reproduces the structure of paper Figs. 3 and 4: the decomposition of one
// time step into the A stages (CPU: fill MPI buffers + compute) and the B
// stages (DMA/NIC: kernel copies + wire), and the step duration at the
// three overlap levels:
//   (a) no overlap         step = A1+A2+A3 + B1+B2+B3+B4
//   (b) DMA overlap        step = max(A1+A2+A3, B1+B2+B3+B4)
//   (c) duplex DMA         step = max(A1+A2+A3, max(B1+B2, B3+B4))
// Also cross-checks (b) and (c) against the discrete-event simulator.
//
// The second half generalizes Fig. 3 across mach::Model implementations:
// every registered model (plus planted interference configurations) is
// swept over the same V grid through one uniform evaluator
// (core::analytic_completion), so the records are comparable — and so the
// beta = 1 interference curve must match the ideal curve bit-for-bit (the
// deprecation contract validate_bench.py enforces on BENCH_model.json).
//
//   --json[=PATH]  write BENCH_model.json (or PATH)
//   --quick        coarser V grid (CI smoke; same correctness checks)
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "tilo/core/analytic.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/pipeline/json.hpp"
#include "tilo/util/csv.hpp"

namespace {

/// One evaluated model: its completion curve over the shared V grid and
/// the grid argmin.  Every model — ideal included — goes through the same
/// core::analytic_completion calls, which is what makes the curves (and
/// the beta = 1 bit-identity check) comparable.
struct ModelCurve {
  std::string name;  ///< record label (unique per configuration)
  std::string kind;  ///< the model's self-reported kind()
  std::vector<double> t;
  tilo::util::i64 V_opt = 0;
  double t_opt = 0.0;
};

ModelCurve eval_model(const std::string& name, const tilo::core::Problem& p,
                      const tilo::mach::Model& model,
                      const std::vector<tilo::util::i64>& grid) {
  ModelCurve c;
  c.name = name;
  c.kind = std::string(model.kind());
  c.t.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double t = tilo::core::analytic_completion(
        p, model, grid[i], tilo::sched::ScheduleKind::kOverlap);
    c.t.push_back(t);
    if (i == 0 || t < c.t_opt) {
      c.t_opt = t;
      c.V_opt = grid[i];
    }
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tilo;
  using mach::OverlapLevel;
  using util::i64;

  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_model.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else {
      std::cerr << "usage: " << argv[0] << " [--quick] [--json[=PATH]]\n";
      return 2;
    }
  }

  const core::Problem p = core::paper_problem_i();
  const i64 V = 444;  // the paper's Fig. 12 optimum for space i

  // One pipeline compile per (schedule, overlap level): the stages build
  // and verify the plan, the Backend simulates it.
  const auto compile = [&](sched::ScheduleKind kind, OverlapLevel level) {
    pipeline::CompileOptions copts;
    copts.procs = p.procs;
    copts.height = V;
    copts.kind = kind;
    copts.comm.level = level;
    return pipeline::Compiler(copts).compile_nest(p.nest);
  };

  const pipeline::ArtifactStore over_out =
      compile(sched::ScheduleKind::kOverlap, OverlapLevel::kDma);
  const exec::TilePlan& over = *over_out.plan().plan;
  const mach::StepShape shape = core::steady_step_shape(over, p.machine);
  const mach::StepCost c = mach::step_cost(p.machine, shape);

  std::cout << "== Figs. 3/4 — one time step at V = " << V << " ==\n\n";
  util::Table stages;
  stages.set_header({"stage", "meaning", "time"});
  stages.add_row({"A1", "fill MPI send buffers (CPU)",
                  util::fmt_seconds(c.a1)});
  stages.add_row({"A2", "tile computation g*t_c (CPU)",
                  util::fmt_seconds(c.a2)});
  stages.add_row({"A3", "fill MPI recv buffers (CPU)",
                  util::fmt_seconds(c.a3)});
  stages.add_row({"B1", "receive-side wire", util::fmt_seconds(c.b1)});
  stages.add_row({"B2", "kernel recv copies", util::fmt_seconds(c.b2)});
  stages.add_row({"B3", "kernel send copies", util::fmt_seconds(c.b3)});
  stages.add_row({"B4", "send-side wire", util::fmt_seconds(c.b4)});
  stages.write_text(std::cout);

  std::cout << "\nA-side = " << util::fmt_seconds(c.cpu_side())
            << ", B-side = " << util::fmt_seconds(c.comm_side()) << "\n\n";

  util::Table levels;
  levels.set_header({"level (Fig. 3)", "step time (model)",
                     "total (model)", "total (simulated)"});
  for (OverlapLevel level :
       {OverlapLevel::kNone, OverlapLevel::kDma, OverlapLevel::kDuplexDma}) {
    double simulated = 0.0;
    i64 P = 0;
    if (level == OverlapLevel::kNone) {
      // Level (a) is the blocking program on the non-overlapping schedule.
      const pipeline::ArtifactStore non_out =
          compile(sched::ScheduleKind::kNonOverlap, OverlapLevel::kDma);
      simulated = non_out.backend().run->seconds;
      P = non_out.plan().plan->schedule_length();
    } else if (level == OverlapLevel::kDma) {
      simulated = over_out.backend().run->seconds;
      P = over.schedule_length();
    } else {
      const pipeline::ArtifactStore out =
          compile(sched::ScheduleKind::kOverlap, level);
      simulated = out.backend().run->seconds;
      P = out.plan().plan->schedule_length();
    }
    levels.add_row({mach::to_string(level),
                    util::fmt_seconds(c.step_time(level)),
                    util::fmt_seconds(static_cast<double>(P) *
                                      c.step_time(level)),
                    util::fmt_seconds(simulated)});
  }
  levels.write_text(std::cout);
  std::cout << "\n(the step is CPU-bound at this V, so (b) and (c) "
               "coincide — exactly the paper's case 1, eq. 5)\n";

  // == Fig. 3 generalized across machine models =========================
  // The same overlap question under every mach::Model: how does the
  // completion curve — and the tuned V_optimal — move when overlap is
  // imperfect (beta < 1), when the kernel-copy curve has an Mcrit
  // breakpoint, when links are heterogeneous, or when offload is partial?
  const std::vector<i64> grid =
      core::height_grid(4, p.max_tile_height() / 2, quick ? 2.5 : 1.35);

  std::vector<ModelCurve> curves;
  const auto add_named = [&](const std::string& name) {
    const std::shared_ptr<const mach::Model> m =
        mach::make_model(name, p.machine);
    curves.push_back(eval_model(name, p, *m, grid));
  };
  add_named("ideal");
  // A planted beta = 1 interference model: by the deprecation contract it
  // must reproduce the ideal curve bit-for-bit (checked below and by
  // validate_bench.py).
  curves.push_back(eval_model(
      "interference-beta1", p,
      mach::InterferenceModel(p.machine, mach::InterferenceConfig{}), grid));
  curves.push_back(eval_model(
      "interference-beta0.7", p,
      mach::InterferenceModel(p.machine, {0.7, 0.7, 0, 1.0}), grid));
  curves.push_back(eval_model(
      "interference-mcrit", p,
      mach::InterferenceModel(p.machine, {1.0, 1.0, 4096, 2.0}), grid));
  add_named("interference");
  add_named("hetero");
  add_named("offload-none");
  add_named("offload-duplex");
  add_named("offload-rdma");

  const ModelCurve& ideal = curves.front();
  const ModelCurve& beta1 = curves[1];
  const ModelCurve* beta07 = &curves[2];
  const bool ideal_identical = beta1.t == ideal.t;  // bitwise, per point
  // Imperfect overlap taxes the comm side back onto the CPU, which favors
  // taller tiles (fewer, larger messages): V_opt must not shrink.
  const bool beta_direction = beta07->V_opt >= ideal.V_opt;

  std::cout << "\n== Fig. 3 across machine models (V grid " << grid.front()
            << " .. " << grid.back() << ", " << grid.size()
            << " points) ==\n\n";
  util::Table mt;
  mt.set_header({"model", "kind", "V_opt", "t_opt"});
  for (const ModelCurve& c : curves)
    mt.add_row({c.name, c.kind, std::to_string(c.V_opt),
                util::fmt_seconds(c.t_opt)});
  mt.write_text(std::cout);
  std::cout << "\nbeta=1 interference vs ideal: "
            << (ideal_identical ? "bit-identical" : "DIVERGED") << '\n'
            << "beta=0.7 V_opt " << beta07->V_opt << " vs ideal V_opt "
            << ideal.V_opt << ": "
            << (beta_direction ? "shifted as predicted (>=)" : "WRONG WAY")
            << '\n';

  bool ok = ideal_identical && beta_direction;
  if (json) {
    pipeline::Json doc = pipeline::Json::object();
    doc.set("bench", pipeline::Json::string("model"));
    doc.set("quick", pipeline::Json::boolean(quick));
    doc.set("space", pipeline::Json::string("i"));
    pipeline::Json grid_json = pipeline::Json::array();
    for (i64 v : grid) grid_json.push(pipeline::Json::integer(v));
    doc.set("grid", std::move(grid_json));
    pipeline::Json models = pipeline::Json::array();
    for (const ModelCurve& c : curves) {
      pipeline::Json e = pipeline::Json::object();
      e.set("model", pipeline::Json::string(c.name));
      e.set("kind", pipeline::Json::string(c.kind));
      e.set("V_opt", pipeline::Json::integer(c.V_opt));
      e.set("t_opt", pipeline::Json::number(c.t_opt));
      pipeline::Json curve = pipeline::Json::array();
      for (double t : c.t) curve.push(pipeline::Json::number(t));
      e.set("curve", std::move(curve));
      models.push(std::move(e));
    }
    doc.set("models", std::move(models));
    doc.set("ideal_identical", pipeline::Json::boolean(ideal_identical));
    doc.set("beta_direction_ok", pipeline::Json::boolean(beta_direction));
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "FAIL: cannot open " << json_path << " for writing\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "bench report written to " << json_path << "\n";
  }
  if (!ok) {
    std::cerr << "FAIL: model-sweep invariants violated\n";
    return 1;
  }
  return 0;
}
