// The whole compiler pipeline in one walk — now literally the staged
// tilo::pipeline::Compiler: parse a textual loop nest, bind it to the
// calibrated cluster, choose the tiling, verify and schedule it, lower to
// an executable plan, simulate both schedules, validate the distributed
// execution, and emit the final C + MPI program.
//
//   ./examples/compile_pipeline          # print summary
//   ./examples/compile_pipeline --emit   # also print the generated program
#include <cstring>
#include <iostream>

#include "tilo/pipeline/compiler.hpp"
#include "tilo/util/csv.hpp"

int main(int argc, char** argv) {
  using namespace tilo;
  using lat::Vec;

  const bool emit = argc > 1 && std::strcmp(argv[1], "--emit") == 0;

  // 1. Front end input: the paper's experimental kernel as source text.
  const char* source = R"(
# Section 5 test application (scaled down)
FOR i = 0 TO 15
  FOR j = 0 TO 15
    FOR k = 0 TO 2047
      A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
    ENDFOR
  ENDFOR
ENDFOR
)";

  // 2. One compiler, two compilations (overlapping / non-overlapping).
  // Every stage runs its paper-invariant verifier: H·P = I, 0/1 tile
  // dependences, Π-legality, grid·mapping consistency, P(g) cross-check.
  pipeline::CompileOptions opts;  // the paper's cluster by default
  opts.procs = Vec{4, 4, 1};
  opts.codegen.element_type = "float";  // the paper uses floats

  util::Table table;
  table.set_header({"schedule", "P(g)", "predicted", "simulated",
                    "max |err| vs sequential"});
  std::string program;
  for (auto kind : {sched::ScheduleKind::kNonOverlap,
                    sched::ScheduleKind::kOverlap}) {
    opts.kind = kind;
    opts.emit_program = kind == sched::ScheduleKind::kOverlap;
    const pipeline::Compiler compiler(opts);
    const pipeline::ArtifactStore out =
        compiler.compile_source("paper_kernel", source);

    if (kind == sched::ScheduleKind::kNonOverlap) {
      // 3. The artifacts the early stages produced, shared by both runs.
      const loop::LoopNest& nest = out.nest();
      std::cout << "parsed nest '" << nest.name() << "': domain "
                << nest.domain() << "\n  dependencies " << nest.deps().str()
                << "\n  body " << nest.kernel().statement() << "\n\n";
      std::cout << "mapping dimension: " << out.analysis().mapped_dim
                << " (largest extent), processors: 16\n";
      const core::AnalyticOptimum& g_opt = out.tiling().analytic;
      std::cout << "analytic optimal tile height V = " << g_opt.V
                << " (continuous " << util::fmt_fixed(g_opt.V_continuous, 1)
                << ", " << (g_opt.cpu_bound ? "CPU" : "communication")
                << "-bound step)\n\nper-stage artifacts:\n";
      pipeline::write_stage_log(std::cout, out);
      std::cout << '\n';
    }

    const double err = exec::run_and_validate(out.nest(), *out.plan().plan,
                                              opts.model);
    table.add_row({kind == sched::ScheduleKind::kOverlap ? "overlapping"
                                                         : "non-overlapping",
                   std::to_string(out.schedule().length),
                   util::fmt_seconds(out.plan().predicted_seconds),
                   util::fmt_seconds(out.backend().run->seconds),
                   util::fmt_fixed(err, 12)});
    if (opts.emit_program) program = out.backend().program;
  }
  table.write_text(std::cout);

  // 4. Back end product: the overlapping C + MPI program.
  std::cout << "\ngenerated " << program.size()
            << " bytes of C (ProcNB variant)";
  if (emit) {
    std::cout << ":\n\n" << program;
  } else {
    std::cout << "; rerun with --emit to print it.\n";
  }
  return 0;
}
