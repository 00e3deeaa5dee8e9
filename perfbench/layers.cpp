#include "layers.hpp"

#include <filesystem>
#include <iostream>

#include "tilo/exec/run.hpp"
#include "tilo/sim/engine.hpp"

namespace perfbench {

using namespace tilo;

void exec_sim_probe(const std::vector<Case>& cases, Tracer* tracer,
                    Report& report) {
  constexpr std::size_t kCases = 8;
  constexpr int kRepeats = 3;
  std::vector<double> run_ms;
  double events = 0, messages = 0, bytes = 0, wall_s = 0;
  for (std::size_t i = 0; i < std::min(kCases, cases.size()); ++i) {
    const Case& c = cases[i];
    const i64 V = c.heights[c.heights.size() / 2];
    const exec::TilePlan plan =
        c.problem.plan(V, sched::ScheduleKind::kOverlap);
    exec::RunWorkspace workspace;
    for (int r = 0; r < kRepeats; ++r) {
      Tracer::Scope span(tracer, "exec.run_plan [case " +
                                     std::to_string(c.index) + " V=" +
                                     std::to_string(V) + "]");
      const i64 t0 = now_ns();
      const exec::RunResult res =
          exec::run_plan(c.problem.nest, plan, c.problem.model, {}, &workspace);
      const double s = static_cast<double>(now_ns() - t0) / 1e9;
      run_ms.push_back(s * 1e3);
      wall_s += s;
      events += static_cast<double>(res.events);
      messages += static_cast<double>(res.messages);
      bytes += static_cast<double>(res.bytes);
    }
  }
  const double runs = static_cast<double>(run_ms.size());
  report.set("exec.run_plan_ms_p50", median(run_ms), "ms");
  report.set("exec.events_per_run", events / runs, "count");
  report.set("exec.events_per_s", events / wall_s, "1/s");
  report.set("msg.messages_per_run", messages / runs, "count");
  report.set("msg.bytes_per_run", bytes / runs, "bytes");

  // The engine rung: a self-rescheduling trivially copyable event, the
  // cheapest thing the engine can dispatch.
  struct Tick {
    sim::Engine* engine;
    i64* remaining;
    void operator()() const {
      if (--*remaining > 0) engine->after(10, *this);
    }
  };
  const auto chain = static_cast<i64>(events / runs);
  double sim_events = 0, sim_s = 0;
  Tracer::Scope span(tracer, "sim.engine rung");
  for (std::size_t r = 0; r < run_ms.size(); ++r) {
    const i64 t0 = now_ns();
    sim::Engine engine;
    i64 remaining = chain;
    engine.after(10, Tick{&engine, &remaining});
    engine.run();
    sim_s += static_cast<double>(now_ns() - t0) / 1e9;
    sim_events += static_cast<double>(engine.events_processed());
  }
  report.set("sim.events_per_s", sim_events / sim_s, "1/s");
}

void write_trace(const Tracer& tracer, const Options& opts) {
  const std::string path = "trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (tracer.write_chrome(path))
    std::cerr << "perfbench: trace written to "
              << std::filesystem::absolute(path).string() << "\n";
  else
    std::cerr << "perfbench: could not write " << path << "\n";
}

}  // namespace perfbench
