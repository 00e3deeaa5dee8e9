// Workload "tune": offline V-tuning.  A seeded stream of distinct universe
// problems (common.hpp) goes through core::sweep_select back to back on two
// sweep threads — closed loop, one tune at a time.  Never repeating a
// problem keeps the cost mix of a run close to the universe's, whatever
// the seed.  It loads core, exec, sim and msg and never touches svc, store
// or fleet.
//
// Gates: every verdict matches the golden digest recorded for its problem
// (golden_tune.txt), and paper space (i) lands on its pinned optimum
// (overlap V=197 at 247.289 ms, non-overlap V=360).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "layers.hpp"
#include "tilo/core/sweep.hpp"

namespace perfbench {

using namespace tilo;

namespace {

constexpr int kSweepThreads = 2;

std::string verdict_text(const core::SweepSelection& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "over V=%lld g=%lld t=%.17g p=%.17g | non V=%lld g=%lld t=%.17g "
      "p=%.17g | analytic %lld %lld | runs %lld/%lld",
      static_cast<long long>(s.best_overlap.V),
      static_cast<long long>(s.best_overlap.g), s.best_overlap.t,
      s.best_overlap.predicted, static_cast<long long>(s.best_nonoverlap.V),
      static_cast<long long>(s.best_nonoverlap.g), s.best_nonoverlap.t,
      s.best_nonoverlap.predicted,
      static_cast<long long>(s.V_analytic_overlap),
      static_cast<long long>(s.V_analytic_nonoverlap),
      static_cast<long long>(s.simulated_runs),
      static_cast<long long>(s.total_runs));
  return buf;
}

core::SweepSelection tune(const Case& c, obs::Sink* sink) {
  core::SweepOptions so;
  so.threads = kSweepThreads;
  so.sink = sink;
  return core::sweep_select(c.problem, c.heights, so);
}

std::map<std::size_t, std::string> load_golden(const std::string& path) {
  std::map<std::size_t, std::string> out;
  std::ifstream is(path);
  std::size_t index = 0;
  std::string hex;
  while (is >> index >> hex) out[index] = hex;
  return out;
}

struct Phase {
  std::vector<double> op_ms;
  double wall_s = 0.0;
  i64 simulated_runs = 0;
  i64 total_runs = 0;
};

/// Tunes the stream from its start for `seconds`, checking every verdict.
Phase tune_phase(const std::vector<std::size_t>& stream, double seconds,
                 Tracer* tracer,
                 const std::map<std::size_t, std::string>& golden,
                 Report& report) {
  Phase ph;
  const i64 start = now_ns();
  const i64 stop = start + static_cast<i64>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < stop; ++i) {
    const Case c = universe_case(stream[i % stream.size()], false);
    ++report.attempted;
    const i64 t0 = now_ns();
    core::SweepSelection sel;
    try {
      Tracer::Scope span(tracer, "tune [case " + std::to_string(c.index) + "]");
      sel = tune(c, tracer);
    } catch (const std::exception& e) {
      ++report.failed;
      std::cerr << "tune of case " << c.index << " threw: " << e.what() << "\n";
      continue;
    }
    ph.op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    ph.simulated_runs += sel.simulated_runs;
    ph.total_runs += sel.total_runs;
    const auto it = golden.find(c.index);
    const std::string got = digest(verdict_text(sel));
    if (it == golden.end() || it->second != got)
      report.gate(false, "tune verdict of case " + std::to_string(c.index) +
                             " has digest " + got + ", golden " +
                             (it == golden.end() ? "missing" : it->second));
  }
  ph.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return ph;
}

void paper_space_gate(Report& report) {
  const core::Problem p = core::paper_problem_i();
  core::SweepOptions so;
  so.threads = kSweepThreads;
  const core::SweepSelection sel = core::sweep_select(
      p, core::height_grid(4, p.max_tile_height() / 4, 1.35), so);
  const bool ok = sel.best_overlap.V == 197 &&
                  std::abs(sel.best_overlap.t * 1e3 - 247.289) < 5e-4 &&
                  sel.best_nonoverlap.V == 360;
  report.gate(ok, "paper space (i) optimum moved: overlap V=" +
                      std::to_string(sel.best_overlap.V) + " t=" +
                      std::to_string(sel.best_overlap.t * 1e3) +
                      " ms, non-overlap V=" +
                      std::to_string(sel.best_nonoverlap.V));
}

}  // namespace

int record_golden(const std::string& path) {
  std::ofstream os(path);
  for (std::size_t i = 0; i < kUniverse; ++i)
    os << i << " "
       << digest(verdict_text(tune(universe_case(i, false), nullptr))) << "\n";
  return os ? 0 : 1;
}

void run_tune(const Options& opts, Report& report) {
  // Set-up: draw the seeded stream and warm the sweep thread pool and run
  // workspaces with one tune of a fixed case.
  std::vector<std::size_t> stream;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const i64 t0 = now_ns();
    stream = pick_cases(opts.seed, kUniverse / kGridClasses);
    (void)tune(universe_case(0, false), nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::map<std::size_t, std::string> golden = load_golden(opts.golden);

  if (!opts.trace) {
    Phase ph = tune_phase(stream, opts.seconds, nullptr, golden, report);
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("op_p50_ms", quantile(ph.op_ms, 0.5), "ms");
    report.set("op_tail_ms", quantile(ph.op_ms, 0.9), "ms");
    report.set("ops_per_s", static_cast<double>(ph.op_ms.size()) / ph.wall_s,
               "1/s");
  } else {
    Phase plain = tune_phase(stream, opts.seconds / 2, nullptr, golden, report);
    Tracer tracer;
    Phase traced =
        tune_phase(stream, opts.seconds / 2, &tracer, golden, report);

    std::vector<double> rank_ms;
    const std::vector<Tracer::Span> points = tracer.spans("sweep V=");
    for (const Tracer::Span& t : tracer.spans("tune [")) {
      std::vector<std::pair<i64, i64>> children;
      for (const Tracer::Span& p : points)
        if (p.start >= t.start && p.end <= t.end)
          children.emplace_back(p.start, p.end);
      rank_ms.push_back(
          static_cast<double>(self_time(t.start, t.end, children)) / 1e6);
    }
    double tune_s = 0.0;
    for (const double ms : traced.op_ms) tune_s += ms / 1e3;
    report.set("core.rank_ms", median(rank_ms), "ms");
    report.set("core.simulated_frac",
               static_cast<double>(traced.simulated_runs) /
                   static_cast<double>(std::max<i64>(1, traced.total_runs)),
               "ratio");
    report.set("core.points_per_s", tracer.count("sweep.points") / tune_s,
               "1/s");
    report.set("obs.trace_overhead_frac",
               median(traced.op_ms) / median(plain.op_ms) - 1.0, "ratio");
    std::vector<Case> cases;
    for (std::size_t i = 0; i < 8; ++i)
      cases.push_back(universe_case(stream[i], false));
    exec_sim_probe(cases, &tracer, report);
    write_trace(tracer, opts);
  }
  paper_space_gate(report);
}

}  // namespace perfbench
