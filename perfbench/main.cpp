// tilo_perfbench — the repository benchmark.
//
//   tilo_perfbench --workload tune|serve-hot|serve-churn|fleet-sweep
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//                  --golden FILE
//   tilo_perfbench --record-golden FILE
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run (README.md maps each one to the
// end-to-end metric it should move).  The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; a failed
// correctness gate sets "correct": false and the exit code to 1.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/util/rng.hpp"

namespace perfbench {

using namespace tilo;

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::gate(bool ok, const std::string& what) {
  if (!ok) gate_failures.push_back(what);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Case universe_case(std::size_t index, bool fleet) {
  // Grid classes: the mapped extent shrinks as the processor grid grows, so
  // every class carries about the same simulation work and the cost of a
  // run does not hinge on how many cases each class contributed.  Tune
  // cases take one to a few tens of ms through a pruned sweep_select, so a
  // run tunes well over a thousand of them; fleet cases are smaller
  // because a fleet sweep simulates every height.
  struct GridClass {
    i64 p0, p1, tune_mapped, fleet_mapped;
  };
  static constexpr GridClass kClasses[kGridClasses] = {
      {2, 2, 2048, 1536}, {2, 4, 1024, 768}, {4, 2, 1024, 768},
      {4, 4, 512, 384}};
  const GridClass& k = kClasses[index % kGridClasses];
  util::Rng rng(0x7110BE4C5EEDULL ^ ((index + 1) * 0x9E3779B97F4A7C15ULL));
  loop::RandomNestOptions ro;
  ro.dims = 3;
  ro.num_deps = 3;
  ro.max_dep_component = 1;
  const loop::LoopNest shape = loop::random_nest(rng, ro);
  const i64 mapped = fleet ? k.fleet_mapped : k.tune_mapped;
  // Four cross-section rows per processor: a processor left without a tile
  // column would be a degenerate input, not a workload.
  const lat::Vec extents{4 * k.p0, 4 * k.p1, mapped};
  const std::vector<std::string> names = mach::model_names();
  const std::string model = names[static_cast<std::size_t>(
      rng.uniform(0, static_cast<i64>(names.size()) - 1))];
  const mach::MachineParams machine = mach::MachineParams::paper_cluster();
  return Case{index,
              core::Problem{shape.with_domain(lat::Box::from_extents(extents)),
                            machine, lat::Vec{k.p0, k.p1, 1},
                            mach::make_model(model, machine)},
              core::height_grid(8, mapped / 4, fleet ? 1.5 : 1.3)};
}

std::vector<std::size_t> pick_cases(std::uint64_t seed, std::size_t per_class) {
  util::Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x5EED);
  const std::size_t per_universe_class = kUniverse / kGridClasses;
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < kGridClasses; ++k) {
    std::vector<std::size_t> members;
    for (std::size_t j = 0; j < per_universe_class; ++j)
      members.push_back(j * kGridClasses + k);
    for (std::size_t i = 0; i < per_class; ++i) {
      const auto pick = static_cast<std::size_t>(rng.uniform(
          static_cast<i64>(i), static_cast<i64>(members.size()) - 1));
      std::swap(members[i], members[pick]);
      out.push_back(members[i]);
    }
  }
  // Interleave the classes so every stretch of the run sees the same mix.
  std::vector<std::size_t> mixed;
  for (std::size_t i = 0; i < per_class; ++i)
    for (std::size_t k = 0; k < kGridClasses; ++k)
      mixed.push_back(out[k * per_class + i]);
  return mixed;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
    {"ops_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.rank_ms", "ms"},
    {"core.simulated_frac", "ratio"},
    {"core.points_per_s", "1/s"},
    {"exec.run_plan_ms_p50", "ms"},
    {"exec.events_per_run", "count"},
    {"exec.events_per_s", "1/s"},
    {"sim.events_per_s", "1/s"},
    {"msg.messages_per_run", "count"},
    {"msg.bytes_per_run", "bytes"},
    {"pipeline.compile_ms_p50", "ms"},
    {"pipeline.frontend_ms", "ms"},
    {"pipeline.analysis_ms", "ms"},
    {"pipeline.tiling_ms", "ms"},
    {"pipeline.scheduling_ms", "ms"},
    {"pipeline.lowering_ms", "ms"},
    {"pipeline.backend_ms", "ms"},
    {"svc.rtt_us_p50", "us"},
    {"svc.handle_us_p50", "us"},
    {"svc.handle_us_p99", "us"},
    {"svc.wire_us_p50", "us"},
    {"svc.batched_frac", "ratio"},
    {"svc.compiles", "count"},
    {"svc.queue_depth_max", "count"},
    {"store.hit_frac", "ratio"},
    {"store.get_us_p50", "us"},
    {"store.put_us_p50", "us"},
    {"store.puts", "count"},
    {"store.rehydrate_s", "s"},
    {"fleet.unit_ms_p50", "ms"},
    {"fleet.single_node_s", "s"},
    {"fleet.overhead_frac", "ratio"},
    {"fleet.unit_polls", "count"},
    {"fleet.wasted_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"gen.lag_ms_p99", "ms"},
};

/// The metrics a run prints: every metric of its mode, in table order.  A
/// per-layer metric that does not apply to the workload reads 0 (see
/// README.md for which apply where).
template <std::size_t N>
std::string metrics_json(const Report& report, const MetricSpec (&table)[N]) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    double value = 0.0;
    for (const Metric& m : report.metrics)
      if (m.name == table[i].name) value = m.value;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (i ? ", \"" : "\"") + std::string(table[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" + table[i].unit + "\"}";
  }
  return out + "}";
}

int usage() {
  std::cerr << "usage: tilo_perfbench --workload tune|serve-hot|serve-churn|"
               "fleet-sweep --seed N --seconds S --trace 0|1 --workdir DIR "
               "--golden FILE\n       tilo_perfbench --record-golden FILE\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--record-golden") return record_golden(value);
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--workdir") {
      opts.workdir = value;
    } else if (flag == "--golden") {
      opts.golden = value;
    } else {
      return usage();
    }
  }
  if (opts.workdir.empty() || opts.seconds <= 0) return usage();

  // Sockets and the plan store live in the work directory; relative socket
  // paths keep them under the kernel's sun_path limit wherever it is.
  std::filesystem::remove_all(opts.workdir);
  std::filesystem::create_directories(opts.workdir);
  opts.golden = std::filesystem::absolute(opts.golden).string();
  std::filesystem::current_path(opts.workdir);

  Report report;
  try {
    if (opts.workload == "tune") {
      run_tune(opts, report);
    } else if (opts.workload == "serve-hot") {
      run_serve(opts, false, report);
    } else if (opts.workload == "serve-churn") {
      run_serve(opts, true, report);
    } else if (opts.workload == "fleet-sweep") {
      run_fleet_sweep(opts, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  for (const std::string& f : report.gate_failures)
    std::cerr << "GATE FAILED: " << f << "\n";
  for (const Metric& m : report.metrics)
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  const bool correct = report.gate_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": "
            << (opts.trace ? metrics_json(report, kPerLayer)
                           : metrics_json(report, kEndToEnd))
            << "}" << std::endl;
  return correct ? 0 : 1;
}
