// Workload "fleet-sweep": batched tile-height sweeps
// (fleet::sweep_batch_units) of a seeded stream of distinct universe
// problems, each through its own fleet::Controller with two in-process
// (local-lane) workers.  Closed loop: one sweep at a time, timed from
// handing the unit plan to the controller to the merged document.  It
// loads fleet dispatch, the sched fifo policy and the merge on top of
// exec/sim sweeps; it bypasses svc sockets, the store and the pipeline's
// compile path.
//
// Gate: every merged document equals fleet::sweep_points_document of the
// single-node core::sweep_tile_height of the same problem.
#include <atomic>
#include <iostream>
#include <thread>

#include "layers.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/fleet/controller.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/fleet/worker.hpp"

namespace perfbench {

using namespace tilo;

namespace {

constexpr int kWorkers = 2;
constexpr const char* kAddress = "unix:fleet.sock";

struct Job {
  Case c;
  std::vector<fleet::WorkUnit> units;
};

struct Sweep {
  double seconds = 0;
  fleet::FleetStats stats;
  std::string doc;
  bool ok = true;
};

Job make_job(std::size_t index) {
  Job job{universe_case(index, true), {}};
  job.units = fleet::sweep_batch_units(job.c.problem, job.c.heights);
  return job;
}

Sweep fleet_sweep(const Job& job, Tracer* tracer) {
  Tracer::Scope span(tracer,
                     "fleet.sweep [case " + std::to_string(job.c.index) + "]");
  Sweep out;
  const i64 t0 = now_ns();
  fleet::ControllerConfig cfg;
  cfg.address = kAddress;
  cfg.sink = tracer;
  fleet::Controller controller(cfg, job.units);
  controller.start();
  std::atomic<bool> worker_failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&controller, &worker_failed, w] {
      fleet::WorkerConfig wc;
      wc.local = &controller;
      wc.name = "perfbench-w" + std::to_string(w);
      try {
        if (!fleet::Worker(wc).run().clean) worker_failed = true;
      } catch (const std::exception& e) {
        std::cerr << "fleet worker " << w << ": " << e.what() << "\n";
        worker_failed = true;
      }
    });
  }
  controller.wait();
  out.doc = fleet::sweep_points_document(controller.merged().payloads());
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::thread& t : workers) t.join();
  out.stats = controller.stats();
  controller.stop();
  out.ok = !worker_failed;
  return out;
}

struct Phase {
  std::vector<double> op_ms;
  std::vector<std::string> docs;  ///< the merged document of each op
  fleet::FleetStats totals;
  double wall_s = 0;
};

/// Sweeps the stream from its start for `seconds`, one problem per op.
Phase sweep_phase(const std::vector<std::size_t>& stream, double seconds,
                  Tracer* tracer, Report& report) {
  Phase ph;
  const i64 start = now_ns();
  const i64 stop = start + static_cast<i64>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < stop; ++i) {
    const Job job = make_job(stream[i % stream.size()]);
    ++report.attempted;
    Sweep s = fleet_sweep(job, tracer);
    if (!s.ok) ++report.failed;
    ph.op_ms.push_back(s.seconds * 1e3);
    ph.docs.push_back(std::move(s.doc));
    ph.totals.units += s.stats.units;
    ph.totals.unit_polls += s.stats.unit_polls;
    ph.totals.duplicates += s.stats.duplicates;
    ph.totals.speculated += s.stats.speculated;
  }
  ph.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return ph;
}

/// Every merged document against the single-node sweep of its problem.
void single_node_gate(const std::vector<std::size_t>& stream, const Phase& ph,
                      Report& report) {
  core::SweepOptions so;
  so.threads = kWorkers;  // byte-identical to a serial sweep, and faster
  for (std::size_t i = 0; i < ph.docs.size(); ++i) {
    const Case c = universe_case(stream[i % stream.size()], true);
    std::vector<std::string> payloads;
    for (const core::SweepPoint& p :
         core::sweep_tile_height(c.problem, c.heights, so))
      payloads.push_back(fleet::sweep_point_to_json(p).dump());
    if (fleet::sweep_points_document(payloads) != ph.docs[i])
      report.gate(false, "fleet merge of case " + std::to_string(c.index) +
                             " differs from the single-node sweep");
  }
}

}  // namespace

void run_fleet_sweep(const Options& opts, Report& report) {
  // Set-up: draw the seeded stream and warm the controller/worker path with
  // one sweep of a fixed problem.
  std::vector<std::size_t> stream;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const i64 t0 = now_ns();
    stream = pick_cases(opts.seed, kUniverse / kGridClasses);
    (void)fleet_sweep(make_job(0), nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  if (!opts.trace) {
    Phase ph = sweep_phase(stream, opts.seconds, nullptr, report);
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("op_p50_ms", quantile(ph.op_ms, 0.5), "ms");
    // p95, about 20 sweeps beyond it: a cluster of slow sweeps makes up
    // close to a tenth of all, so p90 would straddle it and swing between
    // runs.
    report.set("op_tail_ms", quantile(ph.op_ms, 0.95), "ms");
    report.set("ops_per_s", static_cast<double>(ph.op_ms.size()) / ph.wall_s,
               "1/s");
    single_node_gate(stream, ph, report);
    return;
  }

  // Both halves sweep the stream from its start, so the traced half
  // repeats the untraced half's problems.
  Phase plain = sweep_phase(stream, opts.seconds / 2, nullptr, report);
  Tracer tracer;
  Phase traced = sweep_phase(stream, opts.seconds / 2, &tracer, report);

  // The first problems' unit payloads executed serially in process, against
  // the traced fleet sweeps of the same problems.
  constexpr std::size_t kProbe = 16;
  std::vector<double> unit_ms, single_s;
  std::vector<Case> cases;
  double busy_s = 0, worker_s = 0;
  for (std::size_t i = 0; i < std::min(kProbe, traced.op_ms.size()); ++i) {
    const Job job = make_job(stream[i]);
    Tracer::Scope span(&tracer, "fleet.single_node [case " +
                                    std::to_string(job.c.index) + "]");
    double serial_s = 0;
    for (const fleet::WorkUnit& u : job.units) {
      const i64 t0 = now_ns();
      (void)fleet::execute_unit(u.payload);
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      unit_ms.push_back(ms);
      serial_s += ms / 1e3;
    }
    single_s.push_back(serial_s);
    busy_s += serial_s;
    worker_s += kWorkers * traced.op_ms[i] / 1e3;
    cases.push_back(job.c);
  }
  const double sweeps = static_cast<double>(traced.op_ms.size());
  report.set("fleet.unit_ms_p50", median(unit_ms), "ms");
  report.set("fleet.single_node_s", median(single_s), "s");
  report.set("fleet.overhead_frac", 1.0 - busy_s / worker_s, "ratio");
  report.set("fleet.unit_polls",
             static_cast<double>(traced.totals.unit_polls) / sweeps, "count");
  report.set("fleet.wasted_frac",
             static_cast<double>(traced.totals.duplicates +
                                 traced.totals.speculated) /
                 static_cast<double>(traced.totals.units),
             "ratio");
  report.set("obs.trace_overhead_frac",
             median(traced.op_ms) / median(plain.op_ms) - 1.0, "ratio");
  exec_sim_probe(cases, &tracer, report);
  write_trace(tracer, opts);
  single_node_gate(stream, traced, report);
}

}  // namespace perfbench
