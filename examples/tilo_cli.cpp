// tilo_cli — the library as a command-line tool: read a loop nest from a
// file (or use the built-in demo), compile it through the staged
// tilo::pipeline (Frontend → Analysis → Tiling → Scheduling → Lowering →
// Backend), and optionally sweep V, draw a Gantt chart, emit the C + MPI
// program, save/replay plans, batch-compile a scenario file, run as /
// talk to the plan-compilation service (--serve / --connect), or shard a
// sweep/scenario over a fault-tolerant worker fleet (--fleet-controller /
// --fleet-worker).
//
// Every flag lives in one table (kFlags) that drives both the argument
// parser and the usage text, so the two cannot drift apart.
//
// Exit codes (asserted by tests/cli_test.cpp, stable for scripting):
//   0  success
//   1  compile/runtime failure (a util::Error past input validation)
//   2  usage error (unknown flag, bad flag value)
//   3  file I/O failure (cannot open an input, cannot write an output)
//   4  malformed input (loop-nest grammar, plan JSON, scenario JSON)
//   5  service failure (cannot connect / bind, non-ok service response)
//   6  unknown machine-model name (--model)
//   7  unreadable or invalid machine-model file (--machine)
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "tilo/core/sweep.hpp"
#include "tilo/fleet/controller.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/fleet/worker.hpp"
#include "tilo/loopnest/parse.hpp"
#include "tilo/machine/calibrate.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/obs/chrome_trace.hpp"
#include "tilo/obs/report.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/pipeline/serialize.hpp"
#include "tilo/svc/client.hpp"
#include "tilo/svc/ring_client.hpp"
#include "tilo/svc/server.hpp"
#include "tilo/trace/gantt.hpp"
#include "tilo/util/csv.hpp"
#include "tilo/workload/workload.hpp"

namespace {

using tilo::util::i64;

enum ExitCode {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
  kExitFileIo = 3,
  kExitBadInput = 4,
  kExitService = 5,
  kExitUnknownModel = 6,
  kExitModelFile = 7,
};

const char* kDemoSource = R"(# built-in demo: the paper's kernel, reduced
FOR i = 0 TO 15
  FOR j = 0 TO 15
    FOR k = 0 TO 4095
      A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
    ENDFOR
  ENDFOR
ENDFOR
)";

struct CliOptions {
  std::string source = kDemoSource;
  std::string source_name = "<built-in demo>";
  std::optional<std::string> procs_text;
  std::optional<i64> height;
  std::optional<i64> auto_procs;
  bool run_overlap = true;
  bool run_nonoverlap = true;
  bool sweep = false;
  bool gantt = false;
  bool emit_c = false;
  bool emit_loop = false;
  bool validate = false;
  std::string trace_path;  ///< empty = no Chrome trace
  bool report = false;
  bool pipeline_log = false;
  std::string save_plan_path;
  std::string load_plan_path;
  std::string scenario_path;
  std::string serve_address;    ///< --serve: run the compilation service
  std::string connect_address;  ///< --connect: compile via a running service
  i64 workers = 4;              ///< --serve worker pool size
  i64 queue = 256;              ///< --serve admission queue capacity
  std::optional<i64> deadline_ms;  ///< --connect per-request deadline
  bool ping = false;            ///< --connect: just round-trip a ping
  bool stop = false;            ///< --connect: ask the server to drain
  std::string store_dir;        ///< --store-dir: serve-side plan store
  double quota_rate = 0;        ///< --quota: per-tenant admissions/second
  double quota_burst = 0;       ///< --quota RATE:BURST bucket capacity
  std::string tenant;           ///< --tenant: client admission identity
  std::vector<std::string> replicas;  ///< --replicas: ring-routed clients
  std::string fleet_acct_dir;   ///< --fleet-acct-dir: usage snapshots
  bool version = false;         ///< print version + envelope versions
  std::string fleet_controller_address;  ///< --fleet-controller
  std::string fleet_worker_address;      ///< --fleet-worker
  bool fleet_sweep = false;     ///< controller job: sweep the height grid
  i64 fleet_local = 0;          ///< in-process workers for the controller
  i64 fleet_batch = 0;          ///< heights per unit; 0 = analytic auto
  i64 fleet_credit = 4;         ///< per-worker credit window
  i64 fleet_heartbeat_ms = 500;
  i64 fleet_miss_threshold = 3;
  i64 fleet_speculate_after_ms = 1000;
  std::string fleet_policy = "fifo";     ///< fifo | fair | backfill
  std::string fleet_tenant = "default";  ///< job array's tenant tag
  i64 fleet_priority = 0;                ///< job array's base priority
  std::string fleet_queue_address;       ///< --fleet-queue: squeue-style
  std::string fleet_acct_address;        ///< --fleet-accounting: sacct-style
  std::string machine_path;     ///< --machine: load a machine-model file
  std::string model_name;       ///< --model: registry name (mach::make_model)
  std::string calibrate_path;   ///< --calibrate: write the fitted model here
  bool list_models = false;     ///< print the machine-model registry
  bool list_workloads = false;  ///< print the workload-kind registry
};

bool to_i64(const std::string& text, i64& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(text, &pos);
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool to_double(const std::string& text, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(text, &pos);
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// "a,b,c" -> {"a", "b", "c"}; empty items are rejected (returns {}).
std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (item.empty()) return {};
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// One CLI flag: the table drives the parser AND the usage text, so a flag
/// cannot exist without being documented (and vice versa).
struct Flag {
  const char* name;     ///< "--procs"
  const char* metavar;  ///< value placeholder; nullptr = boolean flag
  const char* help;
  bool (*apply)(CliOptions& cli, const std::string& value);
};

constexpr Flag kFlags[] = {
    {"--procs", "P0xP1x..",
     "processor grid (default: 4 per cross dimension)",
     [](CliOptions& c, const std::string& v) {
       c.procs_text = v;
       return !v.empty();
     }},
    {"--auto", "N", "let the planner pick the grid for N processors",
     [](CliOptions& c, const std::string& v) {
       i64 n = 0;
       if (!to_i64(v, n)) return false;
       c.auto_procs = n;
       return true;
     }},
    {"--height", "V", "tile height (default: analytic optimum)",
     [](CliOptions& c, const std::string& v) {
       i64 n = 0;
       if (!to_i64(v, n)) return false;
       c.height = n;
       return true;
     }},
    {"--schedule", "S", "overlap | nonoverlap | both (default: both)",
     [](CliOptions& c, const std::string& v) {
       c.run_overlap = v == "overlap" || v == "both";
       c.run_nonoverlap = v == "nonoverlap" || v == "both";
       return c.run_overlap || c.run_nonoverlap;
     }},
    {"--sweep", nullptr, "sweep tile heights and print the table",
     [](CliOptions& c, const std::string&) {
       c.sweep = true;
       return true;
     }},
    {"--gantt", nullptr, "render the phase timeline",
     [](CliOptions& c, const std::string&) {
       c.gantt = true;
       return true;
     }},
    {"--emit-c", nullptr, "print the generated MPI program",
     [](CliOptions& c, const std::string&) {
       c.emit_c = true;
       return true;
     }},
    {"--emit-loop", nullptr,
     "print the nest serialized back to grammar form",
     [](CliOptions& c, const std::string&) {
       c.emit_loop = true;
       return true;
     }},
    {"--validate", nullptr, "functional run vs sequential reference",
     [](CliOptions& c, const std::string&) {
       c.validate = true;
       return true;
     }},
    {"--trace", "FILE",
     "write a Chrome-trace JSON of the run(s); load it at "
     "https://ui.perfetto.dev or chrome://tracing",
     [](CliOptions& c, const std::string& v) {
       c.trace_path = v;
       return !v.empty();
     }},
    {"--report", nullptr, "print the paper's per-rank A/B phase report",
     [](CliOptions& c, const std::string&) {
       c.report = true;
       return true;
     }},
    {"--pipeline", nullptr,
     "print each compiler stage's artifact (the stage log)",
     [](CliOptions& c, const std::string&) {
       c.pipeline_log = true;
       return true;
     }},
    {"--save-plan", "FILE",
     "write the compiled plan (nest + machine model + tiling) as JSON; "
     "with --schedule both, saves the overlapping plan",
     [](CliOptions& c, const std::string& v) {
       c.save_plan_path = v;
       return !v.empty();
     }},
    {"--load-plan", "FILE",
     "replay a plan saved with --save-plan instead of compiling",
     [](CliOptions& c, const std::string& v) {
       c.load_plan_path = v;
       return !v.empty();
     }},
    {"--scenario", "FILE",
     "compile every workload of a scenario file in one pipeline invocation",
     [](CliOptions& c, const std::string& v) {
       c.scenario_path = v;
       return !v.empty();
     }},
    {"--serve", "ADDR",
     "run the plan-compilation service on ADDR (unix:PATH or tcp:PORT) "
     "until SIGTERM/SIGINT, then drain gracefully",
     [](CliOptions& c, const std::string& v) {
       c.serve_address = v;
       return !v.empty();
     }},
    {"--workers", "N", "service worker pool size (with --serve; default 4)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.workers) && c.workers >= 1;
     }},
    {"--queue", "N",
     "service admission queue capacity (with --serve; default 256)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.queue) && c.queue >= 1;
     }},
    {"--store-dir", "DIR",
     "persist compiled results in a content-addressed plan store at DIR "
     "(with --serve); a restarted server rehydrates from it instead of "
     "cold-starting",
     [](CliOptions& c, const std::string& v) {
       c.store_dir = v;
       return !v.empty();
     }},
    {"--quota", "RATE[:BURST]",
     "per-tenant admission quota (with --serve): RATE compiles/second, "
     "bucket capacity BURST (default RATE); over-quota requests answer "
     "quota_exceeded",
     [](CliOptions& c, const std::string& v) {
       const std::size_t colon = v.find(':');
       const std::string rate_text = v.substr(0, colon);
       if (!to_double(rate_text, c.quota_rate) || c.quota_rate <= 0)
         return false;
       if (colon == std::string::npos) return true;
       return to_double(v.substr(colon + 1), c.quota_burst) &&
              c.quota_burst > 0;
     }},
    {"--connect", "ADDR",
     "compile via a running service instead of in-process",
     [](CliOptions& c, const std::string& v) {
       c.connect_address = v;
       return !v.empty();
     }},
    {"--replicas", "ADDR,ADDR,...",
     "route compiles across a replicated svc tier by consistent hashing "
     "on the problem key, failing over along the ring (replaces "
     "--connect's single address)",
     [](CliOptions& c, const std::string& v) {
       c.replicas = split_csv(v);
       return !c.replicas.empty();
     }},
    {"--tenant", "NAME",
     "admission-control identity sent with compiles (with --connect / "
     "--replicas; default \"default\")",
     [](CliOptions& c, const std::string& v) {
       c.tenant = v;
       return !v.empty();
     }},
    {"--deadline", "MS",
     "per-request deadline in milliseconds (with --connect)",
     [](CliOptions& c, const std::string& v) {
       i64 n = 0;
       if (!to_i64(v, n) || n <= 0) return false;
       c.deadline_ms = n;
       return true;
     }},
    {"--ping", nullptr, "round-trip a ping (with --connect)",
     [](CliOptions& c, const std::string&) {
       c.ping = true;
       return true;
     }},
    {"--stop", nullptr,
     "ask the server to drain and shut down (with --connect)",
     [](CliOptions& c, const std::string&) {
       c.stop = true;
       return true;
     }},
    {"--fleet-controller", "ADDR",
     "orchestrate a worker fleet on ADDR; give it a job with --fleet-sweep "
     "or --scenario FILE",
     [](CliOptions& c, const std::string& v) {
       c.fleet_controller_address = v;
       return !v.empty();
     }},
    {"--fleet-worker", "ADDR[,ADDR...]",
     "join the fleet at ADDR and pull work units until the run is done; a "
     "comma list names a replicated controller tier resolved through the "
     "same consistent-hash ring svc clients route by",
     [](CliOptions& c, const std::string& v) {
       c.fleet_worker_address = v;
       return !v.empty() && !split_csv(v).empty();
     }},
    {"--fleet-sweep", nullptr,
     "controller job: shard the tile-height sweep (same grid as --sweep)",
     [](CliOptions& c, const std::string&) {
       c.fleet_sweep = true;
       return true;
     }},
    {"--fleet-local", "N",
     "also run N in-process workers (with --fleet-controller); they use "
     "the in-process fast lane, no sockets",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_local) && c.fleet_local >= 0;
     }},
    {"--fleet-batch", "N",
     "sweep heights per work unit: 1 = one unit per height, N>1 = chunks "
     "of up to N, 0 = analytic cost-balanced chunks (default)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_batch) && c.fleet_batch >= 0;
     }},
    {"--fleet-credit", "N",
     "per-worker credit window: max units on lease to one worker "
     "(with --fleet-controller; default 4)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_credit) && c.fleet_credit >= 1;
     }},
    {"--fleet-heartbeat", "MS",
     "worker heartbeat interval the controller advertises (default 500)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_heartbeat_ms) && c.fleet_heartbeat_ms >= 1;
     }},
    {"--fleet-miss-threshold", "N",
     "evict a worker after N silent heartbeat intervals (default 3)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_miss_threshold) && c.fleet_miss_threshold >= 1;
     }},
    {"--fleet-speculate-after", "MS",
     "lease age before a unit is re-dispatched speculatively; 0 disables "
     "speculation (default 1000)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_speculate_after_ms) &&
              c.fleet_speculate_after_ms >= 0;
     }},
    {"--fleet-policy", "NAME",
     "dispatch policy: fifo (submit order; default), fair (priority + "
     "fair-share, head-of-line reservation), backfill (fair + cost-fit "
     "out-of-order grants)",
     [](CliOptions& c, const std::string& v) {
       for (const std::string& n : tilo::sched::policy_names())
         if (v == n) {
           c.fleet_policy = v;
           return true;
         }
       return false;
     }},
    {"--fleet-tenant", "NAME",
     "tenant the controller's job array is accounted to (default "
     "\"default\")",
     [](CliOptions& c, const std::string& v) {
       c.fleet_tenant = v;
       return !v.empty();
     }},
    {"--fleet-priority", "N",
     "base priority of the controller's job array (higher runs first)",
     [](CliOptions& c, const std::string& v) {
       return to_i64(v, c.fleet_priority);
     }},
    {"--fleet-queue", "ADDR",
     "print a running controller's squeue-style job/partition table",
     [](CliOptions& c, const std::string& v) {
       c.fleet_queue_address = v;
       return !v.empty();
     }},
    {"--fleet-accounting", "ADDR",
     "print a running controller's sacct-style per-tenant fair-share "
     "accounting",
     [](CliOptions& c, const std::string& v) {
       c.fleet_acct_address = v;
       return !v.empty();
     }},
    {"--fleet-acct-dir", "DIR",
     "persist fair-share usage snapshots at DIR (with --fleet-controller); "
     "a restarted controller restores tenant standing instead of "
     "resetting it",
     [](CliOptions& c, const std::string& v) {
       c.fleet_acct_dir = v;
       return !v.empty();
     }},
    {"--machine", "FILE",
     "load the machine model from FILE (a machine_model envelope written "
     "by --calibrate, or bare machine-parameter JSON); not with --serve "
     "or --connect",
     [](CliOptions& c, const std::string& v) {
       c.machine_path = v;
       return !v.empty();
     }},
    {"--model", "NAME",
     "compile under a named machine model (ideal, interference, hetero, "
     "offload-none/-dma/-duplex/-rdma); with --connect, asks the server "
     "to build it over its own machine (not with --serve)",
     [](CliOptions& c, const std::string& v) {
       c.model_name = v;
       return !v.empty();
     }},
    {"--calibrate", "FILE",
     "probe the resolved machine model, fit the interference knobs "
     "(beta, Mcrit), print residuals, and write the loadable model to FILE",
     [](CliOptions& c, const std::string& v) {
       c.calibrate_path = v;
       return !v.empty();
     }},
    {"--list-models", nullptr,
     "print every machine-model registry name (--model accepts these)",
     [](CliOptions& c, const std::string&) {
       c.list_models = true;
       return true;
     }},
    {"--list-workloads", nullptr,
     "print every workload kind a scenario/service \"kind\" field accepts",
     [](CliOptions& c, const std::string&) {
       c.list_workloads = true;
       return true;
     }},
    {"--version", nullptr,
     "print the binary version and every wire/serialization envelope "
     "version",
     [](CliOptions& c, const std::string&) {
       c.version = true;
       return true;
     }},
};

/// Usage text regenerated from kFlags — always in sync with the parser.
int usage(const char* argv0) {
  std::ostringstream line;
  line << "usage: " << argv0 << " [nest.loop]";
  for (const Flag& f : kFlags) {
    line << " [" << f.name;
    if (f.metavar) line << ' ' << f.metavar;
    line << ']';
  }
  std::cerr << line.str() << "\n\noptions:\n";
  for (const Flag& f : kFlags) {
    std::string head = "  ";
    head += f.name;
    if (f.metavar) {
      head += ' ';
      head += f.metavar;
    }
    if (head.size() < 22) head.resize(22, ' ');
    std::cerr << head << ' ' << f.help << '\n';
  }
  return 2;
}

bool parse_procs(const std::string& text, std::size_t dims,
                 tilo::lat::Vec& out) {
  out = tilo::lat::Vec(dims, 1);
  std::stringstream ss(text);
  std::string part;
  std::size_t d = 0;
  while (std::getline(ss, part, 'x')) {
    if (d >= dims) return false;
    try {
      out[d++] = std::stoll(part);
    } catch (const std::exception&) {
      return false;
    }
  }
  return d == dims;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// Resolves --machine / --model into one mach::Model, starting from the
/// ideal paper cluster: the file (when given) supplies the machine scalars
/// and possibly a full model, then the registry name (when given) re-wraps
/// those scalars.  Never leaves `model` null.
int resolve_model(const CliOptions& cli,
                  std::shared_ptr<const tilo::mach::Model>& model) {
  using namespace tilo;
  model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  if (!cli.machine_path.empty()) {
    const auto text = read_file(cli.machine_path);
    if (!text) {
      std::cerr << "error: cannot open machine file " << cli.machine_path
                << '\n';
      return kExitModelFile;
    }
    try {
      model = pipeline::model_from_json(pipeline::Json::parse(*text));
    } catch (const util::Error& e) {
      std::cerr << "error: invalid machine file " << cli.machine_path
                << ": " << e.what()
                << "\n(expected a machine_model envelope written by "
                   "--calibrate, or bare machine-parameter JSON)\n";
      return kExitModelFile;
    }
  }
  if (!cli.model_name.empty()) {
    std::shared_ptr<const mach::Model> named =
        mach::make_model(cli.model_name, model->params());
    if (!named) {
      std::string names;
      for (const std::string& n : mach::model_names()) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      std::cerr << "error: unknown machine model \"" << cli.model_name
                << "\" (known: " << names << ")\n";
      return kExitUnknownModel;
    }
    model = std::move(named);
  }
  return kExitOk;
}

/// Calibration mode: --calibrate FILE.  Runs the in-process probe suite
/// (the paper's Section 5 measurement program) against the resolved model,
/// prints the fitted interference knobs with their residuals, and writes
/// the loadable machine_model JSON — round-trippable through --machine.
int run_calibrate(const CliOptions& cli,
                  std::shared_ptr<const tilo::mach::Model> model) {
  using namespace tilo;
  const mach::CalibrationReport report =
      mach::calibrate_interference(*model);
  std::cout << "calibrated against \"" << model->kind() << "\" reference:\n"
            << "  beta_kernel   " << report.interference.beta_kernel << '\n'
            << "  beta_wire     " << report.interference.beta_wire << '\n'
            << "  mcrit         " << report.interference.mcrit
            << " byte(s)\n"
            << "  factor_below  " << report.interference.factor_below << '\n'
            << "  residuals     fill_mpi " << report.fill_mpi_residual
            << ", fill_kernel " << report.fill_kernel_residual << ", beta "
            << report.beta_residual << '\n';
  std::ofstream out(cli.calibrate_path);
  if (!out) {
    std::cerr << "error: cannot open " << cli.calibrate_path
              << " for writing\n";
    return kExitFileIo;
  }
  out << pipeline::model_to_json(*report.model()).dump() << '\n';
  std::cout << "model written to " << cli.calibrate_path
            << " (load it with --machine " << cli.calibrate_path << ")\n";
  return kExitOk;
}

/// The per-run observer bundle (Gantt timeline, Chrome trace, phase
/// report) fanned into one sink.
struct Observers {
  tilo::trace::Timeline timeline;
  tilo::obs::ChromeTraceSink chrome;
  tilo::obs::ReportSink report;
  tilo::obs::MultiSink fan;

  tilo::obs::Sink* attach(const CliOptions& cli) {
    if (cli.gantt) fan.add(&timeline);
    if (!cli.trace_path.empty()) fan.add(&chrome);
    if (cli.report) fan.add(&report);
    return cli.gantt || !cli.trace_path.empty() || cli.report ? &fan
                                                              : nullptr;
  }
};

/// Prints the paper-style completion line for one simulated schedule.
void print_schedule_line(tilo::sched::ScheduleKind kind, double seconds,
                         const tilo::exec::TilePlan& plan,
                         double predicted) {
  std::cout << (kind == tilo::sched::ScheduleKind::kOverlap
                    ? "overlapping:     "
                    : "non-overlapping: ")
            << tilo::util::fmt_seconds(seconds) << "  (P(g) = "
            << plan.schedule_length() << ", predicted "
            << tilo::util::fmt_seconds(predicted) << ")\n";
}

/// Post-run output shared by compile and replay modes: validation, Gantt,
/// report, Chrome trace.  Returns false on I/O failure.
bool finish_run(const CliOptions& cli, const tilo::loop::LoopNest& nest,
                const tilo::exec::TilePlan& plan,
                const std::shared_ptr<const tilo::mach::Model>& model,
                Observers& obs, const std::string& trace_path) {
  using namespace tilo;
  if (cli.validate) {
    const double err = exec::run_and_validate(nest, plan, model);
    std::cout << "  validation vs sequential: max |err| = " << err << '\n';
  }
  if (cli.gantt) {
    trace::GanttOptions gopts;
    gopts.width = 100;
    trace::render_gantt(std::cout, obs.timeline, gopts);
  }
  if (cli.report) obs.report.report().write_table(std::cout);
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return false;
    }
    obs.chrome.write(out);
    std::cout << "  trace written to " << trace_path
              << " (load at https://ui.perfetto.dev)\n";
  }
  return true;
}

/// Replay mode: --load-plan FILE.  Re-verifies the loaded plan through the
/// pipeline's Scheduling/Lowering checks, then simulates it — bit-identical
/// to the run that saved it.
int run_load_plan(const CliOptions& cli) {
  using namespace tilo;
  const auto text = read_file(cli.load_plan_path);
  if (!text) {
    std::cerr << "error: cannot open plan file " << cli.load_plan_path
              << '\n';
    return kExitFileIo;
  }
  std::optional<pipeline::PlanBundle> bundle;
  try {
    bundle = pipeline::plan_from_json(pipeline::Json::parse(*text));
  } catch (const util::Error& e) {
    std::cerr << "error: invalid plan file " << cli.load_plan_path << ": "
              << e.what() << "\n(expected JSON written by --save-plan)\n";
    return kExitBadInput;
  }
  const loop::LoopNest& nest = bundle->nest;
  std::cout << "nest '" << nest.name() << "' from " << cli.load_plan_path
            << ": domain " << nest.domain() << ", deps "
            << nest.deps().str() << '\n';
  std::cout << "processor grid " << bundle->plan.mapping.procs().str()
            << ", mapping dimension " << bundle->plan.mapped_dim << "\n\n";
  std::cout << "tile height V = "
            << bundle->plan.space.tiling().side(bundle->plan.mapped_dim)
            << " (from plan file)\n\n";

  Observers obs;
  pipeline::CompileOptions ropts;
  ropts.sink = obs.attach(cli);
  const pipeline::Compiler compiler(ropts);
  const pipeline::ArtifactStore out =
      compiler.replay(nest, bundle->model, bundle->plan);
  const exec::TilePlan& plan = *out.plan().plan;
  print_schedule_line(plan.kind, out.backend().run->seconds, plan,
                      out.plan().predicted_seconds);
  if (cli.pipeline_log) pipeline::write_stage_log(std::cout, out);
  if (!finish_run(cli, nest, plan, bundle->model, obs, cli.trace_path))
    return kExitFileIo;
  return kExitOk;
}

/// Batch mode: --scenario FILE.  One Compiler invocation compiles every
/// workload; per-stage spans land on the workload's trace lane.  A
/// scenario file's own machine, as a "machine_model" envelope or a bare
/// "machine", wins over the --machine/--model flags (the file is the more
/// specific request).  With --report each workload gets its own A/B phase
/// table (DAG workloads print the ALAP lower bound next to the achieved
/// makespan there).
int run_scenario(const CliOptions& cli,
                 std::shared_ptr<const tilo::mach::Model> model) {
  using namespace tilo;
  const auto text = read_file(cli.scenario_path);
  if (!text) {
    std::cerr << "error: cannot open scenario file " << cli.scenario_path
              << '\n';
    return kExitFileIo;
  }
  std::optional<pipeline::ScenarioFile> scenario;
  try {
    scenario = pipeline::parse_scenario(*text);
  } catch (const util::Error& e) {
    std::cerr << "error: invalid scenario file " << cli.scenario_path << ": "
              << e.what()
              << "\n(expected {\"tilo\": \"scenario\", \"version\": 1, "
                 "\"workloads\": [...]})\n";
    return kExitBadInput;
  }

  obs::ChromeTraceSink chrome;
  obs::ReportSink report;
  obs::MultiSink fan;
  if (!cli.trace_path.empty()) fan.add(&chrome);
  if (cli.report) fan.add(&report);
  pipeline::CompileOptions sopts;
  sopts.model = std::move(model);
  sopts.height = cli.height;
  sopts.auto_procs = cli.auto_procs;
  if (!cli.run_overlap) sopts.kind = sched::ScheduleKind::kNonOverlap;
  if (!cli.trace_path.empty() || cli.report) sopts.sink = &fan;

  const pipeline::Compiler compiler(sopts);
  std::vector<pipeline::ArtifactStore> stores;
  std::vector<obs::RunReport> reports;
  if (cli.report) {
    // ReportSink aggregates every span it sees, so a per-workload phase
    // table needs a reset between runs: compile one workload at a time
    // through the same compiler (the flags' model still applies
    // batch-wide).
    stores.reserve(scenario->workloads.size());
    for (const pipeline::ScenarioWorkload& wl : scenario->workloads) {
      pipeline::ScenarioFile one;
      one.model = scenario->model;
      one.workloads.push_back(wl);
      report.reset();
      std::vector<pipeline::ArtifactStore> sub = compiler.compile(one);
      reports.push_back(report.report());
      stores.push_back(std::move(sub.front()));
    }
  } else {
    stores = compiler.compile(*scenario);
  }
  std::cout << "scenario " << cli.scenario_path << ": " << stores.size()
            << " workload(s) compiled in one pipeline invocation\n\n";
  for (std::size_t i = 0; i < stores.size(); ++i) {
    const pipeline::ArtifactStore& store = stores[i];
    std::cout << "[" << store.source().name << "]\n";
    pipeline::write_stage_log(std::cout, store);
    if (cli.report) reports[i].write_table(std::cout);
    std::cout << '\n';
  }
  if (!cli.trace_path.empty()) {
    std::ofstream out(cli.trace_path);
    if (!out) {
      std::cerr << "error: cannot open " << cli.trace_path
                << " for writing\n";
      return kExitFileIo;
    }
    chrome.write(out);
    std::cout << "trace written to " << cli.trace_path
              << " (load at https://ui.perfetto.dev)\n";
  }
  return kExitOk;
}

/// Service mode: --serve ADDR.  Runs the plan-compilation daemon until
/// SIGTERM/SIGINT (or a client's --stop), drains gracefully — every
/// admitted request is answered — and prints the shutdown summary.
int run_serve(const CliOptions& cli) {
  using namespace tilo;
  svc::ServerConfig config;
  config.address = cli.serve_address;
  config.workers = static_cast<int>(cli.workers);
  config.queue_capacity = static_cast<std::size_t>(cli.queue);
  config.store_dir = cli.store_dir;
  config.quota.rate = cli.quota_rate;
  config.quota.burst = cli.quota_burst;
  // --trace records every request as a host span (one lane per worker);
  // batched requests show up as one svc.compile span answered to many.
  obs::ChromeTraceSink chrome;
  if (!cli.trace_path.empty()) config.sink = &chrome;
  svc::Server server(config);
  try {
    server.start();
  } catch (const util::Error& e) {
    std::cerr << "error: cannot serve on " << cli.serve_address << ": "
              << e.what() << '\n';
    return kExitService;
  }
  svc::SignalDrain signals;
  std::cout << "tilo svc listening on " << server.address().str() << " ("
            << cli.workers << " worker(s), queue " << cli.queue << ")\n"
            << "stop with SIGTERM / Ctrl-C, or `tilo_cli --connect "
            << server.address().str() << " --stop`\n";
  if (const store::PlanStore* st = server.plan_store(); st->persistent()) {
    std::cout << "plan store at " << cli.store_dir << ": "
              << st->rehydrated() << " record(s) rehydrated, "
              << st->size() << " plan(s) warm\n";
    // A torn or corrupt tail is survivable but worth an operator's glance.
    if (!st->replay_warning().empty())
      std::cerr << "warning: " << st->replay_warning() << '\n';
  }
  if (cli.quota_rate > 0)
    std::cout << "admission quota: " << cli.quota_rate
              << " compile(s)/s per unit share (burst "
              << (cli.quota_burst > 0 ? cli.quota_burst : cli.quota_rate)
              << ")\n";
  std::cout.flush();
  std::cerr.flush();
  server.run_until(signals.fd());
  server.write_summary(std::cout);
  if (!cli.trace_path.empty()) {
    std::ofstream out(cli.trace_path);
    if (!out) {
      std::cerr << "error: cannot open " << cli.trace_path
                << " for writing\n";
      return kExitFileIo;
    }
    chrome.write(out);
    std::cout << "trace written to " << cli.trace_path
              << " (load at https://ui.perfetto.dev)\n";
  }
  return kExitOk;
}

/// Prints the remote completion line in the same format as the local one.
void print_remote_schedule_line(const tilo::pipeline::Json& result) {
  using namespace tilo;
  const bool overlap =
      result.at("schedule").as_string("schedule") == "overlap";
  std::cout << (overlap ? "overlapping:     " : "non-overlapping: ")
            << util::fmt_seconds(
                   result.at("simulated_seconds").as_number("simulated"))
            << "  (P(g) = "
            << result.at("schedule_length").as_integer("schedule_length")
            << ", predicted "
            << util::fmt_seconds(
                   result.at("predicted_seconds").as_number("predicted"))
            << ")\n";
}

/// Client mode: --connect ADDR [--ping | --stop | compile flags].  Sends
/// the nest source to a running service and prints the same schedule lines
/// as a local compile.
/// The health lines under a pong from a compile server: queue pressure
/// (depth now, high-water mark, capacity), plan-store rehydration and
/// hit/miss counts, and quota denials.  A fleet controller's stats carry
/// none of these, so its pong gets no health lines.
void print_ping_health(tilo::svc::Client& client) {
  using namespace tilo;
  const svc::Response st = client.stats();
  if (st.status != svc::RespStatus::kOk || st.result.empty()) return;
  const pipeline::Json s = pipeline::Json::parse(st.result);
  if (!s.find("queue_depth")) return;
  std::cout << "  queue       depth "
            << s.at("queue_depth").as_integer("queue_depth") << " now, peak "
            << s.at("max_queue_depth").as_integer("max_queue_depth")
            << " of " << s.at("queue_capacity").as_integer("queue_capacity")
            << '\n'
            << "  plan store  "
            << s.at("store_hits").as_integer("store_hits") << " hit(s) / "
            << s.at("store_misses").as_integer("store_misses")
            << " miss(es), "
            << s.at("store_puts").as_integer("store_puts") << " put(s), "
            << s.at("store_rehydrated").as_integer("store_rehydrated")
            << " rehydrated\n";
  const i64 denied = s.at("quota_denied").as_integer("quota_denied");
  if (denied > 0)
    std::cout << "  quota       " << denied << " request(s) denied\n";
}

int run_connect(const CliOptions& cli) {
  using namespace tilo;
  // --replicas: the single address becomes a ring-routed replica set.
  // Pings and stops fan out to every replica; compiles route by problem
  // key with failover (svc::RingClient).
  if (!cli.replicas.empty() && (cli.ping || cli.stop)) {
    int rc = kExitOk;
    for (const std::string& addr : cli.replicas) {
      try {
        svc::Client c = svc::Client::connect(addr);
        if (cli.stop) {
          const svc::Response r = c.shutdown_server();
          if (r.status != svc::RespStatus::kOk) {
            std::cerr << "error: " << addr << " answered "
                      << svc::status_name(r.status) << ": " << r.error
                      << '\n';
            rc = kExitService;
            continue;
          }
          std::cout << "replica " << addr << " is draining\n";
        } else {
          const svc::Response r = c.ping();
          if (r.status != svc::RespStatus::kOk) {
            std::cerr << "error: " << addr << " answered "
                      << svc::status_name(r.status) << ": " << r.error
                      << '\n';
            rc = kExitService;
            continue;
          }
          std::cout << "pong from " << addr << '\n';
          print_ping_health(c);
        }
      } catch (const util::Error& e) {
        std::cerr << "error: replica " << addr << " unreachable: "
                  << e.what() << '\n';
        rc = kExitService;
      }
    }
    return rc;
  }

  std::optional<svc::Client> client;
  if (cli.replicas.empty()) {
    try {
      client = svc::Client::connect(cli.connect_address);
    } catch (const util::Error& e) {
      std::cerr << "error: cannot connect to " << cli.connect_address << ": "
                << e.what() << "\n(is a server running? start one with "
                << "`tilo_cli --serve " << cli.connect_address << "`)\n";
      return kExitService;
    }
  }
  if (cli.ping) {
    const svc::Response r = client->ping();
    if (r.status != svc::RespStatus::kOk) {
      std::cerr << "error: ping answered " << svc::status_name(r.status)
                << ": " << r.error << '\n';
      return kExitService;
    }
    std::cout << "pong from " << client->address().str() << '\n';
    print_ping_health(*client);
    return kExitOk;
  }
  if (cli.stop) {
    const svc::Response r = client->shutdown_server();
    if (r.status != svc::RespStatus::kOk) {
      std::cerr << "error: shutdown answered " << svc::status_name(r.status)
                << ": " << r.error << '\n';
      return kExitService;
    }
    std::cout << "server at " << client->address().str()
              << " is draining\n";
    return kExitOk;
  }

  // Compile remotely.  The nest is parsed locally once, so bad grammar
  // fails fast (exit 4) and the default grid can mirror local mode's
  // "4 per cross dimension" rule.
  std::optional<loop::LoopNest> nest;
  try {
    nest = pipeline::run_frontend({cli.source_name, cli.source});
  } catch (const util::Error& e) {
    std::cerr << "error: invalid loop nest " << cli.source_name << ": "
              << e.what() << '\n';
    return kExitBadInput;
  }
  svc::CompileParams base;
  base.name = nest->name();
  base.source = cli.source;
  base.height = cli.height;
  base.auto_procs = cli.auto_procs;
  base.simulate = true;
  // --model travels by registry name; the server builds it over its own
  // machine.  (--machine is rejected in this mode: the wire carries names.)
  base.model = cli.model_name;
  if (!cli.auto_procs) {
    if (cli.procs_text) {
      lat::Vec procs;
      if (!parse_procs(*cli.procs_text, nest->dims(), procs))
        return kExitUsage;
      base.procs = std::move(procs);
    } else {
      const mach::MachineParams machine =
          mach::MachineParams::paper_cluster();
      const std::size_t md =
          core::Problem{*nest, machine, lat::Vec(nest->dims(), 1), nullptr}
              .mapped_dim();
      lat::Vec procs(nest->dims(), 4);
      procs[md] = 1;
      base.procs = std::move(procs);
    }
  }

  std::optional<svc::RingClient> ring;
  if (!cli.replicas.empty()) ring.emplace(cli.replicas);

  bool printed_header = false;
  for (auto kind : {sched::ScheduleKind::kNonOverlap,
                    sched::ScheduleKind::kOverlap}) {
    if (kind == sched::ScheduleKind::kOverlap && !cli.run_overlap) continue;
    if (kind == sched::ScheduleKind::kNonOverlap && !cli.run_nonoverlap)
      continue;
    svc::CompileParams params = base;
    params.kind = kind;
    svc::Response resp;
    std::string served_by;
    try {
      if (ring) {
        served_by = cli.replicas[ring->route(params)];
        resp = ring->compile(std::move(params), cli.deadline_ms, cli.tenant);
      } else {
        served_by = client->address().str();
        svc::Request req;
        req.op = svc::Op::kCompile;
        req.deadline_ms = cli.deadline_ms;
        req.tenant = cli.tenant;
        req.compile = std::move(params);
        resp = client->call_with_retry(std::move(req));
      }
    } catch (const util::Error& e) {
      std::cerr << "error: " << e.what() << '\n';
      return kExitService;
    }
    if (resp.status != svc::RespStatus::kOk) {
      std::cerr << "error: server answered "
                << svc::status_name(resp.status)
                << (resp.error.empty() ? "" : ": " + resp.error) << '\n';
      return kExitService;
    }
    const pipeline::Json result = pipeline::Json::parse(resp.result);
    if (!printed_header) {
      printed_header = true;
      std::cout << "nest '" << nest->name() << "' compiled by "
                << served_by << '\n';
      const pipeline::Json::Array& procs =
          result.at("procs").as_array("procs");
      std::cout << "processor grid (";
      for (std::size_t d = 0; d < procs.size(); ++d)
        std::cout << (d ? ", " : "") << procs[d].as_integer("procs");
      std::cout << "), mapping dimension "
                << result.at("mapped_dim").as_integer("mapped_dim")
                << "\n\ntile height V = "
                << result.at("V").as_integer("V") << "\n\n";
    }
    print_remote_schedule_line(result);
  }
  return kExitOk;
}

#ifndef TILO_VERSION
#define TILO_VERSION "0.0.0"
#endif

/// --version: the binary version plus every versioned envelope this build
/// speaks, so a fleet operator can check wire compatibility at a glance.
int print_version() {
  std::cout << "tilo_cli " << TILO_VERSION << '\n'
            << "  svc wire protocol     v" << tilo::svc::kProtocolVersion
            << '\n'
            << "  plan/scenario schema  v" << tilo::pipeline::kSchemaVersion
            << '\n'
            << "  fleet unit/result     v" << tilo::fleet::kFleetVersion
            << '\n';
  return kExitOk;
}

/// Fleet worker mode: --fleet-worker ADDR.  Pulls units until the
/// controller reports the run complete.
int run_fleet_worker(const CliOptions& cli) {
  using namespace tilo;
  fleet::WorkerConfig wc;
  const std::vector<std::string> addrs = split_csv(cli.fleet_worker_address);
  if (addrs.size() > 1)
    wc.addresses = addrs;  // replicated tier: resolve through the ring
  else
    wc.address = cli.fleet_worker_address;
  wc.name = "cli-worker";
  try {
    fleet::Worker worker(std::move(wc));
    const fleet::WorkerSummary s = worker.run();
    std::cout << "fleet worker done: " << s.completed
              << " unit(s) computed over " << s.registrations
              << " registration(s)"
              << (s.clean ? "" : " (controller became unreachable)") << '\n';
    return s.clean ? kExitOk : kExitService;
  } catch (const util::Error& e) {
    std::cerr << "error: cannot join fleet at " << cli.fleet_worker_address
              << ": " << e.what()
              << "\n(start a controller with `tilo_cli --fleet-controller "
              << cli.fleet_worker_address << " --fleet-sweep`)\n";
    return kExitService;
  }
}

/// Fleet controller mode: --fleet-controller ADDR plus a job
/// (--fleet-sweep or --scenario FILE).  Decomposes the job into units,
/// serves them to registered workers (plus --fleet-local in-process ones),
/// and prints the merged result — byte-identical to the single-node run —
/// followed by the fleet report.
int run_fleet_controller(const CliOptions& cli,
                         std::shared_ptr<const tilo::mach::Model> model) {
  using namespace tilo;
  std::vector<fleet::WorkUnit> units;
  std::vector<double> unit_costs;  ///< analytic ns estimates (sweep only)
  std::vector<std::string> names;  ///< scenario workload names, by unit
  bool sweep_job = false;
  if (!cli.scenario_path.empty()) {
    const auto text = read_file(cli.scenario_path);
    if (!text) {
      std::cerr << "error: cannot open scenario file " << cli.scenario_path
                << '\n';
      return kExitFileIo;
    }
    std::optional<pipeline::ScenarioFile> scenario;
    try {
      scenario = pipeline::parse_scenario(*text);
    } catch (const util::Error& e) {
      std::cerr << "error: invalid scenario file " << cli.scenario_path
                << ": " << e.what() << '\n';
      return kExitBadInput;
    }
    for (const pipeline::ScenarioWorkload& wl : scenario->workloads)
      names.push_back(wl.name);
    // The flags' model rides into every unit unless the scenario file
    // names its own machine, in either form (the more specific request
    // wins, as in --scenario).
    if (!scenario->model) scenario->model = model;
    units = fleet::scenario_units(*scenario);
  } else if (cli.fleet_sweep) {
    sweep_job = true;
    std::optional<loop::LoopNest> nest_opt;
    try {
      nest_opt = pipeline::run_frontend({cli.source_name, cli.source});
    } catch (const util::Error& e) {
      std::cerr << "error: invalid loop nest " << cli.source_name << ": "
                << e.what() << '\n';
      return kExitBadInput;
    }
    // Resolve the grid exactly like local mode, so the fleet sweeps the
    // same problem --sweep would (and the outputs can be compared).
    pipeline::CompileOptions popts;
    popts.model = model;
    popts.height = cli.height;
    popts.simulate = false;
    if (cli.auto_procs) {
      popts.auto_procs = cli.auto_procs;
    } else if (cli.procs_text) {
      lat::Vec procs;
      if (!parse_procs(*cli.procs_text, nest_opt->dims(), procs))
        return kExitUsage;
      popts.procs = std::move(procs);
    } else {
      const std::size_t md =
          core::Problem{*nest_opt, model->params(),
                        lat::Vec(nest_opt->dims(), 1), nullptr}
              .mapped_dim();
      lat::Vec procs(nest_opt->dims(), 4);
      procs[md] = 1;
      popts.procs = std::move(procs);
    }
    const pipeline::ArtifactStore planned =
        pipeline::Compiler(popts).compile_nest(*nest_opt);
    const core::Problem& problem = planned.analysis().problem;
    const std::vector<i64> grid =
        core::height_grid(4, problem.max_tile_height() / 2, 1.6);
    if (cli.fleet_batch == 1) {
      units = fleet::sweep_units(problem, grid);
    } else {
      // 0 = analytic cost-balanced chunks; N>1 caps chunk length at N.
      fleet::SweepBatchOptions batch;
      if (cli.fleet_batch > 1) batch.max_heights = cli.fleet_batch;
      units = fleet::sweep_batch_units(problem, grid, batch);
    }
    unit_costs = fleet::unit_cost_estimates(problem, units);
  } else {
    std::cerr << "error: --fleet-controller needs a job: --fleet-sweep or "
                 "--scenario FILE\n";
    return kExitUsage;
  }

  fleet::ControllerConfig config;
  config.address = cli.fleet_controller_address;
  config.credit = static_cast<int>(cli.fleet_credit);
  config.heartbeat_ms = cli.fleet_heartbeat_ms;
  config.miss_threshold = static_cast<int>(cli.fleet_miss_threshold);
  config.speculate = cli.fleet_speculate_after_ms > 0;
  if (config.speculate) config.speculate_after_ms = cli.fleet_speculate_after_ms;
  config.sched.policy = cli.fleet_policy;
  config.accounting_dir = cli.fleet_acct_dir;
  obs::ChromeTraceSink chrome;
  if (!cli.trace_path.empty()) config.sink = &chrome;

  // The whole job — a sweep or a scenario — is one scheduler job array
  // tagged with the tenant/priority flags; sweep units also carry their
  // analytic cost estimates so `backfill` has something to fit.
  std::vector<fleet::JobArray> jobs(1);
  jobs[0].spec.name = sweep_job ? "sweep" : "scenario";
  jobs[0].spec.tenant = cli.fleet_tenant;
  jobs[0].spec.priority = cli.fleet_priority;
  jobs[0].unit_costs_ns = std::move(unit_costs);
  jobs[0].units = std::move(units);
  fleet::Controller controller(std::move(config), std::move(jobs));
  try {
    controller.start();
  } catch (const util::Error& e) {
    std::cerr << "error: cannot bind fleet controller on "
              << cli.fleet_controller_address << ": " << e.what() << '\n';
    return kExitService;
  }
  std::cout << "tilo fleet controller listening on "
            << controller.address().str() << " ("
            << controller.stats().units << " unit(s))\n"
            << "join workers with `tilo_cli --fleet-worker "
            << controller.address().str() << "`\n";
  std::cout.flush();

  std::vector<std::thread> local;
  for (i64 i = 0; i < cli.fleet_local; ++i)
    local.emplace_back([&controller, i] {
      fleet::WorkerConfig wc;
      wc.local = &controller;  // in-process fast lane, no socket
      wc.name = util::concat("local-", i);
      fleet::Worker(std::move(wc)).run();
    });
  controller.wait();
  for (std::thread& t : local) t.join();
  // Let external workers hear done=true on their next poll before the
  // socket disappears.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  controller.stop();

  if (sweep_job) {
    const std::vector<core::SweepPoint> pts =
        fleet::sweep_points_from_payloads(controller.merged().payloads());
    util::Table t;
    t.set_header({"V", "t_overlap", "t_nonoverlap"});
    for (const core::SweepPoint& p : pts)
      t.add_row({std::to_string(p.V), util::fmt_seconds(p.t_overlap),
                 util::fmt_seconds(p.t_nonoverlap)});
    t.write_text(std::cout);
  } else {
    const std::vector<std::string>& payloads =
        controller.merged().payloads();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const pipeline::Json r = pipeline::Json::parse(payloads[i]);
      std::cout << '[' << names[i] << "] ";
      if (const pipeline::Json* err = r.find("error")) {
        std::cout << "error: " << err->as_string("error") << '\n';
        continue;
      }
      std::cout << "V = " << r.at("V").as_integer("V") << ", P(g) = "
                << r.at("schedule_length").as_integer("schedule_length")
                << ", predicted "
                << util::fmt_seconds(
                       r.at("predicted_seconds").as_number("predicted"));
      if (const pipeline::Json* sim = r.find("simulated_seconds"))
        std::cout << ", simulated "
                  << util::fmt_seconds(sim->as_number("simulated"));
      std::cout << '\n';
    }
  }
  std::cout << '\n';
  controller.write_report(std::cout);
  if (!cli.trace_path.empty()) {
    std::ofstream out(cli.trace_path);
    if (!out) {
      std::cerr << "error: cannot open " << cli.trace_path
                << " for writing\n";
      return kExitFileIo;
    }
    chrome.write(out);
    std::cout << "trace written to " << cli.trace_path
              << " (load at https://ui.perfetto.dev)\n";
  }
  return kExitOk;
}

/// --fleet-queue ADDR: one squeue-style snapshot of a running controller —
/// per-job scheduling state, then per-partition occupancy.
int run_fleet_queue(const CliOptions& cli) {
  using namespace tilo;
  std::optional<svc::Client> client;
  try {
    client = svc::Client::connect(cli.fleet_queue_address);
  } catch (const util::Error& e) {
    std::cerr << "error: cannot connect to " << cli.fleet_queue_address
              << ": " << e.what()
              << "\n(is a fleet controller running there?)\n";
    return kExitService;
  }
  const svc::Response resp = client->queue();
  if (resp.status != svc::RespStatus::kOk) {
    std::cerr << "error: queue answered " << svc::status_name(resp.status)
              << ": " << resp.error << '\n';
    return kExitService;
  }
  const pipeline::Json r = pipeline::Json::parse(resp.result);
  std::cout << "fleet queue (" << r.at("policy").as_string("policy")
            << " policy)\n";
  util::Table jobs;
  jobs.set_header({"job", "name", "tenant", "partition", "state", "prio",
                   "eff", "age ms", "units", "queued", "run", "done",
                   "preempted"});
  for (const pipeline::Json& j : r.at("jobs").as_array("jobs"))
    jobs.add_row(
        {std::to_string(j.at("job").as_integer("job")),
         j.at("name").as_string("name"), j.at("tenant").as_string("tenant"),
         j.at("partition").as_string("partition"),
         j.at("state").as_string("state"),
         std::to_string(j.at("priority").as_integer("priority")),
         std::to_string(
             j.at("effective_priority").as_integer("effective_priority")),
         std::to_string(j.at("age_ms").as_integer("age_ms")),
         std::to_string(j.at("units").as_integer("units")),
         std::to_string(j.at("queued").as_integer("queued")),
         std::to_string(j.at("in_flight").as_integer("in_flight")),
         std::to_string(j.at("done").as_integer("done")),
         std::to_string(j.at("preempted").as_integer("preempted"))});
  jobs.write_text(std::cout);
  util::Table parts;
  parts.set_header(
      {"partition", "max in-flight", "max per-job", "queued", "in flight"});
  for (const pipeline::Json& p : r.at("partitions").as_array("partitions"))
    parts.add_row(
        {p.at("name").as_string("name"),
         std::to_string(p.at("max_in_flight").as_integer("max_in_flight")),
         std::to_string(
             p.at("max_units_per_job").as_integer("max_units_per_job")),
         std::to_string(p.at("queued").as_integer("queued")),
         std::to_string(p.at("in_flight").as_integer("in_flight"))});
  parts.write_text(std::cout);
  return kExitOk;
}

/// --fleet-accounting ADDR: sacct-style per-tenant fair-share accounting.
int run_fleet_acct(const CliOptions& cli) {
  using namespace tilo;
  std::optional<svc::Client> client;
  try {
    client = svc::Client::connect(cli.fleet_acct_address);
  } catch (const util::Error& e) {
    std::cerr << "error: cannot connect to " << cli.fleet_acct_address
              << ": " << e.what()
              << "\n(is a fleet controller running there?)\n";
    return kExitService;
  }
  const svc::Response resp = client->accounting();
  if (resp.status != svc::RespStatus::kOk) {
    std::cerr << "error: accounting answered "
              << svc::status_name(resp.status) << ": " << resp.error << '\n';
    return kExitService;
  }
  const pipeline::Json r = pipeline::Json::parse(resp.result);
  std::cout << "fleet accounting (" << r.at("policy").as_string("policy")
            << " policy)\n";
  util::Table t;
  t.set_header({"tenant", "share", "decayed usage", "factor", "charged"});
  for (const pipeline::Json& tn : r.at("tenants").as_array("tenants"))
    t.add_row({tn.at("name").as_string("name"),
               util::fmt_fixed(tn.at("share").as_number("share"), 2),
               util::fmt_fixed(tn.at("usage").as_number("usage"), 1),
               util::fmt_fixed(tn.at("factor").as_number("factor"), 3),
               std::to_string(
                   tn.at("charged_units").as_integer("charged_units"))});
  t.write_text(std::cout);
  std::cout << r.at("preempted").as_integer("preempted")
            << " preempted lease(s), "
            << r.at("backfilled").as_integer("backfilled")
            << " backfilled grant(s)\n";
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tilo;

  CliOptions cli;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (!a.empty() && a[0] != '-') {
      const auto body = read_file(a);
      if (!body) {
        std::cerr << "error: cannot open " << a << '\n';
        return kExitFileIo;
      }
      cli.source = *body;
      cli.source_name = a;
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags)
      if (a == f.name) flag = &f;
    if (!flag) return usage(argv[0]);
    std::string value;
    if (flag->metavar) {
      if (++i >= args.size()) return usage(argv[0]);
      value = args[i];
    }
    if (!flag->apply(cli, value)) return usage(argv[0]);
  }

  if (cli.version) return print_version();
  if (cli.list_models) {
    for (const std::string& n : mach::model_names())
      std::cout << n << '\n';
    return kExitOk;
  }
  if (cli.list_workloads) {
    for (const auto& [name, description] : workload::kind_registry())
      std::cout << name << "  " << description << '\n';
    return kExitOk;
  }

  // A server compiles on one machine: svc::problem_key holds only the
  // request, so a flag-chosen server machine would answer from a plan
  // store written under another, and ring replicas would stop agreeing
  // byte for byte.  Clients choose a model by name (--connect --model).
  if (!cli.serve_address.empty() &&
      (!cli.machine_path.empty() || !cli.model_name.empty())) {
    std::cerr << "error: --serve compiles on the default machine; drop "
                 "--machine/--model (clients pick a model with --connect "
                 "--model NAME)\n";
    return kExitUsage;
  }
  if ((!cli.connect_address.empty() || !cli.replicas.empty()) &&
      !cli.machine_path.empty()) {
    std::cerr << "error: --connect compiles on the server's machine; drop "
                 "--machine (--model NAME asks the server for a model)\n";
    return kExitUsage;
  }

  try {
    std::shared_ptr<const mach::Model> model;
    if (const int rc = resolve_model(cli, model); rc != kExitOk) return rc;
    if (!cli.calibrate_path.empty())
      return run_calibrate(cli, std::move(model));
    if (!cli.fleet_queue_address.empty()) return run_fleet_queue(cli);
    if (!cli.fleet_acct_address.empty()) return run_fleet_acct(cli);
    if (!cli.fleet_worker_address.empty()) return run_fleet_worker(cli);
    if (!cli.fleet_controller_address.empty())
      return run_fleet_controller(cli, std::move(model));
    if (!cli.serve_address.empty()) return run_serve(cli);
    if (!cli.connect_address.empty() || !cli.replicas.empty())
      return run_connect(cli);
    if (!cli.scenario_path.empty())
      return run_scenario(cli, std::move(model));
    if (!cli.load_plan_path.empty()) return run_load_plan(cli);

    std::optional<loop::LoopNest> nest_opt;
    try {
      nest_opt = pipeline::run_frontend({cli.source_name, cli.source});
    } catch (const util::Error& e) {
      std::cerr << "error: invalid loop nest " << cli.source_name << ": "
                << e.what() << '\n';
      return kExitBadInput;
    }
    const loop::LoopNest& nest = *nest_opt;
    std::cout << "nest '" << nest.name() << "' from " << cli.source_name
              << ": domain " << nest.domain() << ", deps "
              << nest.deps().str() << '\n';

    // Planning compile: resolve the grid and the tile height once (grid by
    // planner search or flags; V by flag or the overlapping analytic
    // optimum, as the paper tunes), shared by both schedule runs below.
    pipeline::CompileOptions popts;
    popts.model = model;
    popts.height = cli.height;
    popts.simulate = false;
    if (cli.auto_procs) {
      popts.auto_procs = cli.auto_procs;
    } else if (cli.procs_text) {
      lat::Vec procs;
      if (!parse_procs(*cli.procs_text, nest.dims(), procs))
        return usage(argv[0]);
      popts.procs = std::move(procs);
    } else {
      const std::size_t md =
          core::Problem{nest, model->params(), lat::Vec(nest.dims(), 1),
                        nullptr}
              .mapped_dim();
      lat::Vec procs(nest.dims(), 4);
      procs[md] = 1;
      popts.procs = std::move(procs);
    }
    const pipeline::Compiler planner(popts);
    const pipeline::ArtifactStore planned = planner.compile_nest(nest);
    const core::Problem& problem = planned.analysis().problem;
    const std::size_t md = planned.analysis().mapped_dim;
    if (planned.analysis().auto_grid)
      std::cout << "planner chose grid " << problem.procs.str() << " for "
                << *cli.auto_procs << " processors\n";
    std::cout << "processor grid " << problem.procs.str()
              << ", mapping dimension " << md << "\n\n";

    if (cli.sweep) {
      const auto pts = core::sweep_tile_height(
          problem, core::height_grid(4, problem.max_tile_height() / 2, 1.6));
      util::Table t;
      t.set_header({"V", "t_overlap", "t_nonoverlap"});
      for (const auto& p : pts)
        t.add_row({std::to_string(p.V), util::fmt_seconds(p.t_overlap),
                   util::fmt_seconds(p.t_nonoverlap)});
      t.write_text(std::cout);
      std::cout << '\n';
    }

    const util::i64 V = planned.tiling().V;
    const bool analytic =
        planned.tiling().analytic_height && !planned.analysis().auto_grid;
    std::cout << "tile height V = " << V
              << (analytic ? " (analytic optimum)" : "") << "\n\n";

    const sched::ScheduleKind save_kind = cli.run_overlap
                                              ? sched::ScheduleKind::kOverlap
                                              : sched::ScheduleKind::kNonOverlap;
    for (auto kind : {sched::ScheduleKind::kNonOverlap,
                      sched::ScheduleKind::kOverlap}) {
      if (kind == sched::ScheduleKind::kOverlap && !cli.run_overlap)
        continue;
      if (kind == sched::ScheduleKind::kNonOverlap && !cli.run_nonoverlap)
        continue;
      Observers obs;
      pipeline::CompileOptions ropts;
      ropts.model = model;
      ropts.procs = problem.procs;
      ropts.height = V;
      ropts.kind = kind;
      ropts.sink = obs.attach(cli);
      const pipeline::Compiler compiler(ropts);
      const pipeline::ArtifactStore out = compiler.compile_nest(nest);
      const exec::TilePlan& plan = *out.plan().plan;
      print_schedule_line(kind, out.backend().run->seconds, plan,
                          out.plan().predicted_seconds);
      if (cli.pipeline_log) pipeline::write_stage_log(std::cout, out);
      if (!cli.save_plan_path.empty() && kind == save_kind) {
        std::ofstream os(cli.save_plan_path);
        if (!os) {
          std::cerr << "error: cannot open " << cli.save_plan_path
                    << " for writing\n";
          return kExitFileIo;
        }
        os << pipeline::plan_to_json(nest, plan, *model).dump() << '\n';
        std::cout << "  plan written to " << cli.save_plan_path << '\n';
      }
      // One trace file per schedule: suffix the kind when both run.
      std::string trace_path = cli.trace_path;
      if (!trace_path.empty() && cli.run_overlap && cli.run_nonoverlap) {
        const std::string tag = kind == sched::ScheduleKind::kOverlap
                                    ? ".overlap"
                                    : ".nonoverlap";
        const std::size_t dot = trace_path.rfind('.');
        if (dot == std::string::npos)
          trace_path += tag;
        else
          trace_path.insert(dot, tag);
      }
      if (!finish_run(cli, nest, plan, model, obs, trace_path))
        return kExitFileIo;
    }

    if (cli.emit_loop) {
      std::cout << '\n' << loop::to_source(nest);
    }

    if (cli.emit_c) {
      // Codegen is a Backend product too: recompile without simulation.
      pipeline::CompileOptions eopts;
      eopts.model = model;
      eopts.procs = problem.procs;
      eopts.height = V;
      eopts.kind = sched::ScheduleKind::kOverlap;
      eopts.simulate = false;
      eopts.emit_program = true;
      std::cout << '\n'
                << pipeline::Compiler(eopts).compile_nest(nest)
                       .backend()
                       .program;
    }
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitRuntime;
  }
  return kExitOk;
}
