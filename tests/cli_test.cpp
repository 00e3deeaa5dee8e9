// End-to-end smoke tests of the tilo_cli driver binary: exercises the
// parse -> plan -> simulate -> report pipeline exactly as a user would.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "tilo/machine/model.hpp"
#include "tilo/pipeline/serialize.hpp"
#include "tilo/sched/fleet_policy.hpp"
#include "tilo/workload/workload.hpp"

#ifndef TILO_CLI_PATH
#error "TILO_CLI_PATH must be defined by the build"
#endif

namespace {

// The CLI's documented exit codes (examples/tilo_cli.cpp).
constexpr int kExitUsage = 2;
constexpr int kExitFileIo = 3;
constexpr int kExitBadInput = 4;
constexpr int kExitService = 5;
constexpr int kExitUnknownModel = 6;
constexpr int kExitModelFile = 7;

/// Runs the CLI with `args`, captures stdout+stderr, returns {exit, output}.
/// The exit status is decoded with WEXITSTATUS so tests can assert the
/// CLI's documented exit codes exactly.
std::pair<int, std::string> run_cli(const std::string& args) {
  static int counter = 0;
  // ctest runs each discovered test as its own process, all of which start
  // counter at 0 — the pid keeps parallel tests off each other's files.
  const std::string out_path = ::testing::TempDir() + "tilo_cli_out_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(counter++) + ".txt";
  const std::string cmd = std::string(TILO_CLI_PATH) + " " + args + " > " +
                          out_path + " 2>&1";
  const int raw = std::system(cmd.c_str());
  const int rc = WIFEXITED(raw) ? WEXITSTATUS(raw) : raw;
  std::ifstream in(out_path);
  std::ostringstream body;
  body << in.rdbuf();
  return {rc, body.str()};
}

/// The paper cluster with 10x its compute cost t_c, as bare machine JSON.
std::string slow_machine_json() {
  tilo::mach::MachineParams slow = tilo::mach::MachineParams::paper_cluster();
  slow.t_c *= 10;
  return tilo::pipeline::machine_to_json(slow).dump();
}

/// Writes `body` to `name` under the test temp dir and returns the path.
std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << body;
  return path;
}

/// The "simulated <t> ms" figure of the first workload line in `out`.
std::string simulated_figure(const std::string& out) {
  const std::size_t at = out.find("simulated ");
  if (at == std::string::npos) return "<none>";
  return out.substr(at, out.find(" ms", at) - at);
}

}  // namespace

TEST(CliTest, DefaultRunReportsBothSchedules) {
  const auto [rc, out] = run_cli("--height 64");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("non-overlapping:"), std::string::npos) << out;
  EXPECT_NE(out.find("overlapping:"), std::string::npos);
  EXPECT_NE(out.find("tile height V = 64"), std::string::npos);
}

TEST(CliTest, ValidateFlagChecksValues) {
  const auto [rc, out] = run_cli("--height 64 --validate");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("max |err| = 0"), std::string::npos) << out;
}

TEST(CliTest, NestFileIsParsed) {
  const std::string nest_path = ::testing::TempDir() + "cli_nest.loop";
  {
    std::ofstream os(nest_path);
    os << "FOR i = 0 TO 31\n FOR j = 0 TO 255\n"
          "  B(i, j) = 0.5 * (B(i-1, j) + B(i, j-1))\n ENDFOR\nENDFOR\n";
  }
  const auto [rc, out] =
      run_cli(nest_path + " --procs 4x1 --height 16 --validate");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("nest 'B'"), std::string::npos) << out;
  EXPECT_NE(out.find("max |err| = 0"), std::string::npos);
}

TEST(CliTest, EmitCPrintsProgram) {
  const auto [rc, out] = run_cli("--height 64 --emit-c");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("#include <mpi.h>"), std::string::npos);
  EXPECT_NE(out.find("MPI_Isend"), std::string::npos);
}

TEST(CliTest, AnalyticDefaultHeight) {
  const auto [rc, out] = run_cli("--schedule overlap");
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("(analytic optimum)"), std::string::npos) << out;
  EXPECT_EQ(out.find("non-overlapping:"), std::string::npos);
}

TEST(CliTest, AutoPlannerChoosesGrid) {
  const auto [rc, out] = run_cli("--auto 16 --schedule overlap");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("planner chose grid (4, 4, 1)"), std::string::npos)
      << out;
}

TEST(CliTest, EmitLoopRoundTripsThroughTheCli) {
  // Serialize the built-in demo back to grammar form, feed it back in.
  const auto [rc, out] = run_cli("--height 64 --schedule overlap --emit-loop");
  EXPECT_EQ(rc, 0) << out;
  const auto pos = out.find("FOR i1 = 0 TO 15");
  ASSERT_NE(pos, std::string::npos) << out;
  const std::string nest_path = ::testing::TempDir() + "cli_roundtrip.loop";
  {
    std::ofstream os(nest_path);
    os << out.substr(pos);
  }
  const auto [rc2, out2] =
      run_cli(nest_path + " --height 64 --schedule overlap --validate");
  EXPECT_EQ(rc2, 0) << out2;
  EXPECT_NE(out2.find("max |err| = 0"), std::string::npos) << out2;
}

TEST(CliTest, UsageListsEveryFlag) {
  // The usage text is generated from the same flag table the parser uses,
  // so no flag can go undocumented (--auto and --emit-loop once were).
  const auto [rc, out] = run_cli("--no-such-flag");
  EXPECT_NE(rc, 0);
  for (const char* flag :
       {"--procs", "--auto", "--height", "--schedule", "--sweep", "--gantt",
        "--emit-c", "--emit-loop", "--validate", "--trace", "--report",
        "--pipeline", "--save-plan", "--load-plan", "--scenario",
        "--machine", "--model", "--calibrate", "--list-models",
        "--list-workloads", "--fleet-credit", "--fleet-heartbeat",
        "--fleet-miss-threshold", "--fleet-speculate-after",
        "--fleet-policy", "--fleet-tenant", "--fleet-priority",
        "--fleet-queue", "--fleet-accounting"})
    EXPECT_NE(out.find(flag), std::string::npos) << flag << "\n" << out;
}

TEST(CliTest, PipelineFlagPrintsStageLog) {
  const auto [rc, out] = run_cli("--height 64 --schedule overlap --pipeline");
  EXPECT_EQ(rc, 0) << out;
  for (const char* stage : {"Frontend", "Analysis", "Tiling", "Scheduling",
                            "Lowering", "Backend"})
    EXPECT_NE(out.find(stage), std::string::npos) << stage << "\n" << out;
}

/// Extracts the "overlapping: ..." completion line from CLI output.
std::string overlap_line(const std::string& out) {
  const auto pos = out.find("overlapping:");
  if (pos == std::string::npos) return "";
  return out.substr(pos, out.find('\n', pos) - pos);
}

TEST(CliTest, SavedPlanReplaysBitIdentically) {
  const std::string plan_path = ::testing::TempDir() + "cli_plan.json";
  const auto [rc, out] =
      run_cli("--height 64 --schedule overlap --save-plan " + plan_path);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("plan written to"), std::string::npos) << out;
  const auto [rc2, out2] = run_cli("--load-plan " + plan_path + " --report");
  EXPECT_EQ(rc2, 0) << out2;
  // The replayed run reproduces the saved run's completion line
  // byte-for-byte (simulated seconds, P(g) and prediction all match).
  ASSERT_FALSE(overlap_line(out).empty()) << out;
  EXPECT_EQ(overlap_line(out), overlap_line(out2)) << out2;
  // And the A/B phase report renders from the replayed run.
  EXPECT_NE(out2.find("rank"), std::string::npos) << out2;
}

TEST(CliTest, SavedPlanReplaysUnderItsOwnMachineModel) {
  // The plan file carries the model it was compiled under, so the replay
  // reproduces the interference run rather than the ideal machine's.
  const std::string plan_path =
      ::testing::TempDir() + "cli_interference_plan.json";
  const auto [rc, out] = run_cli(
      "--model interference --height 64 --schedule overlap --save-plan " +
      plan_path);
  EXPECT_EQ(rc, 0) << out;
  const auto [rc2, out2] = run_cli("--load-plan " + plan_path);
  EXPECT_EQ(rc2, 0) << out2;
  ASSERT_FALSE(overlap_line(out).empty()) << out;
  EXPECT_EQ(overlap_line(out), overlap_line(out2)) << out2;
}

TEST(CliTest, ScenarioCompilesAllWorkloadsInOneInvocation) {
  const std::string scn_path = ::testing::TempDir() + "cli_scenario.json";
  {
    std::ofstream os(scn_path);
    os << R"({"tilo": "scenario", "version": 1, "workloads": [
      {"name": "a", "source": "FOR i = 0 TO 15\n FOR j = 0 TO 255\n  A(i, j) = 0.5 * (A(i-1, j) + A(i, j-1))\n ENDFOR\nENDFOR\n",
       "procs": [4, 1], "height": 16},
      {"name": "b", "source": "FOR i = 0 TO 15\n FOR j = 0 TO 255\n  B(i, j) = 0.5 * (B(i-1, j) + B(i, j-1))\n ENDFOR\nENDFOR\n",
       "procs": [2, 1], "height": 32, "schedule": "nonoverlap"},
      {"name": "c", "source": "FOR i = 0 TO 15\n FOR j = 0 TO 255\n  C(i, j) = 0.5 * (C(i-1, j) + C(i, j-1))\n ENDFOR\nENDFOR\n",
       "auto_procs": 4}]})";
  }
  const auto [rc, out] = run_cli("--scenario " + scn_path);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("3 workload(s)"), std::string::npos) << out;
  for (const char* name : {"[a]", "[b]", "[c]"})
    EXPECT_NE(out.find(name), std::string::npos) << name << "\n" << out;
  EXPECT_NE(out.find("Backend     simulated"), std::string::npos) << out;
}

TEST(CliTest, BadSourceFailsWithDiagnostic) {
  const std::string nest_path = ::testing::TempDir() + "cli_bad.loop";
  {
    std::ofstream os(nest_path);
    os << "FOR i = 0 TO 9\n A(i) = A(i+1)\nENDFOR\n";
  }
  const auto [rc, out] = run_cli(nest_path);
  EXPECT_EQ(rc, kExitBadInput) << out;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(CliTest, UnknownFlagIsAUsageError) {
  const auto [rc, out] = run_cli("--no-such-flag");
  EXPECT_EQ(rc, kExitUsage) << out;
}

TEST(CliTest, MissingScenarioFileIsAFileIoError) {
  const auto [rc, out] = run_cli("--scenario " + ::testing::TempDir() +
                                 "no_such_scenario.json");
  EXPECT_EQ(rc, kExitFileIo) << out;
  EXPECT_NE(out.find("cannot open scenario file"), std::string::npos) << out;
}

TEST(CliTest, MissingPlanFileIsAFileIoError) {
  const auto [rc, out] =
      run_cli("--load-plan " + ::testing::TempDir() + "no_such_plan.json");
  EXPECT_EQ(rc, kExitFileIo) << out;
  EXPECT_NE(out.find("cannot open plan file"), std::string::npos) << out;
}

TEST(CliTest, MalformedPlanFileIsABadInputError) {
  const std::string path = ::testing::TempDir() + "cli_garbage_plan.json";
  {
    std::ofstream os(path);
    os << "this is not a plan bundle";
  }
  const auto [rc, out] = run_cli("--load-plan " + path);
  EXPECT_EQ(rc, kExitBadInput) << out;
  EXPECT_NE(out.find("invalid plan file"), std::string::npos) << out;
  // The message tells the user where valid plan files come from.
  EXPECT_NE(out.find("--save-plan"), std::string::npos) << out;
}

TEST(CliTest, MalformedScenarioFileIsABadInputError) {
  const std::string path = ::testing::TempDir() + "cli_garbage_scenario.json";
  {
    std::ofstream os(path);
    os << R"({"tilo": "scenario", "version": 1, "workloads": [{"name": "x"}]})";
  }
  const auto [rc, out] = run_cli("--scenario " + path);
  EXPECT_EQ(rc, kExitBadInput) << out;
  EXPECT_NE(out.find("invalid scenario file"), std::string::npos) << out;
}

TEST(CliTest, ConnectWithoutServerIsAServiceError) {
  const std::string sock = ::testing::TempDir() + "cli_no_server.sock";
  const auto [rc, out] = run_cli("--connect unix:" + sock + " --ping");
  EXPECT_EQ(rc, kExitService) << out;
  EXPECT_NE(out.find("cannot connect"), std::string::npos) << out;
  // Actionable: the message suggests how to start a server.
  EXPECT_NE(out.find("--serve"), std::string::npos) << out;
}

TEST(CliTest, ServeConnectStopRoundTrip) {
  const std::string sock = ::testing::TempDir() + "cli_svc.sock";
  const std::string log = ::testing::TempDir() + "cli_svc_serve.log";
  std::remove(sock.c_str());
  // Background the server through the shell; run_cli would block on it.
  const std::string serve_cmd = std::string(TILO_CLI_PATH) + " --serve unix:" +
                                sock + " --workers 2 > " + log + " 2>&1 &";
  ASSERT_EQ(std::system(serve_cmd.c_str()), 0);

  // Wait for the server to accept pings (it may still be binding).
  int ping_rc = -1;
  std::string ping_out;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::tie(ping_rc, ping_out) =
        run_cli("--connect unix:" + sock + " --ping");
    if (ping_rc == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(ping_rc, 0) << ping_out;
  EXPECT_NE(ping_out.find("pong"), std::string::npos) << ping_out;
  // --ping renders the stats op's queue high-water mark and plan-store
  // hit/miss counters alongside the round-trip time.
  EXPECT_NE(ping_out.find("queue"), std::string::npos) << ping_out;
  EXPECT_NE(ping_out.find("peak"), std::string::npos) << ping_out;
  EXPECT_NE(ping_out.find("plan store"), std::string::npos) << ping_out;

  // A remote compile renders the same report shape as a local run.
  const auto [rc, out] = run_cli("--connect unix:" + sock + " --height 64");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("compiled by unix:" + sock), std::string::npos) << out;
  EXPECT_NE(out.find("non-overlapping:"), std::string::npos) << out;
  EXPECT_NE(out.find("overlapping:"), std::string::npos) << out;
  EXPECT_NE(out.find("tile height V = 64"), std::string::npos) << out;

  // --stop drains the server: it answers everything in flight, writes its
  // run summary, and exits.
  const auto [stop_rc, stop_out] =
      run_cli("--connect unix:" + sock + " --stop");
  EXPECT_EQ(stop_rc, 0) << stop_out;
  EXPECT_NE(stop_out.find("draining"), std::string::npos) << stop_out;
  std::string log_body;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(log);
    std::ostringstream body;
    body << in.rdbuf();
    log_body = body.str();
    if (log_body.find("svc summary") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_NE(log_body.find("svc summary"), std::string::npos) << log_body;
  EXPECT_NE(log_body.find("requests"), std::string::npos) << log_body;
}

TEST(CliTest, VersionPrintsBinaryAndEnvelopeVersions) {
  const auto [rc, out] = run_cli("--version");
  EXPECT_EQ(rc, 0) << out;
  // Binary version, then one line per wire/serialization envelope.
  EXPECT_NE(out.find("tilo_cli "), std::string::npos) << out;
  EXPECT_NE(out.find("svc wire protocol"), std::string::npos) << out;
  EXPECT_NE(out.find("plan/scenario schema"), std::string::npos) << out;
  EXPECT_NE(out.find("fleet unit/result"), std::string::npos) << out;
  // Every envelope this build speaks is version 1.
  EXPECT_NE(out.find("v1"), std::string::npos) << out;
}

TEST(CliTest, ListModelsPrintsTheMachineModelRegistry) {
  // Generated from mach::model_names(), so a newly registered model
  // cannot go unlisted (the same drift-proofing as the usage text).
  const auto [rc, out] = run_cli("--list-models");
  EXPECT_EQ(rc, 0) << out;
  for (const std::string& name : tilo::mach::model_names())
    EXPECT_NE(out.find(name), std::string::npos) << name << "\n" << out;
}

TEST(CliTest, ListWorkloadsPrintsEveryKindWithDescriptions) {
  const auto [rc, out] = run_cli("--list-workloads");
  EXPECT_EQ(rc, 0) << out;
  for (const auto& [name, description] : tilo::workload::kind_registry()) {
    EXPECT_NE(out.find(name), std::string::npos) << name << "\n" << out;
    EXPECT_NE(out.find(description), std::string::npos) << name << "\n"
                                                        << out;
  }
}

TEST(CliTest, FleetPolicyFlagValidatesAgainstTheRegistry) {
  // An unregistered policy is a usage error, and the usage text names
  // every registered policy (generated from the same registry the parser
  // checks, so a new policy cannot go undocumented).
  const auto [rc, out] = run_cli("--fleet-policy no-such-policy");
  EXPECT_EQ(rc, kExitUsage) << out;
  for (const std::string& name : tilo::sched::policy_names())
    EXPECT_NE(out.find(name), std::string::npos) << name << "\n" << out;
}

TEST(CliTest, DagScenarioReportsMakespanAgainstTheAlapBound) {
  const std::string path = ::testing::TempDir() + "cli_dag_scenario.json";
  {
    std::ofstream os(path);
    os << R"({"tilo": "scenario", "version": 1, "workloads": [)"
       << R"({"name": "chol", "source": "cholesky nt=6 b=32",)"
       << R"( "kind": "dag", "auto_procs": 4}]})";
  }
  const auto [rc, out] =
      run_cli("--scenario " + path + " --pipeline --report");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("ALAP bound"), std::string::npos) << out;
  EXPECT_NE(out.find(">= ALAP bound"), std::string::npos) << out;
  EXPECT_NE(out.find("56 tasks"), std::string::npos) << out;
  // --report attaches the ReportSink per workload: the A/B table ends with
  // the bound printed as a ratio (>= 1.0 by soundness).
  EXPECT_NE(out.find("ALAP lower bound"), std::string::npos) << out;
  EXPECT_NE(out.find("achieved/bound"), std::string::npos) << out;
}

TEST(CliTest, FleetSweepTableMatchesTheLocalSweep) {
  // Same nest, same grid rule: the fleet table must be byte-identical to
  // the single-process --sweep table (the CLI-level determinism check).
  const std::string nest_path = ::testing::TempDir() + "cli_fleet_nest.loop";
  {
    std::ofstream os(nest_path);
    os << "FOR i = 0 TO 63\n FOR j = 0 TO 511\n"
          "  F(i, j) = 0.5 * (F(i-1, j) + F(i, j-1))\n ENDFOR\nENDFOR\n";
  }
  const std::string args = nest_path + " --procs 4x1";
  const auto [local_rc, local_out] = run_cli(args + " --sweep");
  ASSERT_EQ(local_rc, 0) << local_out;

  const std::string sock = ::testing::TempDir() + "cli_fleet.sock";
  std::remove(sock.c_str());
  const auto [fleet_rc, fleet_out] = run_cli(
      args + " --fleet-controller unix:" + sock +
      " --fleet-sweep --fleet-local 2");
  ASSERT_EQ(fleet_rc, 0) << fleet_out;
  EXPECT_NE(fleet_out.find("fleet report"), std::string::npos) << fleet_out;

  // Extract the sweep table: from the header line to the blank line.
  const auto table_of = [](const std::string& out) -> std::string {
    const std::size_t head = out.find("t_overlap");
    if (head == std::string::npos) return "<no table>";
    const std::size_t start = out.rfind('\n', head) + 1;
    const std::size_t end = out.find("\n\n", start);
    return out.substr(start, end == std::string::npos ? end : end - start);
  };
  EXPECT_EQ(table_of(fleet_out), table_of(local_out))
      << "local:\n" << local_out << "\nfleet:\n" << fleet_out;
}

TEST(CliTest, UnknownModelNameExitsSix) {
  const auto [rc, out] = run_cli("--model warp-drive --height 64");
  EXPECT_EQ(rc, kExitUnknownModel) << out;
  EXPECT_NE(out.find("unknown machine model"), std::string::npos) << out;
  // The error teaches the registry: every published name is listed.
  EXPECT_NE(out.find("ideal"), std::string::npos) << out;
  EXPECT_NE(out.find("interference"), std::string::npos) << out;
}

TEST(CliTest, UnreadableMachineFileExitsSeven) {
  const auto [rc, out] =
      run_cli("--machine /no/such/machine.json --height 64");
  EXPECT_EQ(rc, kExitModelFile) << out;
  EXPECT_NE(out.find("cannot open machine file"), std::string::npos) << out;
}

TEST(CliTest, InvalidMachineFileExitsSeven) {
  const std::string path = ::testing::TempDir() + "cli_bad_machine.json";
  {
    std::ofstream os(path);
    os << "{\"tilo\": \"scenario\", \"version\": 1}\n";
  }
  const auto [rc, out] = run_cli("--machine " + path + " --height 64");
  EXPECT_EQ(rc, kExitModelFile) << out;
  EXPECT_NE(out.find("invalid machine file"), std::string::npos) << out;
}

TEST(CliTest, NamedModelCompilesLocally) {
  const auto [rc, out] =
      run_cli("--model interference --height 64 --schedule overlap");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("overlapping:"), std::string::npos) << out;
}

TEST(CliTest, CalibrateWritesALoadableModel) {
  const std::string path = ::testing::TempDir() + "cli_calibrated.json";
  const auto [rc, out] = run_cli("--calibrate " + path);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("calibrated against"), std::string::npos) << out;
  EXPECT_NE(out.find("residuals"), std::string::npos) << out;
  // The written file loads straight back through --machine.
  const auto [rc2, out2] =
      run_cli("--machine " + path + " --height 64 --schedule overlap");
  EXPECT_EQ(rc2, 0) << out2;
  EXPECT_NE(out2.find("overlapping:"), std::string::npos) << out2;
}

TEST(CliTest, CalibrateToUnwritablePathExitsThree) {
  const auto [rc, out] = run_cli("--calibrate /no/such/dir/model.json");
  EXPECT_EQ(rc, kExitFileIo) << out;
}

TEST(CliTest, ScenarioMachineWinsOverModelFlag) {
  // The scenario file names a bare "machine" (the paper cluster at 10x
  // t_c).  The file is the more specific request: its machine wins over
  // --model/--machine, locally and through the fleet.
  const std::string source =
      "FOR i = 0 TO 15\n FOR j = 0 TO 15\n  FOR k = 0 TO 1023\n"
      "   A(i, j, k) = A(i-1, j, k) + A(i, j-1, k) + A(i, j, k-1)\n"
      "  ENDFOR\n ENDFOR\nENDFOR\n";
  const std::string workloads =
      R"("workloads": [{"name": "w", "source": )" +
      tilo::pipeline::Json::string(source).dump() +
      R"(, "procs": [4, 4, 1], "height": 64}]})";
  const std::string with_machine = write_temp(
      "cli_scn_m.json", R"({"tilo": "scenario", "version": 1, "machine": )" +
                            slow_machine_json() + ", " + workloads);
  const std::string without = write_temp(
      "cli_scn_nom.json",
      R"({"tilo": "scenario", "version": 1, )" + workloads);

  const auto [rc, out] = run_cli("--scenario " + with_machine);
  ASSERT_EQ(rc, 0) << out;
  const std::string expect = simulated_figure(out);
  const auto [paper_rc, paper_out] = run_cli("--scenario " + without);
  ASSERT_EQ(paper_rc, 0) << paper_out;
  EXPECT_NE(simulated_figure(paper_out), expect) << out << paper_out;

  const std::string sock = ::testing::TempDir() + "cli_scn_fleet.sock";
  const std::vector<std::string> flag_sets = {
      "--model ideal", "--model interference",
      "--machine " + write_temp("cli_scn_flag.json", slow_machine_json())};
  for (const std::string& flags : flag_sets) {
    const auto [local_rc, local_out] =
        run_cli(flags + " --scenario " + with_machine);
    ASSERT_EQ(local_rc, 0) << local_out;
    EXPECT_EQ(simulated_figure(local_out), expect) << flags << local_out;

    std::remove(sock.c_str());
    const auto [fleet_rc, fleet_out] =
        run_cli(flags + " --fleet-controller unix:" + sock +
                " --fleet-local 1 --scenario " + with_machine);
    ASSERT_EQ(fleet_rc, 0) << fleet_out;
    EXPECT_EQ(simulated_figure(fleet_out), expect) << flags << fleet_out;
  }
}

TEST(CliTest, ServerModesRejectAMachineFlag) {
  // A server compiles on one machine (svc::problem_key holds only the
  // request), so --serve takes neither --machine nor --model, and
  // --connect takes no --machine.  The address is unbindable on purpose:
  // exit 2 rather than 5 shows the flags were rejected before any socket
  // was opened.
  const std::string machine =
      write_temp("cli_server_machine.json", slow_machine_json());
  const std::string addr =
      " unix:" + ::testing::TempDir() + "no_such_dir/cli_reject.sock";
  const std::vector<std::string> arg_sets = {
      "--serve" + addr + " --machine " + machine,
      "--serve" + addr + " --model interference",
      "--connect" + addr + " --machine " + machine + " --height 64"};
  for (const std::string& args : arg_sets) {
    const auto [rc, out] = run_cli(args);
    EXPECT_EQ(rc, kExitUsage) << args << '\n' << out;
    EXPECT_NE(out.find("--machine"), std::string::npos) << out;
  }
}
