// Tests for tilo::fleet — distributed sweep orchestration over a
// fault-tolerant worker fleet.
//
// The acceptance-critical properties pinned down here:
//   * determinism — a fleet sweep merges byte-identical to a single-node
//     core::sweep_tile_height run, at 1, 2 and 4 workers, on all three
//     paper problem spaces;
//   * exactly-once — a silent (evicted) or killed worker loses zero
//     units: its leases requeue and the run still completes with
//     completed == units, duplicates dropped by first-result-wins.
//
// Suites named Fleet* run under TSan (CMakePresets tsan filter); the
// fork+SIGKILL test lives in ForkFleetTest so the sanitizer job skips it
// (TSan and fork() do not mix).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/fleet/controller.hpp"
#include "tilo/fleet/membership.hpp"
#include "tilo/fleet/merge.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/fleet/worker.hpp"
#include "tilo/svc/client.hpp"
#include "tilo/util/error.hpp"

#ifndef TILO_CLI_PATH
#error "TILO_CLI_PATH must be defined by the build"
#endif

namespace {

using tilo::core::Problem;
using tilo::fleet::Controller;
using tilo::fleet::ControllerConfig;
using tilo::fleet::FleetStats;
using tilo::fleet::Member;
using tilo::fleet::Membership;
using tilo::fleet::Merge;
using tilo::fleet::WorkUnit;
using tilo::fleet::Worker;
using tilo::fleet::WorkerConfig;
using tilo::fleet::WorkerSummary;
using tilo::pipeline::Json;
using tilo::util::i64;
namespace fleet = tilo::fleet;
namespace svc = tilo::svc;
namespace core = tilo::core;

/// A fresh unix-socket address per controller so parallel ctest workers
/// never collide.
std::string fresh_address() {
  static int counter = 0;
  return "unix:" + ::testing::TempDir() + "fleet_test_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) +
         ".sock";
}

/// The heights every determinism test sweeps: small enough to stay quick,
/// spread enough that schedules differ qualitatively across them.
const std::vector<i64> kHeights = {8, 16, 64, 256};

/// The single-node reference: sweep locally, file the canonical per-point
/// bytes into a Merge in plan order.  Everything a fleet run produces must
/// equal this byte-for-byte.
std::string single_node_document(const Problem& problem,
                                 const std::vector<i64>& heights) {
  const std::vector<core::SweepPoint> points =
      core::sweep_tile_height(problem, heights);
  Merge merge(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    merge.add(i, fleet::sweep_point_to_json(points[i]).dump());
  return merge.document();
}

struct FleetRun {
  std::string document;
  std::vector<std::string> payloads;  ///< per-unit result texts, plan order
  FleetStats stats;
  std::vector<WorkerSummary> workers;
};

/// Runs `units` to completion on an in-process controller with `nworkers`
/// in-process worker threads.
FleetRun run_fleet(std::vector<WorkUnit> units, int nworkers,
                   ControllerConfig cfg = {}) {
  cfg.address = fresh_address();
  const std::string address = cfg.address;
  Controller controller(std::move(cfg), std::move(units));
  controller.start();
  std::vector<WorkerSummary> summaries(nworkers);
  std::vector<std::thread> threads;
  threads.reserve(nworkers);
  for (int i = 0; i < nworkers; ++i) {
    threads.emplace_back([&summaries, &address, i] {
      WorkerConfig wc;
      wc.address = address;
      wc.name = "w" + std::to_string(i);
      summaries[i] = Worker(wc).run();
    });
  }
  controller.wait();
  for (std::thread& t : threads) t.join();
  FleetRun run;
  run.document = controller.merged_document();
  run.payloads = controller.merged().payloads();
  run.stats = controller.stats();
  run.workers = std::move(summaries);
  controller.stop();
  return run;
}

/// Raw fleet-op plumbing for the protocol-level tests: drive the
/// controller by hand with a svc::Client, no fleet::Worker in the way.
svc::Response fleet_call(svc::Client& client, svc::Op op, Json body) {
  svc::Request req;
  req.op = op;
  req.fleet = std::move(body);
  return client.call(std::move(req));
}

i64 register_worker(svc::Client& client, const std::string& name) {
  Json body = Json::object();
  body.set("name", Json::string(name));
  const svc::Response resp =
      fleet_call(client, svc::Op::kRegister, std::move(body));
  EXPECT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  return Json::parse(resp.result).at("worker_id").as_integer("worker_id");
}

/// One unit-op round trip: deliver `completed` {index, result-text} pairs,
/// ask for `want` new leases.  Returns the parsed response object.
Json unit_poll(svc::Client& client, i64 worker_id, i64 want,
               const std::vector<std::pair<i64, std::string>>& completed = {}) {
  Json body = Json::object();
  body.set("worker_id", Json::integer(worker_id));
  body.set("want", Json::integer(want));
  if (!completed.empty()) {
    Json arr = Json::array();
    for (const auto& [index, result] : completed) {
      Json entry = Json::object();
      entry.set("unit", Json::integer(index));
      entry.set("result", Json::parse(result));
      arr.push(std::move(entry));
    }
    body.set("completed", std::move(arr));
  }
  const svc::Response resp =
      fleet_call(client, svc::Op::kUnit, std::move(body));
  EXPECT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  return Json::parse(resp.result);
}

/// Tiny inert units for protocol tests — any JSON object works as a
/// "result" because the controller treats result bytes as opaque.
std::vector<WorkUnit> toy_units(std::size_t n) {
  std::vector<WorkUnit> units;
  units.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    units.push_back(WorkUnit{i, "{\"toy\":" + std::to_string(i) + "}"});
  return units;
}

std::string toy_result(std::size_t i) {
  return "{\"answer\":" + std::to_string(i) + "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// Merge: order-insensitive collection, deterministic emission.

TEST(FleetMergeTest, OutOfOrderResultsEmitInIndexOrder) {
  Merge merge(3);
  EXPECT_FALSE(merge.complete());
  EXPECT_TRUE(merge.add(2, "{\"i\":2}"));
  EXPECT_TRUE(merge.add(0, "{\"i\":0}"));
  EXPECT_FALSE(merge.complete());
  EXPECT_TRUE(merge.add(1, "{\"i\":1}"));
  EXPECT_TRUE(merge.complete());
  EXPECT_EQ(merge.document(),
            "{\"tilo\":\"fleet.result\",\"version\":1,"
            "\"units\":[{\"i\":0},{\"i\":1},{\"i\":2}]}");
}

TEST(FleetMergeTest, FirstResultWinsAndDuplicateIsDropped) {
  Merge merge(2);
  EXPECT_TRUE(merge.add(0, "{\"first\":true}"));
  EXPECT_FALSE(merge.add(0, "{\"second\":true}"));  // dropped
  EXPECT_EQ(merge.payloads()[0], "{\"first\":true}");
  EXPECT_EQ(merge.completed(), 1u);
}

TEST(FleetMergeTest, IncompleteDocumentAndOutOfRangeAddThrow) {
  Merge merge(2);
  merge.add(0, "{}");
  EXPECT_THROW(merge.document(), tilo::util::Error);
  EXPECT_THROW(merge.add(7, "{}"), tilo::util::Error);
}

// ---------------------------------------------------------------------------
// Membership: synthetic-clock liveness — no sleeping in these tests.

TEST(FleetMembershipTest, EvictsOnlyMembersPastTheSilenceThreshold) {
  Membership members;
  const int a = members.add("a", /*now_ns=*/0);
  const int b = members.add("b", 0);
  EXPECT_NE(a, b);
  members.find(a)->leased = {3, 5};

  // b heartbeats at t=900ms, a stays silent; threshold 1s from t=1.5s.
  EXPECT_TRUE(members.touch(b, 900'000'000));
  std::vector<Member> evicted =
      members.evict_stale(/*now_ns=*/1'500'000'000,
                          /*max_silence_ns=*/1'000'000'000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, a);
  EXPECT_EQ(evicted[0].leased, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(members.size(), 1u);

  // The evicted id is dead forever: touch fails, ids are never reused.
  EXPECT_FALSE(members.touch(a, 1'600'000'000));
  const int c = members.add("c", 1'600'000'000);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
}

TEST(FleetMembershipTest, RemoveHandsBackTheDepartingRecord) {
  Membership members;
  const int id = members.add("leaver", 0);
  members.find(id)->leased = {1};
  Member gone;
  EXPECT_TRUE(members.remove(id, &gone));
  EXPECT_EQ(gone.leased, (std::vector<std::size_t>{1}));
  EXPECT_FALSE(members.remove(id));
  EXPECT_EQ(members.size(), 0u);
}

// ---------------------------------------------------------------------------
// Unit payloads: planning and execution round-trip the canonical bytes.

TEST(FleetUnitTest, SweepUnitExecutesToTheSingleNodePointBytes) {
  const Problem problem = core::paper_problem_i();
  const std::vector<WorkUnit> units = fleet::sweep_units(problem, {16, 64});
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].index, 0u);
  EXPECT_EQ(units[1].index, 1u);

  const std::vector<core::SweepPoint> reference =
      core::sweep_tile_height(problem, {64});
  EXPECT_EQ(fleet::execute_unit(units[1].payload),
            fleet::sweep_point_to_json(reference.front()).dump());
}

TEST(FleetUnitTest, SweepPointJsonRoundTripIsExact) {
  const Problem problem = core::paper_problem_ii();
  const core::SweepPoint p =
      core::sweep_tile_height(problem, {32}).front();
  const std::string text = fleet::sweep_point_to_json(p).dump();
  const core::SweepPoint q =
      fleet::sweep_point_from_json(Json::parse(text));
  // Doubles survive exactly: the writer prints round-trippable %.17g.
  EXPECT_EQ(q.V, p.V);
  EXPECT_EQ(q.g, p.g);
  EXPECT_EQ(q.t_overlap, p.t_overlap);
  EXPECT_EQ(q.t_nonoverlap, p.t_nonoverlap);
  EXPECT_EQ(q.predicted_overlap, p.predicted_overlap);
  EXPECT_EQ(q.predicted_nonoverlap, p.predicted_nonoverlap);
  EXPECT_EQ(q.predicted_cpu_bound, p.predicted_cpu_bound);
  EXPECT_EQ(q.events, p.events);
  EXPECT_EQ(fleet::sweep_point_to_json(q).dump(), text);
}

TEST(FleetUnitTest, MalformedPayloadsAreRejected) {
  EXPECT_THROW(fleet::execute_unit("not json"), tilo::util::Error);
  EXPECT_THROW(fleet::execute_unit("{\"tilo\":\"fleet.unit\",\"version\":99,"
                                   "\"kind\":\"sweep_point\"}"),
               tilo::util::Error);
  EXPECT_THROW(fleet::execute_unit("{\"tilo\":\"fleet.unit\",\"version\":1,"
                                   "\"kind\":\"mystery\"}"),
               tilo::util::Error);
}

// ---------------------------------------------------------------------------
// Controller protocol: register / lease / dedup / deregister, driven by a
// raw client so every transition is observable.

TEST(FleetControllerTest, RegisterGrantsIdCreditAndHeartbeatInterval) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 3;
  cfg.heartbeat_ms = 250;
  Controller controller(cfg, toy_units(4));
  controller.start();

  svc::Client client = svc::Client::connect(cfg.address);
  Json body = Json::object();
  body.set("name", Json::string("probe"));
  const svc::Response resp =
      fleet_call(client, svc::Op::kRegister, std::move(body));
  ASSERT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  const Json r = Json::parse(resp.result);
  EXPECT_GT(r.at("worker_id").as_integer("worker_id"), 0);
  EXPECT_EQ(r.at("credit").as_integer("credit"), 3);
  EXPECT_EQ(r.at("heartbeat_ms").as_integer("heartbeat_ms"), 250);
  EXPECT_EQ(r.at("fleet_version").as_integer("fleet_version"),
            fleet::kFleetVersion);

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.registered, 1u);
  EXPECT_EQ(stats.units, 4u);
  EXPECT_EQ(stats.pending, 4u);
  controller.stop();
}

TEST(FleetControllerTest, LeaseIsCappedByTheCreditWindow) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  Controller controller(cfg, toy_units(5));
  controller.start();

  svc::Client client = svc::Client::connect(cfg.address);
  const i64 id = register_worker(client, "greedy");
  const Json r = unit_poll(client, id, /*want=*/10);
  EXPECT_TRUE(r.at("known").as_bool("known"));
  EXPECT_FALSE(r.at("done").as_bool("done"));
  EXPECT_EQ(r.at("units").as_array("units").size(), 2u);

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.in_flight, 2u);
  EXPECT_EQ(stats.pending, 3u);
  controller.stop();
}

TEST(FleetControllerTest, DuplicateResultIsDroppedFirstWins) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 1;
  cfg.speculate = false;
  Controller controller(cfg, toy_units(2));
  controller.start();

  svc::Client a = svc::Client::connect(cfg.address);
  svc::Client b = svc::Client::connect(cfg.address);
  const i64 ida = register_worker(a, "a");
  const i64 idb = register_worker(b, "b");

  // a leases unit 0, b leases unit 1.
  const Json ra = unit_poll(a, ida, 1);
  const Json rb = unit_poll(b, idb, 1);
  const i64 ua = ra.at("units").as_array("units")[0].at("unit").as_integer("u");
  const i64 ub = rb.at("units").as_array("units")[0].at("unit").as_integer("u");
  EXPECT_NE(ua, ub);

  // a's real result lands first; b then claims a's unit with different
  // bytes — the zombie loses, first result wins.
  unit_poll(a, ida, 0, {{ua, toy_result(0)}});
  unit_poll(b, idb, 0, {{ua, "{\"impostor\":true}"}});
  unit_poll(b, idb, 0, {{ub, toy_result(1)}});

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_TRUE(controller.merged().complete());
  EXPECT_EQ(controller.merged().payloads()[static_cast<std::size_t>(ua)],
            toy_result(0));
  controller.stop();
}

TEST(FleetControllerTest, DeregisterRequeuesLeasesForOtherWorkers) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  Controller controller(cfg, toy_units(2));
  controller.start();

  svc::Client quitter = svc::Client::connect(cfg.address);
  const i64 id = register_worker(quitter, "quitter");
  const Json r = unit_poll(quitter, id, 2);
  ASSERT_EQ(r.at("units").as_array("units").size(), 2u);

  Json body = Json::object();
  body.set("worker_id", Json::integer(id));
  const svc::Response resp =
      fleet_call(quitter, svc::Op::kDeregister, std::move(body));
  ASSERT_EQ(resp.status, svc::RespStatus::kOk);
  EXPECT_EQ(Json::parse(resp.result).at("known").as_bool("known"), true);

  FleetStats stats = controller.stats();
  EXPECT_EQ(stats.requeued, 2u);
  EXPECT_EQ(stats.pending, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.deregistered, 1u);

  // A second worker picks the requeued units straight up.
  svc::Client heir = svc::Client::connect(cfg.address);
  const i64 id2 = register_worker(heir, "heir");
  const Json r2 = unit_poll(heir, id2, 2);
  EXPECT_EQ(r2.at("units").as_array("units").size(), 2u);
  controller.stop();
}

TEST(FleetControllerTest, SilentWorkerIsEvictedAndItsLeasesRequeue) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  cfg.heartbeat_ms = 50;  // evict after ~150ms of silence
  cfg.miss_threshold = 3;
  cfg.speculate = false;  // isolate the eviction-requeue path
  // Real sweep units: the live rescue worker actually executes these.
  Controller controller(
      cfg, fleet::sweep_units(core::paper_problem_i(), {16, 64}));
  controller.start();

  // The silent worker leases both units and then never speaks again.
  svc::Client silent = svc::Client::connect(cfg.address);
  const i64 id = register_worker(silent, "silent");
  ASSERT_EQ(unit_poll(silent, id, 2).at("units").as_array("units").size(), 2u);

  // A live worker thread drains the fleet once eviction requeues them.
  WorkerConfig wc;
  wc.address = cfg.address;
  wc.name = "live";
  Worker live(wc);
  std::thread runner([&live] { live.run(); });
  ASSERT_TRUE(controller.wait_for_ms(30'000));
  runner.join();

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.requeued, 2u);
  EXPECT_EQ(stats.duplicates, 0u);

  // The evicted id is told to re-register on its next poll.
  const Json r = unit_poll(silent, id, 1);
  EXPECT_FALSE(r.at("known").as_bool("known"));
  EXPECT_TRUE(r.at("done").as_bool("done"));
  controller.stop();
}

TEST(FleetControllerTest, SpeculationReDispatchesStragglersFirstResultWins) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 1;
  cfg.heartbeat_ms = 10'000;  // no eviction in this test
  cfg.speculate = true;
  cfg.speculate_after_ms = 1;
  Controller controller(cfg, toy_units(1));
  controller.start();

  svc::Client slow = svc::Client::connect(cfg.address);
  svc::Client fast = svc::Client::connect(cfg.address);
  const i64 slow_id = register_worker(slow, "slow");
  const i64 fast_id = register_worker(fast, "fast");

  // slow leases the only unit and stalls past the straggler threshold.
  ASSERT_EQ(unit_poll(slow, slow_id, 1).at("units").as_array("units").size(),
            1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // fast finds the queue dry and receives a speculative second lease.
  const Json r = unit_poll(fast, fast_id, 1);
  ASSERT_EQ(r.at("units").as_array("units").size(), 1u);
  EXPECT_EQ(r.at("units").as_array("units")[0].at("unit").as_integer("u"), 0);
  EXPECT_EQ(controller.stats().speculated, 1u);

  // fast lands first; slow's late copy is a counted duplicate.
  unit_poll(fast, fast_id, 0, {{0, toy_result(0)}});
  unit_poll(slow, slow_id, 0, {{0, "{\"late\":true}"}});

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(controller.merged().payloads()[0], toy_result(0));
  controller.stop();
}

TEST(FleetControllerTest, CompileOpIsRefusedByTheController) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  Controller controller(cfg, toy_units(1));
  controller.start();
  svc::Client client = svc::Client::connect(cfg.address);
  svc::Request req;
  req.op = svc::Op::kCompile;
  req.compile.source = "FOR i = 0 TO 3\n A(i) = A(i-1)\nENDFOR\n";
  const svc::Response resp = client.call(std::move(req));
  EXPECT_EQ(resp.status, svc::RespStatus::kBadRequest);
  EXPECT_NE(resp.error.find("fleet controller"), std::string::npos);
  controller.stop();
}

TEST(FleetControllerTest, OversizedFrameIsAnsweredOnceThenClosed) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.max_frame_bytes = 1024;
  Controller controller(cfg, toy_units(1));
  controller.start();
  svc::Fd fd = svc::connect_to(controller.address(), /*timeout_ms=*/2000);
  const char prefix[4] = {0x40, 0, 0, 0};  // a 1 GiB length prefix
  ASSERT_EQ(::send(fd.get(), prefix, sizeof prefix, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof prefix));
  std::string payload;
  ASSERT_EQ(svc::read_frame(fd.get(), payload, svc::kDefaultMaxFrameBytes,
                            /*deadline_ms=*/5000),
            svc::FrameStatus::kFrame);
  const svc::Response resp = svc::response_from_wire(payload);
  EXPECT_EQ(resp.status, svc::RespStatus::kBadRequest);
  EXPECT_NE(resp.error.find("cap"), std::string::npos) << resp.error;
  // The stream cannot be re-framed after the prefix, so the controller
  // closes the connection ...
  EXPECT_EQ(svc::read_frame(fd.get(), payload, svc::kDefaultMaxFrameBytes,
                            /*deadline_ms=*/2000),
            svc::FrameStatus::kClosed);
  // ... and keeps serving new ones.
  svc::Client client = svc::Client::connect(cfg.address);
  EXPECT_EQ(client.ping().status, svc::RespStatus::kOk);
  controller.stop();
}

// ---------------------------------------------------------------------------
// Determinism: the merged fleet document is byte-identical to the
// single-node sweep at 1, 2 and 4 workers, on all three paper spaces.

namespace {

void expect_fleet_matches_single_node(const Problem& problem) {
  const std::string reference = single_node_document(problem, kHeights);
  for (int nworkers : {1, 2, 4}) {
    ControllerConfig cfg;
    cfg.credit = 2;  // force multiple round trips even at 1 worker
    FleetRun run = run_fleet(fleet::sweep_units(problem, kHeights), nworkers,
                             std::move(cfg));
    EXPECT_EQ(run.document, reference)
        << "fleet sweep diverged at " << nworkers << " worker(s)";
    EXPECT_EQ(run.stats.completed, kHeights.size());
    EXPECT_EQ(run.stats.requeued, 0u);
    std::uint64_t worker_total = 0;
    for (const WorkerSummary& w : run.workers) {
      EXPECT_TRUE(w.clean);
      worker_total += w.completed;
    }
    // Every computed unit was a winning result (no speculation fired in a
    // healthy run, so worker tallies sum exactly to the unit count).
    EXPECT_EQ(worker_total, kHeights.size() + run.stats.duplicates);
  }
}

}  // namespace

TEST(FleetDeterminismTest, PaperSpaceIMatchesSingleNodeAt124Workers) {
  expect_fleet_matches_single_node(core::paper_problem_i());
}

TEST(FleetDeterminismTest, PaperSpaceIIMatchesSingleNodeAt124Workers) {
  expect_fleet_matches_single_node(core::paper_problem_ii());
}

TEST(FleetDeterminismTest, PaperSpaceIIIMatchesSingleNodeAt124Workers) {
  expect_fleet_matches_single_node(core::paper_problem_iii());
}

TEST(FleetDeterminismTest, MergedPayloadsParseBackToTheSweepPoints) {
  const Problem problem = core::paper_problem_i();
  const FleetRun run = run_fleet(fleet::sweep_units(problem, kHeights), 2);
  const std::vector<core::SweepPoint> fleet_points =
      fleet::sweep_points_from_payloads(run.payloads);
  const std::vector<core::SweepPoint> reference =
      core::sweep_tile_height(problem, kHeights);
  ASSERT_EQ(fleet_points.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(fleet_points[i].V, reference[i].V);
    EXPECT_EQ(fleet_points[i].g, reference[i].g);
    EXPECT_EQ(fleet_points[i].t_overlap, reference[i].t_overlap);
    EXPECT_EQ(fleet_points[i].t_nonoverlap, reference[i].t_nonoverlap);
    EXPECT_EQ(fleet_points[i].events, reference[i].events);
  }
}

// ---------------------------------------------------------------------------
// Robustness: SIGKILL of an external worker process mid-sweep loses zero
// units.  Runs out-of-process (fork + exec of tilo_cli --fleet-worker), so
// it is excluded from the TSan suite by name.

TEST(ForkFleetTest, SigkilledWorkerLosesNoUnits) {
  const Problem problem = core::paper_problem_i();
  // Many moderate-cost units: the victim cannot finish the sweep before
  // the kill lands, and each unit completes in well under a second.
  const std::vector<i64> heights =
      core::height_grid(8, problem.max_tile_height() / 2, 1.2);
  ASSERT_GE(heights.size(), 8u);

  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  cfg.heartbeat_ms = 100;  // evict the corpse after ~300ms
  cfg.miss_threshold = 3;
  Controller controller(cfg, fleet::sweep_units(problem, heights));
  controller.start();

  // The victim: a real external worker process.
  const pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    execl(TILO_CLI_PATH, TILO_CLI_PATH, "--fleet-worker", cfg.address.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }

  // Wait until the victim has delivered at least one result and holds a
  // fresh batch of leases, then SIGKILL it — no deregister, no goodbye.
  bool armed = false;
  for (int attempt = 0; attempt < 3000; ++attempt) {
    const FleetStats s = controller.stats();
    if (s.completed >= 1 && s.in_flight >= 1) {
      armed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(armed) << "victim never reached a kill window";
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(victim, &wstatus, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // A rescue worker finishes the sweep; eviction requeues the victim's
  // stranded leases.
  WorkerConfig wc;
  wc.address = cfg.address;
  wc.name = "rescue";
  Worker rescue(wc);
  std::thread runner([&rescue] { rescue.run(); });
  ASSERT_TRUE(controller.wait_for_ms(120'000));
  runner.join();

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, stats.units);
  EXPECT_GE(stats.requeued + stats.speculated, 1u)
      << "the victim's leases were never recovered";
  EXPECT_GE(stats.evicted, 1u);

  // And the result is still byte-identical to the single-node run.
  EXPECT_EQ(controller.merged_document(),
            single_node_document(problem, heights));
  controller.stop();
}

// ---------------------------------------------------------------------------
// Batched dispatch: several heights ride one work unit (analytic
// cost-balanced chunks), the controller's exactly-once machinery operates
// at unit granularity, and the flattened canonical document is invariant
// to how the plan was chunked.  Also covers the in-process fast lane:
// co-located workers that call the controller directly, no sockets.

namespace {

/// The chunking-invariant reference: one payload per height, flattened
/// through the same canonical document the fleet runs are compared on.
std::string single_node_points_document(const Problem& problem,
                                        const std::vector<i64>& heights) {
  const std::vector<core::SweepPoint> points =
      core::sweep_tile_height(problem, heights);
  std::vector<std::string> payloads;
  payloads.reserve(points.size());
  for (const core::SweepPoint& p : points)
    payloads.push_back(fleet::sweep_point_to_json(p).dump());
  return fleet::sweep_points_document(payloads);
}

}  // namespace

TEST(FleetBatchTest, BatchPlanCoversEveryHeightOnceInOrder) {
  const Problem problem = core::paper_problem_i();
  const std::vector<i64> heights =
      core::height_grid(8, problem.max_tile_height() / 2, 1.3);
  fleet::SweepBatchOptions opts;
  opts.max_heights = 3;
  const std::vector<WorkUnit> units =
      fleet::sweep_batch_units(problem, heights, opts);
  ASSERT_GE(units.size(), 2u);
  std::vector<i64> seen;
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].index, i);
    const Json j = Json::parse(units[i].payload);
    EXPECT_EQ(j.at("kind").as_string("kind"), "sweep_batch");
    const Json::Array& hs = j.at("heights").as_array("heights");
    EXPECT_GE(hs.size(), 1u);
    EXPECT_LE(hs.size(), 3u);
    for (const Json& h : hs) seen.push_back(h.as_integer("heights"));
  }
  EXPECT_EQ(seen, heights);
}

TEST(FleetBatchTest, AnalyticChunksIsolateTheMostExpensiveHeight) {
  const Problem problem = core::paper_problem_i();
  // Strongly skewed costs: the smallest height dominates (cost ~ 1 + K/V),
  // so with balance 1.0 it must not share a chunk with anything else.
  const std::vector<i64> heights = {8, 512, 1024, 2048};
  const std::vector<WorkUnit> units =
      fleet::sweep_batch_units(problem, heights);
  const Json first = Json::parse(units.front().payload);
  EXPECT_EQ(first.at("heights").as_array("heights").size(), 1u)
      << "the dominant height should ride alone";
}

TEST(FleetBatchTest, BatchedMergeByteIdenticalToUnbatchedAndSingleNode) {
  const Problem problem = core::paper_problem_i();
  const std::string reference =
      single_node_points_document(problem, kHeights);

  fleet::SweepBatchOptions opts;
  opts.max_heights = 2;
  opts.balance = 100.0;  // length-capped chunks: deterministic 2+2 split
  const std::vector<WorkUnit> batched =
      fleet::sweep_batch_units(problem, kHeights, opts);
  ASSERT_EQ(batched.size(), 2u);

  for (int nworkers : {1, 2}) {
    FleetRun unbatched_run =
        run_fleet(fleet::sweep_units(problem, kHeights), nworkers);
    FleetRun batched_run = run_fleet(batched, nworkers);
    EXPECT_EQ(fleet::sweep_points_document(unbatched_run.payloads),
              reference);
    EXPECT_EQ(fleet::sweep_points_document(batched_run.payloads), reference)
        << "batched merge diverged at " << nworkers << " worker(s)";
    EXPECT_EQ(batched_run.stats.completed, batched.size());
  }
}

TEST(FleetBatchTest, EvictedBatchedGrantRequeuesExactlyOncePerUnit) {
  const Problem problem = core::paper_problem_i();
  const std::vector<i64> heights = {8, 16, 32, 64};
  fleet::SweepBatchOptions opts;
  opts.max_heights = 2;
  opts.balance = 100.0;  // two units of two heights each
  const std::vector<WorkUnit> units =
      fleet::sweep_batch_units(problem, heights, opts);
  ASSERT_EQ(units.size(), 2u);

  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  cfg.heartbeat_ms = 50;  // evict after ~150ms of silence
  cfg.miss_threshold = 3;
  cfg.speculate = false;  // isolate the eviction-requeue path
  Controller controller(cfg, units);
  controller.start();

  // The silent worker leases BOTH batched units, then never speaks again.
  svc::Client silent = svc::Client::connect(cfg.address);
  const i64 id = register_worker(silent, "silent");
  ASSERT_EQ(unit_poll(silent, id, 2).at("units").as_array("units").size(),
            2u);

  WorkerConfig wc;
  wc.address = cfg.address;
  wc.name = "live";
  Worker live(wc);
  std::thread runner([&live] { live.run(); });
  ASSERT_TRUE(controller.wait_for_ms(30'000));
  runner.join();

  const FleetStats stats = controller.stats();
  // Exactly once per unit: each batched grant requeued a single time (a
  // unit, not a height, is the requeue granule), then completed once.
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.requeued, 2u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(fleet::sweep_points_document(controller.merged().payloads()),
            single_node_points_document(problem, heights));
  controller.stop();
}

TEST(FleetBatchTest, LocalTransportMatchesSocketBytesAndBookkeeping) {
  const Problem problem = core::paper_problem_i();
  const std::string reference =
      single_node_points_document(problem, kHeights);
  const std::vector<WorkUnit> units =
      fleet::sweep_batch_units(problem, kHeights);

  // Socket path first (run_fleet), then the in-process fast lane.
  FleetRun socket_run = run_fleet(units, 2);
  EXPECT_EQ(fleet::sweep_points_document(socket_run.payloads), reference);

  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  Controller controller(cfg, units);
  controller.start();
  std::vector<WorkerSummary> summaries(2);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&controller, &summaries, i] {
      WorkerConfig wc;
      wc.local = &controller;  // no sockets, no frames
      wc.name = "local-" + std::to_string(i);
      summaries[i] = Worker(wc).run();
    });
  }
  controller.wait();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(fleet::sweep_points_document(controller.merged().payloads()),
            reference);
  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, units.size());
  EXPECT_EQ(stats.registered, 2u);
  EXPECT_GT(stats.unit_polls, 0u);
  std::uint64_t total = 0;
  for (const WorkerSummary& s : summaries) {
    EXPECT_TRUE(s.clean);
    total += s.completed;
  }
  EXPECT_EQ(total, units.size() + stats.duplicates);
  controller.stop();
}

// ---------------------------------------------------------------------------
// Scheduler integration: job arrays, preemption over the wire, and the
// squeue/sacct introspection ops.

namespace {

/// A toy job array with `n` units starting at index `base`.
fleet::JobArray toy_job(const std::string& name, const std::string& tenant,
                        i64 priority, std::size_t base, std::size_t n) {
  fleet::JobArray job;
  job.spec.name = name;
  job.spec.tenant = tenant;
  job.spec.priority = priority;
  for (std::size_t i = 0; i < n; ++i)
    job.units.push_back(
        WorkUnit{base + i, "{\"toy\":" + std::to_string(base + i) + "}"});
  return job;
}

}  // namespace

TEST(FleetSchedTest, PreemptionRequeuesExactlyOnceAndDropNoticeFollows) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  cfg.speculate = false;
  cfg.sched.policy = "fair";
  // A single-slot partition: the low job's lease fills it, so a
  // high-priority arrival has to preempt to make progress.
  cfg.sched.partitions.push_back(
      tilo::sched::PartitionLimits{"default", 1, 0});
  std::vector<fleet::JobArray> jobs;
  jobs.push_back(toy_job("low", "small", 0, 0, 2));
  Controller controller(cfg, std::move(jobs));
  controller.start();

  svc::Client client = svc::Client::connect(cfg.address);
  const i64 id = register_worker(client, "w");
  const Json first = unit_poll(client, id, 1);
  ASSERT_EQ(first.at("units").as_array("units").size(), 1u);
  EXPECT_EQ(first.at("units").as_array("units")[0]
                .at("unit").as_integer("unit"), 0);
  EXPECT_EQ(first.find("drop"), nullptr);

  // High-priority arrival: the policy names the low job's lease (unit 0)
  // as the victim; the controller requeues it exactly-once and queues a
  // drop notice for our next poll.
  controller.submit(toy_job("high", "big", 9, 2, 1));
  const Json second = unit_poll(client, id, 1);
  ASSERT_EQ(second.at("units").as_array("units").size(), 1u);
  EXPECT_EQ(second.at("units").as_array("units")[0]
                .at("unit").as_integer("unit"), 2);
  const Json* drop = second.find("drop");
  ASSERT_NE(drop, nullptr);
  ASSERT_EQ(drop->as_array("drop").size(), 1u);
  EXPECT_EQ(drop->as_array("drop")[0].as_integer("drop"), 0);

  // The notice is delivered once: it does not ride the next poll too.
  const Json third = unit_poll(client, id, 1, {{2, toy_result(2)}});
  EXPECT_EQ(third.find("drop"), nullptr);
  ASSERT_EQ(third.at("units").as_array("units").size(), 1u);
  EXPECT_EQ(third.at("units").as_array("units")[0]
                .at("unit").as_integer("unit"), 0);

  const Json fourth = unit_poll(client, id, 1, {{0, toy_result(0)}});
  ASSERT_EQ(fourth.at("units").as_array("units").size(), 1u);
  const Json last = unit_poll(client, id, 0, {{1, toy_result(1)}});
  EXPECT_TRUE(last.at("done").as_bool("done"));

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.preempted, 1u);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.jobs, 2u);
  const std::vector<std::string> payloads = controller.merged().payloads();
  ASSERT_EQ(payloads.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(payloads[i], toy_result(i));
  controller.stop();
}

TEST(FleetSchedTest, QueueOpReportsJobsAndPartitions) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.sched.policy = "fair";
  std::vector<fleet::JobArray> jobs;
  jobs.push_back(toy_job("sweep", "acme", 5, 0, 3));
  Controller controller(cfg, std::move(jobs));
  controller.start();

  svc::Client client = svc::Client::connect(cfg.address);
  const svc::Response resp = client.queue();
  ASSERT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  const Json r = Json::parse(resp.result);
  EXPECT_EQ(r.at("policy").as_string("policy"), "fair");
  const Json::Array& js = r.at("jobs").as_array("jobs");
  ASSERT_EQ(js.size(), 1u);
  EXPECT_EQ(js[0].at("name").as_string("name"), "sweep");
  EXPECT_EQ(js[0].at("tenant").as_string("tenant"), "acme");
  EXPECT_EQ(js[0].at("partition").as_string("partition"), "default");
  EXPECT_EQ(js[0].at("state").as_string("state"), "pending");
  EXPECT_EQ(js[0].at("priority").as_integer("priority"), 5);
  EXPECT_GE(js[0].at("effective_priority").as_integer("eff"), 5);
  EXPECT_EQ(js[0].at("units").as_integer("units"), 3);
  EXPECT_EQ(js[0].at("queued").as_integer("queued"), 3);
  EXPECT_EQ(js[0].at("in_flight").as_integer("in_flight"), 0);
  const Json::Array& ps = r.at("partitions").as_array("partitions");
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].at("name").as_string("name"), "default");
  EXPECT_EQ(ps[0].at("queued").as_integer("queued"), 3);
  controller.stop();
}

TEST(FleetSchedTest, AccountingOpChargesTheTenantPerCompletedUnit) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.sched.policy = "fair";
  std::vector<fleet::JobArray> jobs;
  jobs.push_back(toy_job("sweep", "acme", 0, 0, 2));
  Controller controller(cfg, std::move(jobs));
  controller.start();

  svc::Client client = svc::Client::connect(cfg.address);
  const i64 id = register_worker(client, "w");
  const Json leased = unit_poll(client, id, 2);
  ASSERT_EQ(leased.at("units").as_array("units").size(), 2u);
  unit_poll(client, id, 0, {{0, toy_result(0)}, {1, toy_result(1)}});

  const svc::Response resp = client.accounting();
  ASSERT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
  const Json r = Json::parse(resp.result);
  EXPECT_EQ(r.at("policy").as_string("policy"), "fair");
  const Json::Array& ts = r.at("tenants").as_array("tenants");
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].at("name").as_string("name"), "acme");
  EXPECT_EQ(ts[0].at("charged_units").as_integer("charged_units"), 2);
  EXPECT_GT(ts[0].at("usage").as_number("usage"), 0.0);
  EXPECT_EQ(r.at("preempted").as_integer("preempted"), 0);
  EXPECT_EQ(r.at("backfilled").as_integer("backfilled"), 0);
  controller.stop();
}

TEST(FleetSchedTest, MidRunSubmitExtendsTheMergeAndCompletes) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 4;
  cfg.speculate = false;
  std::vector<fleet::JobArray> jobs;
  jobs.push_back(toy_job("first", "t", 0, 0, 2));
  Controller controller(cfg, std::move(jobs));
  controller.start();

  svc::Client client = svc::Client::connect(cfg.address);
  const i64 id = register_worker(client, "w");
  const Json leased = unit_poll(client, id, 2);
  ASSERT_EQ(leased.at("units").as_array("units").size(), 2u);

  // A second array lands while the first is in flight: the merge grows,
  // "done" stays false until every unit of both arrays is in.
  controller.submit(toy_job("second", "t", 0, 2, 2));
  const Json mid =
      unit_poll(client, id, 2, {{0, toy_result(0)}, {1, toy_result(1)}});
  EXPECT_FALSE(mid.at("done").as_bool("done"));
  ASSERT_EQ(mid.at("units").as_array("units").size(), 2u);
  const Json last =
      unit_poll(client, id, 0, {{2, toy_result(2)}, {3, toy_result(3)}});
  EXPECT_TRUE(last.at("done").as_bool("done"));

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.units, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.jobs, 2u);
  const std::vector<std::string> payloads = controller.merged().payloads();
  ASSERT_EQ(payloads.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(payloads[i], toy_result(i));
  controller.stop();
}

TEST(FleetSchedTest, JobArrayCtorMatchesLegacyCtorBytes) {
  const Problem problem = core::paper_problem_i();
  const std::string reference = single_node_document(problem, kHeights);

  // Legacy vector<WorkUnit> ctor (wraps into one default job array).
  FleetRun legacy = run_fleet(fleet::sweep_units(problem, kHeights), 2);
  EXPECT_EQ(legacy.document, reference);

  // Explicit single job array under fifo: byte-identical document.
  fleet::JobArray job;
  job.spec.name = "sweep";
  job.units = fleet::sweep_units(problem, kHeights);
  ControllerConfig cfg;
  cfg.address = fresh_address();
  std::vector<fleet::JobArray> jobs;
  jobs.push_back(std::move(job));
  Controller controller(std::move(cfg), std::move(jobs));
  controller.start();
  WorkerConfig wc;
  wc.local = &controller;
  wc.name = "local";
  std::thread runner([&wc] { Worker(wc).run(); });
  ASSERT_TRUE(controller.wait_for_ms(30'000));
  runner.join();
  EXPECT_EQ(controller.merged_document(), reference);
  EXPECT_EQ(controller.stats().jobs, 1u);
  controller.stop();
}

// ---------------------------------------------------------------------------
// call_local fast lane vs the eviction clock and deregister: these run
// under TSan (the suite matches the sanitizer filter), pinning down that
// the no-socket path takes the same locks as everything racing it.

namespace {

/// A hand-rolled local worker: polls via call_local, answers toy results,
/// re-registers when evicted, and naps every few rounds so the 1ms
/// eviction clock actually catches it mid-lease.
void local_racer(Controller& controller, const std::string& name,
                 bool nap) {
  i64 id = -1;
  std::vector<std::pair<i64, std::string>> batch;
  for (int round = 0; round < 100'000; ++round) {
    if (id < 0) {
      svc::Request req;
      req.op = svc::Op::kRegister;
      Json body = Json::object();
      body.set("name", Json::string(name));
      req.fleet = std::move(body);
      const svc::Response resp = controller.call_local(req);
      ASSERT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
      id = Json::parse(resp.result).at("worker_id").as_integer("worker_id");
    }
    svc::Request req;
    req.op = svc::Op::kUnit;
    Json body = Json::object();
    body.set("worker_id", Json::integer(id));
    body.set("want", Json::integer(2));
    if (!batch.empty()) {
      Json arr = Json::array();
      for (const auto& [index, result] : batch) {
        Json entry = Json::object();
        entry.set("unit", Json::integer(index));
        entry.set("result", Json::parse(result));
        arr.push(std::move(entry));
      }
      body.set("completed", std::move(arr));
    }
    req.fleet = std::move(body);
    const svc::Response resp = controller.call_local(req);
    ASSERT_EQ(resp.status, svc::RespStatus::kOk) << resp.error;
    const Json r = Json::parse(resp.result);
    batch.clear();  // delivered — exactly-once is the merge's job now
    if (r.at("done").as_bool("done")) return;
    if (!r.at("known").as_bool("known")) {
      id = -1;  // evicted mid-run: rejoin under a fresh id
      continue;
    }
    for (const Json& u : r.at("units").as_array("units"))
      batch.emplace_back(u.at("unit").as_integer("unit"),
                         toy_result(static_cast<std::size_t>(
                             u.at("unit").as_integer("unit"))));
    if (nap && round % 8 == 7)
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  FAIL() << "local racer " << name << " never saw done";
}

}  // namespace

TEST(FleetLocalRaceTest, FastLanePollsRaceEvictionWithoutLosingUnits) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  cfg.heartbeat_ms = 1;  // evict anything silent for ~1ms
  cfg.miss_threshold = 1;
  cfg.speculate = false;
  Controller controller(cfg, toy_units(32));
  controller.start();

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&controller, i] {
      local_racer(controller, "racer-" + std::to_string(i), /*nap=*/true);
    });
  for (std::thread& t : threads) t.join();

  const FleetStats stats = controller.stats();
  EXPECT_EQ(stats.completed, 32u);
  const std::vector<std::string> payloads = controller.merged().payloads();
  ASSERT_EQ(payloads.size(), 32u);
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(payloads[i], toy_result(i));
  controller.stop();
}

TEST(FleetLocalRaceTest, FastLaneDeregisterAndIntrospectionRacePolls) {
  ControllerConfig cfg;
  cfg.address = fresh_address();
  cfg.credit = 2;
  cfg.heartbeat_ms = 1;
  cfg.miss_threshold = 2;
  cfg.speculate = false;
  cfg.sched.policy = "fair";
  Controller controller(cfg, toy_units(16));
  controller.start();

  std::atomic<bool> finished{false};
  // Churn thread: register/deregister fresh ids and hammer the
  // introspection ops while the racers drain the queue.
  std::thread churn([&controller, &finished] {
    while (!finished.load(std::memory_order_acquire)) {
      svc::Request reg;
      reg.op = svc::Op::kRegister;
      Json body = Json::object();
      body.set("name", Json::string("churn"));
      reg.fleet = std::move(body);
      const svc::Response resp = controller.call_local(reg);
      if (resp.status == svc::RespStatus::kOk) {
        const i64 id =
            Json::parse(resp.result).at("worker_id").as_integer("worker_id");
        svc::Request dereg;
        dereg.op = svc::Op::kDeregister;
        Json b = Json::object();
        b.set("worker_id", Json::integer(id));
        dereg.fleet = std::move(b);
        controller.call_local(dereg);
      }
      for (const svc::Op op : {svc::Op::kQueue, svc::Op::kAcct,
                               svc::Op::kStats}) {
        svc::Request req;
        req.op = op;
        controller.call_local(req);
      }
    }
  });

  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i)
    threads.emplace_back([&controller, i] {
      local_racer(controller, "racer-" + std::to_string(i), /*nap=*/false);
    });
  for (std::thread& t : threads) t.join();
  finished.store(true, std::memory_order_release);
  churn.join();

  EXPECT_EQ(controller.stats().completed, 16u);
  EXPECT_EQ(controller.merged().payloads().size(), 16u);
  controller.stop();
}
