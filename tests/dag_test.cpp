// TileDagWorkload: the Cholesky generator's shape, deterministic
// topological ordering, the ALAP lower bound's defining properties, the
// list scheduler's soundness against that bound, and the DAG route
// through the staged pipeline (Frontend → Analysis → Backend).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tilo/machine/model.hpp"
#include "tilo/obs/report.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/util/error.hpp"
#include "tilo/workload/dag.hpp"

using namespace tilo;
using util::i64;

namespace {

mach::IdealOverlapModel paper_model() {
  return mach::IdealOverlapModel(mach::MachineParams::paper_cluster());
}

}  // namespace

TEST(DagCholeskyTest, GeneratorCountsMatchTheClosedForms) {
  // nt(nt+1)(nt+2)/6 tasks: nt POTRF, nt(nt-1)/2 TRSM, nt(nt-1)/2 SYRK,
  // nt(nt-1)(nt-2)/6 GEMM.
  for (i64 nt : {1, 2, 4, 6}) {
    const auto dag = workload::make_cholesky_dag(nt, 8);
    EXPECT_EQ(dag->num_tasks(), nt * (nt + 1) * (nt + 2) / 6) << "nt=" << nt;
    i64 potrf = 0, trsm = 0, syrk = 0, gemm = 0;
    for (const workload::DagTask& t : dag->tasks()) {
      if (t.label.rfind("potrf", 0) == 0) ++potrf;
      if (t.label.rfind("trsm", 0) == 0) ++trsm;
      if (t.label.rfind("syrk", 0) == 0) ++syrk;
      if (t.label.rfind("gemm", 0) == 0) ++gemm;
    }
    EXPECT_EQ(potrf, nt);
    EXPECT_EQ(trsm, nt * (nt - 1) / 2);
    EXPECT_EQ(syrk, nt * (nt - 1) / 2);
    EXPECT_EQ(gemm, nt * (nt - 1) * (nt - 2) / 6);
  }
}

TEST(DagCholeskyTest, WeightsFollowTheKernelIterationCounts) {
  const i64 b = 16;
  const auto dag = workload::make_cholesky_dag(3, b);
  for (const workload::DagTask& t : dag->tasks()) {
    if (t.label.rfind("potrf", 0) == 0) {
      EXPECT_EQ(t.iterations, b * b * b / 3);
    }
    if (t.label.rfind("trsm", 0) == 0) {
      EXPECT_EQ(t.iterations, b * b * b);
    }
    if (t.label.rfind("syrk", 0) == 0) {
      EXPECT_EQ(t.iterations, b * b * b);
    }
    if (t.label.rfind("gemm", 0) == 0) {
      EXPECT_EQ(t.iterations, 2 * b * b * b);
    }
    // Every edge moves one b x b tile of doubles.
    for (i64 bytes : t.dep_bytes) EXPECT_EQ(bytes, b * b * 8);
    EXPECT_EQ(t.dep_bytes.size(), t.deps.size());
  }
  // domain_points is the summed work.
  i64 total = 0;
  for (const workload::DagTask& t : dag->tasks()) total += t.iterations;
  EXPECT_EQ(dag->domain_points(), total);
}

TEST(DagTopoTest, OrderRespectsEveryEdge) {
  const auto dag = workload::make_cholesky_dag(5, 8);
  const std::vector<i64> order = workload::topo_order(*dag);
  ASSERT_EQ(static_cast<i64>(order.size()), dag->num_tasks());
  std::vector<i64> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (i64 t = 0; t < dag->num_tasks(); ++t)
    for (i64 d : dag->tasks()[t].deps)
      EXPECT_LT(position[d], position[t])
          << dag->tasks()[d].label << " must precede " << dag->tasks()[t].label;
}

TEST(DagTopoTest, CycleIsRejectedNamingATask) {
  std::vector<workload::DagTask> tasks(2);
  tasks[0].label = "ouroboros";
  tasks[0].iterations = 1;
  tasks[0].deps = {1};
  tasks[0].dep_bytes = {8};
  tasks[1].label = "tail";
  tasks[1].iterations = 1;
  tasks[1].deps = {0};
  tasks[1].dep_bytes = {8};
  const workload::TileDagWorkload dag("cyclic", std::move(tasks));
  try {
    workload::topo_order(dag);
    FAIL() << "cycle was not detected";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("ouroboros"), std::string::npos)
        << e.what();
  }
}

TEST(DagTopoTest, MalformedEdgesAreRejectedAtConstruction) {
  std::vector<workload::DagTask> out_of_range(1);
  out_of_range[0].label = "t";
  out_of_range[0].iterations = 1;
  out_of_range[0].deps = {7};
  out_of_range[0].dep_bytes = {8};
  EXPECT_THROW(workload::TileDagWorkload("bad", std::move(out_of_range)),
               util::Error);

  std::vector<workload::DagTask> ragged(2);
  ragged[0].label = "a";
  ragged[0].iterations = 1;
  ragged[1].label = "b";
  ragged[1].iterations = 1;
  ragged[1].deps = {0};
  ragged[1].dep_bytes = {};  // not parallel to deps
  EXPECT_THROW(workload::TileDagWorkload("bad", std::move(ragged)),
               util::Error);
}

TEST(DagOwnerTest, AssignmentIsBlockCyclicOverAffinity) {
  const auto dag = workload::make_cholesky_dag(4, 8);
  const std::vector<int> owner = workload::assign_owners(*dag, 3);
  ASSERT_EQ(static_cast<i64>(owner.size()), dag->num_tasks());
  for (i64 t = 0; t < dag->num_tasks(); ++t)
    EXPECT_EQ(owner[t], static_cast<int>(dag->tasks()[t].affinity % 3));
}

TEST(DagAlapTest, BoundCombinesCriticalPathAndWorkRefinement) {
  const auto dag = workload::make_cholesky_dag(6, 32);
  const auto model = paper_model();
  for (int ranks : {1, 2, 4}) {
    const workload::AlapBound bound =
        workload::alap_lower_bound(*dag, ranks, model);
    ASSERT_EQ(static_cast<i64>(bound.alap.size()), dag->num_tasks());
    sim::Time max_alap = 0;
    for (sim::Time a : bound.alap) {
      EXPECT_GT(a, 0);
      max_alap = std::max(max_alap, a);
    }
    EXPECT_EQ(bound.critical_path_ns, max_alap);
    EXPECT_EQ(bound.bound_ns,
              std::max(bound.critical_path_ns, bound.work_bound_ns));
    // alap(t) >= w(t), and a predecessor's alap strictly dominates.
    for (i64 t = 0; t < dag->num_tasks(); ++t)
      for (i64 d : dag->tasks()[t].deps)
        EXPECT_GT(bound.alap[d], bound.alap[t]);
  }
}

TEST(DagAlapTest, MoreRanksNeverRaiseTheBound) {
  const auto dag = workload::make_cholesky_dag(6, 32);
  const auto model = paper_model();
  sim::Time prev = 0;
  for (int ranks : {8, 4, 2, 1}) {
    const sim::Time b = workload::alap_lower_bound(*dag, ranks, model).bound_ns;
    EXPECT_GE(b, prev) << ranks << " ranks";
    prev = b;
  }
}

TEST(DagRunTest, AchievedMakespanNeverBeatsTheBound) {
  const auto dag = workload::make_cholesky_dag(6, 32);
  const auto model = paper_model();
  for (int ranks : {1, 2, 3, 4, 8}) {
    const std::vector<int> owner = workload::assign_owners(*dag, ranks);
    const workload::AlapBound bound =
        workload::alap_lower_bound(*dag, ranks, model);
    const exec::RunResult run =
        workload::run_dag(*dag, owner, ranks, model, bound);
    EXPECT_GE(run.completion, bound.bound_ns) << ranks << " ranks";
    EXPECT_EQ(run.alap_lower_bound, bound.bound_ns);
    EXPECT_GT(run.events, 0u);
  }
}

TEST(DagRunTest, SingleRankMeetsTheBoundExactly) {
  // On one processor the bound degenerates to the serial work sum, which
  // the schedule achieves with no idle gaps: ratio exactly 1.0.
  const auto dag = workload::make_cholesky_dag(6, 32);
  const auto model = paper_model();
  const workload::AlapBound bound =
      workload::alap_lower_bound(*dag, 1, model);
  const exec::RunResult run = workload::run_dag(
      *dag, workload::assign_owners(*dag, 1), 1, model, bound);
  EXPECT_EQ(run.completion, bound.bound_ns);
  EXPECT_EQ(run.messages, 0);  // nothing crosses ranks
}

TEST(DagRunTest, RerunsAreByteDeterministic) {
  const auto dag = workload::make_cholesky_dag(6, 32);
  const auto model = paper_model();
  const std::vector<int> owner = workload::assign_owners(*dag, 4);
  const workload::AlapBound bound =
      workload::alap_lower_bound(*dag, 4, model);
  const exec::RunResult a = workload::run_dag(*dag, owner, 4, model, bound);
  const exec::RunResult b = workload::run_dag(*dag, owner, 4, model, bound);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
}

TEST(DagRunTest, ReportSinkCapturesTheBoundNextToTheMakespan) {
  const auto dag = workload::make_cholesky_dag(6, 32);
  const auto model = paper_model();
  const std::vector<int> owner = workload::assign_owners(*dag, 4);
  const workload::AlapBound bound =
      workload::alap_lower_bound(*dag, 4, model);
  obs::ReportSink sink;
  const exec::RunResult run =
      workload::run_dag(*dag, owner, 4, model, bound, &sink);
  const obs::RunReport report = sink.report();
  EXPECT_EQ(report.makespan, run.completion);
  EXPECT_EQ(report.alap_lower_bound_ns, bound.bound_ns);
  EXPECT_GE(report.alap_bound_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report.alap_bound_ratio,
                   static_cast<double>(run.completion) /
                       static_cast<double>(bound.bound_ns));
  // Nest-family reports keep the zero defaults (byte-identity guard).
  obs::ReportSink plain;
  plain.span(0, obs::Phase::kCompute, 0, 10);
  EXPECT_EQ(plain.report().alap_lower_bound_ns, 0);
  EXPECT_EQ(plain.report().alap_bound_ratio, 0.0);
}

TEST(DagPipelineTest, CompileRoutesFrontendAnalysisBackend) {
  pipeline::CompileOptions opts;
  opts.workload_kind = workload::Kind::kTileDag;
  opts.auto_procs = 4;
  const pipeline::ArtifactStore out =
      pipeline::Compiler(opts).compile_source("chol", "cholesky nt=6 b=32");
  const pipeline::DagPlanArtifact& plan = out.dag_plan();
  EXPECT_EQ(plan.ranks, 4);
  EXPECT_EQ(plan.dag->num_tasks(), 56);
  EXPECT_GT(plan.bound.bound_ns, 0);
  ASSERT_TRUE(out.backend().run);
  EXPECT_GE(out.backend().run->completion, plan.bound.bound_ns);
  EXPECT_EQ(out.backend().run->alap_lower_bound, plan.bound.bound_ns);
  // The DAG route never builds nest-family artifacts.
  EXPECT_FALSE(out.has_nest());
  EXPECT_THROW(out.plan(), util::Error);
}

TEST(DagPipelineTest, ExplicitProcsGridSetsTheRankCount) {
  pipeline::CompileOptions opts;
  opts.workload_kind = workload::Kind::kTileDag;
  opts.procs = lat::Vec({2, 3});
  const pipeline::ArtifactStore out =
      pipeline::Compiler(opts).compile_source("chol", "cholesky nt=4 b=16");
  EXPECT_EQ(out.dag_plan().ranks, 6);
}

TEST(DagPipelineTest, MalformedGeneratorSpecFailsInTheFrontend) {
  pipeline::CompileOptions opts;
  opts.workload_kind = workload::Kind::kTileDag;
  try {
    pipeline::Compiler(opts).compile_source("bad", "lu nt=4 b=16");
    FAIL() << "unknown generator accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("Frontend"), std::string::npos)
        << e.what();
  }
}

TEST(DagPipelineTest, CodegenAndFunctionalModesAreRejected) {
  pipeline::CompileOptions opts;
  opts.workload_kind = workload::Kind::kTileDag;
  opts.emit_program = true;
  EXPECT_THROW(
      pipeline::Compiler(opts).compile_source("chol", "cholesky nt=4 b=16"),
      util::Error);
  opts.emit_program = false;
  opts.functional = true;
  EXPECT_THROW(
      pipeline::Compiler(opts).compile_source("chol", "cholesky nt=4 b=16"),
      util::Error);
}

TEST(DagPipelineTest, StageLogNamesTasksEdgesAndBound) {
  pipeline::CompileOptions opts;
  opts.workload_kind = workload::Kind::kTileDag;
  opts.auto_procs = 2;
  const pipeline::ArtifactStore out =
      pipeline::Compiler(opts).compile_source("chol", "cholesky nt=4 b=16");
  std::ostringstream os;
  pipeline::write_stage_log(os, out);
  const std::string log = os.str();
  EXPECT_NE(log.find("20 tasks"), std::string::npos) << log;
  EXPECT_NE(log.find("ALAP bound"), std::string::npos) << log;
  EXPECT_NE(log.find(">= ALAP bound"), std::string::npos) << log;
}
