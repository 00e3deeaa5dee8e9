// Microbenchmarks (google-benchmark) of the simulation substrate itself:
// event throughput, per-message pipeline cost, and end-to-end executor
// runs.  These quantify how much paper-scale experimentation the simulator
// sustains per wall-second.
#include <benchmark/benchmark.h>

#include <functional>

#include "tilo/core/problem.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/msg/cluster.hpp"
#include "tilo/sim/engine.hpp"

using namespace tilo;

static void BM_EngineEventThroughput(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  // A self-rescheduling trivially-copyable callable: the engine stores it
  // in a pooled inline slot, so the steady state allocates nothing.
  struct Tick {
    sim::Engine* e;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) e->after(10, *this);
    }
  };
  for (auto _ : state) {
    sim::Engine e;
    int remaining = chain;
    e.after(10, Tick{&e, &remaining});
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

static void BM_EngineEventThroughputStdFunction(benchmark::State& state) {
  // Same chain through a std::function indirection — quantifies what the
  // pooled inline storage saves over type-erased heap callables.
  const int chain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    int remaining = chain;
    std::function<void()> tick = [&] {
      if (--remaining > 0) e.after(10, tick);
    };
    e.after(10, tick);
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_EngineEventThroughputStdFunction)->Arg(100000);

static void BM_MessagePipeline(benchmark::State& state) {
  const int msgs = static_cast<int>(state.range(0));
  const auto model = std::make_shared<const mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  for (auto _ : state) {
    msg::Cluster c(2, model);
    for (int i = 0; i < msgs; ++i) c.node(1).irecv(0, i);
    c.engine().at(0, [&] {
      for (int i = 0; i < msgs; ++i) c.node(0).isend(1, i, 7104);
    });
    benchmark::DoNotOptimize(c.run());
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_MessagePipeline)->Arg(100)->Arg(1000);

static void BM_TimedRunOverlap(benchmark::State& state) {
  const util::i64 V = state.range(0);
  const core::Problem p = core::paper_problem_i();
  const exec::TilePlan plan = p.plan(V, sched::ScheduleKind::kOverlap);
  const auto model = std::make_shared<const mach::IdealOverlapModel>(p.machine);
  for (auto _ : state) {
    const exec::RunResult r = exec::run_plan(p.nest, plan, model);
    benchmark::DoNotOptimize(r.completion);
    state.counters["sim_events"] = static_cast<double>(r.events);
    state.counters["sim_seconds"] = r.seconds;
  }
}
BENCHMARK(BM_TimedRunOverlap)->Arg(64)->Arg(444)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

static void BM_TimedRunNonOverlap(benchmark::State& state) {
  const util::i64 V = state.range(0);
  const core::Problem p = core::paper_problem_i();
  const exec::TilePlan plan = p.plan(V, sched::ScheduleKind::kNonOverlap);
  const auto model = std::make_shared<const mach::IdealOverlapModel>(p.machine);
  for (auto _ : state) {
    const exec::RunResult r = exec::run_plan(p.nest, plan, model);
    benchmark::DoNotOptimize(r.completion);
  }
}
BENCHMARK(BM_TimedRunNonOverlap)->Arg(64)->Arg(444)
    ->Unit(benchmark::kMillisecond);

static void BM_FunctionalRun(benchmark::State& state) {
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 8}),
      sched::ScheduleKind::kOverlap);
  const auto model = std::make_shared<const mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  exec::RunOptions opts;
  opts.functional = true;
  for (auto _ : state) {
    const exec::RunResult r = exec::run_plan(nest, plan, model, opts);
    benchmark::DoNotOptimize(r.field->values.data());
  }
  state.SetItemsProcessed(state.iterations() * nest.iterations());
}
BENCHMARK(BM_FunctionalRun)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
