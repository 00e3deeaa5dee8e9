// core::sweep_tile_height / autotune_tile_height, implemented on the staged
// pipeline: each sweep point runs Tiling → Scheduling → Lowering → Backend
// through the stage functions (with their verifiers), so every simulated
// point has passed the same invariant checks a full compile does.  Lives in
// the pipeline library; the core header is unchanged.
#include "tilo/core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "tilo/core/analytic.hpp"
#include "tilo/core/parallel.hpp"
#include "tilo/machine/optimize.hpp"
#include "tilo/pipeline/stages.hpp"
#include "tilo/util/error.hpp"

namespace tilo::core {

namespace {

/// Wall-clock now in ns (host spans only; the simulation itself never
/// reads the host clock).
obs::Time wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The Analysis artifact every sweep point runs on: the problem as given,
/// with a null model resolved to the ideal model over its machine, so
/// every stage below costs through one mach::Model.
pipeline::AnalysisArtifact analysis_for(const Problem& problem) {
  pipeline::AnalysisArtifact analysis{problem, problem.mapped_dim(), false};
  if (!analysis.problem.model)
    analysis.problem.model =
        std::make_shared<const mach::IdealOverlapModel>(problem.machine);
  return analysis;
}

/// One sweep sample at height V: tile once, lower the requested kinds and
/// attach their eq. (3)-(5) predictions, then simulate each lowered kind
/// whose opts.run_* flag is set.  The runs reuse the worker's workspace
/// (they share one tiled geometry, so the second reuses the comm table the
/// first built).  With both kinds requested the non-overlap plan is the
/// overlap plan with its kind flipped (geometry is kind-independent),
/// re-verified before use.  A kind not requested keeps zero predictions
/// and time.
SweepPoint measure_point(const pipeline::AnalysisArtifact& analysis, i64 V,
                         const SweepOptions& opts,
                         exec::RunWorkspace& workspace, bool overlap,
                         bool nonoverlap) {
  SweepPoint pt;
  pt.V = V;
  const Problem& problem = analysis.problem;

  const pipeline::TilingArtifact tiling =
      pipeline::run_tiling(analysis, V, ScheduleKind::kOverlap);
  pt.g = tiling.tiling.tile_volume();

  pipeline::PlanArtifact over;
  if (overlap) {
    const pipeline::ScheduleArtifact schedule =
        pipeline::run_scheduling(analysis, tiling, ScheduleKind::kOverlap);
    over = pipeline::run_lowering(analysis, tiling, schedule,
                                  opts.comm.level);
    pt.predicted_overlap = over.predicted_seconds;
    pt.predicted_cpu_bound =
        predict_overlap_cpu_bound(*over.plan, *problem.model);
  }

  pipeline::PlanArtifact nonover;
  if (nonoverlap) {
    const pipeline::ScheduleArtifact schedule =
        pipeline::run_scheduling(analysis, tiling, ScheduleKind::kNonOverlap);
    if (overlap) {
      auto flipped = std::make_shared<exec::TilePlan>(*over.plan);
      flipped->kind = ScheduleKind::kNonOverlap;
      pipeline::verify_lowered_plan(pipeline::Stage::kLowering, *flipped,
                                    tiling.tiling, analysis.mapped_dim,
                                    problem.procs, schedule.length);
      const double predicted = predict_completion(*flipped, *problem.model);
      nonover = pipeline::PlanArtifact{std::move(flipped), predicted};
    } else {
      nonover = pipeline::run_lowering(analysis, tiling, schedule,
                                       opts.comm.level);
    }
    pt.predicted_nonoverlap = nonover.predicted_seconds;
  }

  pipeline::BackendConfig config;
  config.comm = opts.comm;
  config.sink = opts.sink;
  config.workspace = &workspace;
  const auto simulate = [&](const pipeline::PlanArtifact& plan) {
    const pipeline::BackendArtifact b =
        pipeline::run_backend(problem.nest, analysis, plan, config);
    pt.events += b.run->events;
    return b.run->seconds;
  };
  if (overlap && opts.run_overlap) pt.t_overlap = simulate(over);
  if (nonoverlap && opts.run_nonoverlap) pt.t_nonoverlap = simulate(nonover);
  return pt;
}

/// The ranking curves the pruning logic consults.  Ideal models keep the
/// closed-form AnalyticModel (its bytes are the historical contract); a
/// non-ideal Problem.model ranks with the model-aware analytic completion
/// instead, so pruning decisions track the machine that will actually be
/// simulated.
struct RankingCurves {
  const Problem& problem;
  const AnalyticModel& model;
  bool use_model;

  explicit RankingCurves(const Problem& p, const AnalyticModel& m)
      : problem(p), model(m), use_model(!p.model->ideal()) {}

  double overlap(i64 V) const {
    return use_model ? analytic_completion(problem, *problem.model, V,
                                           ScheduleKind::kOverlap)
                     : model.total_overlap(static_cast<double>(V));
  }
  double nonoverlap(i64 V) const {
    return use_model ? analytic_completion(problem, *problem.model, V,
                                           ScheduleKind::kNonOverlap)
                     : model.total_nonoverlap(static_cast<double>(V));
  }
  double cpu_bound(i64 V) const {
    const double v = static_cast<double>(V);
    return use_model
               ? analytic_completion_cpu_bound(problem, *problem.model, V)
               : (model.c0_overlap + model.k / v) * model.cpu_side(v);
  }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_recommendation(const SweepVerdict& a, const SweepVerdict& b) {
  return a.V == b.V && a.g == b.g && bits_equal(a.t, b.t) &&
         bits_equal(a.predicted, b.predicted);
}

/// The executing thread's persistent run workspace.  Keyed by thread (not
/// by worker id), it is race-free even when two sweeps overlap, and its
/// comm table / rank buffers survive across sweep and autotune calls —
/// repeated sweeps over the same geometry skip the table build entirely.
/// Results are unaffected by reuse: RunWorkspace rebuilds on any geometry
/// mismatch, and outputs are index-keyed.
exec::RunWorkspace& arena_workspace() {
  thread_local exec::RunWorkspace workspace;
  return workspace;
}

}  // namespace

std::vector<SweepPoint> sweep_tile_height(const Problem& problem,
                                          const std::vector<i64>& heights,
                                          const SweepOptions& opts) {
  const int threads = resolve_threads(opts.threads);
  const pipeline::AnalysisArtifact analysis = analysis_for(problem);
  std::vector<SweepPoint> out(heights.size());
  // out[i] is keyed by index, so the thread interleaving cannot reorder or
  // alter results.
  parallel_for_index(
      threads, heights.size(), [&](int worker, std::size_t i) {
        const obs::Time t0 = opts.sink ? wall_ns() : 0;
        out[i] = measure_point(analysis, heights[i], opts, arena_workspace(),
                               true, true);
        if (opts.sink) {
          opts.sink->host_span("sweep V=" + std::to_string(heights[i]), t0,
                               wall_ns(), worker);
          opts.sink->counter("sweep.points", 1.0);
        }
      });
  return out;
}

SweepSelection sweep_select(const Problem& problem,
                            const std::vector<i64>& heights,
                            const SweepOptions& opts) {
  TILO_REQUIRE(opts.prune_slack >= 1.0, "prune_slack must be >= 1, got ",
               opts.prune_slack);
  const int threads = resolve_threads(opts.threads);
  const pipeline::AnalysisArtifact analysis = analysis_for(problem);
  const AnalyticModel model = derive_analytic_model(analysis.problem);
  const RankingCurves curves(analysis.problem, model);
  const std::size_t n = heights.size();

  SweepSelection sel;
  sel.points.assign(n, {});
  sel.simulated_overlap.assign(n, 0);
  sel.simulated_nonoverlap.assign(n, 0);
  if (n == 0) return sel;

  // Analytic ranking: model-predicted completion per kind, its minimum,
  // and the contending region { V : T_model(V) <= slack * min }.
  double min_over = std::numeric_limits<double>::infinity();
  double min_non = std::numeric_limits<double>::infinity();
  std::size_t arg_over = 0, arg_non = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double to = curves.overlap(heights[i]);
    const double tn = curves.nonoverlap(heights[i]);
    if (to < min_over) {
      min_over = to;
      arg_over = i;
    }
    if (tn < min_non) {
      min_non = tn;
      arg_non = i;
    }
  }
  sel.V_analytic_overlap = heights[arg_over];
  sel.V_analytic_nonoverlap = heights[arg_non];
  for (std::size_t i = 0; i < n; ++i) {
    if (opts.run_overlap &&
        (opts.exhaustive ||
         curves.overlap(heights[i]) <= opts.prune_slack * min_over))
      sel.simulated_overlap[i] = 1;
    if (opts.run_nonoverlap &&
        (opts.exhaustive ||
         curves.nonoverlap(heights[i]) <= opts.prune_slack * min_non))
      sel.simulated_nonoverlap[i] = 1;
  }

  // Simulate the contenders.  A pruned kind is neither lowered nor
  // simulated and carries the ranking curves' predictions; a fully pruned
  // point only pays a tiling (for g).  Index-keyed slots keep the result
  // independent of the worker interleaving, as in sweep_tile_height.
  parallel_for_index(threads, n, [&](int worker, std::size_t i) {
    const bool do_over = sel.simulated_overlap[i] != 0;
    const bool do_non = sel.simulated_nonoverlap[i] != 0;
    const obs::Time t0 = opts.sink ? wall_ns() : 0;
    SweepPoint& pt = sel.points[i];
    pt = measure_point(analysis, heights[i], opts, arena_workspace(),
                       do_over, do_non);
    if (!do_over) {
      pt.predicted_overlap = curves.overlap(heights[i]);
      pt.predicted_cpu_bound = curves.cpu_bound(heights[i]);
    }
    if (!do_non) pt.predicted_nonoverlap = curves.nonoverlap(heights[i]);
    if (opts.sink) {
      opts.sink->host_span("sweep V=" + std::to_string(heights[i]), t0,
                           wall_ns(), worker);
      opts.sink->counter((do_over || do_non) ? "sweep.points"
                                             : "sweep.pruned_points",
                         1.0);
    }
  });

  // Recommendations: strict-< argmin over the simulated subset, ties
  // resolved by input order — the same rule on both the pruned and the
  // exhaustive path.
  bool seen_over = false, seen_non = false;
  for (std::size_t i = 0; i < n; ++i) {
    const SweepPoint& pt = sel.points[i];
    if (sel.simulated_overlap[i] &&
        (!seen_over || pt.t_overlap < sel.best_overlap.t)) {
      sel.best_overlap =
          SweepVerdict{pt.V, pt.g, pt.t_overlap, pt.predicted_overlap};
      seen_over = true;
    }
    if (sel.simulated_nonoverlap[i] &&
        (!seen_non || pt.t_nonoverlap < sel.best_nonoverlap.t)) {
      sel.best_nonoverlap = SweepVerdict{pt.V, pt.g, pt.t_nonoverlap,
                                           pt.predicted_nonoverlap};
      seen_non = true;
    }
    sel.simulated_runs += sel.simulated_overlap[i] != 0;
    sel.simulated_runs += sel.simulated_nonoverlap[i] != 0;
  }
  sel.total_runs = static_cast<i64>(n) * ((opts.run_overlap ? 1 : 0) +
                                          (opts.run_nonoverlap ? 1 : 0));
  return sel;
}

SweepSelection verify_pruned_selection(const Problem& problem,
                                       const std::vector<i64>& heights,
                                       const SweepOptions& opts) {
  SweepOptions pruned_opts = opts;
  pruned_opts.exhaustive = false;
  SweepOptions exhaustive_opts = opts;
  exhaustive_opts.exhaustive = true;
  const SweepSelection pruned = sweep_select(problem, heights, pruned_opts);
  const SweepSelection full = sweep_select(problem, heights, exhaustive_opts);
  if (opts.run_overlap) {
    TILO_REQUIRE(
        same_recommendation(pruned.best_overlap, full.best_overlap),
        "pruned sweep diverged from exhaustive (overlap): pruned V=",
        pruned.best_overlap.V, " t=", pruned.best_overlap.t,
        " vs exhaustive V=", full.best_overlap.V,
        " t=", full.best_overlap.t, " — prune_slack ", opts.prune_slack,
        " leaves the true optimum outside the contending region");
  }
  if (opts.run_nonoverlap) {
    TILO_REQUIRE(
        same_recommendation(pruned.best_nonoverlap, full.best_nonoverlap),
        "pruned sweep diverged from exhaustive (non-overlap): pruned V=",
        pruned.best_nonoverlap.V, " t=", pruned.best_nonoverlap.t,
        " vs exhaustive V=", full.best_nonoverlap.V,
        " t=", full.best_nonoverlap.t, " — prune_slack ", opts.prune_slack,
        " leaves the true optimum outside the contending region");
  }
  return pruned;
}

std::vector<i64> height_grid(i64 lo, i64 hi, double ratio) {
  TILO_REQUIRE(lo >= 1 && lo <= hi, "bad height range [", lo, ", ", hi, "]");
  TILO_REQUIRE(ratio > 1.0, "grid ratio must be > 1");
  std::vector<i64> grid;
  double x = static_cast<double>(lo);
  i64 last = 0;
  while (static_cast<i64>(x) <= hi) {
    const i64 v = std::max<i64>(static_cast<i64>(x), last + 1);
    if (v > hi) break;
    grid.push_back(v);
    last = v;
    x *= ratio;
  }
  if (grid.empty() || grid.back() != hi) grid.push_back(hi);
  return grid;
}

Autotune autotune_tile_height(const Problem& problem, ScheduleKind kind,
                              i64 lo, i64 hi, const SweepOptions& opts) {
  TILO_REQUIRE(lo >= 1 && lo <= hi, "bad height range");
  const int threads = resolve_threads(opts.threads);
  const pipeline::AnalysisArtifact analysis = analysis_for(problem);
  // A probe lowers and simulates the tuned kind only, whatever kinds the
  // caller's run_* flags select for sweeps.
  const bool overlap = kind == ScheduleKind::kOverlap;
  SweepOptions probe_opts = opts;
  probe_opts.run_overlap = probe_opts.run_nonoverlap = true;

  // Batch evaluation with memoization: each probe V is simulated at most
  // once, a whole batch fans out over the workers, and because the
  // simulation is deterministic the memo returns exactly what a fresh
  // serial evaluation would.
  std::map<i64, double> memo;
  const auto evaluate = [&](const std::vector<i64>& candidates) {
    std::vector<i64> todo;
    for (i64 v : candidates)
      if (memo.find(v) == memo.end()) todo.push_back(v);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    std::vector<double> values(todo.size());
    parallel_for_index(
        threads, todo.size(), [&](int worker, std::size_t i) {
          const obs::Time t0 = opts.sink ? wall_ns() : 0;
          const SweepPoint pt = measure_point(
              analysis, todo[i], probe_opts, arena_workspace(), overlap,
              !overlap);
          values[i] = overlap ? pt.t_overlap : pt.t_nonoverlap;
          if (opts.sink) {
            opts.sink->host_span("probe V=" + std::to_string(todo[i]), t0,
                                 wall_ns(), worker);
            opts.sink->counter("autotune.probes", 1.0);
          }
        });
    for (std::size_t i = 0; i < todo.size(); ++i) memo[todo[i]] = values[i];
  };

  // Same search as mach::geometric_sweep, with batched probes: coarse
  // multiplicative grid, first-strict-minimum argmin, linear refinement
  // around the winner.
  const std::vector<i64> grid = mach::geometric_grid(lo, hi);
  evaluate(grid);
  std::size_t best_idx = 0;
  double best_val = memo.at(grid[0]);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double v = memo.at(grid[i]);
    if (v < best_val) {
      best_val = v;
      best_idx = i;
    }
  }

  const std::vector<i64> cand = mach::refinement_candidates(grid, best_idx);
  evaluate(cand);
  mach::IntMinimum fine{cand[0], memo.at(cand[0])};
  for (std::size_t i = 1; i < cand.size(); ++i) {
    const double v = memo.at(cand[i]);
    if (v < fine.value) fine = mach::IntMinimum{cand[i], v};
  }
  if (fine.value < best_val) return Autotune{fine.x, fine.value};
  return Autotune{grid[best_idx], best_val};
}

}  // namespace tilo::core
