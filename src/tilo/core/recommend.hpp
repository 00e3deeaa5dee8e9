// One-call planning: given a nest, a machine model and a processor budget,
// choose everything the paper chooses by hand — the mapping dimension
// (largest extent), the processor-grid factorization across the remaining
// dimensions, and the tile height (analytic optimum) — and return the
// ready-to-run plan with its predicted completion time.
#pragma once

#include "tilo/core/analytic.hpp"
#include "tilo/core/problem.hpp"

namespace tilo::core {

/// A fully chosen plan plus the reasoning artifacts.
struct Recommendation {
  Problem problem;            ///< nest + machine + chosen processor grid
  exec::TilePlan plan;        ///< the chosen tiling/mapping/schedule
  util::i64 V = 0;            ///< chosen tile height
  double predicted_seconds = 0.0;
  AnalyticOptimum analytic;   ///< the grain derivation
};

/// Chooses the best plan for `total_procs` processors under the given
/// schedule kind.  Enumerates every ordered factorization of total_procs
/// over the non-mapped dimensions (capped at one processor per iteration
/// row), derives each candidate's analytic V and eq. (3)/(4) prediction,
/// and returns the minimum-predicted-time candidate.
Recommendation recommend_plan(const loop::LoopNest& nest,
                              std::shared_ptr<const mach::Model> model,
                              util::i64 total_procs,
                              sched::ScheduleKind kind =
                                  sched::ScheduleKind::kOverlap);

}  // namespace tilo::core
