// A thread-safe cache of built TilePlans keyed by (tile height V, schedule
// kind).  Sweeps and the autotuner hit the same heights repeatedly (the
// overlap/non-overlap pair at each V, the refinement pass around the coarse
// optimum); building the plan re-enumerates tile geometry each time, so
// caching it is pure win.  Plans are immutable once built and shared by
// const pointer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "tilo/core/problem.hpp"

namespace tilo::core {

/// Cache of Problem::plan(V, kind) results.
///
/// The key is (identity tag, V, kind), where the tag serializes everything
/// the plan depends on (domain, deps, procs, machine scalars).  One cache
/// can therefore back several problems — a whole pipeline scenario
/// compiled in one Compiler invocation — without cross-talk, and it can
/// never serve a plan built for a different problem.
///
/// The cache must outlive every call it is passed to
/// (SweepOptions::plan_cache and pipeline::CompileOptions::plan_cache are
/// raw pointers).
class PlanCache {
 public:
  /// Returns the cached plan, building (and caching) it on a miss.  The
  /// geometry of a plan is independent of the schedule kind, so a miss
  /// whose sibling kind is present is served by copying the sibling and
  /// flipping the kind instead of rebuilding the tiling.
  std::shared_ptr<const TilePlan> get(const Problem& problem, i64 V,
                                      ScheduleKind kind);

  /// Cache effectiveness counters (for benches and tests).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  using Key = std::tuple<std::string, i64, int>;

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const TilePlan>> plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tilo::core
