// Fleet work units: the self-contained, deterministic decomposition of a
// sweep grid or a scenario file.
//
// A unit payload is a canonical pipeline::Json dump carrying everything a
// worker needs — the serialized nest, the machine model, the grid, the
// knob values — so any worker (any process, any host) computes the same
// bytes for the same unit.  Two kinds:
//
//   {"tilo": "fleet.unit", "version": 1, "kind": "sweep_point",
//    "nest": {...}, "machine": {...}, "procs": [4, 4, 1], "V": 64}
//
//   {"tilo": "fleet.unit", "version": 1, "kind": "scenario_workload",
//    "workload": {...svc workload object...}, "machine": {...}?}
//
// Either kind may additionally carry "machine_model" (a serialized
// mach::Model envelope, see pipeline/serialize.hpp) when the sweep or
// scenario runs under a non-ideal machine model; the envelope wins over
// "machine".  A scenario unit is written the way plan_to_json writes a
// plan: "machine" is the model's params, the envelope appears only for a
// non-ideal model, and a unit with neither key compiles on the default
// machine.
//
// Unit results are canonical dumps too (a serialized core::SweepPoint, or
// the svc compile result object), which is what makes the controller's
// index-keyed merge byte-identical to a single-node run: the single-node
// path and the worker path serialize through the same deterministic
// writer.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/pipeline/json.hpp"
#include "tilo/pipeline/scenario.hpp"
#include "tilo/sched/fleet_policy.hpp"

namespace tilo::fleet {

using pipeline::Json;
using util::i64;

/// Version stamped into unit payloads and the merged fleet.result
/// document.
inline constexpr i64 kFleetVersion = 1;

/// One schedulable unit: `index` keys the merge, `payload` is the
/// canonical JSON text shipped to a worker.
struct WorkUnit {
  std::size_t index = 0;
  std::string payload;
};

/// A job array — one scheduler job of N units (a sweep *is* an array
/// job).  The spec's {tenant, partition, priority, cost estimate} tags
/// ride into the controller's sched::Policy; the unit indices key the
/// merge exactly as before.
struct JobArray {
  sched::JobSpec spec;
  std::vector<WorkUnit> units;
  /// Optional per-unit analytic runtime estimates in nanoseconds, aligned
  /// with `units`; empty = spec.unit_cost_ns everywhere.
  std::vector<double> unit_costs_ns;
};

/// Analytic per-unit runtime estimates for sweep unit plans, in
/// nanoseconds: the sweep_batch_units cost proxy (1 + K/V per height,
/// summed over a batched unit) scaled by `ns_per_cost`.  Non-sweep
/// payload kinds estimate 0 (= unknown; backfill then refuses them).
std::vector<double> unit_cost_estimates(const core::Problem& problem,
                                        const std::vector<WorkUnit>& units,
                                        double ns_per_cost = 1e6);

/// Decomposes a tile-height sweep into one unit per height.  Unit i
/// carries heights[i]; executing it yields the serialized SweepPoint that
/// a single-node core::sweep_tile_height(problem, heights) would put at
/// index i.
std::vector<WorkUnit> sweep_units(const core::Problem& problem,
                                  const std::vector<i64>& heights);

/// Batched sweep decomposition knobs.
struct SweepBatchOptions {
  /// Hard cap on heights per unit; 1 degenerates to sweep_units' shape
  /// (but with the "sweep_batch" payload kind).
  i64 max_heights = 16;
  /// A chunk closes when its summed analytic cost would exceed
  /// balance x the most expensive single height's cost.  The most
  /// expensive height already lower-bounds the fleet's makespan, so
  /// balance = 1 batches the cheap tail without lengthening the critical
  /// path.
  double balance = 1.0;
};

/// Decomposes a sweep into contiguous height chunks sized by the analytic
/// per-height cost estimate (simulation work scales with the tile count,
/// ~ K/V + 1): expensive small-V heights get their own units, the cheap
/// large-V tail is batched so per-unit dispatch (payload parse, round
/// trip, lease bookkeeping) amortizes.  Executing unit i yields
/// {"points": [...]} — the same canonical SweepPoint bytes, in height
/// order, that the unbatched plan yields one by one.
std::vector<WorkUnit> sweep_batch_units(const core::Problem& problem,
                                        const std::vector<i64>& heights,
                                        const SweepBatchOptions& opts = {});

/// Decomposes a scenario file into one unit per workload (the scenario's
/// machine, when present, is embedded in every unit).
std::vector<WorkUnit> scenario_units(const pipeline::ScenarioFile& scenario);

/// Executes one unit payload and returns the canonical result text.  This
/// is the worker-side entry point; it throws util::Error on malformed
/// payloads, and encodes per-workload compile failures as
/// {"error": "..."} so a bad scenario workload fails its unit, not the
/// worker.
std::string execute_unit(std::string_view payload);

/// Canonical SweepPoint serialization (deterministic: %.17g doubles
/// round-trip exactly through the pipeline::Json writer).
Json sweep_point_to_json(const core::SweepPoint& p);
core::SweepPoint sweep_point_from_json(const Json& j);

/// Decodes merged sweep-unit results back into SweepPoints, in unit
/// (= height) order.  Accepts both unbatched payloads (one point object
/// per unit) and batched payloads ({"points": [...]}), flattening the
/// latter — so callers are agnostic to the plan's batching.
std::vector<core::SweepPoint> sweep_points_from_payloads(
    const std::vector<std::string>& payloads);

/// The canonical flattened sweep-result document:
///   {"tilo": "fleet.sweep", "version": 1, "points": [...]}
/// Byte-identical for a batched and an unbatched plan over the same
/// heights (and for the single-node sweep serialized the same way) —
/// the document batching determinism is pinned against.
std::string sweep_points_document(const std::vector<std::string>& payloads);

}  // namespace tilo::fleet
