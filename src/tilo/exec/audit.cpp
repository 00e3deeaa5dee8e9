#include "tilo/exec/audit.hpp"

#include <algorithm>
#include <vector>

#include "tilo/exec/regions.hpp"
#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

using lat::Box;
using lat::Vec;
using util::i64;

}  // namespace

double critical_path_lower_bound(const TilePlan& plan,
                                 const mach::Model& model) {
  const mach::MachineParams& params = model.params();
  const tile::TiledSpace& space = plan.space;
  const Box& ts = space.tile_space();
  TILO_REQUIRE(ts.volume() <= (i64{1} << 22),
               "tile space too large for the audit DP");

  std::vector<double> finish(static_cast<std::size_t>(ts.volume()), 0.0);
  // Previous tile in each rank's program order: same column, k-1; across
  // columns the order is lexicographic per rank, which only adds more
  // serialization — using just the k-chain keeps the bound valid.
  const std::size_t md = plan.mapped_dim;

  double makespan = 0.0;
  ts.for_each_point([&](const Vec& t) {
    const double comp =
        static_cast<double>(space.tile_iterations(t).volume()) * params.t_c;
    double start = 0.0;

    // Serial CPU: the same rank computed (t with k-1) immediately before.
    if (t[md] > ts.lo()[md]) {
      Vec prev = t;
      --prev[md];
      start = std::max(
          start, finish[static_cast<std::size_t>(ts.linear_index(prev))]);
    }

    // Producers: cheapest conceivable pipeline (no CPU fills, no queueing)
    // on the producer -> consumer link.
    const std::vector<TileComm> ins = incoming(space, t);
    const i64 dst_rank = plan.mapping.rank_of_tile(t);
    for (const TileComm& in : ins) {
      const Vec src = t - in.offset;
      const double src_finish =
          finish[static_cast<std::size_t>(ts.linear_index(src))];
      const i64 src_rank = plan.mapping.rank_of_tile(src);
      if (src_rank == dst_rank) {
        start = std::max(start, src_finish);
        continue;
      }
      const i64 bytes =
          util::checked_mul(in.points, params.bytes_per_element);
      const int s = static_cast<int>(src_rank);
      const int d = static_cast<int>(dst_rank);
      const double pipeline = 2.0 * model.fill_kernel_seconds(bytes) +
                              2.0 * model.half_wire_seconds(bytes, s, d) +
                              model.wire_latency_seconds(s, d);
      start = std::max(start, src_finish + pipeline);
    }

    const double done = start + comp;
    finish[static_cast<std::size_t>(ts.linear_index(t))] = done;
    makespan = std::max(makespan, done);
  });
  return makespan;
}

}  // namespace tilo::exec
