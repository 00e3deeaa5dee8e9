// Unit tests for tilo::exec regions — the communication geometry both
// executors share.  Includes the coverage property: every cross-tile read
// of every tile is covered by some incoming region.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "tilo/core/problem.hpp"
#include "tilo/exec/plan.hpp"
#include "tilo/exec/regions.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using exec::CommRegion;
using exec::TileComm;
using lat::Box;
using lat::Vec;
using loop::DependenceSet;
using loop::LoopNest;
using tile::RectTiling;
using tile::TiledSpace;
using util::i64;

TEST(RegionsTest, UnitStencilFaceRegions) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 8);
  const TiledSpace space(nest, RectTiling(Vec{4, 4, 4}));
  // Interior tile (0,0,0) -> (1,0,0): the i-high face, one layer thick.
  const auto regions = exec::comm_regions(space, Vec{0, 0, 0}, Vec{1, 0, 0});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].points, Box(Vec{3, 0, 0}, Vec{3, 3, 3}));
  EXPECT_EQ(exec::region_points(regions), 16);
  EXPECT_EQ(exec::region_bytes(regions, 4), 64);
}

TEST(RegionsTest, ThickDependenceShipsThickSlab) {
  const LoopNest nest("thick", Box::from_extents(Vec{12, 12}),
                      DependenceSet({Vec{3, 0}}));
  const TiledSpace space(nest, RectTiling(Vec{6, 6}));
  const auto regions = exec::comm_regions(space, Vec{0, 0}, Vec{1, 0});
  ASSERT_EQ(regions.size(), 1u);
  // Rows 3..5 of the source tile feed rows 6..8 of the destination.
  EXPECT_EQ(regions[0].points, Box(Vec{3, 0}, Vec{5, 5}));
}

TEST(RegionsTest, DiagonalDependenceShipsCorner) {
  const LoopNest small("diag", Box::from_extents(Vec{8, 8}),
                       DependenceSet({Vec{1, 1}}));
  const TiledSpace space(small, RectTiling(Vec{4, 4}));
  // Corner direction (1,1): exactly the single corner point.
  const auto corner = exec::comm_regions(space, Vec{0, 0}, Vec{1, 1});
  ASSERT_EQ(corner.size(), 1u);
  EXPECT_EQ(corner[0].points, Box(Vec{3, 3}, Vec{3, 3}));
  // Face direction (1,0): the high-i edge except the corner column shifted:
  // points p with p in [3,3]x[0,3] and p+(1,1) in tile (1,0) = rows 4..7,
  // cols 0..3 -> p_col in [-1..2] -> cols 0..2.
  const auto face = exec::comm_regions(space, Vec{0, 0}, Vec{1, 0});
  ASSERT_EQ(face.size(), 1u);
  EXPECT_EQ(face[0].points, Box(Vec{3, 0}, Vec{3, 2}));
}

TEST(RegionsTest, PartialBoundaryTilesClipRegions) {
  const LoopNest nest = loop::stencil3d_nest(6, 4, 4);  // dim0: tiles 4+2
  const TiledSpace space(nest, RectTiling(Vec{4, 4, 4}));
  const auto regions = exec::comm_regions(space, Vec{0, 0, 0}, Vec{1, 0, 0});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].points.volume(), 16);  // full face still needed
  // No tile beyond the boundary: empty region list.
  EXPECT_TRUE(exec::comm_regions(space, Vec{1, 0, 0}, Vec{1, 0, 0}).empty());
}

TEST(RegionsTest, MultipleDepsProduceOneRegionEach) {
  const LoopNest nest("multi", Box::from_extents(Vec{8, 8}),
                      DependenceSet({Vec{1, 0}, Vec{2, 0}}));
  const TiledSpace space(nest, RectTiling(Vec{4, 4}));
  const auto regions = exec::comm_regions(space, Vec{0, 0}, Vec{1, 0});
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].points, Box(Vec{3, 0}, Vec{3, 3}));  // d = (1,0)
  EXPECT_EQ(regions[1].points, Box(Vec{2, 0}, Vec{3, 3}));  // d = (2,0)
  // Per-dependence multiplicity matches the paper's V_comm accounting.
  EXPECT_EQ(exec::region_points(regions), 4 + 8);
}

TEST(RegionsTest, OutgoingAndIncomingAreSymmetric) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 12);
  const TiledSpace space(nest, RectTiling(Vec{4, 4, 4}));
  space.for_each_tile([&](const Vec& t) {
    for (const TileComm& out : exec::outgoing(space, t)) {
      const auto in = exec::incoming(space, t + out.offset);
      bool found = false;
      for (const TileComm& cand : in) {
        if (cand.offset == out.offset) {
          found = true;
          EXPECT_EQ(cand.points, out.points);
          ASSERT_EQ(cand.regions.size(), out.regions.size());
          for (std::size_t i = 0; i < cand.regions.size(); ++i)
            EXPECT_EQ(cand.regions[i].points, out.regions[i].points);
        }
      }
      EXPECT_TRUE(found) << "no matching incoming for offset "
                         << out.offset.str();
    }
  });
}

// Coverage property: for every tile T and every point p in T, every input
// p - d that lies inside the domain but outside T is covered by exactly the
// incoming region for the producing tile's direction.
TEST(RegionsTest, IncomingRegionsCoverAllCrossTileReads) {
  const LoopNest nest("cover", Box::from_extents(Vec{7, 9}),
                      DependenceSet({Vec{1, 1}, Vec{1, 0}, Vec{0, 2}}));
  const TiledSpace space(nest, RectTiling(Vec{3, 4}));
  space.for_each_tile([&](const Vec& t) {
    // Gather all points delivered to tile t, per direction.
    std::set<std::vector<i64>> delivered;
    for (const TileComm& in : exec::incoming(space, t))
      for (const CommRegion& r : in.regions)
        r.points.for_each_point(
            [&](const Vec& p) { delivered.insert(p.data()); });

    const Box mine = space.tile_iterations(t);
    mine.for_each_point([&](const Vec& p) {
      for (const Vec& d : nest.deps().vectors()) {
        const Vec src = p - d;
        if (!nest.domain().contains(src)) continue;  // boundary value
        if (mine.contains(src)) continue;            // tile-local
        EXPECT_TRUE(delivered.count(src.data()))
            << "tile " << t.str() << " read " << src.str()
            << " not delivered";
      }
    });
  });
}

namespace {

/// Checks the timed runs' class table against the region path on every tile
/// of `space`: for each tile, its outgoing and incoming (offset, points,
/// dir) lists must equal outgoing()/incoming() with the regions summed by
/// region_points, entry for entry and in order.  Returns the number of
/// tiles compared.
i64 expect_summaries_match_regions(const TiledSpace& space,
                                   const std::string& what) {
  exec::CommSummaries table;
  table.build(space);
  EXPECT_TRUE(table.matches(space)) << what;
  i64 tiles = 0;
  int failures = 0;
  space.for_each_tile([&](const Vec& t) {
    ++tiles;
    for (const bool inbound : {false, true}) {
      const std::vector<TileComm> ref = inbound ? exec::incoming(space, t)
                                                : exec::outgoing(space, t);
      const std::vector<TileComm>& got =
          inbound ? table.incoming(t) : table.outgoing(t);
      bool same = got.size() == ref.size();
      for (std::size_t i = 0; same && i < ref.size(); ++i) {
        same = got[i].offset == ref[i].offset && got[i].dir == ref[i].dir &&
               got[i].points == exec::region_points(ref[i].regions) &&
               got[i].regions.empty();
      }
      // Report the first few mismatches only.
      if (!same && ++failures <= 5)
        ADD_FAILURE() << what << ": tile " << t.str()
                      << (inbound ? " incoming" : " outgoing")
                      << " summaries differ from the region path";
    }
  });
  EXPECT_EQ(failures, 0) << what;
  return tiles;
}

TiledSpace space_of(const core::Problem& problem, i64 V) {
  return TiledSpace(problem.nest, RectTiling(problem.tile_sides(V)));
}

}  // namespace

TEST(CommSummariesTest, PaperSpacesMatchRegionPathOnEveryTile) {
  // V = 197 leaves a clipped last tile along k; 64 divides every k extent.
  for (const i64 V : {i64{197}, i64{64}}) {
    EXPECT_GT(expect_summaries_match_regions(
                  space_of(core::paper_problem_i(), V), "space (i)"),
              0);
    EXPECT_GT(expect_summaries_match_regions(
                  space_of(core::paper_problem_ii(), V), "space (ii)"),
              0);
    EXPECT_GT(expect_summaries_match_regions(
                  space_of(core::paper_problem_iii(), V), "space (iii)"),
              0);
  }
}

TEST(CommSummariesTest, RandomNestsMatchRegionPathOnEveryTile) {
  // Seeded random dependence shapes on shifted domains (lower bounds off
  // 0, some negative), with tile sides chosen so each dimension has 1 to 6
  // tiles and boundary tiles are clipped on both sides.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    loop::RandomNestOptions opts;
    opts.dims = static_cast<std::size_t>(2 + seed % 3);
    opts.num_deps = static_cast<std::size_t>(rng.uniform(1, 4));
    opts.min_extent = 4;
    opts.max_extent = 20;
    const LoopNest base = loop::random_nest(rng, opts);
    const std::size_t n = base.dims();
    Vec lo(n), hi(n), sides(n);
    for (std::size_t d = 0; d < n; ++d) {
      const i64 shift = rng.uniform(-7, 7);
      lo[d] = base.domain().lo()[d] + shift;
      hi[d] = base.domain().hi()[d] + shift;
      const i64 extent = hi[d] - lo[d] + 1;
      const i64 tiles = rng.uniform(1, 6);
      sides[d] = std::max((extent + tiles - 1) / tiles,
                          base.deps().max_component(d) + 1);
    }
    const LoopNest nest("shifted", Box(lo, hi), base.deps());
    const TiledSpace space(nest, RectTiling(sides));
    expect_summaries_match_regions(
        space, "seed " + std::to_string(seed) + " " + space.tile_space().str());
  }
}

TEST(CommSummariesTest, LowTileClippedBelowADependenceMatchesRegionPath) {
  // Domain [2, 13] x [0, 8] with side 3: tile 0 along dimension 0 keeps the
  // single row 2, thinner than the dependence (2, 0), so tile 1 receives
  // one row from it, not two — the second coordinate of a dimension is a
  // boundary class of its own.
  const LoopNest nest("clipped", Box(Vec{2, 0}, Vec{13, 8}),
                      DependenceSet({Vec{2, 0}, Vec{0, 1}, Vec{1, 1}}));
  const TiledSpace space(nest, RectTiling(Vec{3, 3}));
  EXPECT_EQ(space.tile_iterations(Vec{0, 0}).extent(0), 1);
  expect_summaries_match_regions(space, "clipped low tile");
  exec::CommSummaries table;
  table.build(space);
  const auto points_from_below = [&](const Vec& t) {
    for (const TileComm& in : table.incoming(t))
      if (in.offset == Vec{1, 0}) return in.points;
    return i64{-1};
  };
  // Rows {2} vs {4, 5} for (2, 0), plus two points for (1, 1).
  EXPECT_EQ(points_from_below(Vec{1, 1}), 3 + 2);
  EXPECT_EQ(points_from_below(Vec{2, 1}), 6 + 2);
}

TEST(CommSummariesTest, TableIsKeyedOnTheDependences) {
  const Box domain = Box::from_extents(Vec{12, 12});
  const LoopNest thin("thin", domain, DependenceSet({Vec{1, 0}}));
  const LoopNest thick("thick", domain, DependenceSet({Vec{2, 0}}));
  const TiledSpace a(thin, RectTiling(Vec{4, 4}));
  const TiledSpace b(thick, RectTiling(Vec{4, 4}));
  exec::CommSummaries table;
  EXPECT_FALSE(table.matches(a));
  table.build(a);
  EXPECT_TRUE(table.matches(a));
  EXPECT_FALSE(table.matches(b));  // same sides and domain, other deps
}

TEST(PlanTest, ScheduleLengthUsesClosedForms) {
  const LoopNest nest = loop::stencil3d_nest(16, 16, 64);
  const auto over = exec::make_plan(nest, RectTiling(Vec{4, 4, 8}),
                                    sched::ScheduleKind::kOverlap);
  EXPECT_EQ(over.mapped_dim, 2u);  // tile space 4x4x8, largest is k
  EXPECT_EQ(over.schedule_length(), 2 * 3 + 2 * 3 + 7 + 1);
  const auto non = exec::make_plan(nest, RectTiling(Vec{4, 4, 8}),
                                   sched::ScheduleKind::kNonOverlap);
  EXPECT_EQ(non.schedule_length(), 3 + 3 + 7 + 1);
}

TEST(PlanTest, ExplicitMappingOverridesLargestRule) {
  const LoopNest nest = loop::stencil3d_nest(16, 16, 16);
  const auto plan = exec::make_plan_explicit(
      nest, RectTiling(Vec{4, 4, 4}), sched::ScheduleKind::kOverlap, 2,
      Vec{4, 4, 1});
  EXPECT_EQ(plan.mapped_dim, 2u);
  EXPECT_EQ(plan.mapping.num_ranks(), 16);
}
