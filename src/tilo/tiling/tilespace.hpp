// The tiled space J^S: the iteration space of tiles produced by applying a
// rectangular supernode transformation to a loop nest's domain, including
// partial tiles on the domain boundary.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "tilo/loopnest/nest.hpp"
#include "tilo/tiling/rect.hpp"

namespace tilo::tile {

/// A loop nest's domain partitioned by a rectangular tiling.
///
/// Validates at construction that the tiling is legal (HD >= 0) and that all
/// dependencies are contained in one tile (⌊HD⌋ < 1, the paper's Section 2.3
/// assumption), so the tile dependence matrix D^S is 0/1 and every tile only
/// talks to its nearest neighbors.
class TiledSpace {
 public:
  TiledSpace(const loop::LoopNest& nest, RectTiling tiling);

  const RectTiling& tiling() const { return tiling_; }
  const Box& domain() const { return domain_; }
  const loop::DependenceSet& deps() const { return deps_; }
  std::size_t dims() const { return tiling_.dims(); }

  /// The tile index space J^S (a box, since the domain is a box).
  const Box& tile_space() const { return tile_space_; }

  /// Coordinates u^S of the last tile, with the first tile at 0 — the
  /// quantity the schedule-length formulas P(g) are written in.
  Vec last_tile() const { return tile_space_.hi(); }

  /// Number of tiles.
  i64 num_tiles() const { return tile_space_.volume(); }

  /// The iteration points of tile t: the tile's box clipped to the domain.
  /// Boundary tiles may be partial; interior tiles have volume g.
  Box tile_iterations(const Vec& t) const;

  /// Bounds [lo, hi] along dimension d of the domain-clipped box of any
  /// tile whose d-th coordinate is c: one axis of tile_iterations, computed
  /// without building a Box.  c must lie in the tile space (unchecked).
  std::pair<i64, i64> axis_bounds(std::size_t d, i64 c) const;

  /// True when tile t is clipped by the domain boundary.
  bool is_partial(const Vec& t) const;

  /// The tile dependence matrix D^S as distinct nonzero 0/1 vectors (exact
  /// for rectangular tilings).
  const std::vector<Vec>& tile_deps() const { return tile_deps_; }

  /// Visits every tile coordinate in lexicographic order.
  void for_each_tile(const std::function<void(const Vec&)>& fn) const;

 private:
  RectTiling tiling_;
  Box domain_;
  loop::DependenceSet deps_;
  Box tile_space_;
  std::vector<Vec> tile_deps_;
};

}  // namespace tilo::tile
