#include "tilo/tiling/tilespace.hpp"

#include <algorithm>
#include <tuple>

#include "tilo/util/error.hpp"

namespace tilo::tile {

TiledSpace::TiledSpace(const loop::LoopNest& nest, RectTiling tiling)
    : tiling_(std::move(tiling)),
      domain_(nest.domain()),
      deps_(nest.deps()) {
  TILO_REQUIRE(tiling_.dims() == domain_.dims(),
               "tiling dimensionality ", tiling_.dims(),
               " != nest dimensionality ", domain_.dims());
  TILO_REQUIRE(tiling_.is_legal(deps_),
               "illegal rectangular tiling: some dependence has a negative "
               "component (HD >= 0 violated); deps = ", deps_.str());
  TILO_REQUIRE(deps_.empty() || tiling_.contains_deps(deps_),
               "tile sides must exceed every dependence component "
               "(⌊HD⌋ < 1); sides = ", tiling_.sides().str(),
               ", deps = ", deps_.str());

  tile_space_ = Box(tiling_.tile_of(domain_.lo()),
                    tiling_.tile_of(domain_.hi()));
  if (!deps_.empty())
    tile_deps_ = tiling_.as_supernode().tile_deps(deps_);
}

Box TiledSpace::tile_iterations(const Vec& t) const {
  TILO_REQUIRE(tile_space_.contains(t), "tile ", t.str(),
               " outside tile space ", tile_space_.str());
  Vec lo(dims());
  Vec hi(dims());
  for (std::size_t d = 0; d < dims(); ++d)
    std::tie(lo[d], hi[d]) = axis_bounds(d, t[d]);
  return Box(std::move(lo), std::move(hi));
}

std::pair<i64, i64> TiledSpace::axis_bounds(std::size_t d, i64 c) const {
  // tiling_.tile_box(t).intersect(domain_), one axis at a time.
  const i64 side = tiling_.sides()[d];
  const i64 origin = util::checked_mul(c, side);
  return {std::max(origin, domain_.lo()[d]),
          std::min(util::checked_sub(util::checked_add(origin, side), 1),
                   domain_.hi()[d])};
}

bool TiledSpace::is_partial(const Vec& t) const {
  return tile_iterations(t).volume() != tiling_.tile_volume();
}

void TiledSpace::for_each_tile(
    const std::function<void(const Vec&)>& fn) const {
  tile_space_.for_each_point(fn);
}

}  // namespace tilo::tile
