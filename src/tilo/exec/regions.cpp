#include "tilo/exec/regions.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::exec {

std::vector<CommRegion> comm_regions(const tile::TiledSpace& space,
                                     const Vec& t_src, const Vec& e) {
  TILO_REQUIRE(space.tile_space().contains(t_src),
               "source tile outside tile space");
  const Vec t_dst = t_src + e;
  std::vector<CommRegion> out;
  if (!space.tile_space().contains(t_dst)) return out;

  const Box src_box = space.tile_iterations(t_src);
  const Box dst_box = space.tile_iterations(t_dst);
  const auto& deps = space.deps();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    // Points p of the producer tile whose value p + d lands in the consumer
    // tile: p ∈ B(src) ∩ (B(dst) - d).
    const Box needed = src_box.intersect(dst_box.shifted(-deps[i]));
    if (!needed.empty()) out.push_back(CommRegion{i, needed});
  }
  return out;
}

i64 region_points(const std::vector<CommRegion>& regions) {
  i64 acc = 0;
  for (const CommRegion& r : regions)
    acc = util::checked_add(acc, r.points.volume());
  return acc;
}

i64 region_bytes(const std::vector<CommRegion>& regions,
                 int bytes_per_element) {
  TILO_REQUIRE(bytes_per_element >= 1, "bytes_per_element must be >= 1");
  return util::checked_mul(region_points(regions), bytes_per_element);
}

std::vector<TileComm> outgoing(const tile::TiledSpace& space, const Vec& t) {
  std::vector<TileComm> out;
  const auto& deps = space.tile_deps();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    std::vector<CommRegion> regions = comm_regions(space, t, deps[i]);
    if (regions.empty()) continue;
    const i64 pts = region_points(regions);
    out.push_back(TileComm{deps[i], std::move(regions), pts, i});
  }
  return out;
}

std::vector<TileComm> incoming(const tile::TiledSpace& space, const Vec& t) {
  std::vector<TileComm> in;
  const auto& deps = space.tile_deps();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const Vec t_src = t - deps[i];
    if (!space.tile_space().contains(t_src)) continue;
    std::vector<CommRegion> regions = comm_regions(space, t_src, deps[i]);
    if (regions.empty()) continue;
    const i64 pts = region_points(regions);
    in.push_back(TileComm{deps[i], std::move(regions), pts, i});
  }
  return in;
}

namespace {

/// region_points(comm_regions(space, src, dst - src)) by stack arithmetic:
/// the sum over dependences d of |B(src) ∩ (B(dst) - d)|, one axis at a
/// time, without building a region box.
i64 comm_points(const tile::TiledSpace& space, const Vec& src,
                const Vec& dst) {
  i64 total = 0;
  for (const Vec& dep : space.deps()) {
    i64 volume = 1;
    for (std::size_t k = 0; k < src.size() && volume > 0; ++k) {
      const auto [src_lo, src_hi] = space.axis_bounds(k, src[k]);
      const auto [dst_lo, dst_hi] = space.axis_bounds(k, dst[k]);
      const i64 lo = std::max(src_lo, util::checked_sub(dst_lo, dep[k]));
      const i64 hi = std::min(src_hi, util::checked_sub(dst_hi, dep[k]));
      volume = hi < lo ? 0
                       : util::checked_mul(
                             volume, util::checked_add(
                                         util::checked_sub(hi, lo), 1));
    }
    total = util::checked_add(total, volume);
  }
  return total;
}

/// Summaries of tile t from comm_points: outgoing(space, t) or
/// incoming(space, t) with the region lists left empty.  `src` and `dst`
/// are scratch.
std::vector<TileComm> summaries(const tile::TiledSpace& space, const Vec& t,
                                bool inbound, Vec& src, Vec& dst) {
  std::vector<TileComm> list;
  const auto& deps = space.tile_deps();
  list.reserve(deps.size());
  for (std::size_t i = 0; i < deps.size(); ++i) {
    src = t;
    dst = t;
    if (inbound)
      src -= deps[i];
    else
      dst += deps[i];
    if (!space.tile_space().contains(src) ||
        !space.tile_space().contains(dst))
      continue;
    const i64 pts = comm_points(space, src, dst);
    if (pts > 0) list.push_back(TileComm{deps[i], {}, pts, i});
  }
  return list;
}

constexpr i64 kClassesPerDim = 5;  // first, second, interior, 2nd-last, last

}  // namespace

bool CommSummaries::matches(const tile::TiledSpace& space) const {
  return valid_ && sides_ == space.tiling().sides() &&
         domain_ == space.domain() && deps_ == space.deps().vectors();
}

void CommSummaries::build(const tile::TiledSpace& space) {
  valid_ = false;
  sides_ = space.tiling().sides();
  domain_ = space.domain();
  deps_ = space.deps().vectors();
  tiles_ = space.tile_space();
  const std::size_t n = tiles_.dims();
  radix_.assign(n, 0);
  i64 classes = 1;
  for (std::size_t d = 0; d < n; ++d) {
    radix_[d] = std::min(tiles_.extent(d), kClassesPerDim);
    classes = util::checked_mul(classes, radix_[d]);
  }
  out_.assign(static_cast<std::size_t>(classes), {});
  in_.assign(static_cast<std::size_t>(classes), {});
  Vec t(n);
  Vec src(n);
  Vec dst(n);
  for (i64 key = 0; key < classes; ++key) {
    // Decode the class key (last dimension fastest, as in class_of) into
    // its representative tile.
    i64 rest = key;
    for (std::size_t d = n; d-- > 0;) {
      const i64 r = radix_[d];
      const i64 pos = rest % r;
      rest /= r;
      t[d] = pos < 2       ? tiles_.lo()[d] + pos
             : pos < r - 2 ? tiles_.lo()[d] + 2
                           : tiles_.hi()[d] - (r - 1 - pos);
    }
    out_[static_cast<std::size_t>(key)] =
        summaries(space, t, false, src, dst);
    in_[static_cast<std::size_t>(key)] = summaries(space, t, true, src, dst);
  }
  valid_ = true;
}

std::size_t CommSummaries::class_of(const Vec& t) const {
  TILO_REQUIRE(tiles_.contains(t), "tile ", t.str(), " outside tile space ",
               tiles_.str());
  std::size_t key = 0;
  for (std::size_t d = 0; d < radix_.size(); ++d) {
    const i64 r = radix_[d];
    const i64 off = t[d] - tiles_.lo()[d];
    const i64 from_hi = tiles_.hi()[d] - t[d];
    const i64 pos = off < 2 ? off : from_hi < 2 ? r - 1 - from_hi : 2;
    key = key * static_cast<std::size_t>(r) + static_cast<std::size_t>(pos);
  }
  return key;
}

}  // namespace tilo::exec
