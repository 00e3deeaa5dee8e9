// Communication-region geometry: which iteration points a tile must ship to
// each neighboring tile.  Both sender and receiver derive the same region
// list from the same function, so message existence and sizes always agree.
#pragma once

#include <vector>

#include "tilo/exec/plan.hpp"
#include "tilo/lattice/box.hpp"

namespace tilo::exec {

using lat::Box;
using lat::Vec;
using util::i64;

/// One region of a message: the points (in original iteration coordinates)
/// carried for one dependence vector.
struct CommRegion {
  std::size_t dep_index = 0;  ///< index into the nest's DependenceSet
  Box points;                 ///< subset of the *producer* tile's box
};

/// The regions tile `t_src` must send to tile `t_src + e` (tile-space
/// offset e from TiledSpace::tile_deps()):
///   for each dependence d:  B(t_src) ∩ (B(t_src + e) - d),
/// where B is the tile's (domain-clipped) iteration box.  Empty regions are
/// dropped; an empty result means no message flows along e.  Per the
/// paper's V_comm accounting (Section 2.4), points needed through several
/// dependences are carried once per dependence.
std::vector<CommRegion> comm_regions(const tile::TiledSpace& space,
                                     const Vec& t_src, const Vec& e);

/// Total points in a region list (with per-dependence multiplicity).
i64 region_points(const std::vector<CommRegion>& regions);

/// Convenience: message size in bytes for a region list.
i64 region_bytes(const std::vector<CommRegion>& regions,
                 int bytes_per_element);

/// Per-tile communication summary used by the cost model and benches.
struct TileComm {
  Vec offset;                     ///< tile-space direction e
  std::vector<CommRegion> regions;
  i64 points = 0;                 ///< region_points(regions)
  std::size_t dir = 0;            ///< index of `offset` in tile_deps()
};

/// All outgoing messages of tile t (one entry per tile dependence with a
/// nonempty region list), regardless of processor placement.
std::vector<TileComm> outgoing(const tile::TiledSpace& space, const Vec& t);

/// All incoming messages of tile t: offsets e such that t - e exists and
/// ships a nonempty region list to t.
std::vector<TileComm> incoming(const tile::TiledSpace& space, const Vec& t);

/// The timed runs' communication table: every tile's outgoing and incoming
/// (offset, points, dir) summaries — outgoing()/incoming() without the
/// region lists — stored once per boundary class.  Along each dimension a
/// tile's summaries depend only on whether its coordinate is the first,
/// second, second-to-last or last of the tile space (that is where clipped
/// and missing neighbours sit); every other coordinate is interior and its
/// summaries are a pure translate.  So at most 5 representative
/// coordinates per dimension cover a tile space of any size.  Each class's
/// point counts come from stack arithmetic — the sum over dependences d of
/// |B(src) ∩ (B(dst) - d)|, one axis at a time — not from region boxes.
class CommSummaries {
 public:
  /// True when built for `space`'s geometry: tile sides, domain and
  /// dependences (the summaries depend on all three).
  bool matches(const tile::TiledSpace& space) const;
  void build(const tile::TiledSpace& space);

  const std::vector<TileComm>& outgoing(const Vec& t) const {
    return out_[class_of(t)];
  }
  const std::vector<TileComm>& incoming(const Vec& t) const {
    return in_[class_of(t)];
  }

 private:
  std::size_t class_of(const Vec& t) const;

  bool valid_ = false;
  Vec sides_;
  Box domain_;
  std::vector<Vec> deps_;
  Box tiles_;                // the tile space
  std::vector<i64> radix_;   // classes per dimension: min(extent, 5)
  std::vector<std::vector<TileComm>> out_, in_;  // per class
};

}  // namespace tilo::exec
