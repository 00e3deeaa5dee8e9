// Extension bench: tiling beyond rectangular legality.  The paper's
// experiments use nonnegative dependence sets; its framework (HD >= 0)
// also covers wavefront sets like {(1,-1),(1,0),(1,1)} via skewed tiles.
// This bench runs the full pipeline on such a set — unimodular skew,
// rectangular tiling of the skewed space, both schedules — and reports
// the same overlap-vs-non-overlap comparison.
//
// Times are measured on the skewed bounding box (the classical rectangular
// over-approximation of the skewed domain), so they include the guard
// cells; the comparison between schedules is apples-to-apples.
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/skewview.hpp"
#include "tilo/tiling/skew.hpp"

int main() {
  using namespace tilo;
  using lat::Box;
  using lat::Vec;
  using util::i64;

  const loop::LoopNest nest(
      "wavefront", Box::from_extents(Vec{256, 2048}),
      loop::DependenceSet({Vec{1, -1}, Vec{1, 0}, Vec{1, 1}}),
      std::make_shared<loop::SumKernel>(0.3));

  std::cout << "== Skewed tiling — wavefront dependence set ==\n";
  std::cout << "nest " << nest.domain().extents().str() << ", deps "
            << nest.deps().str() << "\n";

  const auto skew = tile::find_legal_skew(nest.deps());
  if (!skew) {
    std::cout << "no legal skew found\n";
    return 1;
  }
  std::cout << "unimodular skew S = " << skew->str() << ", S*D = "
            << tile::skew_deps(*skew, nest.deps()).str() << "\n";
  const loop::LoopNest view = loop::make_skewed_nest(nest, *skew);
  std::cout << "skewed bounding box " << view.domain().extents().str()
            << " (" << view.domain().volume() << " cells for "
            << nest.domain().volume() << " real iterations)\n\n";

  const auto model = std::make_shared<const mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  util::Table table;
  table.set_header({"V (mapped side)", "t overlap", "t non-overlap",
                    "improvement"});
  const std::size_t md = sched::choose_mapped_dim(
      tile::TiledSpace(view,
                       tile::RectTiling(Vec{8, view.deps()
                                                   .max_component(1) +
                                               2}))
          .tile_space());
  for (i64 V : {32, 64, 128, 256}) {
    Vec sides(2);
    for (std::size_t d = 0; d < 2; ++d) {
      const i64 min_side = view.deps().max_component(d) + 1;
      sides[d] = d == md ? std::max(min_side, V)
                         : std::max<i64>(min_side,
                                         view.domain().extent(d) / 8);
    }
    const auto over = exec::make_plan_explicit(
        view, tile::RectTiling(sides), sched::ScheduleKind::kOverlap, md,
        Vec{8, 8});
    const auto non = exec::make_plan_explicit(
        view, tile::RectTiling(sides), sched::ScheduleKind::kNonOverlap,
        md, Vec{8, 8});
    const double t_over = exec::run_plan(view, over, model).seconds;
    const double t_non = exec::run_plan(view, non, model).seconds;
    table.add_row({std::to_string(sides[md]), util::fmt_seconds(t_over),
                   util::fmt_seconds(t_non),
                   util::fmt_fixed(100.0 * (t_non - t_over) / t_non, 1) +
                       " %"});
  }
  table.write_text(std::cout);
  std::cout << "\nthe overlapping schedule's advantage carries over to "
               "skewed (parallelepiped) tiles unchanged: legality only\n"
               "needed the coordinate change, the pipeline argument is "
               "shape-independent.\n";
  return 0;
}
