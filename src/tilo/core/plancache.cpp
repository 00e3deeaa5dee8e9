#include "tilo/core/plancache.hpp"

#include <sstream>

namespace tilo::core {

namespace {

/// Serializes everything plan(V, kind) depends on: the domain, the
/// dependence set, the processor grid and the machine's cost scalars —
/// i.e. the plan's serialized identity (the same fields
/// pipeline::plan_to_json persists).  Two problems with equal tags produce
/// identical plans for every (V, kind), so the tag is exactly the part of
/// the key that lets problems share a cache.
std::string problem_identity_tag(const Problem& p) {
  std::ostringstream os;
  os.precision(17);
  os << "dom:";
  for (std::size_t d = 0; d < p.nest.domain().dims(); ++d)
    os << p.nest.domain().lo()[d] << ".." << p.nest.domain().hi()[d] << ",";
  os << "|deps:";
  for (const lat::Vec& dep : p.nest.deps()) {
    for (i64 c : dep) os << c << ",";
    os << ";";
  }
  os << "|procs:";
  for (i64 c : p.procs) os << c << ",";
  const mach::MachineParams& m = p.machine;
  os << "|mach:" << m.t_c << "," << m.t_t << "," << m.bytes_per_element
     << "," << m.wire_latency << "," << m.fill_mpi_buffer.base << ","
     << m.fill_mpi_buffer.per_byte << "," << m.fill_kernel_buffer.base
     << "," << m.fill_kernel_buffer.per_byte << ","
     << m.cache.capacity_bytes << "," << m.cache.miss_penalty;
  return os.str();
}

}  // namespace

std::shared_ptr<const TilePlan> PlanCache::get(const Problem& problem,
                                               i64 V, ScheduleKind kind) {
  const std::string tag = problem_identity_tag(problem);
  const Key key{tag, V, static_cast<int>(kind)};
  const ScheduleKind sibling_kind = kind == ScheduleKind::kOverlap
                                        ? ScheduleKind::kNonOverlap
                                        : ScheduleKind::kOverlap;
  const Key sibling{tag, V, static_cast<int>(sibling_kind)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      ++hits_;
      return it->second;
    }
    auto sib = plans_.find(sibling);
    if (sib != plans_.end()) {
      // make_plan_explicit only stores the kind; geometry and mapping are
      // kind-independent, so copy-and-flip avoids re-tiling.
      ++hits_;
      auto plan = std::make_shared<TilePlan>(*sib->second);
      plan->kind = kind;
      std::shared_ptr<const TilePlan> frozen = std::move(plan);
      plans_.emplace(key, frozen);
      return frozen;
    }
    ++misses_;
  }

  // Build outside the lock: plan construction enumerates tile geometry and
  // can be slow; concurrent misses on the same key both build, and the
  // first insert wins.
  auto built = std::make_shared<const TilePlan>(problem.plan(V, kind));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = plans_.emplace(key, built);
  return it->second;
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace tilo::core
