// Allocation budget of a timed run.  This executable replaces the global
// operator new with a counting version and bounds the heap allocations that
// one timed exec::run_plan of the paper's space (i) makes per message.  An
// allocation count is deterministic, so a layer of the simulator that
// silently gets fatter fails here on any host, where a wall-time floor
// would be noisy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>

#include "tilo/core/problem.hpp"
#include "tilo/exec/run.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so that no allocation escapes the count and every
// block is released by the same allocator family that made it.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using tilo::core::Problem;
using tilo::sched::ScheduleKind;

// The budget per message sent.  What a timed run still allocates per
// message is its send and receive handles and one matching-table node for
// the side that arrives first; with the per-run setup (cluster, rank
// frames, comm table) that measures 3.6 per message for the overlapping
// schedule and 2.6 for the blocking one.  The bound leaves about 40 %
// headroom over the overlapping schedule for standard-library differences;
// a comm table that builds region boxes, or a map node plus a deque per
// matching key, costs about 30 per message.
constexpr double kAllocationsPerMessage = 5.0;

struct Count {
  std::size_t allocations = 0;
  tilo::util::i64 messages = 0;
};

/// Allocations made by one timed run of space (i) at the paper's optimum
/// height, with a fresh workspace (so the comm table is built inside).
Count count_timed_run(ScheduleKind kind) {
  const Problem problem = tilo::core::paper_problem_i();
  const tilo::exec::TilePlan plan = problem.plan(197, kind);
  const auto model =
      std::make_shared<tilo::mach::IdealOverlapModel>(problem.machine);
  tilo::exec::RunWorkspace workspace;
  const std::size_t before = g_allocations.load();
  const tilo::exec::RunResult r =
      tilo::exec::run_plan(problem.nest, plan, model, {}, &workspace);
  const std::size_t after = g_allocations.load();
  return Count{after - before, r.messages};
}

void expect_within_budget(ScheduleKind kind, const char* name) {
  const Count c = count_timed_run(kind);
  ASSERT_GT(c.messages, 0);
  const double per_message =
      static_cast<double>(c.allocations) / static_cast<double>(c.messages);
  std::cout << name << ": " << c.allocations << " allocations over "
            << c.messages << " messages (" << per_message
            << " per message)\n";
  EXPECT_LE(per_message, kAllocationsPerMessage)
      << name << " run made " << c.allocations << " allocations for "
      << c.messages << " messages";
}

}  // namespace

TEST(AllocBudgetTest, CountingAllocatorSeesTheRun) {
  // Guards the harness itself: a run with no counted allocation would mean
  // the replacement operator new is not linked in.
  EXPECT_GT(count_timed_run(ScheduleKind::kOverlap).allocations, 0u);
}

TEST(AllocBudgetTest, TimedOverlapRunStaysWithinBudgetPerMessage) {
  expect_within_budget(ScheduleKind::kOverlap, "overlap");
}

TEST(AllocBudgetTest, TimedNonOverlapRunStaysWithinBudgetPerMessage) {
  expect_within_budget(ScheduleKind::kNonOverlap, "non-overlap");
}
