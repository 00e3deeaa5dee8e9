#include "tilo/obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tilo::obs {

int LogHistogram::bucket_of(Time dt) {
  if (dt <= 1) return 0;
  // dt in (2^(i-1), 2^i]  <=>  i = bit_width(dt - 1).
  const int i = std::bit_width(static_cast<std::uint64_t>(dt - 1));
  return i < kBuckets ? i : kBuckets - 1;
}

Time LogHistogram::bucket_hi(int i) {
  if (i >= kBuckets - 1 || i >= 62) return Time{1} << 62;
  return Time{1} << i;
}

Time LogHistogram::bucket_lo(int i) { return i == 0 ? -1 : bucket_hi(i - 1); }

std::uint64_t LogHistogram::total_count() const {
  std::uint64_t n = 0;
  for (int i = 0; i < kBuckets; ++i) n += count(i);
  return n;
}

double LogHistogram::percentile_ns(double q) const {
  const std::uint64_t total = total_count();
  if (total == 0) return 0.0;
  const double want = std::ceil(q * static_cast<double>(total));
  const std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += count(i);
    if (cum >= target) return static_cast<double>(bucket_hi(i));
  }
  return static_cast<double>(bucket_hi(kBuckets - 1));
}

void Registry::span(int /*node*/, Phase phase, Time start, Time end,
                    std::string_view /*label*/) {
  phases_[static_cast<std::size_t>(phase)].add(end - start);
}

void Registry::host_span(std::string_view /*name*/, Time start_ns,
                         Time end_ns, int /*lane*/) {
  host_.add(end_ns - start_ns);
}

std::atomic<double>& Registry::cell(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : named_)
    if (n == name) return *c;
  named_.emplace_back(std::string(name),
                      std::make_unique<std::atomic<double>>(0.0));
  return *named_.back().second;
}

void Registry::counter(std::string_view name, double delta) {
  std::atomic<double>& c = cell(name);
  double cur = c.load(std::memory_order_relaxed);
  while (!c.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

double Registry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, c] : named_)
    if (n == name) return c->load(std::memory_order_relaxed);
  return 0.0;
}

std::vector<std::pair<std::string, double>> Registry::counters() const {
  std::vector<std::pair<std::string, double>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(named_.size());
    for (const auto& [n, c] : named_)
      out.emplace_back(n, c->load(std::memory_order_relaxed));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tilo::obs
