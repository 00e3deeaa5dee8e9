// Typed counters and per-phase duration histograms.
//
// The Registry is the always-cheap aggregating sink: a span lands as two
// relaxed atomic increments (a fixed log-bucket histogram cell and the
// phase's running sum), a counter as one CAS loop on a pre-registered
// cell.  Nothing on the span path allocates or locks, so a Registry can be
// shared across every worker of a parallel sweep.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tilo/obs/sink.hpp"

namespace tilo::obs {

/// Fixed power-of-two log-bucket histogram over nanosecond durations.
/// Bucket 0 holds [0, 1] ns and bucket i >= 1 holds (2^(i-1), 2^i] ns;
/// the last bucket additionally absorbs everything beyond its upper edge
/// (2^62 ns is ~146 years of simulated time, so nothing real overflows).
class LogHistogram {
 public:
  static constexpr int kBuckets = 40;

  /// The bucket index `dt` falls into (negative durations clamp to 0).
  static int bucket_of(Time dt);
  /// Inclusive upper edge of bucket `i` (2^i ns, saturated at the top).
  static Time bucket_hi(int i);
  /// Exclusive lower edge of bucket `i` (bucket_hi(i - 1); -1 for i == 0).
  static Time bucket_lo(int i);

  void add(Time dt) {
    counts_[static_cast<std::size_t>(bucket_of(dt))].fetch_add(
        1, std::memory_order_relaxed);
    sum_ns_.fetch_add(dt > 0 ? dt : 0, std::memory_order_relaxed);
  }

  std::uint64_t count(int bucket) const {
    return counts_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_count() const;
  /// Approximate percentile (0 < q <= 1): the upper edge of the bucket
  /// holding the q-quantile sample, in ns (0 when empty).  Good to a
  /// factor of two, which is what a shutdown summary needs.
  double percentile_ns(double q) const;
  /// Sum of all recorded durations (clamped at 0 per sample), in ns.
  Time sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<Time> sum_ns_{0};
};

/// The aggregating sink: one histogram per phase plus named counters.
class Registry final : public Sink {
 public:
  void span(int node, Phase phase, Time start, Time end,
            std::string_view label = {}) override;
  void host_span(std::string_view name, Time start_ns, Time end_ns,
                 int lane = 0) override;
  void counter(std::string_view name, double delta) override;

  /// Duration histogram of one simulated phase.
  const LogHistogram& phase_histogram(Phase p) const {
    return phases_[static_cast<std::size_t>(p)];
  }
  /// Duration histogram of host-side orchestration spans (all names pooled).
  const LogHistogram& host_histogram() const { return host_; }

  /// Current value of a named counter (0 if never incremented).
  double counter_value(const std::string& name) const;
  /// All counters, sorted by name.
  std::vector<std::pair<std::string, double>> counters() const;

 private:
  std::array<LogHistogram, kNumPhases> phases_;
  LogHistogram host_;

  // Counters are pre-registered on first touch (the only allocating /
  // locking path); subsequent increments CAS the found cell.
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<std::atomic<double>>>>
      named_;

  std::atomic<double>& cell(std::string_view name);
};

}  // namespace tilo::obs
