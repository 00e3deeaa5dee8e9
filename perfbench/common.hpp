// Shared pieces of the repository benchmark: command-line options, the
// result record every workload fills, sample statistics, the seeded problem
// generators and the per-layer metric table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tilo/core/problem.hpp"

namespace perfbench {

using tilo::util::i64;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (sockets, plan store, trace).
  std::string workdir;
  /// Golden tune digests (see tune.cpp).
  std::string golden;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the counts, the gate verdict and the metrics.
struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> gate_failures;  ///< empty = every gate passed
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  void gate(bool ok, const std::string& what);
};

/// Monotonic nanoseconds (the clock the library's host spans use).
inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 <= q <= 1) by linear interpolation, like numpy's
/// default; 0 for an empty sample.  Sorts `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// FNV-1a 64 over `text`, rendered as 16 hex digits.
std::string digest(const std::string& text);

/// Problem universe shared by the tune and fleet-sweep workloads.  Problem
/// `index` is a pure function of the index: a loop::random_nest dependence
/// shape on a 3-D space, the processor grid and mapped extent of the
/// index's grid class, and a machine model drawn from mach::model_names().
/// Runs draw problems from every grid class in turn.
inline constexpr std::size_t kUniverse = 2560;
inline constexpr std::size_t kGridClasses = 4;

struct Case {
  std::size_t index = 0;
  tilo::core::Problem problem;
  std::vector<i64> heights;
};
Case universe_case(std::size_t index, bool fleet);

/// `per_class` universe indices from each grid class, chosen by `seed` and
/// interleaved class by class.
std::vector<std::size_t> pick_cases(std::uint64_t seed, std::size_t per_class);

/// One run of each workload (opts.trace selects the traced run).
void run_tune(const Options& opts, Report& report);
void run_serve(const Options& opts, bool churn, Report& report);
void run_fleet_sweep(const Options& opts, Report& report);

/// Writes the golden tune digests for the whole universe.
int record_golden(const std::string& path);

}  // namespace perfbench
