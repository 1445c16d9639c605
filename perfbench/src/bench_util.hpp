// Shared helpers of the perfbench binaries: clocks, nearest-rank
// percentiles, the allocation counter fed by alloc_hook.cpp, process CPU
// and peak RSS, and the result record the runner script parses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in (0, 100]) of an ascending sample; 0 for
/// an empty one.  Rank = ceil(p/100 * n), so p50 of {1,2,3,4} is 2.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// percentile_sorted() of an unsorted sample (sorted copy).
double percentile(std::vector<double> values, double p);

/// Median (nearest rank, so always one of the samples).
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Samples strictly beyond the nearest-rank p-th percentile: n - rank.
std::size_t samples_beyond(std::size_t n, double p);

/// Smallest sample count at which percentile p has at least `beyond`
/// samples past it (the "ten samples beyond" rule: 1000 for p99).
std::size_t samples_needed(double p, std::size_t beyond = 10);

// ---- process counters ----------------------------------------------------

/// operator new calls counted while counting is on (alloc_hook.cpp).  Each
/// thread counts into its own slot; this sums them.
std::uint64_t alloc_count();
/// Counting is off by default so untraced runs pay only one branch per
/// allocation.
void set_alloc_counting(bool on);

/// User + system CPU seconds of the whole process (getrusage).
double process_cpu_s();
/// Peak resident set size in MiB (VmHWM).
double peak_rss_mb();

// ---- result record -------------------------------------------------------

/// What a workload run reports: operation counts and named metrics with
/// units.  print() writes the human-readable lines and then one JSON line
/// prefixed "RESULT " that the runner turns into the final record.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Free-form run record (seed, host, build) echoed by the runner.
  std::map<std::string, std::string> record;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::uint64_t n, const char* what);
  void print() const;
};

}  // namespace perfbench
