// Shared pieces of perfbench: clocks, order statistics,
// digests, the per-trial latency log the workloads wrap around every
// algorithm::run, and the metric containers it prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a copy; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Streaming 64-bit FNV-1a over the statistical fields the correctness
/// checks compare (never over timing fields).
class digest {
 public:
  void add(std::string_view text) noexcept;
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;  // exact bit pattern
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Every statistical field of a batch of trial aggregates (busy time
/// excluded), in cell order.
void add_stats(digest& d, const std::vector<beepkit::analysis::trial_stats>& cells);

/// Thread-safe log of per-trial latencies and work. The workloads wrap
/// each cell's algorithm::run so the sweep workers record into it.
class trial_log {
 public:
  void record(double seconds, double node_rounds);
  /// Number of latencies recorded so far.
  [[nodiscard]] std::size_t size() const;
  /// The latencies recorded from index `first` on.
  [[nodiscard]] std::vector<double> seconds(std::size_t first = 0) const;
  [[nodiscard]] double busy_seconds() const;
  [[nodiscard]] double node_rounds() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> seconds_;
  double busy_seconds_ = 0.0;
  double node_rounds_ = 0.0;
};

/// Wraps `algo` so each call records its latency and n * rounds.
[[nodiscard]] beepkit::analysis::algorithm timed(
    beepkit::analysis::algorithm algo, trial_log& log);

/// One metric as printed: value plus unit.
struct metric_value {
  double value = 0.0;
  std::string unit;
};
using metric_map = std::map<std::string, metric_value>;

}  // namespace perfbench
