#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace bk = beepkit;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void digest::add(std::string_view text) noexcept {
  for (const char c : text) {
    state_ ^= static_cast<std::uint8_t>(c);
    state_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(text.size()));
}

void digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    state_ ^= static_cast<std::uint8_t>(value >> (8 * i));
    state_ *= 0x100000001b3ULL;
  }
}

void digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::string digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

void add_stats(digest& d, const std::vector<bk::analysis::trial_stats>& cells) {
  for (const auto& s : cells) {
    d.add(s.algorithm_name);
    d.add(s.graph_name);
    d.add(static_cast<std::uint64_t>(s.node_count));
    d.add(static_cast<std::uint64_t>(s.diameter));
    d.add(static_cast<std::uint64_t>(s.trials));
    d.add(static_cast<std::uint64_t>(s.converged));
    for (const double v : {s.rounds.mean, s.rounds.stddev, s.rounds.min,
                           s.rounds.max, s.rounds.median, s.rounds.q25,
                           s.rounds.q75, s.rounds.q95}) {
      d.add(v);
    }
    d.add(static_cast<std::uint64_t>(s.rounds.count));
    d.add(s.mean_coins_per_node_round);
    d.add(s.total_rounds);
  }
}

void trial_log::record(double seconds, double node_rounds) {
  const std::lock_guard lock(mutex_);
  seconds_.push_back(seconds);
  busy_seconds_ += seconds;
  node_rounds_ += node_rounds;
}

std::size_t trial_log::size() const {
  const std::lock_guard lock(mutex_);
  return seconds_.size();
}

std::vector<double> trial_log::seconds(std::size_t first) const {
  const std::lock_guard lock(mutex_);
  if (first >= seconds_.size()) return {};
  return {seconds_.begin() + static_cast<std::ptrdiff_t>(first), seconds_.end()};
}

double trial_log::busy_seconds() const {
  const std::lock_guard lock(mutex_);
  return busy_seconds_;
}

double trial_log::node_rounds() const {
  const std::lock_guard lock(mutex_);
  return node_rounds_;
}

bk::analysis::algorithm timed(bk::analysis::algorithm algo, trial_log& log) {
  auto inner = std::move(algo.run);
  algo.run = [inner = std::move(inner), &log](
                 const bk::graph::topology_view& view, std::uint64_t seed,
                 std::uint64_t max_rounds) {
    const auto start = clock_type::now();
    auto outcome = inner(view, seed, max_rounds);
    log.record(seconds_since(start),
               static_cast<double>(view.node_count()) *
                   static_cast<double>(outcome.rounds));
    return outcome;
  };
  return algo;
}

}  // namespace perfbench
