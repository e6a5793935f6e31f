// Wave provenance tracking on path graphs - instrumentation for the
// Section-5 tightness heuristic.
//
// The paper argues (Discussion, Section 5) that with two leaders at
// the ends of a path, "the point where the waves emitted by each
// leader meet appears to move over time like a simple random walk",
// which would put the elimination time at Theta(D^2). This observer
// makes that point measurable: every beep is colored by the side it
// originated from (left = 0 / right = 1); a *crash* is the
// annihilation of two opposite-colored fronts, recorded with its
// round and position. The meeting-point trajectory is then just the
// crash-position sequence, and its mean-squared displacement should
// grow ~ linearly in lag if the random-walk picture is right
// (verified in bench/tightness_conjecture part 2).
//
// Word-level: the three colours (left, right, merged) are packed
// sets, one std::uint64_t per 64 nodes, updated from the round's beep
// and leader words with one-bit shifts, so a round costs O(n/64) plus
// one entry per crash. Only meaningful on path topologies (nodes
// 0..n-1 in line order): the first round throws std::invalid_argument
// on any other topology.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "beeping/observer.hpp"
#include "beeping/protocol.hpp"

namespace beepkit::analysis {

/// A wave-annihilation event on the path.
struct wave_crash {
  std::uint64_t round = 0;
  double position = 0.0;  ///< .5 offsets = head-on between two nodes.
};

class wave_crash_tracker final : public beeping::observer {
 public:
  /// `proto` must run a BFW-shaped machine on a path graph. The
  /// tracker reads only the round views' packed beep and leader sets.
  explicit wave_crash_tracker(const beeping::fsm_protocol& /*proto*/) {}

  void on_round(const beeping::round_view& view) override;

  [[nodiscard]] const std::vector<wave_crash>& crashes() const noexcept {
    return crashes_;
  }

 private:
  /// Per-round colour sets: every beeper is in exactly one of them.
  struct colour_sets {
    std::vector<std::uint64_t> left;    ///< wave from the left half
    std::vector<std::uint64_t> right;   ///< wave from the right half
    std::vector<std::uint64_t> merged;  ///< relay where two fronts met
  };

  void start(const beeping::round_view& view);

  std::vector<std::uint64_t> left_side_;  // u with 2u < n
  colour_sets prev_;
  colour_sets cur_;
  std::vector<std::uint64_t> crash_bits_;  // scratch: this round's crash sites
  bool have_prev_ = false;
  std::vector<wave_crash> crashes_;
};

/// Mean squared displacement of the crash-position sequence at lags
/// 1..max_lag (msd[0] unused = 0). Diffusive (random-walk-like) motion
/// shows up as ~linear growth in the lag.
[[nodiscard]] std::vector<double> mean_squared_displacement(
    std::span<const wave_crash> crashes, std::size_t max_lag);

}  // namespace beepkit::analysis
