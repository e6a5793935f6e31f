// Unique-ID beep-wave election - the representative of the Table 1
// baseline class [14]/[11] (Foerster-Seidel-Wattenhofer 2014;
// Dufoulon-Burman-Beauquier 2018).
//
// Mechanism (the one those algorithms share): nodes hold unique
// identifiers of L = ceil(log2 n) bits and eliminate candidates by
// broadcasting the bits of the maximum surviving ID from the most
// significant down. Time is divided into L phases of D+1 rounds:
//
//   round 0 of phase k : every surviving candidate whose k-th bit is 1
//                        beeps (initiates a wave);
//   rounds 1..D        : a node that hears its first beep of the phase
//                        relays it exactly once in the next round, so
//                        the wave floods the graph in <= D rounds and
//                        then dies;
//   end of phase       : a candidate whose k-th bit is 0 and that
//                        heard a wave withdraws - some surviving
//                        candidate has a larger ID.
//
// After L phases exactly the maximum-ID node survives: deterministic
// safety, termination detection by round counting, O(D log n) rounds -
// at the price of unique IDs, Theta(log n) memory bits per node, and
// knowledge of both n and D. That price is precisely what the paper's
// six-state BFW refuses to pay (Table 1).
//
// Representation: every node starts at reset and advances once per
// round, so the phase clock (bit index, round within the phase, done)
// is one value shared by all nodes, and the per-node state is packed
// sets - candidate, heard-this-phase, relay-pending - plus one bit
// plane per ID bit. A round is a handful of word operations per 64
// nodes (step_round); there is no per-node step.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "beeping/protocol.hpp"

namespace beepkit::baselines {

class id_broadcast_election final : public beeping::protocol {
 public:
  /// `diameter_bound` must be >= the true diameter of the network the
  /// protocol will run on (the algorithm class assumes knowledge of D).
  explicit id_broadcast_election(std::uint32_t diameter_bound);

  void reset(std::size_t node_count, support::rng& init_rng) override;
  [[nodiscard]] bool beeping(graph::node_id node) const override;
  [[nodiscard]] bool is_leader(graph::node_id node) const override;
  void step_round(std::size_t node_count,
                  std::span<const std::uint64_t> heard,
                  support::rng_source rngs) override;
  std::size_t round_sets(std::size_t node_count,
                         std::span<std::uint64_t> beep,
                         std::span<std::uint64_t> leader) const override;
  [[nodiscard]] std::string describe(graph::node_id node) const override;
  [[nodiscard]] std::string name() const override;

  /// Total rounds after which the algorithm has terminated:
  /// bits * (D + 1).
  [[nodiscard]] std::uint64_t termination_round() const noexcept {
    return static_cast<std::uint64_t>(total_bits_) * (diameter_bound_ + 1);
  }
  [[nodiscard]] std::uint64_t id_of(graph::node_id node) const;
  [[nodiscard]] std::uint32_t bits() const noexcept { return total_bits_; }

 private:
  /// Word w of the current beep set: pending relays, plus at round 0
  /// of a phase the candidates whose current ID bit is 1.
  [[nodiscard]] std::uint64_t beep_word(std::size_t w) const noexcept;
  /// Word w of the plane holding the current ID bit.
  [[nodiscard]] std::uint64_t id_bit_word(std::size_t w) const noexcept {
    return id_planes_[bit_index_ * candidate_.size() + w];
  }

  std::uint32_t diameter_bound_;
  std::uint32_t total_bits_ = 1;
  // The shared phase clock.
  std::uint32_t bit_index_ = 0;       ///< Counts down from total_bits-1.
  std::uint32_t round_in_phase_ = 0;  ///< 0..diameter_bound.
  bool finished_ = false;
  // Packed sets, bit u of word u/64 for node u. A node relays at most
  // once per phase, on its first hearing, so "already relayed" implies
  // "heard this phase" and needs no set of its own.
  std::vector<std::uint64_t> candidate_;
  std::vector<std::uint64_t> heard_this_phase_;
  std::vector<std::uint64_t> relay_pending_;
  // Bit j of every ID: plane j occupies words [j * W, (j + 1) * W).
  std::vector<std::uint64_t> id_planes_;
  std::uint64_t tail_mask_ = ~0ULL;  // valid bits of the last word
};

}  // namespace beepkit::baselines
