// Repeated beep lottery on the clique - the representative of the
// Table 1 baseline [17] (Gilbert & Newport, "The computational power
// of beeps", DISC 2015): constant-state leader election on single-hop
// networks with error probability epsilon.
//
// Mechanism: every surviving candidate flips a fair coin each round;
// heads = beep, tails = listen. A listening candidate that hears a
// beep withdraws (someone else is still in the race). On a clique at
// least one candidate always survives (if everyone beeped, nobody
// heard while listening), and each round the survivor set either stays
// or shrinks, halving in expectation whenever it is not unanimous.
// After T = ceil((2 log2 n + log2(1/eps)) / log2(4/3)) rounds all
// nodes stop (termination by round counting, which is what costs the
// knowledge of n); with probability >= 1 - eps a single candidate
// remains. The residual multi-leader probability is exactly the
// epsilon that the paper's BFW avoids by giving up termination
// detection.
//
// Only correct on single-hop (fully connected) networks - on multi-hop
// graphs distant candidates never hear each other, which the tests
// demonstrate.
//
// Representation: the round counter is one value shared by all nodes
// (they all start at reset and advance once per round); candidates and
// this round's beepers are packed sets, so withdrawal is one word
// operation per 64 nodes. Coins are drawn by walking the candidate set
// in ascending node order, each node from its own stream.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "beeping/protocol.hpp"

namespace beepkit::baselines {

class clique_lottery final : public beeping::protocol {
 public:
  /// epsilon in (0, 1): admissible probability of ending with more
  /// than one leader.
  explicit clique_lottery(double epsilon);

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

  /// The round budget T after which every node halts.
  [[nodiscard]] std::uint64_t round_budget() const noexcept { return budget_; }

 private:
  double epsilon_;
  std::uint64_t budget_ = 0;
  std::uint64_t round_ = 0;  ///< Local round counter (synchronized).
  // Packed sets, bit u of word u/64 for node u.
  std::vector<std::uint64_t> candidate_;
  std::vector<std::uint64_t> beep_now_;  ///< Decided by last round's coin.
};

}  // namespace beepkit::baselines
