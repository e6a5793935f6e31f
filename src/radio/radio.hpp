// Synchronous radio-network substrate (paper Section 1.4, [6]).
//
// Radio networks differ from the beeping model in one crucial way: a
// listening node receives a signal only when EXACTLY ONE neighbor
// transmits in that round; simultaneous transmissions collide. With
// collision detection (CD) the listener can at least tell collision
// from silence - which restores exactly the beeping model's "at least
// one neighbor beeped" predicate. Without CD, collisions are
// indistinguishable from silence.
//
// The paper remarks that both radio networks and the stone-age model
// "allow nodes to accurately detect the situation where a single
// neighbor emits a signal... which significantly impacts algorithm
// design". This substrate makes the remark measurable for BFW:
//
//   * radio + CD   == the beeping model (engine is bit-identical,
//                     tested);
//   * radio w/o CD: a beep masked by a collision is an erasure, so
//     waves desynchronize and (as with channel noise, see EX1) the
//     Lemma 9 floor is lost; the bench quantifies how much collision
//     detection is worth.
//
// Implementation note: the engine drives the same beeping::protocol
// interface; only the `heard` predicate differs. A node that transmits
// always knows it did (its own signal never counts as a reception).
#pragma once

#include <cstdint>
#include <vector>

#include "beeping/protocol.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace beepkit::radio {

/// What a listening node's receiver reports for one round.
enum class reception : std::uint8_t {
  silence = 0,   ///< no neighbor transmitted
  single = 1,    ///< exactly one neighbor transmitted (message received)
  collision = 2, ///< two or more neighbors transmitted
};

class engine {
 public:
  /// `collision_detection`: whether a listener can distinguish
  /// `collision` from `silence`. Streams are laid out exactly like the
  /// beeping engine's, so a CD radio run is bit-identical to the
  /// beeping run with the same seed.
  engine(const graph::graph& g, beeping::protocol& proto, std::uint64_t seed,
         bool collision_detection);

  void step();
  void run_rounds(std::uint64_t count);

  /// Only exactly-one-leader counts as convergence: in the lossy radio
  /// model collisions can eliminate the last leader (extinction), and
  /// that failure must not be reported as a successful election.
  struct run_result {
    std::uint64_t rounds = 0;
    bool converged = false;   ///< exactly one leader at the stop round
    std::size_t leaders = 0;  ///< leader count at the stop round
  };
  run_result run_until_single_leader(std::uint64_t max_rounds);

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::size_t leader_count() const noexcept {
    return leader_count_;
  }
  [[nodiscard]] graph::node_id sole_leader() const;
  [[nodiscard]] bool transmitting(graph::node_id u) const {
    return ((transmit_words_[u >> 6] >> (u & 63)) & 1ULL) != 0;
  }
  /// Receiver verdict of the current round (computed during step();
  /// meaningful for the *previous* round after a step). Exposed for
  /// tests via last_reception().
  [[nodiscard]] reception last_reception(graph::node_id u) const {
    return receptions_[u];
  }
  [[nodiscard]] bool collision_detection() const noexcept { return cd_; }

 private:
  void refresh_round_state();

  const graph::graph* g_;
  beeping::protocol* proto_;
  bool cd_;
  std::vector<support::rng> rngs_;
  // Packed sets, bit u of word u/64 for node u: the protocol advances
  // and reads out whole rounds (beeping::protocol::step_round).
  std::vector<std::uint64_t> transmit_words_;
  std::vector<std::uint64_t> leader_words_;
  std::vector<std::uint64_t> heard_words_;
  std::vector<reception> receptions_;
  std::uint64_t round_ = 0;
  std::size_t leader_count_ = 0;
};

}  // namespace beepkit::radio
