// Runtime checkers for the paper's deterministic results (Section 3).
// Attached as engine observers, they confront every simulated round
// with:
//
//   * Claim 6, Eqs. (3)-(11): local state-transition facts relating
//     consecutive rounds (e.g. "beeping implies frozen next round").
//   * Lemma 9: the population always contains at least one leader, and
//     (a fact the convergence detector relies on) the leader count
//     never increases.
//   * Corollary 8 (Ohm's law): the flow along any path equals the
//     difference of the endpoint beep counts - checked on a sampled
//     path set each round.
//   * Lemma 11: |N_beep(u) - N_beep(v)| <= dis(u, v) for all pairs
//     (requires the distance matrix; intended for test-sized graphs).
//   * Lemma 12: if N_beep_t(u) > N_beep_t(v), then v beeps in some
//     round s <= t + dis(u, v) - tracked as deadline obligations.
//
// Violations are collected (not thrown) so tests can assert on them
// and failure-injection experiments can count them. The beep counts
// N_beep_t come from a beeping::beep_counter the checker owns and feeds
// first every round, so the checker must be attached at round 0
// (on_round throws std::logic_error on a later first view).
//
// Claim 6 runs on words: each round pulls the packed W/B/F/B_follower
// class masks (beeping::round_view::class_words), and every equation
// becomes an identity between two consecutive rounds' masks - the
// edge relations (6), (10) and (11) through a neighbour-OR computed by
// a checker-owned graph::heard_gather (a stencil on tagged grids). Only
// a round where some identity fails re-runs the node-ordered scan, so
// the violation text, order and count are those of the scan.
//
// Every round-0 view - the attach, or engine::restart_from_protocol -
// starts a new run: the previous round's class masks, the leader count
// and the Lemma 12 obligations are dropped, so a restart is never
// compared with the configuration it replaced. check_pair is the entry
// for confronting two given configurations directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "beeping/observer.hpp"
#include "beeping/protocol.hpp"
#include "core/flow.hpp"
#include "graph/gather.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace beepkit::core {

/// Which checks to run each round; the quadratic ones default off so
/// the checker can also ride along in larger benchmark runs.
struct invariant_options {
  bool check_claim6 = true;        ///< O(n/64) per round when it holds.
  bool check_leader_floor = true;  ///< O(1) per round (Lemma 9 + monotone).
  bool check_ohms_law = true;      ///< O(total path length) per round.
  bool check_lemma11 = false;      ///< O(n^2) per round; needs distances.
  bool check_lemma12 = false;      ///< O(pairs) per round; needs distances.
  std::size_t sampled_paths = 16;      ///< Paths for the Ohm's-law check.
  std::size_t sampled_path_length = 32;
  std::size_t lemma12_pairs = 32;      ///< Pairs tracked for Lemma 12.
  std::uint64_t path_sample_seed = 0x0bf1;
};

/// Observer validating BFW configurations round by round.
class invariant_checker final : public beeping::observer {
 public:
  /// `proto` must be an fsm_protocol over a BFW-shaped machine (six
  /// states with the bfw_state numbering); the checker reads it through
  /// the round views of the engine it is attached to.
  invariant_checker(const graph::graph& g, const beeping::fsm_protocol& proto,
                    invariant_options options = {});

  void on_round(const beeping::round_view& view) override;

  /// Claim 6 on one pair of configurations of the graph: `before` at
  /// round - 1 and `after` at `round`, reported like a live round's
  /// violations (same text, order and count). Shares the class-mask
  /// scratch with on_round, so call it on a checker that is not watching
  /// a run; the next on_round starts without a previous round. Throws
  /// std::invalid_argument unless both hold one state per node.
  void check_pair(std::span<const beeping::state_id> before,
                  std::span<const beeping::state_id> after,
                  std::uint64_t round);

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t rounds_checked() const noexcept {
    return rounds_checked_;
  }

 private:
  /// Packed BFW state classes of one round (bfw_state numbering); loaded
  /// for Claim 6 and for the flows of Ohm's law.
  struct class_masks {
    std::vector<std::uint64_t> waiting;
    std::vector<std::uint64_t> beeping;
    std::vector<std::uint64_t> frozen;
    std::vector<std::uint64_t> relay;  ///< B_follower (B◦)
  };

  void load_classes(const beeping::round_view& view);
  [[nodiscard]] bool claim6_identities_hold();
  void check_claim6(std::uint64_t round);
  void check_leader_floor(const beeping::round_view& view);
  void check_ohms_law(const beeping::round_view& view);
  void check_lemma11(const beeping::round_view& view);
  void check_lemma12(const beeping::round_view& view);
  void report(std::uint64_t round, const std::string& message);

  const graph::graph* g_;
  invariant_options options_;
  beeping::beep_counter counts_;
  graph::heard_gather gather_;
  std::vector<vertex_path> paths_;
  std::vector<std::vector<std::uint32_t>> distances_;  // lazy, quadratic
  class_masks previous_;
  class_masks current_;
  // Neighbour-ORs (with the set itself): B_{t-1} and F_t.
  std::vector<std::uint64_t> near_beeping_;
  std::vector<std::uint64_t> near_frozen_;
  std::size_t previous_leader_count_ = 0;
  bool have_previous_ = false;

  struct obligation {
    graph::node_id debtor;      ///< Node that must beep...
    std::uint64_t deadline;     ///< ...no later than this round.
    std::uint64_t created_at;
    graph::node_id creditor;    ///< The u with the larger beep count.
  };
  std::vector<obligation> obligations_;

  std::vector<std::string> violations_;
  std::uint64_t rounds_checked_ = 0;
  static constexpr std::size_t max_violations = 64;
};

}  // namespace beepkit::core
