// Observer hooks on the synchronous engine. Observers see a read-only
// view of each completed round; they power the invariant checkers
// (src/core/invariants.hpp), trace recording, the wave visualizations
// and the per-node beep counts (beep_counter below) without the engine
// knowing about any of them.
//
// Cost model: building a view costs O(1). It hands out the packed sets
// the engine already keeps (one std::uint64_t word per 64 nodes, bit u
// of word u/64 = node u), so an observer that works on words pays
// O(n/64) per round. Per-node data are pulls: states() unpacks the
// planes into the protocol's state vector, and class_words() decodes a
// state class into a word mask. Each does its work only when an
// observer calls it. The engine keeps no beep counts: a run that needs
// N_beep_t attaches a beep_counter and pays for it alone.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "beeping/protocol.hpp"
#include "graph/view.hpp"

namespace beepkit::beeping {

class engine;

/// Read-only snapshot of the network at the end of round `round`.
struct round_view {
  std::uint64_t round = 0;                        ///< Current round index t.
  const graph::topology_view* topology = nullptr; ///< Bound topology.
  const protocol* proto = nullptr;                ///< Per-node state access.
  std::span<const std::uint64_t> beep_words;      ///< Packed B_t.
  std::span<const std::uint64_t> leader_words;    ///< Packed leader set.
  std::size_t leader_count = 0;  ///< |{u : u in a leader state}|.

  /// The fsm_protocol configuration of round t (unpacks the planes when
  /// they are authoritative). Throws std::logic_error unless the bound
  /// protocol is an fsm_protocol.
  [[nodiscard]] const std::vector<state_id>& states() const;
  /// Writes into `out` (one word per 64 nodes) the packed set of nodes
  /// whose state id s has bit s set in `state_mask`. Plane rounds decode
  /// it from the planes; other rounds read the state vector. Throws
  /// std::logic_error unless the bound protocol is an fsm_protocol, and
  /// std::invalid_argument when `out` has the wrong length.
  void class_words(std::uint64_t state_mask,
                   std::span<std::uint64_t> out) const;

  const engine* source = nullptr;  ///< The engine behind the pulls.
};

/// Interface for round observers. `on_round` fires once per round,
/// including round 0 (the initial configuration) right after attach.
class observer {
 public:
  virtual ~observer() = default;
  virtual void on_round(const round_view& view) = 0;
};

/// N_beep_t(u), the paper's per-node beep counts: the beeps of u in
/// every round this observer was shown since the last round-0 view
/// (the attach, or engine::restart_from_protocol), the current round
/// included. A mid-run resync or a crash/restart fault between rounds
/// does not rewrite a round it has already seen. Its first view must be
/// round 0 (std::logic_error otherwise, so add_observer refuses a late
/// attach whose counts would miss rounds).
class beep_counter final : public observer {
 public:
  void on_round(const round_view& view) override {
    if (view.round == 0) {
      counts_.assign(view.topology->node_count(), 0);
      started_ = true;
    } else if (!started_) {
      throw std::logic_error(
          "beeping::beep_counter: attach at round 0 (counts would miss "
          "the earlier rounds)");
    }
    for (std::size_t w = 0; w < view.beep_words.size(); ++w) {
      for (std::uint64_t bits = view.beep_words[w]; bits != 0;
           bits &= bits - 1) {
        ++counts_[(w << 6) + static_cast<std::size_t>(std::countr_zero(bits))];
      }
    }
  }
  [[nodiscard]] std::uint64_t count(graph::node_id u) const {
    return counts_[u];
  }
  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  bool started_ = false;
};

}  // namespace beepkit::beeping
