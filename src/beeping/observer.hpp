// Observer hooks on the synchronous engine. Observers see a read-only
// view of each completed round; they power the invariant checkers
// (src/core/invariants.hpp), trace recording, and the wave
// visualizations without the engine knowing about any of them.
//
// Cost model: building a view costs O(1). It hands out the packed sets
// the engine already keeps (one std::uint64_t word per 64 nodes, bit u
// of word u/64 = node u), so an observer that works on words pays
// O(n/64) per round. Per-node data are pulls: beep_counts() folds the
// plane gear's pending beep ledger (beep_count(u) reads one node's
// count without the fold), states() unpacks the planes into the
// protocol's state vector, and class_words() decodes a state class
// into a word mask. Each does its work only when an observer calls it.
#pragma once

#include <cstdint>
#include <span>
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

  /// N_beep_t per node (flushes the engine's pending beep ledger; empty
  /// under engine_config::giant_mode, which keeps no counts).
  [[nodiscard]] std::span<const std::uint64_t> beep_counts() const;
  /// N_beep_t(u) alone: reads the pending ledger bits of u without a
  /// flush, for observers that sample a few nodes per round.
  [[nodiscard]] std::uint64_t beep_count(graph::node_id u) const;
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

}  // namespace beepkit::beeping
