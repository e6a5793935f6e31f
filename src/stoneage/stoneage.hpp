// Synchronous stone-age model (Emek & Wattenhofer, PODC 2013), as used
// by the paper's remark that BFW "can also be implemented in a
// synchronous version of the stone-age model" (Section 1).
//
// Nodes are finite automata that *display* a symbol from a finite
// alphabet Sigma. In each round, a node observes, for every symbol
// sigma, the number of neighbors displaying sigma - but clipped at a
// threshold b >= 1 ("one-two-many" counting). With b = 1 a node only
// learns "no neighbor shows sigma" vs "at least one does", which is
// precisely the information a beeping-model listener gets; this is what
// makes the BFW embedding work (src/core/bfw_stoneage.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "beeping/protocol.hpp"
#include "graph/gather.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace beepkit::stoneage {

using state_id = std::uint16_t;
using symbol = std::uint16_t;

/// A probabilistic stone-age automaton. Stateless object; all per-node
/// state is the state id (anonymity, as in the beeping layer).
class automaton {
 public:
  virtual ~automaton() = default;

  [[nodiscard]] virtual std::size_t state_count() const = 0;
  [[nodiscard]] virtual std::size_t alphabet_size() const = 0;
  [[nodiscard]] virtual state_id initial_state() const = 0;
  /// Symbol displayed while in `state`.
  [[nodiscard]] virtual symbol display(state_id state) const = 0;
  [[nodiscard]] virtual bool is_leader(state_id state) const = 0;
  /// Next state given the clipped neighborhood census:
  /// counts[sigma] = min(#neighbors displaying sigma, b).
  [[nodiscard]] virtual state_id transition(
      state_id state, std::span<const std::uint32_t> counts,
      support::rng& rng) const = 0;
  [[nodiscard]] virtual std::string state_name(state_id state) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fast-path hook: when this automaton is a beeping machine in
  /// disguise - alphabet {0 = silent, 1 = beep}, display(s) = beep iff
  /// the machine beeps in s, is_leader matching, and transition(s,
  /// counts, rng) == (beeps(s) || counts[1] > 0 ? delta_top : delta_bot)
  /// with identical generator draws - return that machine, and the
  /// engine runs it on beeping::engine instead of the virtual
  /// display/transition calls. Default: nullptr (generic path).
  [[nodiscard]] virtual const beeping::state_machine* beep_machine() const {
    return nullptr;
  }
};

/// Synchronous stone-age engine: every node is activated every round
/// and transitions on the clipped census of the *current* round's
/// displayed symbols (double-buffered, like the beeping engine).
///
/// Fast path (automaton::beep_machine whose compiled table is
/// beeping::plane_capable, i.e. <= 256 states): with any threshold
/// b >= 1 the clipped census entry for `beep` is positive iff some
/// neighbor displays it, so a round is exactly one beeping-model round
/// of the disguised machine. The
/// engine therefore binds a beeping::fsm_protocol over that machine and
/// a beeping::engine on the same view and seed (node u draws from the
/// same stream in both engines) and forwards every fast-path call to
/// it: rounds, states, leader counts, tiling, gather and compiled-kernel
/// knobs, telemetry. One plane round serves both weak models.
///
/// The generic census path - per-neighbor display() calls, clipped
/// counts, per-node transition() - is the independent stone-age
/// reference; set_fast_path_enabled(false) forces it, and toggling at
/// any round is bit-identical (states and per-node streams are handed
/// across in both directions).
class engine {
 public:
  /// Binds to a topology view (explicit graphs convert implicitly;
  /// implicit views route the fast path to the stencil kernels and the
  /// generic census path to arithmetic neighbor enumeration).
  engine(graph::topology_view view, const automaton& machine,
         std::uint32_t threshold, std::uint64_t seed);

  void step();
  void run_rounds(std::uint64_t count);

  /// Runs until at most one leader remains or max_rounds elapse; for
  /// leader-monotone automata this is the election round. As in the
  /// beeping engine, only exactly-one-leader counts as convergence -
  /// extinction (zero leaders) is a failed election.
  struct run_result {
    std::uint64_t rounds = 0;
    bool converged = false;   ///< exactly one leader at the stop round
    std::size_t leaders = 0;  ///< leader count at the stop round
  };
  run_result run_until_single_leader(std::uint64_t max_rounds);

  [[nodiscard]] std::uint64_t round() const noexcept {
    return round_ + (plane_ ? plane_->sim.round() : 0);
  }
  [[nodiscard]] std::size_t leader_count() const noexcept {
    return fast_path_active() ? plane_->sim.leader_count() : leader_count_;
  }
  [[nodiscard]] state_id state_of(graph::node_id u) const {
    return fast_path_active() ? plane_->proto.state_of(u) : states_[u];
  }
  [[nodiscard]] const std::vector<state_id>& states() const noexcept {
    return fast_path_active() ? plane_->proto.states() : states_;
  }
  [[nodiscard]] symbol displayed(graph::node_id u) const {
    return machine_->display(state_of(u));
  }
  [[nodiscard]] graph::node_id sole_leader() const;
  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }

  /// How many lazy plane-to-vector unpacks the fast path's protocol has
  /// performed (unobserved plane rounds write no state vector).
  [[nodiscard]] std::uint64_t state_materializations() const noexcept {
    return plane_ ? plane_->proto.materialization_count() : 0;
  }

  /// Overrides the configuration (adversarial-initialization tests).
  /// The round counter keeps running.
  void set_states(std::vector<state_id> states);

  /// Forces the generic census path (`enabled == false`) or re-enables
  /// the beeping-engine fast path; bit-identical either way, also when
  /// toggled mid-run.
  void set_fast_path_enabled(bool enabled);
  [[nodiscard]] bool fast_path_active() const noexcept {
    return fast_enabled_ && plane_ != nullptr;
  }

  // Fast-path knobs: forwarded to the bound beeping::engine (same
  // contracts - none of them ever changes a number). On the generic
  // census path the setters are no-ops and the getters read "serial,
  // no kernel".
  void set_parallelism(std::size_t threads, std::size_t tile_words = 0);
  [[nodiscard]] std::size_t parallel_threads() const noexcept {
    return plane_ ? plane_->sim.parallel_threads() : 1;
  }
  [[nodiscard]] std::size_t tile_words() const noexcept {
    return plane_ ? plane_->sim.tile_words() : 0;
  }
  void set_compiled_kernel_enabled(bool enabled) noexcept {
    if (plane_) plane_->sim.set_compiled_kernel_enabled(enabled);
  }
  [[nodiscard]] bool compiled_kernel_active() const noexcept {
    return plane_ && plane_->sim.compiled_kernel_active();
  }
  [[nodiscard]] std::string compiled_kernel_name() const {
    return plane_ ? plane_->sim.compiled_kernel_name() : std::string{};
  }
  void set_compiled_width(std::size_t width);
  [[nodiscard]] std::size_t compiled_width() const noexcept {
    return plane_ ? plane_->sim.compiled_width() : 0;
  }
  [[nodiscard]] std::uint64_t compiled_rounds() const noexcept {
    return plane_ ? plane_->sim.compiled_rounds() : 0;
  }

  /// Pins one heard-gather kernel / attaches a dynamic-topology patch
  /// overlay (nullptr detaches) on the fast path. Both throw
  /// std::logic_error when the automaton exposes no plane-capable
  /// beep_machine() (no packed gather exists on the generic census
  /// path), and std::invalid_argument as beeping::engine does.
  void set_gather_kernel(graph::gather_kernel kernel);
  void set_topology_patch(const graph::patch_overlay* patch);
  /// The kernel the most recent fast-path gather actually ran
  /// (auto_select when the generic census path is in use).
  [[nodiscard]] graph::gather_kernel gather_kernel_used() const noexcept {
    return plane_ ? plane_->sim.gather_kernel_used()
                  : graph::gather_kernel::auto_select;
  }

  /// Telemetry: engine-local probe toggle (same contract as
  /// beeping::engine — probes never change a number).
  void set_telemetry_enabled(bool enabled) noexcept;
  [[nodiscard]] bool telemetry_enabled() const noexcept {
    return telemetry_enabled_;
  }
  /// The fast path's engine metrics plus the census rounds' probes;
  /// hand to support::telemetry::fold_engine_metrics.
  [[nodiscard]] support::telemetry::engine_metrics telemetry_metrics() const;

 private:
  /// The fast path: the protocol and the engine bound to it, held in
  /// one heap block so this engine stays movable while the engine's
  /// protocol pointer stays stable.
  struct plane_delegate {
    plane_delegate(const graph::topology_view& view,
                   const beeping::state_machine& machine, std::uint64_t seed)
        : proto(machine), sim(view, proto, seed) {}
    beeping::fsm_protocol proto;
    beeping::engine sim;
  };

  [[nodiscard]] support::rng& node_rng(graph::node_id u) {
    return plane_ ? plane_->sim.node_rng(u) : rngs_[u];
  }
  void step_census();
  void refresh_counters();

  graph::topology_view view_;
  std::size_t n_ = 0;
  const automaton* machine_;
  std::uint32_t threshold_;
  std::unique_ptr<plane_delegate> plane_;
  bool fast_enabled_ = true;
  // Census path. Streams live in the delegate when one is bound, so a
  // mid-run toggle keeps drawing from the same per-node generators.
  std::vector<support::rng> rngs_;
  std::vector<state_id> states_;
  std::vector<state_id> next_states_;
  std::vector<std::uint32_t> census_;  // scratch: alphabet_size entries
  std::uint64_t round_ = 0;            // rounds run on the census path
  std::size_t leader_count_ = 0;
  // Census-round probes, folded into the delegate's metrics on read.
  support::telemetry::engine_metrics metrics_;
  bool telemetry_enabled_ = true;
};

}  // namespace beepkit::stoneage
