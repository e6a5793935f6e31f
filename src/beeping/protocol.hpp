// The beeping model of communication (paper Section 1.1).
//
// Execution proceeds in discrete rounds. In each round every node
// either beeps or listens; a listening node hears a beep iff at least
// one neighbor beeps (it cannot count beepers). A node that beeps in
// round t, or hears a beep, transitions by delta_top; otherwise by
// delta_bot.
//
// Two protocol layers are provided:
//
//  * `state_machine` - the paper's formal object
//    M = (Q_listen, Q_beep, q_s, delta_bot, delta_top): a probabilistic
//    finite-state machine, anonymous and uniform. BFW (src/core/bfw.hpp)
//    is one of these.
//  * `protocol` - a generic behaviour interface that advances per node
//    or per round, which also accommodates the unbounded-state
//    baselines of Table 1 (unique IDs, phase counters).
//    `fsm_protocol` adapts any state_machine to it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace beepkit::beeping {

using state_id = std::uint16_t;

/// One compiled transition row of a state_machine: the successor choice
/// *and* the exact generator draw the delta function performs, so a
/// table-driven round consumes the same random values, draw for draw,
/// as calling the virtual delta_top/delta_bot.
struct transition_rule {
  enum class draw_kind : std::uint8_t {
    none,       ///< deterministic: the delta never touches the generator
    coin,       ///< exactly one rng.coin() (fair-bit accounting included)
    bernoulli,  ///< exactly one rng.bernoulli(p)
  };

  draw_kind draw = draw_kind::none;
  state_id next = 0;      ///< successor when draw == none
  state_id on_true = 0;   ///< successor when the draw fires
  state_id on_false = 0;  ///< successor when it does not
  double p = 0.0;         ///< bernoulli parameter

  [[nodiscard]] static transition_rule det(state_id next) {
    transition_rule r;
    r.next = next;
    return r;
  }
  [[nodiscard]] static transition_rule fair_coin(state_id on_true,
                                                 state_id on_false) {
    transition_rule r;
    r.draw = draw_kind::coin;
    r.on_true = on_true;
    r.on_false = on_false;
    return r;
  }
  [[nodiscard]] static transition_rule bernoulli_draw(double p,
                                                      state_id on_true,
                                                      state_id on_false) {
    transition_rule r;
    r.draw = draw_kind::bernoulli;
    r.p = p;
    r.on_true = on_true;
    r.on_false = on_false;
    return r;
  }
};

/// Applies one compiled rule, reproducing the delta's draws exactly.
[[nodiscard]] inline state_id apply_rule(const transition_rule& rule,
                                         support::rng& rng) {
  switch (rule.draw) {
    case transition_rule::draw_kind::none:
      return rule.next;
    case transition_rule::draw_kind::coin:
      return rng.coin() ? rule.on_true : rule.on_false;
    case transition_rule::draw_kind::bernoulli:
      return rng.bernoulli(rule.p) ? rule.on_true : rule.on_false;
  }
  return rule.next;  // unreachable: draw_kind is exhaustive
}

/// Flat compiled form of a state_machine M = (Q_listen, Q_beep, q_s,
/// delta_bot, delta_top): per-state beep/leader membership bytes plus
/// the two transition rows, laid out so one round over the raw state
/// vector needs zero virtual dispatch. Built via build_machine_table.
struct machine_table {
  /// rules[(s << 1) | heard]: delta_bot row at even slots, delta_top at
  /// odd - one indexed load per node per round.
  std::vector<transition_rule> rules;
  std::vector<std::uint8_t> beep_flag;    ///< Q_beep membership
  std::vector<std::uint8_t> leader_flag;  ///< L membership (Definition 1)
  /// The bot row is a draw-free self-loop: under silence the node
  /// neither changes state nor consumes randomness, so a bulk sweep can
  /// skip it entirely without perturbing any generator.
  std::vector<std::uint8_t> bot_identity;
  /// beep | leader << 1 | bot_identity << 2, fused so the round sweep
  /// pays one byte load per state lookup instead of three.
  std::vector<std::uint8_t> meta;

  static constexpr std::uint8_t meta_beep = 1;
  static constexpr std::uint8_t meta_leader = 2;
  static constexpr std::uint8_t meta_bot_identity = 4;

  [[nodiscard]] std::size_t state_count() const noexcept {
    return beep_flag.size();
  }
  [[nodiscard]] const transition_rule& rule(state_id s,
                                            bool heard) const noexcept {
    return rules[(static_cast<std::size_t>(s) << 1) | (heard ? 1U : 0U)];
  }
  [[nodiscard]] bool beeps(state_id s) const noexcept {
    return beep_flag[s] != 0;
  }
  [[nodiscard]] bool is_leader(state_id s) const noexcept {
    return leader_flag[s] != 0;
  }
};

class state_machine;

/// Assembles a machine_table from per-state bot/top rows, filling the
/// beep/leader/bot-identity bytes from the machine's own predicates.
/// Validates row sizes, successor ranges, and that every deterministic
/// row agrees with the corresponding virtual delta (probed once).
/// Throws std::invalid_argument on any mismatch.
[[nodiscard]] machine_table build_machine_table(
    const state_machine& machine, std::span<const transition_rule> bot,
    std::span<const transition_rule> top);

/// The paper's probabilistic finite-state machine
/// M = (Q_listen, Q_beep, q_s, delta_bot, delta_top). Implementations
/// must be stateless (all per-node state lives in the state id), which
/// is exactly the anonymity/uniformity restriction of the paper.
class state_machine {
 public:
  virtual ~state_machine() = default;

  [[nodiscard]] virtual std::size_t state_count() const = 0;
  /// q_s; every node starts here (anonymous protocols cannot
  /// distinguish nodes at start-up).
  [[nodiscard]] virtual state_id initial_state() const = 0;
  /// True iff the state belongs to Q_beep.
  [[nodiscard]] virtual bool beeps(state_id state) const = 0;
  /// True iff the state belongs to the leader set L of Definition 1.
  [[nodiscard]] virtual bool is_leader(state_id state) const = 0;
  /// delta_top: applied when the node beeped or heard a beep.
  [[nodiscard]] virtual state_id delta_top(state_id state,
                                           support::rng& rng) const = 0;
  /// delta_bot: applied when the node and its whole neighborhood were
  /// silent.
  [[nodiscard]] virtual state_id delta_bot(state_id state,
                                           support::rng& rng) const = 0;
  [[nodiscard]] virtual std::string state_name(state_id state) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Table-compilation hook for the engine's devirtualized fast path:
  /// machines whose deltas fit the transition_rule draw kinds return
  /// their compiled form (see build_machine_table); the default opts
  /// out, keeping the generic virtual path. The table must be
  /// draw-for-draw faithful - the engine's fast rounds are required to
  /// be bit-identical to the virtual dispatch path.
  [[nodiscard]] virtual std::optional<machine_table> compile_table() const {
    return std::nullopt;
  }
};

/// Generic protocol behaviour driven by `engine`. One protocol
/// instance owns the states of all nodes of one simulation.
///
/// Contract: a protocol implements either the per-node `step` or the
/// round-level `step_round`/`round_sets` pair. Engines advance a
/// protocol only through the round-level pair (the beeping engine runs
/// fsm_protocol machines through its own gears instead); its defaults
/// loop the per-node `step`/`beeping`/`is_leader` in ascending node
/// order, so a per-node protocol needs nothing else. A round-level
/// protocol (the Table 1 baselines) keeps its state in packed sets,
/// advances every node with word algebra, and leaves `step` at its
/// default, which throws std::logic_error. `beeping`/`is_leader`
/// answer per-node queries in both kinds.
class protocol {
 public:
  virtual ~protocol() = default;

  /// (Re)initializes per-node state for an n-node network. `init_rng`
  /// may be used to draw identifiers etc. (baselines); anonymous
  /// protocols ignore it.
  virtual void reset(std::size_t node_count, support::rng& init_rng) = 0;

  /// Whether `node` beeps in the current round.
  [[nodiscard]] virtual bool beeping(graph::node_id node) const = 0;

  /// Whether `node` currently occupies a leader state.
  [[nodiscard]] virtual bool is_leader(graph::node_id node) const = 0;

  /// Advances `node` to its next-round state. `heard` is true iff the
  /// node beeped itself or at least one neighbor beeped (the delta_top
  /// condition). The default throws std::logic_error: round-level
  /// protocols only advance through step_round.
  virtual void step(graph::node_id node, bool heard, support::rng& node_rng);

  /// Advances every node of the `node_count`-node network one round.
  /// Bit u of heard[u / 64] is the delta_top condition of node u (one
  /// word per 64 nodes; bits past node_count are ignored); node u draws
  /// from rngs[u]. The default calls step() for u = 0, 1, ..., n-1.
  virtual void step_round(std::size_t node_count,
                          std::span<const std::uint64_t> heard,
                          support::rng_source rngs);

  /// Reads out the current round: overwrites every word of `beep` and
  /// `leader` (one word per 64 nodes, bits past node_count zero) with
  /// the packed beep and leader sets, and returns the leader count. The
  /// default asks beeping()/is_leader() for u = 0, 1, ..., n-1.
  virtual std::size_t round_sets(std::size_t node_count,
                                 std::span<std::uint64_t> beep,
                                 std::span<std::uint64_t> leader) const;

  /// Short human-readable state label (for traces/visualization).
  [[nodiscard]] virtual std::string describe(graph::node_id node) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Adapts a state_machine to the engine's protocol interface, holding
/// the vector of per-node states. Exposes raw state ids so invariant
/// checkers and trace recorders can inspect configurations.
///
/// Lazy materialization: when an engine runs this protocol in its
/// word-parallel plane gear, the engine-owned bit planes are the
/// authoritative state representation and the uint16 vector here is a
/// cache. The engine registers a `lazy_source` and marks the vector
/// stale after each plane round; the first outside read (states(),
/// state_of, beeping, is_leader, describe - or a virtual step) unpacks
/// the planes on demand. Rounds nobody observes therefore pay zero
/// state write-back; a reader every round degrades gracefully to one
/// O(n/64 word-transpose) unpack per round, the cost the eager
/// write-back used to pay unconditionally. materialization_count()
/// exposes how many unpacks actually happened (tests pin the
/// "plane rounds write nothing eagerly" contract with it).
class fsm_protocol final : public protocol {
 public:
  /// Engine-side unpack hook for the plane-authoritative state model.
  /// materialize_states must rewrite `out` (the full state vector) to
  /// the current configuration; it is called at most once per
  /// mark_states_stale().
  class lazy_source {
   public:
    virtual ~lazy_source() = default;
    virtual void materialize_states(std::span<state_id> out) = 0;
  };

  /// The machine must outlive this adapter.
  explicit fsm_protocol(const state_machine& machine) : machine_(&machine) {}

  void reset(std::size_t node_count, support::rng& init_rng) override;

  /// Giant-mode reset: records the node count and marks the vector
  /// stale WITHOUT materializing the O(n) initial configuration - the
  /// binding engine's planes (seeded from the same initial state)
  /// become the authority at round 0. The vector is sized lazily on
  /// the first outside read.
  void reset_deferred(std::size_t node_count);
  [[nodiscard]] bool beeping(graph::node_id node) const override;
  [[nodiscard]] bool is_leader(graph::node_id node) const override;
  void step(graph::node_id node, bool heard, support::rng& node_rng) override;
  [[nodiscard]] std::string describe(graph::node_id node) const override;
  [[nodiscard]] std::string name() const override { return machine_->name(); }

  [[nodiscard]] state_id state_of(graph::node_id node) const {
    materialize();
    return states_[node];
  }
  [[nodiscard]] const std::vector<state_id>& states() const noexcept {
    materialize();
    return states_;
  }
  /// Overrides the configuration (used by the adversarial-initialization
  /// experiments of Section 5). The vector must hold one valid machine
  /// state per node - a size mismatch or an out-of-range id throws
  /// std::invalid_argument and leaves the configuration untouched.
  ///
  /// Contract: any engine bound to this protocol computes its round
  /// bookkeeping (beep set, leader count) from the configuration, so
  /// after set_states you MUST call engine::restart_from_protocol()
  /// before stepping that engine again; the engine fails fast
  /// (std::logic_error) if the call is forgotten.
  void set_states(std::vector<state_id> states);

  [[nodiscard]] const state_machine& machine() const noexcept {
    return *machine_;
  }

  /// Bumped whenever the configuration is replaced wholesale (reset or
  /// set_states). Engines record the version they last synchronized
  /// with and refuse to step on a stale one.
  [[nodiscard]] std::uint64_t config_version() const noexcept {
    return config_version_;
  }

  /// Raw mutable state vector for the engine's table-driven sweep.
  /// Engine-internal: writers must store valid machine states and keep
  /// their own bookkeeping consistent (per-node transitions do not bump
  /// config_version()). Never triggers materialization - the engine is
  /// the authority while the vector is stale and must ensure freshness
  /// itself (ensure_states_fresh) before reading through this.
  [[nodiscard]] std::span<state_id> raw_states() noexcept { return states_; }

  /// Registers `src` as the authority behind a stale state vector. If
  /// a previous source left the vector stale, it is materialized first
  /// (its planes are about to stop being maintained). A deferred reset
  /// with no source bound needs no rescue - its truth is "initial
  /// state everywhere", exactly what the new source seeds from.
  /// Engine-internal.
  void bind_lazy_source(lazy_source* src) {
    if (source_ != nullptr && source_ != src) materialize();
    source_ = src;
  }
  /// Detaches `src` if it is the bound source, materializing any stale
  /// state first so the vector never outlives its authority while
  /// stale. No-op when another source took over. Engine-internal.
  void unbind_lazy_source(lazy_source* src) {
    if (source_ != src) return;
    materialize();
    source_ = nullptr;
  }

  /// Giant-mode detach: drops the authority WITHOUT the O(n)
  /// materialization (a 10^9-node pinned engine must never unpack).
  /// The configuration is lost; the protocol requires a reset before
  /// reuse. Engine-internal, pinned engines only.
  void abandon_lazy_source(lazy_source* src) noexcept {
    if (source_ != src) return;
    source_ = nullptr;
    states_stale_ = false;
    states_.clear();
    deferred_nodes_ = 0;
    ++config_version_;
  }
  /// Marks the vector stale (planes authoritative). No-op unless a
  /// lazy source is bound. Engine-internal, called after plane rounds.
  void mark_states_stale() noexcept {
    if (source_ != nullptr) states_stale_ = true;
  }
  /// Forces materialization now (no-op when fresh). The engine calls
  /// this when its own sweeps are about to read the raw vector.
  void ensure_states_fresh() const { materialize(); }
  /// How many lazy unpacks have happened since construction. A
  /// plane-gear run with no outside readers keeps this at zero - the
  /// acceptance counter for "plane rounds perform no eager state
  /// write-backs".
  [[nodiscard]] std::uint64_t materialization_count() const noexcept {
    return materializations_;
  }

 private:
  // Hot guard + cold unpack split: the per-node virtual accessors
  // (step/beeping/is_leader) sit in tight reference loops, so the
  // fresh case must cost exactly one predictable branch.
  void materialize() const {
    if (states_stale_) [[unlikely]] {
      materialize_cold();
    }
  }
  void materialize_cold() const;

  const state_machine* machine_;
  // mutable: the vector is a lazily-refreshed cache of the bound
  // source's planes; const readers fill it on demand.
  mutable std::vector<state_id> states_;
  mutable bool states_stale_ = false;
  mutable std::uint64_t materializations_ = 0;
  lazy_source* source_ = nullptr;
  std::uint64_t config_version_ = 0;
  // Nonzero after reset_deferred: the node count the lazily-sized
  // vector must grow to on first materialization.
  std::size_t deferred_nodes_ = 0;
};

}  // namespace beepkit::beeping
