// Declarative fault injection: timed fault plans (crash / restart /
// edge churn / bursts / state injection), adversarial schedulers, and
// the session object that drives them against a beeping::engine.
//
// Determinism contract (tested in tests/test_faults.cpp):
//   * An empty fault_plan with no adversary is draw-for-draw
//     bit-identical to running the engine directly, on every gear.
//   * All fault randomness (churn endpoints, burst victims, corrupt
//     states) comes from one dedicated stream derived from
//     (trial seed, plan.fault_seed) - never from the per-node protocol
//     or noise substreams - so a faulted run replays bit-exactly from
//     (spec, plan, seed) under any kernel, tiling or shard split.
//   * Events fire between rounds in a fixed order (scheduled burst
//     rejoins first, then plan events in declaration order), provided
//     the engine is stepped through the session (step() /
//     run_until_single_leader()), which applies pending events before
//     every round that has one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "beeping/engine.hpp"
#include "graph/patch.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace beepkit::core {

/// One timed fault. Which fields are meaningful depends on `type`:
///   crash       round, node, [state]   freeze node (optionally corrupt)
///   restart     round, node, [state]   revive a crashed node (no-op if
///                                      the node is alive)
///   edge_add    round, node, peer      patch one edge in
///   edge_remove round, node, peer      patch one edge out
///   churn       round, count, period,  toggle `count` random edges at
///               until                  round, round+period, ... <= until
///   burst       round, count, [down]   crash `count` random live nodes;
///                                      down > 0 auto-restarts them
///                                      `down` rounds later
///   inject      round, states          replace the whole configuration
///                                      (round 0: bit-identical to
///                                      set_states + restart_from_protocol)
///   corrupt     round, count           scramble `count` random nodes to
///                                      uniform random states
struct fault_event {
  enum class kind : std::uint8_t {
    crash,
    restart,
    edge_add,
    edge_remove,
    churn,
    burst,
    inject,
    corrupt,
  };

  kind type = kind::crash;
  std::uint64_t round = 0;
  graph::node_id node = 0;
  graph::node_id peer = 0;
  bool has_state = false;      ///< crash/restart carry an explicit state
  beeping::state_id state = 0;
  std::uint64_t count = 0;     ///< churn toggles / burst victims / corrupt nodes
  std::uint64_t period = 0;    ///< churn: rounds between firings (0 = once)
  std::uint64_t until = 0;     ///< churn: last firing round (inclusive)
  std::uint64_t down = 0;      ///< burst: rounds until auto-restart (0 = stay down)
  std::vector<beeping::state_id> states;  ///< inject: full configuration
};

/// A named, seeded schedule of fault events. Round-trips through JSON
/// exactly like protocol_spec (insertion-ordered keys, exact u64), so
/// a faulted experiment is reproducible from (spec, plan, seed) alone.
struct fault_plan {
  std::string name = "plan";
  /// Folded into the trial seed to derive the dedicated fault stream;
  /// lets one trial seed drive several independent plans.
  std::uint64_t fault_seed = 0;
  std::vector<fault_event> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  // Builder helpers (append one event, return *this for chaining).
  fault_plan& crash(std::uint64_t round, graph::node_id node);
  fault_plan& crash_as(std::uint64_t round, graph::node_id node,
                       beeping::state_id state);
  fault_plan& restart(std::uint64_t round, graph::node_id node);
  fault_plan& restart_as(std::uint64_t round, graph::node_id node,
                         beeping::state_id state);
  fault_plan& add_edge(std::uint64_t round, graph::node_id u, graph::node_id v);
  fault_plan& remove_edge(std::uint64_t round, graph::node_id u,
                          graph::node_id v);
  fault_plan& churn(std::uint64_t start, std::uint64_t count,
                    std::uint64_t period, std::uint64_t until);
  fault_plan& burst(std::uint64_t round, std::uint64_t count,
                    std::uint64_t down = 0);
  fault_plan& inject(std::uint64_t round,
                     std::vector<beeping::state_id> states);
  fault_plan& corrupt(std::uint64_t round, std::uint64_t count);

  /// Structural validation against a concrete instance size; throws
  /// std::invalid_argument naming the offending event. Called by
  /// fault_session at bind time.
  void validate(std::size_t node_count, std::size_t state_count) const;

  [[nodiscard]] support::json to_json() const;
  static fault_plan from_json(const support::json& doc);
  static fault_plan from_json_text(std::string_view text);
};

/// An adversarial scheduler: a callback observing the public round
/// state (the packed beep set) and rewriting who perceives a beep, run
/// after the gather and the noise model but before crash deafness (it
/// cannot wake the dead). This unifies the Section-5 noise_model with
/// arbitrary worst-case strategies.
class adversary {
 public:
  virtual ~adversary() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// `beep` and `heard` are n-bit sets packed 64 nodes per word; edits
  /// to `heard` are what the protocol's delta_top/delta_bot sees.
  virtual void intervene(std::uint64_t round, std::size_t node_count,
                         std::span<const std::uint64_t> beep,
                         std::span<std::uint64_t> heard) = 0;
};

/// Worst-case jammer: every listener that did not itself beep hears
/// silence (heard &= beep). Beeps still self-report, so beeping nodes
/// are unaffected - this is the strongest listener-side suppression
/// the model admits.
std::unique_ptr<adversary> make_wave_jammer();

/// Spurious wake-ups: every round, `wakeups_per_round` uniformly
/// random nodes hear a phantom beep. Draws from its own seeded stream
/// (independent of protocol, noise and fault streams).
std::unique_ptr<adversary> make_spurious_waker(std::size_t wakeups_per_round,
                                               std::uint64_t seed);

/// Drives a fault_plan (and optionally an adversary) against a live
/// engine. Owns the dynamic-topology overlay when the plan needs one
/// and detaches everything it attached on destruction, so the session
/// must not outlive the engine.
class fault_session {
 public:
  /// Validates the plan against the engine and derives the dedicated
  /// fault stream from (seed, plan.fault_seed). `seed` should be the
  /// trial seed so replay needs nothing beyond (spec, plan, seed).
  fault_session(const fault_plan& plan, beeping::engine& sim,
                std::uint64_t seed);
  ~fault_session();

  fault_session(const fault_session&) = delete;
  fault_session& operator=(const fault_session&) = delete;

  /// Attaches (or with nullptr detaches) an adversary for subsequent
  /// rounds. Not owned; must outlive the session.
  void set_adversary(adversary* adv);

  /// Fires every event scheduled at or before the engine's current
  /// round that has not fired yet. step() calls this automatically.
  void apply_pending();

  /// apply_pending(), then one engine round.
  void step();

  /// Runs until at most one *alive* leader remains and no future
  /// events are pending (a scheduled rejoin can revive a second
  /// leader), or max_rounds elapse. Each stretch up to the next
  /// scheduled event (burst rejoin or plan event) runs as one
  /// engine::run_rounds call, and once exhausted() the rest is
  /// engine::run_until_single_leader; every round is the one step()
  /// runs, so this is round-for-round a loop of step() with the same
  /// stopping test (tests/test_faults.cpp pins it). With an empty plan
  /// and no adversary it is draw-for-draw
  /// engine::run_until_single_leader.
  beeping::run_result run_until_single_leader(std::uint64_t max_rounds);

  /// Individual fault actions applied so far (each crash, rejoin,
  /// edge toggle, corrupted node and injection counts as one).
  [[nodiscard]] std::uint64_t faults_applied() const noexcept {
    return faults_applied_;
  }
  /// True when no plan event or scheduled rejoin can still fire.
  [[nodiscard]] bool exhausted() const noexcept;
  /// The overlay the session attached (nullptr when the plan has no
  /// topology events).
  [[nodiscard]] const graph::patch_overlay* overlay() const noexcept {
    return overlay_.has_value() ? &*overlay_ : nullptr;
  }
  [[nodiscard]] beeping::engine& sim() noexcept { return *sim_; }

 private:
  static constexpr std::uint64_t kDone = ~0ULL;

  void apply_event(const fault_event& event);
  /// The earliest round a rejoin or plan event is scheduled for (kDone
  /// when exhausted()).
  [[nodiscard]] std::uint64_t next_event_round() const noexcept;
  [[nodiscard]] beeping::fsm_protocol& fsm_proto();
  /// Pushes a replaced configuration into the engine: bit-identical to
  /// the historical set_states + restart/resync sequence.
  void push_states(std::vector<beeping::state_id> states);

  fault_plan plan_;
  beeping::engine* sim_;
  support::rng fault_rng_;
  std::optional<graph::patch_overlay> overlay_;
  adversary* adversary_ = nullptr;
  /// Next firing round per plan event (kDone once spent).
  std::vector<std::uint64_t> next_fire_;
  struct scheduled_restart {
    std::uint64_t round;
    graph::node_id node;
  };
  std::vector<scheduled_restart> rejoins_;  ///< burst auto-restarts
  std::uint64_t faults_applied_ = 0;
};

}  // namespace beepkit::core
