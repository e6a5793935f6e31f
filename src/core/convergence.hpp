// High-level election runners: one call = one election trial. These
// wrap graph + machine + engine and report the quantities the paper's
// theorems are about (the round at which a single-leader configuration
// is reached, Definition 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/faults.hpp"
#include "core/protocol_spec.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace beepkit::core {

/// Intra-trial execution knobs forwarded to the engine: worker count
/// and word-tile size for the tiled round pipeline
/// (beeping::engine::set_parallelism). Never changes any number - the
/// tiled rounds are bit-identical to serial - so this is pure
/// performance configuration, recorded alongside results for
/// auditability.
struct engine_exec {
  std::size_t threads = 1;     ///< 1 = serial (default), 0 = hardware.
  std::size_t tile_words = 0;  ///< 0 = support::kL2TileWords.
};

/// Result of one election trial.
struct election_outcome {
  /// Exactly one leader within the horizon. A run ending with zero
  /// leaders (possible only under adversarial injections or broken
  /// variants) is a failed election: converged == false,
  /// final_leader_count == 0.
  bool converged = false;
  std::uint64_t rounds = 0;     ///< First round with exactly one leader.
  graph::node_id leader = 0;    ///< The surviving leader (if converged).
  std::uint64_t total_coins = 0;  ///< Fair coins drawn by all nodes.
  std::size_t final_leader_count = 0;
  // Execution audit trail (performance metadata, not part of the
  // statistical contract): which heard-gather kernel the engine's last
  // round actually ran, and the tile/thread configuration it ran with.
  graph::gather_kernel gather_kernel = graph::gather_kernel::auto_select;
  std::size_t engine_threads = 1;
  std::size_t engine_tile_words = 0;
};

/// Folds an engine run into an election_outcome (shared by every
/// election runner; benches with bespoke loops can reuse it too).
[[nodiscard]] election_outcome finish_election(
    beeping::engine& sim, const beeping::run_result& result);

/// Default horizon used by the runners when none is given: a generous
/// multiple of the Theorem-2 bound D^2 log n (never tight in practice).
/// Topology views carry everything this needs (node count); explicit
/// graphs convert implicitly.
[[nodiscard]] std::uint64_t default_horizon(const graph::topology_view& view,
                                            std::uint32_t diameter);

/// Everything one election trial can be configured with - the one
/// per-trial option set: run_election and analysis::measure_recovery
/// both take it, and run_giant_trial resolves its default horizon
/// through the same election_horizon.
/// Aggregate-initialize only what differs from a plain run:
///
///   run_election(g, machine, seed, {.max_rounds = 10'000});
///   run_election(g, spec, seed, {.noise = {.miss = 0.01}});
///   measure_recovery(g, machine, seed, {.faults = &plan});
struct election_options {
  /// Stop horizon; unset derives it by election_horizon. An explicit
  /// value is literal - 0 means "stop before the first round".
  std::optional<std::uint64_t> max_rounds;
  /// Diameter (or an upper bound) used only to derive the horizon when
  /// max_rounds is unset; 0 falls back to an implicit view's formula
  /// diameter, else the node count (always an upper bound for
  /// connected graphs).
  std::uint32_t diameter = 0;
  engine_exec exec;              ///< tiled-parallelism knobs
  beeping::noise_model noise;    ///< reception noise (off by default)
  bool fast_path = true;         ///< false = force the virtual gear
  bool compiled_kernel = true;   ///< false = force the interpreted sweep
  /// Explicit initial configuration (Section-5 experiments); empty =
  /// the machine's initial state everywhere. Must hold valid state ids.
  std::vector<beeping::state_id> initial;
  /// false = silence this trial's engine probes (the engine-local
  /// toggle; the global support::telemetry switches still apply).
  /// Probes never change a number, so this is purely a speed knob.
  bool telemetry = true;
  /// Fault plan driven against the trial through a fault_session (not
  /// owned; must outlive the call). nullptr or an empty plan is
  /// draw-for-draw bit-identical to a plain run.
  const fault_plan* faults = nullptr;
  /// Adversarial scheduler attached for the whole run (not owned).
  adversary* scheduler = nullptr;
};

/// The one horizon rule: `options.max_rounds` when set, else
/// default_horizon at the diameter `options` resolves to (see
/// election_options::diameter).
[[nodiscard]] std::uint64_t election_horizon(const graph::topology_view& view,
                                             const election_options& options);

/// One election trial bound to its options, built in place: the
/// protocol over `machine`, the engine over `view` with the noise,
/// parallelism, gear switches, telemetry toggle and initial states of
/// `options` applied, and the horizon by election_horizon.
/// run_election and analysis::measure_recovery both start here;
/// `faults` and `scheduler` are left to the caller's fault_session.
/// `view` and `machine` must outlive it.
struct election_trial {
  election_trial(const graph::topology_view& view,
                 const beeping::state_machine& machine, std::uint64_t seed,
                 const election_options& options);

  beeping::fsm_protocol proto;
  beeping::engine sim;
  std::uint64_t horizon;
};

/// The one election runner: any state machine, all knobs in `options`.
/// Takes a topology view, so trials run against either a materialized
/// graph (implicit conversion from graph::graph keeps every existing
/// caller working) or an implicit tagged topology that never
/// materializes adjacency (graph::topology_view::implicit).
[[nodiscard]] election_outcome run_election(
    const graph::topology_view& view, const beeping::state_machine& machine,
    std::uint64_t seed, const election_options& options = {});

/// Spec form of the same: builds the machine via make_protocol, so a
/// protocol defined only as JSON runs end-to-end with no recompilation.
[[nodiscard]] election_outcome run_election(
    const graph::topology_view& view, const protocol_spec& spec,
    std::uint64_t seed, const election_options& options = {});

/// Runs BFW from an explicit initial configuration (used by the
/// Section-5 experiments: two leaders at path ends, adversarial
/// states, ...). `initial` must hold valid BFW state ids.
/// Deprecated shim for run_election(view, bfw_machine(p), seed,
/// {.max_rounds = ..., .exec = ..., .initial = ...}): perfbench's
/// tightness workload is its last caller, and it goes together with
/// the next change to the benchmark.
[[nodiscard]] election_outcome run_bfw_election_from(
    const graph::topology_view& view, double p,
    std::vector<beeping::state_id> initial, std::uint64_t seed,
    std::uint64_t max_rounds, const engine_exec& exec = {});

}  // namespace beepkit::core
