#include "core/convergence.hpp"

#include <cmath>

namespace beepkit::core {

std::uint64_t default_horizon(const graph::topology_view& view,
                              std::uint32_t diameter) {
  const double n =
      std::max<double>(2.0, static_cast<double>(view.node_count()));
  const double d = std::max<double>(1.0, static_cast<double>(diameter));
  // 64 * D^2 * (log n + 1), floored at 4096 rounds for tiny graphs.
  const double bound = 64.0 * d * d * (std::log(n) + 1.0);
  return std::max<std::uint64_t>(4096, static_cast<std::uint64_t>(bound));
}

std::uint64_t election_horizon(const graph::topology_view& view,
                               const election_options& options) {
  if (options.max_rounds.has_value()) return *options.max_rounds;
  std::uint32_t diameter = options.diameter;
  if (diameter == 0) {
    diameter = view.is_implicit()
                   ? view.formula_diameter()
                   : static_cast<std::uint32_t>(
                         std::max<std::size_t>(1, view.node_count()));
  }
  return default_horizon(view, diameter);
}

election_trial::election_trial(const graph::topology_view& view,
                               const beeping::state_machine& machine,
                               std::uint64_t seed,
                               const election_options& options)
    : proto(machine),
      sim(view, proto, seed, options.noise),
      horizon(election_horizon(view, options)) {
  if (options.exec.threads != 1 || options.exec.tile_words != 0) {
    sim.set_parallelism(options.exec.threads, options.exec.tile_words);
  }
  if (!options.fast_path) sim.set_fast_path_enabled(false);
  if (!options.compiled_kernel) sim.set_compiled_kernel_enabled(false);
  if (!options.telemetry) sim.set_telemetry_enabled(false);
  if (!options.initial.empty()) {
    proto.set_states(options.initial);
    sim.restart_from_protocol();
  }
}

election_outcome finish_election(beeping::engine& sim,
                                 const beeping::run_result& result) {
  election_outcome outcome;
  // converged means exactly one leader; a zero-leader stop (extinction)
  // reports converged == false with final_leader_count == 0.
  outcome.converged = result.converged;
  outcome.rounds = result.rounds;
  outcome.final_leader_count = result.leaders;
  outcome.total_coins = sim.total_coins_consumed();
  if (result.converged) {
    outcome.leader = sim.sole_leader();
  }
  // Execution audit trail for JSONL records and perf reports.
  outcome.gather_kernel = sim.gather_kernel_used();
  outcome.engine_threads = sim.parallel_threads();
  outcome.engine_tile_words = sim.tile_words();
  // Trial boundary: fold the engine's telemetry scratch and the trial's
  // bookkeeping into the global registry (one locked update per trial).
  namespace tel = support::telemetry;
  if (tel::compiled_in && tel::enabled() && sim.telemetry_enabled()) {
    const std::string compiled_kernel = sim.compiled_kernel_name();
    const std::string gather_kernel =
        graph::gather_kernel_name(sim.gather_kernel_used());
    const tel::trial_fold trial{result.rounds, compiled_kernel,
                                gather_kernel};
    tel::registry::global().fold_engine(sim.telemetry_metrics(), "engine",
                                        &trial);
  }
  return outcome;
}

election_outcome run_election(const graph::topology_view& view,
                              const beeping::state_machine& machine,
                              std::uint64_t seed,
                              const election_options& options) {
  election_trial trial(view, machine, seed, options);
  if (options.faults != nullptr || options.scheduler != nullptr) {
    fault_session session(
        options.faults != nullptr ? *options.faults : fault_plan{},
        trial.sim, seed);
    if (options.scheduler != nullptr) session.set_adversary(options.scheduler);
    return finish_election(trial.sim,
                           session.run_until_single_leader(trial.horizon));
  }
  return finish_election(trial.sim,
                         trial.sim.run_until_single_leader(trial.horizon));
}

election_outcome run_election(const graph::topology_view& view,
                              const protocol_spec& spec, std::uint64_t seed,
                              const election_options& options) {
  const std::unique_ptr<spec_machine> machine = make_protocol(spec);
  return run_election(view, *machine, seed, options);
}

election_outcome run_bfw_election_from(const graph::topology_view& view,
                                       double p,
                                       std::vector<beeping::state_id> initial,
                                       std::uint64_t seed,
                                       std::uint64_t max_rounds,
                                       const engine_exec& exec) {
  const bfw_machine machine(p);
  election_options options;
  options.max_rounds = max_rounds;
  options.exec = exec;
  options.initial = std::move(initial);
  return run_election(view, machine, seed, options);
}

}  // namespace beepkit::core
