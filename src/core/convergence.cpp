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

namespace {

std::uint64_t resolve_horizon(const graph::topology_view& view,
                              const election_options& options) {
  if (options.max_rounds.has_value()) return *options.max_rounds;
  // Implicit views know their exact formula diameter; otherwise the
  // explicit option, falling back to node count (an upper bound for
  // connected graphs).
  std::uint32_t diameter = options.diameter;
  if (diameter == 0) {
    if (view.is_implicit()) {
      diameter = view.formula_diameter();
    } else {
      diameter = static_cast<std::uint32_t>(
          std::max<std::size_t>(1, view.node_count()));
    }
  }
  return default_horizon(view, diameter);
}

}  // namespace

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
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(view, proto, seed, options.noise);
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
  const std::uint64_t horizon = resolve_horizon(view, options);
  if (options.faults != nullptr || options.scheduler != nullptr) {
    fault_session session(
        options.faults != nullptr ? *options.faults : fault_plan{}, sim, seed);
    if (options.scheduler != nullptr) session.set_adversary(options.scheduler);
    return finish_election(sim, session.run_until_single_leader(horizon));
  }
  return finish_election(sim, sim.run_until_single_leader(horizon));
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

std::vector<double> convergence_rounds(const graph::topology_view& view,
                                       const beeping::state_machine& machine,
                                       std::size_t trials, std::uint64_t seed,
                                       std::uint64_t max_rounds) {
  std::vector<double> rounds;
  rounds.reserve(trials);
  election_options options;
  options.max_rounds = max_rounds;
  support::rng seeder(seed);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const auto outcome =
        run_election(view, machine, seeder.next_u64(), options);
    rounds.push_back(static_cast<double>(
        outcome.converged ? outcome.rounds : max_rounds));
  }
  return rounds;
}

}  // namespace beepkit::core
