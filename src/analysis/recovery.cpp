#include "analysis/recovery.hpp"

#include <sstream>
#include <utility>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"

namespace beepkit::analysis {

recovery_result measure_recovery(const graph::topology_view& view,
                                 const beeping::state_machine& machine,
                                 std::uint64_t seed,
                                 const core::election_options& options) {
  core::election_trial trial(view, machine, seed, options);
  beeping::engine& sim = trial.sim;
  const std::uint64_t horizon = trial.horizon;
  core::fault_session session(
      options.faults != nullptr ? *options.faults : core::fault_plan{}, sim,
      seed);
  if (options.scheduler != nullptr) session.set_adversary(options.scheduler);

  recovery_result result;
  // Epoch 0 is initial convergence: the run starts outside the
  // single-alive-leader configuration (all-W• has every node a leader
  // candidate) and its first recovery is the plain election round.
  bool in_epoch = true;
  std::uint64_t epoch_start = 0;
  while (true) {
    session.apply_pending();
    const std::size_t alive = sim.alive_leader_count();
    if (in_epoch && alive == 1) {
      const std::uint64_t took = sim.round() - epoch_start;
      result.points.push_back({epoch_start, true, took});
      result.recovery_rounds.record(took);
      in_epoch = false;
    } else if (!in_epoch && alive != 1) {
      // A fault (crash of the leader, rejoin of a rival, injection,
      // churn-induced wave collision) broke the absorbing
      // configuration: a new disruption epoch starts here.
      in_epoch = true;
      epoch_start = sim.round();
    }
    if (sim.round() >= horizon) break;
    if (!in_epoch && session.exhausted()) break;
    sim.step();
  }
  if (in_epoch) {
    result.points.push_back({epoch_start, false, horizon - epoch_start});
  }
  result.faults_applied = session.faults_applied();
  result.outcome = core::finish_election(
      sim, beeping::run_result{sim.round(), sim.alive_leader_count() == 1,
                               sim.alive_leader_count()});

  namespace tel = support::telemetry;
  if (tel::compiled_in && tel::enabled() && sim.telemetry_enabled()) {
    tel::registry& reg = tel::registry::global();
    reg.merge_histogram("recovery_rounds", result.recovery_rounds);
    reg.add("recovery_epochs_total", result.points.size());
    reg.add("recovery_unrecovered_total",
            result.points.size() - result.recovered_epochs());
    reg.add("recovery_faults_applied_total", result.faults_applied);
  }
  return result;
}

algorithm make_faulted_bfw(double p, core::fault_plan plan,
                           core::engine_exec exec) {
  std::ostringstream name;
  name << "BFW(p=" << p << ")+" << plan.name;
  return {name.str(),
          [p, plan = std::move(plan), exec](const graph::topology_view& view,
                                            std::uint64_t seed,
                                            std::uint64_t max_rounds) {
            const core::bfw_machine machine(p);
            core::election_options options;
            options.max_rounds = max_rounds;
            options.faults = &plan;
            options.exec = exec;
            return core::run_election(view, machine, seed, options);
          }};
}

}  // namespace beepkit::analysis
