// EX2 (extension) - the Section-5 open problem, probed: timeout-BFW
// adds a patience counter (a follower silent for T rounds promotes
// itself), trading the paper's uniformity and O(1) states for
// recovery from arbitrary initial configurations - the trade the
// related work [12] makes with Theta(D) states.
//
// Three measurements:
//   (a) recovery from the dead (all-follower) configuration, where
//       plain BFW idles forever;
//   (b) recovery from the phantom-wave cycle (the paper's
//       counterexample), possible whenever T is below the wave's lap
//       time;
//   (c) the steady-state cost: spurious reboots from an honestly
//       elected configuration, as a function of T (the uniformity
//       price: T must be tuned to p and the target horizon).
//
//   ./build/bench/selfstab_timeout [--trials 20] [--seed 12] [--threads 0]
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/faults.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace beepkit;

double median_stabilization(const graph::graph& g,
                            const core::timeout_bfw_machine& machine,
                            std::vector<beeping::state_id> initial,
                            std::size_t trials, std::uint64_t seed,
                            std::uint64_t window, std::uint64_t horizon,
                            std::size_t threads,
                            analysis::throughput_meter& meter,
                            std::size_t& stabilized_out) {
  struct stabilization_trial {
    bool stabilized = false;
    std::uint64_t round = 0;
    std::uint64_t rounds_run = 0;
  };
  const auto runs = analysis::map_trials(
      trials, seed, threads,
      [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
        beeping::fsm_protocol proto(machine);
        beeping::engine sim(g, proto, trial_seed);
        // The adversarial start is a declarative round-0 injection;
        // fault_session fires it as set_states + restart_from_protocol,
        // draw-for-draw identical to the historical inline sequence.
        core::fault_plan plan;
        plan.name = "selfstab_inject";
        plan.inject(0, initial);
        core::fault_session session(plan, sim, trial_seed);
        session.apply_pending();
        core::stabilization_probe probe;
        probe.observe(0, sim.leader_count());
        core::stabilization_result res;
        while (sim.round() < horizon) {
          session.step();
          probe.observe(sim.round(), sim.leader_count());
          res = probe.result(window);
          if (res.stabilized) break;
        }
        stabilization_trial result;
        result.stabilized = res.stabilized;
        result.round = res.round;
        result.rounds_run = sim.round();
        return result;
      });
  std::vector<double> rounds;
  stabilized_out = 0;
  for (const stabilization_trial& run : runs) {
    meter.add_run(run.rounds_run);
    if (run.stabilized) {
      ++stabilized_out;
      rounds.push_back(static_cast<double>(run.round));
    }
  }
  return rounds.empty() ? -1.0 : support::quantile(rounds, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  const support::cli args(
      argc, argv, "selfstab_timeout [flags]",
      {{"trials", "trials per cell (default 20)"},
       {"seed", "base seed (default 12)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== EX2: timeout-BFW vs the Section-5 counterexamples ===\n\n");

  // (a) dead configuration.
  support::table dead({"path n", "T", "stabilized", "median round"});
  dead.set_title("(a) recovery from all-followers (plain BFW: never); "
                 "window = 500 single-leader rounds");
  for (const std::size_t n : {8UL, 16UL, 32UL}) {
    const auto g = graph::make_path(n);
    const core::timeout_bfw_machine machine(0.5, 24);
    std::size_t ok = 0;
    const double median = median_stabilization(
        g, machine, machine.dead_configuration(n), trials, seed, 500,
        200000, threads, meter, ok);
    dead.add_row({support::table::num(static_cast<long long>(n)), "24",
                  std::to_string(ok) + "/" + std::to_string(trials),
                  ok ? support::table::num(median, 0) : "-"});
  }
  std::printf("%s\n", dead.to_string().c_str());

  // (b) phantom wave on a cycle.
  support::table phantom({"cycle n", "T", "T < lap?", "stabilized",
                          "median round"});
  phantom.set_title("(b) recovery from the leaderless wave");
  for (const auto& [n, t] : std::vector<std::pair<std::size_t,
                                                  std::uint32_t>>{
           {20, 12}, {20, 40}, {40, 24}, {40, 80}}) {
    const auto g = graph::make_cycle(n);
    const core::timeout_bfw_machine machine(0.5, t);
    auto initial = machine.dead_configuration(n);
    initial[0] = core::timeout_bfw_machine::follower_beep;
    initial[n - 1] = core::timeout_bfw_machine::follower_frozen;
    std::size_t ok = 0;
    const double median =
        median_stabilization(g, machine, initial, trials, seed + 1, 500,
                             400000, threads, meter, ok);
    phantom.add_row({support::table::num(static_cast<long long>(n)),
                     support::table::num(static_cast<long long>(t)),
                     t < n ? "yes" : "no",
                     std::to_string(ok) + "/" + std::to_string(trials),
                     ok ? support::table::num(median, 0) : "-"});
  }
  std::printf("%s\n", phantom.to_string().c_str());
  std::printf("with T above the lap time the wave resets every patience\n"
              "counter before it fires: the counterexample stands, exactly\n"
              "as the paper predicts for uniform protocols.\n\n");

  // (c) steady-state reboot churn.
  support::table churn({"T", "reboots / 100k rounds",
                        "single-leader fraction"});
  churn.set_title("(c) spurious reboots from an elected grid(5x5) "
                  "configuration");
  const auto g = graph::make_grid(5, 5);
  // One long run per T; the runs are independent, so they fan out
  // across the pool while the row order stays fixed.
  const std::vector<std::uint32_t> patience = {8U, 12U, 16U, 24U, 48U};
  struct churn_row {
    std::uint64_t reboots = 0;
    std::uint64_t single_rounds = 0;
    std::uint64_t rounds_run = 0;
  };
  std::vector<churn_row> churn_rows(patience.size());
  support::parallel_for(patience.size(), threads, [&](std::size_t i) {
    const core::timeout_bfw_machine machine(0.5, patience[i]);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed + 2);
    // Elect first.
    (void)sim.run_until_single_leader(200000);
    std::size_t previous = sim.leader_count();
    constexpr std::uint64_t span = 100000;
    churn_row& row = churn_rows[i];
    for (std::uint64_t r = 0; r < span; ++r) {
      sim.step();
      if (sim.leader_count() > previous) ++row.reboots;
      if (sim.leader_count() == 1) ++row.single_rounds;
      previous = sim.leader_count();
    }
    row.rounds_run = sim.round();
  });
  for (std::size_t i = 0; i < patience.size(); ++i) {
    constexpr std::uint64_t span = 100000;
    meter.add_run(churn_rows[i].rounds_run);
    churn.add_row(
        {support::table::num(static_cast<long long>(patience[i])),
         support::table::num(static_cast<long long>(churn_rows[i].reboots)),
         support::table::num(
             static_cast<double>(churn_rows[i].single_rounds) /
                 static_cast<double>(span), 4)});
  }
  std::printf("%s\n", churn.to_string().c_str());
  std::printf("the price of self-stabilization: O(T) states, knowledge of\n"
              "p (to size T), and a reboot churn that only vanishes as T\n"
              "grows - the paper's uniformity/simplicity trade-off made\n"
              "quantitative.\n");
  std::printf("\n%s\n", meter.summary(threads).c_str());
  return 0;
}
