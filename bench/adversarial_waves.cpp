// E9 - Section 5's non-robustness experiment: leaderless persistent
// beep waves. Quantifies the paper's obstruction to making BFW
// self-stabilizing:
//   (a) injected leaderless waves on cycles survive indefinitely
//       (we run 100k rounds and count beeps - exactly one per wave per
//       round, forever);
//   (b) a legitimate leader inserted into such a configuration is
//       assassinated after Theta(n) rounds in expectation (each lap of
//       the wave catches it un-frozen with constant probability);
//   (c) the same wave on a path (no cycle) dies within n rounds.
//
//   ./build/bench/adversarial_waves [--rounds 100000] [--trials 25]
//                                   [--seed 9] [--threads 0]
#include <cstdio>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/faults.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "adversarial_waves [flags]",
      {{"rounds", "round horizon per trial (default 100000)"},
       {"trials", "trials per cell (default 25)"},
       {"seed", "base seed (default 9)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto rounds = static_cast<std::uint64_t>(
      args.get_int("rounds", 100000));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 9));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== E9: Section 5 - leaderless persistent waves ===\n\n");

  // (a) persistence on cycles.
  support::table persist({"cycle n", "waves", "rounds run", "leaders",
                          "beeps/round", "expected"});
  persist.set_title("(a) injected leaderless waves persist");
  for (const auto& [n, waves] : std::vector<std::pair<std::size_t,
                                                      std::size_t>>{
           {12, 1}, {30, 1}, {30, 3}, {60, 5}}) {
    const auto g = graph::make_cycle(n);
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed);
    // Injected waves are a declarative round-0 fault (fires as
    // set_states + restart_from_protocol, draw-for-draw identical to
    // the historical inline sequence).
    core::fault_plan plan;
    plan.name = "leaderless_waves";
    plan.inject(0, core::leaderless_waves_on_cycle(n, waves));
    core::fault_session session(plan, sim, seed);
    session.apply_pending();
    sim.run_rounds(rounds);
    meter.add_run(rounds);
    std::uint64_t total_beeps = 0;
    for (graph::node_id u = 0; u < n; ++u) total_beeps += sim.beep_count(u);
    persist.add_row(
        {support::table::num(static_cast<long long>(n)),
         support::table::num(static_cast<long long>(waves)),
         support::table::num(static_cast<long long>(rounds)),
         support::table::num(static_cast<long long>(sim.leader_count())),
         support::table::num(static_cast<double>(total_beeps) /
                                 static_cast<double>(rounds + 1), 3),
         support::table::num(static_cast<long long>(waves))});
  }
  std::printf("%s\n", persist.to_string().c_str());

  // (b) leader assassination. A striking interaction emerges: the
  // phantom front can only reach the leader if no leader-emitted wave
  // intercepts it first, so a chatty leader (p = 1/2) shields itself -
  // it must stay silent for roughly a whole approach to die, which is
  // exponentially unlikely in n. A quiet leader (small p) has no such
  // shield and is killed within a few laps. Both regimes still violate
  // eventual LE: the killed case ends leaderless forever, and the
  // shielded case never lets nodes distinguish the phantom wave from a
  // competitor leader.
  support::table assassin({"p", "cycle n", "killed (50k rounds)",
                           "median kill round"});
  assassin.set_title("(b) a legitimate leader dropped into the wave's path");
  for (const double p : {0.05, 0.5}) {
    for (const std::size_t n : {12UL, 24UL, 48UL}) {
      const auto g = graph::make_cycle(n);
      struct assassination_trial {
        bool killed = false;
        std::uint64_t round = 0;
      };
      const auto runs = analysis::map_trials(
          trials, seed + n + static_cast<std::uint64_t>(p * 1000), threads,
          [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
            const core::bfw_machine machine(p);
            beeping::fsm_protocol proto(machine);
            beeping::engine sim(g, proto, trial_seed);
            auto states = core::leaderless_wave_on_cycle(n);
            states[n / 2] =
                static_cast<beeping::state_id>(core::bfw_state::leader_wait);
            core::fault_plan plan;
            plan.name = "wave_plus_leader";
            plan.inject(0, std::move(states));
            core::fault_session session(plan, sim, trial_seed);
            session.apply_pending();
            constexpr std::uint64_t horizon = 50000;
            while (sim.leader_count() > 0 && sim.round() < horizon) {
              session.step();
            }
            return assassination_trial{sim.leader_count() == 0, sim.round()};
          });
      std::vector<double> kill_rounds;
      std::size_t killed = 0;
      for (const assassination_trial& run : runs) {
        meter.add_run(run.round);
        if (run.killed) {
          ++killed;
          kill_rounds.push_back(static_cast<double>(run.round));
        }
      }
      const auto s = support::summarize(kill_rounds);
      assassin.add_row({support::table::num(p, 2),
                        support::table::num(static_cast<long long>(n)),
                        std::to_string(killed) + "/" + std::to_string(trials),
                        killed ? support::table::num(s.median, 0) : "-"});
    }
  }
  std::printf("%s\n", assassin.to_string().c_str());
  std::printf("(the net +1 circulating flow is conserved - Lemma 7 on the "
              "closed loop -\nso SOME clockwise front survives forever in "
              "every run, shielded or not.)\n\n");

  // (c) boundary absorption on paths.
  support::table absorb({"path n", "wave dead by round", "total beeps"});
  absorb.set_title("(c) the same wave on a path dies at the boundary");
  for (const std::size_t n : {12UL, 48UL, 96UL}) {
    const auto g = graph::make_path(n);
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed);
    std::vector<beeping::state_id> states(
        n, static_cast<beeping::state_id>(core::bfw_state::follower_wait));
    states[0] =
        static_cast<beeping::state_id>(core::bfw_state::follower_beep);
    core::fault_plan plan;
    plan.name = "boundary_wave";
    plan.inject(0, std::move(states));
    core::fault_session session(plan, sim, seed);
    session.apply_pending();
    std::uint64_t dead_round = 0;
    for (std::uint64_t r = 0; r < 2 * n; ++r) {
      bool any = false;
      for (graph::node_id u = 0; u < n; ++u) {
        if (sim.beeping(u)) any = true;
      }
      if (!any) {
        dead_round = sim.round();
        break;
      }
      sim.step();
    }
    std::uint64_t total_beeps = 0;
    for (graph::node_id u = 0; u < n; ++u) total_beeps += sim.beep_count(u);
    absorb.add_row({support::table::num(static_cast<long long>(n)),
                    support::table::num(static_cast<long long>(dead_round)),
                    support::table::num(static_cast<long long>(total_beeps))});
  }
  std::printf("%s\n", absorb.to_string().c_str());
  std::printf("the wave is locally indistinguishable from leader traffic;\n"
              "relaxing Eq. (2) without more states is the paper's open "
              "problem.\n");
  std::printf("\n%s\n", meter.summary(threads).c_str());
  return 0;
}
