// E2 - Figure 1 reproduction: the BFW state machine, measured.
//
// Part A runs BFW and tallies every observed (state, condition) ->
// next-state transition, recovering Figure 1 empirically: all solid
// (delta_top) and dashed (delta_bot) arrows with their frequencies,
// including the p / 1-p split out of W•.
// Part B prints a wave diagram on a path (the picture behind "beep
// waves expand away from leaders").
// Part C verifies the Section 1.3 randomness claim: with p = 1/2,
// coins consumed = number of silent waiting-leader node-rounds.
//
//   ./build/bench/fig1_state_machine [--rounds 4000] [--p 0.5] [--seed 5]
//                                    [--threads 0]
#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "beeping/trace.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

using beepkit::beeping::state_id;

struct transition_census {
  // key: (from_state, heard) -> (to_state -> count)
  std::map<std::pair<state_id, bool>, std::map<state_id, std::uint64_t>>
      counts;
  std::uint64_t silent_leader_waits = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "fig1_state_machine [flags]",
      {{"rounds", "rounds per run (default 4000)"},
       {"p", "beep probability (default 0.5)"},
       {"seed", "base seed (default 5)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto rounds = static_cast<std::uint64_t>(args.get_int("rounds", 4000));
  const double p = args.get_double("p", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  const std::size_t threads = args.get_threads();

  std::printf("=== E2: Figure 1 - the BFW state machine, observed ===\n\n");

  // Parts A (grid census) and B (path wave trace) are independent
  // runs; fan them out, then print in order.
  const auto g = graph::make_grid(6, 6);
  const core::bfw_machine machine(p);
  transition_census census;
  std::uint64_t census_coins = 0;
  std::string wave_diagram;
  support::parallel_for(2, threads, [&](std::size_t part) {
    if (part == 0) {
      beeping::fsm_protocol proto(machine);
      beeping::engine sim(g, proto, seed);
      auto previous = proto.states();
      std::vector<std::uint8_t> previous_beeps(g.node_count(), 0);
      for (std::uint64_t r = 0; r < rounds; ++r) {
        for (graph::node_id u = 0; u < g.node_count(); ++u) {
          previous_beeps[u] = sim.beeping(u) ? 1 : 0;
        }
        previous = proto.states();
        sim.step();
        for (graph::node_id u = 0; u < g.node_count(); ++u) {
          bool heard = previous_beeps[u] != 0;
          if (!heard) {
            for (graph::node_id v : g.neighbors(u)) {
              if (previous_beeps[v] != 0) {
                heard = true;
                break;
              }
            }
          }
          ++census.counts[{previous[u], heard}][proto.state_of(u)];
          if (!heard &&
              previous[u] ==
                  static_cast<state_id>(core::bfw_state::leader_wait)) {
            ++census.silent_leader_waits;
          }
        }
      }
      census_coins = sim.total_coins_consumed();
    } else {
      const auto path = graph::make_path(32);
      beeping::fsm_protocol path_proto(machine);
      beeping::engine path_sim(path, path_proto, seed + 1);
      beeping::trace_recorder trace(path_proto, 36);
      path_sim.add_observer(&trace);
      path_sim.run_rounds(40);
      wave_diagram = trace.render_ascii();
    }
  });

  support::table table({"from", "condition", "to", "count", "frequency",
                        "Figure 1 says"});
  table.set_title("Part A - transition census on grid(6x6), " +
                  std::to_string(rounds) + " rounds, p=" +
                  support::table::num(p, 2));
  const auto spec = [&](state_id from, bool heard,
                        state_id to) -> std::string {
    const auto fs = static_cast<core::bfw_state>(from);
    if (heard) {
      return "deterministic";
    }
    if (fs == core::bfw_state::leader_wait) {
      return to == static_cast<state_id>(core::bfw_state::leader_beep)
                 ? "w.p. p = " + support::table::num(p, 2)
                 : "w.p. 1-p = " + support::table::num(1 - p, 2);
    }
    return "deterministic";
  };
  for (const auto& [key, targets] : census.counts) {
    std::uint64_t total = 0;
    for (const auto& [_, c] : targets) total += c;
    for (const auto& [to, count] : targets) {
      table.add_row({machine.state_name(key.first),
                     key.second ? "heard/beeped" : "silence",
                     machine.state_name(to),
                     support::table::num(static_cast<long long>(count)),
                     support::table::num(static_cast<double>(count) /
                                             static_cast<double>(total), 3),
                     spec(key.first, key.second, to)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // Part B - wave diagram.
  std::printf("Part B - beep waves on path(32), first 36 rounds "
              "(UPPER = leader, W/B/F states):\n\n");
  std::printf("%s\n", wave_diagram.c_str());

  // Part C - randomness accounting.
  std::printf("Part C - Section 1.3 randomness claim (p = 1/2 draws one "
              "fair bit per silent waiting-leader round):\n");
  std::printf("  silent waiting-leader node-rounds : %llu\n",
              static_cast<unsigned long long>(census.silent_leader_waits));
  std::printf("  fair coins consumed               : %llu\n",
              static_cast<unsigned long long>(census_coins));
  if (p == 0.5) {
    std::printf("  match: %s\n",
                census.silent_leader_waits == census_coins ? "exact"
                                                           : "MISMATCH");
  } else {
    std::printf("  (p != 1/2: the machine draws real-valued randomness "
                "instead; coins = %llu)\n",
                static_cast<unsigned long long>(census_coins));
  }
  return 0;
}
