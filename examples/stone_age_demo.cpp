// BFW in the stone-age model (Emek-Wattenhofer): the same six-state
// protocol running on the other weak-communication substrate the paper
// targets, with one-two-many counting clipped at b = 1.
//
//   ./build/examples/stone_age_demo [--n 64] [--seed 5]
//
// The demo runs the beeping-model simulation and the stone-age
// simulation side by side with coupled coins, shows that they produce
// the identical election, and then runs the stone-age engine alone at
// a larger threshold to show b does not matter for BFW.
#include <cstdio>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/convergence.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "stoneage/stoneage.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "stone_age_demo [flags]",
      {{"n", "nodes (default 64)"},
       {"seed", "base seed (default 5)"}});
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  support::rng graph_rng(seed ^ 0x5707e);
  const auto g = graph::make_erdos_renyi_connected(n, 8.0 / static_cast<double>(n),
                                                   graph_rng);
  const auto diameter = graph::diameter_exact(g);
  const auto horizon = core::default_horizon(g, diameter);
  std::printf("network: %s, diameter %u\n\n", g.name().c_str(), diameter);

  // Beeping-model run.
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol protocol(machine);
  beeping::engine beep_sim(g, protocol, seed);
  const auto beep_result = beep_sim.run_until_single_leader(horizon);

  // Stone-age run with the same seed (coupled coins).
  const core::bfw_stone_automaton automaton(0.5);
  stoneage::engine stone_sim(g, automaton, /*threshold=*/1, seed);
  const auto stone_result = stone_sim.run_until_single_leader(horizon);

  std::printf("beeping model  : leader %u in %llu rounds\n",
              beep_sim.sole_leader(),
              static_cast<unsigned long long>(beep_result.rounds));
  std::printf("stone-age (b=1): leader %u in %llu rounds\n",
              stone_sim.sole_leader(),
              static_cast<unsigned long long>(stone_result.rounds));
  const bool identical = beep_sim.sole_leader() == stone_sim.sole_leader() &&
                         beep_result.rounds == stone_result.rounds;
  std::printf("trajectories identical: %s\n\n", identical ? "yes" : "NO");

  // Threshold ablation: BFW only ever asks "at least one neighbor
  // beeping?", so the richer census of b > 1 is wasted on it.
  for (const std::uint32_t b : {2U, 8U}) {
    stoneage::engine sim_b(g, automaton, b, seed);
    const auto r = sim_b.run_until_single_leader(horizon);
    std::printf("stone-age (b=%u): leader %u in %llu rounds (same run)\n", b,
                sim_b.sole_leader(), static_cast<unsigned long long>(r.rounds));
  }
  return identical ? 0 : 1;
}
