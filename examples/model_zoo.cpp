// Model zoo: one election problem, four weak-communication substrates.
//
//   ./build/examples/model_zoo [--n 49] [--seed 6]
//
// The same anonymous, uniform, six-state BFW machine runs on:
//   1. the beeping model (the paper's home),
//   2. the synchronous stone-age model (b = 1 census),
//   3. a radio network with collision detection,
//   4. a radio network without collision detection,
// and, for contrast, the population-protocols model elects by pairwise
// token coalescence on the same graph. A tour of src/{beeping,
// stoneage, radio, popproto} in forty lines of application code.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "popproto/popproto.hpp"
#include "radio/radio.hpp"
#include "stoneage/stoneage.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "model_zoo [flags]",
      {{"n", "nodes per graph (default 49)"},
       {"seed", "base seed (default 6)"}});
  const auto n = static_cast<std::size_t>(args.get_int("n", 49));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 6));

  const auto side = static_cast<std::size_t>(std::max(2.0, std::sqrt(n)));
  const auto g = graph::make_grid(side, side);
  const auto diameter = graph::diameter_exact(g);
  std::printf("arena: %s (n=%zu, D=%u), seed %llu\n\n", g.name().c_str(),
              g.node_count(), diameter,
              static_cast<unsigned long long>(seed));

  const core::bfw_machine machine(0.5);
  constexpr std::uint64_t horizon = 1000000;

  {
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed);
    const auto r = sim.run_until_single_leader(horizon);
    std::printf("beeping model      : node %3u in %6llu rounds\n",
                sim.sole_leader(), static_cast<unsigned long long>(r.rounds));
  }
  {
    const core::bfw_stone_automaton automaton(0.5);
    stoneage::engine sim(g, automaton, /*threshold=*/1, seed);
    const auto r = sim.run_until_single_leader(horizon);
    std::printf("stone-age (b=1)    : node %3u in %6llu rounds  "
                "(identical run: coupled coins)\n",
                sim.sole_leader(), static_cast<unsigned long long>(r.rounds));
  }
  {
    beeping::fsm_protocol proto(machine);
    radio::engine sim(g, proto, seed, /*collision_detection=*/true);
    const auto r = sim.run_until_single_leader(horizon);
    std::printf("radio + CD         : node %3u in %6llu rounds  "
                "(identical run: same predicate)\n",
                sim.sole_leader(), static_cast<unsigned long long>(r.rounds));
  }
  {
    beeping::fsm_protocol proto(machine);
    radio::engine sim(g, proto, seed, /*collision_detection=*/false);
    const auto r = sim.run_until_single_leader(horizon);
    if (r.converged && sim.leader_count() == 1) {
      std::printf("radio, no CD       : node %3u in %6llu rounds  "
                  "(collisions mask beeps: a different run)\n",
                  sim.sole_leader(),
                  static_cast<unsigned long long>(r.rounds));
    } else {
      std::printf("radio, no CD       : %zu leaders after %llu rounds "
                  "(collisions can even kill them all)\n",
                  sim.leader_count(),
                  static_cast<unsigned long long>(r.rounds));
    }
  }
  {
    const popproto::token_coalescence_protocol token;
    popproto::scheduler sched(g, token, seed);
    const auto r = sched.run_until_single_leader(1000000000ULL);
    std::printf("population (token) : node %3u in %6llu interactions "
                "(~%llu parallel time)\n",
                sched.sole_leader(),
                static_cast<unsigned long long>(r.interactions),
                static_cast<unsigned long long>(r.interactions /
                                                g.node_count()));
  }

  std::printf("\nsame protocol, same coins - the first three substrates "
              "agree beep for beep;\nthe weaker channels pay in rounds, the "
              "pairwise model pays in parallel time.\n");
  return 0;
}
