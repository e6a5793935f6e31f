// Quickstart: elect a leader with BFW on a 2D grid.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--rows 8] [--cols 8] [--p 0.5] [--seed 1]
//
// This is the smallest end-to-end use of the library: make a graph,
// pick the protocol, run the engine until a single leader remains.
#include <cstdio>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "quickstart [flags]",
      {{"rows", "grid rows (default 8)"},
       {"cols", "grid columns (default 8)"},
       {"p", "beep probability (default 0.5)"},
       {"seed", "base seed (default 1)"}});
  const auto rows = static_cast<std::size_t>(args.get_int("rows", 8));
  const auto cols = static_cast<std::size_t>(args.get_int("cols", 8));
  const double p = args.get_double("p", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // 1. A communication graph. Any connected undirected graph works;
  //    the library ships a dozen generators (see graph/generators.hpp).
  const auto g = graph::make_grid(rows, cols);
  const auto diameter = graph::diameter_exact(g);

  // 2. The protocol: BFW, the paper's six-state uniform machine. Every
  //    node starts as a leader in state W*.
  const core::bfw_machine machine(p);
  beeping::fsm_protocol protocol(machine);

  // 3. The synchronous beeping-model engine.
  beeping::engine sim(g, protocol, seed);
  std::printf("network  : %s (n=%zu, D=%u)\n", g.name().c_str(),
              g.node_count(), diameter);
  std::printf("protocol : %s\n", machine.name().c_str());
  std::printf("leaders  : %zu (everyone starts as one)\n\n",
              sim.leader_count());

  // 4. Run until a single leader remains. For BFW this configuration
  //    is permanent (paper, Lemma 9 + leader monotonicity), so the
  //    first single-leader round is the election round.
  const auto horizon = core::default_horizon(g, diameter);
  const auto result = sim.run_until_single_leader(horizon);
  if (!result.converged) {
    std::printf("no single leader within %llu rounds (horizon too small)\n",
                static_cast<unsigned long long>(horizon));
    return 1;
  }

  std::printf("elected  : node %u\n", sim.sole_leader());
  std::printf("rounds   : %llu (Theorem 2 regime: O(D^2 log n) w.h.p.)\n",
              static_cast<unsigned long long>(result.rounds));
  std::printf("coins    : %llu fair bits drawn in total",
              static_cast<unsigned long long>(sim.total_coins_consumed()));
  std::printf(" (~%.2f per node-round)\n",
              static_cast<double>(sim.total_coins_consumed()) /
                  (static_cast<double>(g.node_count()) *
                   static_cast<double>(result.rounds ? result.rounds : 1)));

  // 5. The configuration stays single-leader forever; demonstrate.
  sim.run_rounds(1000);
  std::printf("after 1000 more rounds: %zu leader(s) - still node %u\n",
              sim.leader_count(), sim.sole_leader());
  return 0;
}
