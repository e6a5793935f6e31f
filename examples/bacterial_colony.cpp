// Bacterial colony scenario - the paper's motivating setting: primitive
// organisms on a proximity network (quorum-sensing style beeps), no
// identifiers, no knowledge of the colony's size or shape, six memory
// states total.
//
//   ./build/examples/bacterial_colony [--cells 300] [--radius 0.12]
//                                     [--trials 20] [--seed 7]
//
// The colony lives on a random geometric graph (cells talk to cells
// within signalling range). We run many independent elections and
// report the convergence statistics plus the resource usage that makes
// BFW "biologically plausible": states, coins, and what each cell has
// to know (nothing).
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "bacterial_colony [flags]",
      {{"cells", "number of cells (default 300)"},
       {"radius", "contact radius (default 0.12)"},
       {"trials", "trials per cell (default 20)"},
       {"seed", "base seed (default 7)"}});
  const auto cells = static_cast<std::size_t>(args.get_int("cells", 300));
  const double radius = args.get_double("radius", 0.12);
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  support::rng graph_rng(seed);
  const auto colony = graph::make_random_geometric(cells, radius, graph_rng);
  const auto inst = analysis::make_instance(colony);

  std::printf("colony   : %zu cells, signalling radius %.3f\n", cells, radius);
  std::printf("network  : %s, %zu contacts, diameter %u, max degree %zu\n\n",
              inst.g.name().c_str(), inst.g.edge_count(), inst.diameter,
              inst.g.max_degree());

  const auto algo = analysis::make_bfw(0.5);
  const auto horizon = core::default_horizon(inst.g, inst.diameter);
  const auto stats =
      analysis::run_trials(inst.g, inst.diameter, algo, trials, seed, horizon);

  support::table report({"metric", "value"});
  report.set_title("Election statistics over " + std::to_string(trials) +
                   " independent colonies (seeds)");
  report.add_row({"converged", std::to_string(stats.converged) + "/" +
                                   std::to_string(stats.trials)});
  report.add_row({"median rounds", support::table::num(stats.rounds.median, 0)});
  report.add_row({"mean rounds", support::table::num(stats.rounds.mean, 1)});
  report.add_row({"95th pct rounds", support::table::num(stats.rounds.q95, 0)});
  report.add_row({"worst rounds", support::table::num(stats.rounds.max, 0)});
  report.add_row(
      {"fair coins / cell / round",
       support::table::num(stats.mean_coins_per_node_round, 3)});
  std::printf("%s\n", report.to_string().c_str());

  std::printf("what each cell needs:\n");
  std::printf("  memory      : 6 states (W*, B*, F*, Wo, Bo, Fo)\n");
  std::printf("  randomness  : 1 fair coin per silent leader round (p=1/2)\n");
  std::printf("  identifiers : none\n");
  std::printf("  knowledge   : none (n, D, topology all unknown)\n");
  std::printf("  signal      : 1-bit beep, no collision detection\n");
  return stats.converged == stats.trials ? 0 : 1;
}
