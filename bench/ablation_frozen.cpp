// Ablation bench - why six states and not four: removing the Frozen
// state (DESIGN.md's called-out design choice) lets a leader's wave
// echo back and eliminate its own source, violating Lemma 9. This
// bench quantifies the failure across sizes: the fraction of runs that
// end with ZERO leaders (impossible for real BFW) and how fast
// extinction strikes.
//
//   ./build/bench/ablation_frozen [--trials 50] [--seed 10] [--threads 0]
#include <cstdio>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/ablations.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace beepkit;

struct extinction_stats {
  std::size_t extinct = 0;
  std::vector<double> extinction_rounds;
};

struct variant_trial {
  bool extinct = false;
  std::uint64_t round = 0;
};

extinction_stats run_variant(const graph::graph& g,
                             const beeping::state_machine& machine,
                             std::size_t trials, std::uint64_t seed,
                             std::uint64_t horizon, std::size_t threads,
                             analysis::throughput_meter& meter) {
  const auto runs = analysis::map_trials(
      trials, seed, threads,
      [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
        beeping::fsm_protocol proto(machine);
        beeping::engine sim(g, proto, trial_seed);
        while (sim.round() < horizon && sim.leader_count() > 0) {
          sim.step();
        }
        variant_trial result;
        result.extinct = sim.leader_count() == 0;
        result.round = sim.round();
        return result;
      });
  extinction_stats stats;
  for (const variant_trial& run : runs) {
    meter.add_run(run.round);
    if (run.extinct) {
      ++stats.extinct;
      stats.extinction_rounds.push_back(static_cast<double>(run.round));
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const support::cli args(
      argc, argv, "ablation_frozen [flags]",
      {{"trials", "trials per cell (default 50)"},
       {"seed", "base seed (default 10)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 50));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 10));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== Ablation: BFW without the Frozen state ===\n\n");

  support::table table({"graph", "variant", "extinct (0 leaders)",
                        "median extinction round"});
  table.set_title("Leader extinction over " + std::to_string(trials) +
                  " trials, horizon 20000 rounds");
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::make_path(8));
  graphs.push_back(graph::make_cycle(12));
  graphs.push_back(graph::make_grid(4, 4));
  graphs.push_back(graph::make_complete(8));

  for (const auto& g : graphs) {
    const core::bw_machine broken(0.5);
    const auto broken_stats =
        run_variant(g, broken, trials, seed, 20000, threads, meter);
    const auto broken_summary =
        support::summarize(broken_stats.extinction_rounds);
    table.add_row({g.name(), "BW (no F)",
                   std::to_string(broken_stats.extinct) + "/" +
                       std::to_string(trials),
                   broken_stats.extinct
                       ? support::table::num(broken_summary.median, 0)
                       : "-"});

    const core::bfw_machine real(0.5);
    const auto real_stats =
        run_variant(g, real, trials, seed, 20000, threads, meter);
    table.add_row({g.name(), "BFW (paper)",
                   std::to_string(real_stats.extinct) + "/" +
                       std::to_string(trials),
                   "-"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("the F row must read 0/%zu extinct for BFW (Lemma 9); the "
              "4-state variant\nloses every leader almost surely on any "
              "graph with an edge.\n",
              trials);
  std::printf("%s\n", meter.summary(threads).c_str());
  return 0;
}
