// EX3 (extension) - the Section 1.4 cross-model comparison, measured.
// The paper surveys leader election in population protocols: on the
// clique, constant-state protocols need Omega(n^2) expected
// interactions [10] (matched by the two-state fight protocol), and on
// general graphs pairwise protocols need token movement [2]. The
// beeping model's one-to-many broadcast is what buys BFW its polylog
// parallel time on low-diameter graphs - "significant differences
// that make it difficult to compare convergence times across the two
// settings", quantified here side by side.
//
//   ./build/bench/population_comparison [--trials 20] [--seed 13]
//                                       [--threads 0]
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/convergence.hpp"
#include "graph/generators.hpp"
#include "popproto/popproto.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace beepkit;

struct pp_stats {
  std::size_t converged = 0;
  std::vector<double> interactions;
};

pp_stats run_pp(const graph::graph& g, const popproto::protocol& proto,
                std::size_t trials, std::uint64_t seed, std::uint64_t budget,
                std::size_t threads, analysis::throughput_meter& meter) {
  struct pp_trial {
    bool converged = false;
    std::uint64_t interactions = 0;
  };
  const auto runs = analysis::map_trials(
      trials, seed, threads,
      [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
        popproto::scheduler sched(g, proto, trial_seed);
        const auto result = sched.run_until_single_leader(budget);
        return pp_trial{result.converged, result.interactions};
      });
  pp_stats stats;
  for (const pp_trial& run : runs) {
    // Interactions are the population model's round analogue.
    meter.add_run(run.interactions);
    if (run.converged) {
      ++stats.converged;
      stats.interactions.push_back(static_cast<double>(run.interactions));
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const support::cli args(
      argc, argv, "population_comparison [flags]",
      {{"trials", "trials per cell (default 20)"},
       {"seed", "base seed (default 13)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 13));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== EX3: population protocols vs the beeping model "
              "(Section 1.4) ===\n\n");

  // --- Clique scaling: fight ~ n^2 interactions, BFW ~ log n rounds.
  support::table clique({"n", "PP-fight median inter.", "inter./n^2",
                         "PP parallel time", "BFW median rounds"});
  clique.set_title("Clique: Theta(n^2) pairwise vs polylog broadcast");
  std::vector<double> ns, medians;
  const popproto::fight_protocol fight;
  for (const std::size_t n : {16UL, 32UL, 64UL, 128UL, 256UL}) {
    const auto g = graph::make_complete(n);
    const auto pp =
        run_pp(g, fight, trials, seed, 1000000000ULL, threads, meter);
    const double median = support::quantile(pp.interactions, 0.5);
    ns.push_back(static_cast<double>(n));
    medians.push_back(median);

    const core::bfw_machine bfw(0.5);
    const auto rounds = analysis::map_trials(
        trials, seed + 1, threads,
        [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
          const auto outcome =
              core::run_election(g, bfw, trial_seed, {.max_rounds = 100000});
          return static_cast<double>(outcome.converged ? outcome.rounds
                                                       : 100000);
        });
    clique.add_row(
        {support::table::num(static_cast<long long>(n)),
         support::table::num(median, 0),
         support::table::num(median / (static_cast<double>(n) * n), 2),
         support::table::num(median / static_cast<double>(n), 1),
         support::table::num(support::quantile(rounds, 0.5), 0)});
  }
  const auto fit = support::fit_loglog(ns, medians);
  std::printf("%s", clique.to_string().c_str());
  std::printf("log-log slope of fight interactions vs n: %.2f (the "
              "Omega(n^2) constant-state regime of [10])\n\n",
              fit.slope);

  // --- Topology: pairwise needs token movement off the clique.
  support::table topo({"graph", "protocol", "conv", "median interactions"});
  topo.set_title("General graphs: fight deadlocks; token coalescence "
                 "walks (cf. [2])");
  const popproto::token_coalescence_protocol token;
  support::rng graph_rng(seed);
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::make_path(24));
  graphs.push_back(graph::make_cycle(24));
  graphs.push_back(graph::make_erdos_renyi_connected(24, 0.2, graph_rng));
  for (const auto& g : graphs) {
    const auto f = run_pp(g, fight, trials, seed + 2, 3000000, threads, meter);
    topo.add_row({g.name(), fight.name(),
                  std::to_string(f.converged) + "/" + std::to_string(trials),
                  f.converged
                      ? support::table::num(
                            support::quantile(f.interactions, 0.5), 0)
                      : "-"});
    const auto t =
        run_pp(g, token, trials, seed + 2, 100000000, threads, meter);
    topo.add_row({g.name(), token.name(),
                  std::to_string(t.converged) + "/" + std::to_string(trials),
                  t.converged
                      ? support::table::num(
                            support::quantile(t.interactions, 0.5), 0)
                      : "-"});
  }
  std::printf("%s\n", topo.to_string().c_str());
  std::printf("the beeping model's broadcast reaches every neighbor at\n"
              "once; the population model must route leadership through\n"
              "pairwise meetings - the structural gap behind the paper's\n"
              "\"difficult to compare\" remark.\n");
  std::printf("\n%s (rounds = interactions here)\n",
              meter.summary(threads).c_str());
  return 0;
}
