// E12 - the stone-age embedding (paper Section 1): BFW runs unchanged
// in a synchronous stone-age model with one-two-many counting at
// b = 1. With coupled coins, the beeping-model and stone-age-model
// simulations must produce the identical trajectory; this bench runs
// the pair across topologies and reports divergences (zero) plus the
// relative simulation cost of the richer census. The stone-age side
// runs its generic census path: its default fast path is a
// beeping::engine on the same machine, so only the census path is an
// independent witness. Exits 1 on any divergence (a CI verdict).
//
//   ./build/bench/stoneage_equivalence [--rounds 2000] [--seed 8]
//                                      [--threads 0]
#include <chrono>
#include <cstdio>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "graph/generators.hpp"
#include "stoneage/stoneage.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "stoneage_equivalence [flags]",
      {{"rounds", "rounds per run (default 2000)"},
       {"seed", "base seed (default 8)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto rounds = static_cast<std::uint64_t>(args.get_int("rounds", 2000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 8));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== E12: BFW beeping-model vs stone-age-model equivalence "
              "===\n\n");

  support::rng graph_rng(seed);
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::make_path(64));
  graphs.push_back(graph::make_cycle(64));
  graphs.push_back(graph::make_grid(8, 8));
  graphs.push_back(graph::make_hypercube(6));
  graphs.push_back(graph::make_erdos_renyi_connected(64, 0.1, graph_rng));

  support::table table({"graph", "rounds", "diverged rounds",
                        "same election", "beeping s", "stone-age s"});
  table.set_title("Coupled runs, p = 1/2, threshold b = 1");

  // Each coupled pair is an independent deterministic run: fan the
  // graphs out across the pool, keep the row order fixed.
  struct pair_result {
    std::uint64_t diverged = 0;
    bool same_final = false;
    double beep_time = 0.0;
    double stone_time = 0.0;
  };
  std::vector<pair_result> results(graphs.size());
  support::parallel_for(graphs.size(), threads, [&](std::size_t i) {
    const auto& g = graphs[i];
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine beep_sim(g, proto, seed);
    const core::bfw_stone_automaton automaton(0.5);
    stoneage::engine stone_sim(g, automaton, 1, seed);
    stone_sim.set_fast_path_enabled(false);

    pair_result& res = results[i];
    for (std::uint64_t r = 0; r < rounds; ++r) {
      if (proto.states() != stone_sim.states()) ++res.diverged;
      const auto t1 = std::chrono::steady_clock::now();
      beep_sim.step();
      const auto t2 = std::chrono::steady_clock::now();
      stone_sim.step();
      const auto t3 = std::chrono::steady_clock::now();
      res.beep_time += std::chrono::duration<double>(t2 - t1).count();
      res.stone_time += std::chrono::duration<double>(t3 - t2).count();
    }
    res.same_final =
        beep_sim.leader_count() == stone_sim.leader_count() &&
        (beep_sim.leader_count() != 1 ||
         beep_sim.sole_leader() == stone_sim.sole_leader());
    // Trial boundary: one mutex-protected registry touch per engine.
    support::telemetry::fold_engine_metrics(beep_sim.telemetry_metrics(),
                                            "engine");
    support::telemetry::fold_engine_metrics(stone_sim.telemetry_metrics(),
                                            "stoneage");
  });
  bool all_identical = true;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const pair_result& res = results[i];
    all_identical = all_identical && res.diverged == 0 && res.same_final;
    meter.add_run(2 * rounds);
    table.add_row({graphs[i].name(),
                   support::table::num(static_cast<long long>(rounds)),
                   support::table::num(static_cast<long long>(res.diverged)),
                   res.same_final ? "yes" : "NO",
                   support::table::num(res.beep_time, 3),
                   support::table::num(res.stone_time, 3)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("verdict: %s - the six-state machine neither knows nor cares "
              "which weak\nmodel carries its beeps (b = 1 census == "
              "beep/no-beep).\n",
              all_identical ? "trajectories identical everywhere"
                            : "DIVERGENCE DETECTED");
  std::printf("\n%s\n", meter.summary(threads).c_str());
  return all_identical ? 0 : 1;
}
