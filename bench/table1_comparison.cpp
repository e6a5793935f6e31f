// E1 - Table 1 reproduction: "Overview of existing results regarding
// Leader Election in the Beeping model", with a measured column.
//
// Part A restates the paper's asymptotic table for the implemented
// algorithm classes. Part B measures convergence rounds for each
// algorithm on a spread of topologies, reproducing the table's
// qualitative ordering: the ID/knowledge-equipped baseline beats
// BFW(p=1/(D+1)) beats uniform BFW on high-diameter graphs, the gap
// closing as the diameter shrinks; the clique lottery only functions
// on single-hop networks.
//
// Scale-out: the Part-B sweep runs on the sharded streaming sweep
// subsystem. `--shard i/N` executes only this process's (start,
// stride) slice, `--jsonl out.jsonl` streams one record per trial
// (crash-resumable with --resume), and `sweep_merge` reassembles the
// exact single-process statistics from the per-shard files.
//
//   ./build/bench/table1_comparison [--n 64] [--trials 15] [--seed 1]
//                                   [--threads 0] [--csv out.csv]
//                                   [--shard i/N] [--jsonl out.jsonl]
//                                   [--resume]
#include <cstdio>
#include <exception>
#include <vector>

#include "analysis/experiment.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "table1_comparison [flags]",
      sweep::cli_flags({{"n", "nodes per graph (default 64)"},
                        {"trials", "trials per cell (default 15)"},
                        {"seed", "base seed (default 1)"},
                        {"csv", "also write the table to this CSV file"}}));
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 15));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::size_t threads = args.get_threads();

  std::printf("=== E1: Table 1 - leader election under weak communication "
              "===\n\n");

  support::table spec({"algorithm", "rounds (paper)", "unique IDs",
                       "knowledge", "safety", "states", "term. detect"});
  spec.set_title("Part A - asymptotic requirements (paper Table 1, "
                 "implemented rows)");
  spec.add_row({"IdBroadcast [14]/[11]-class", "O(D log n)", "yes", "n, D",
                "det.", "Omega(n)", "yes"});
  spec.add_row({"CliqueLottery [17]-class", "O(log n log 1/eps)", "no",
                "n, eps (clique only)", "w.h.p.", "O(log 1/eps)", "yes"});
  spec.add_row({"BFW p=1/(D+1) (this paper)", "O(D log n)", "no", "D",
                "w.h.p.", "O(1): 6", "no"});
  spec.add_row({"BFW p=1/2 (this paper)", "O(D^2 log n)", "no", "none",
                "w.h.p.", "O(1): 6", "no"});
  std::printf("%s\n", spec.to_string().c_str());
  std::printf("not implemented: the [12]-class self-stabilizing row "
              "(O(D log n), no IDs,\nknows D, Omega(D) states) - no "
              "mechanism in this paper; our timeout-BFW\n(bench/"
              "selfstab_timeout) probes the same trade-off.\n\n");

  support::rng graph_rng(seed ^ 0x61);
  std::vector<analysis::instance> instances;
  instances.push_back(analysis::make_instance(graph::make_path(n)));
  instances.push_back(analysis::make_instance(graph::make_cycle(n)));
  instances.push_back(analysis::make_instance(graph::make_grid(8, n / 8)));
  instances.push_back(analysis::make_instance(
      graph::make_erdos_renyi_connected(n, 6.0 / static_cast<double>(n),
                                        graph_rng)));
  instances.push_back(analysis::make_instance(graph::make_complete(n)));

  support::table results({"graph", "n", "D", "algorithm", "conv", "median",
                          "mean", "p95", "coins/node/rd"});
  results.set_title("Part B - measured convergence rounds (" +
                    std::to_string(trials) + " trials each)");

  // Every (graph, algorithm) cell goes through the streaming sweep
  // executor: one worker pool (a horizon-bound cell cannot serialize
  // the whole table), a lazy (cell, trial) work source, and - when
  // sharded - only this process's (start, stride) slice of the units.
  analysis::throughput_meter meter;
  std::vector<analysis::matrix_cell> cells;
  for (const auto& inst : instances) {
    std::vector<analysis::algorithm> algos = {
        analysis::make_id_broadcast(inst.diameter),
        analysis::make_bfw_known_diameter(inst.diameter),
        analysis::make_bfw(0.5),
    };
    if (inst.diameter <= 1) {
      algos.push_back(analysis::make_clique_lottery(0.01));
    }
    const auto horizon = 8 * core::default_horizon(inst.g, inst.diameter);
    for (auto& algo : algos) {
      cells.push_back({&inst, std::move(algo), trials, seed + 17, horizon});
    }
  }
  sweep::spec sweep_spec{"table1_comparison", std::move(cells)};
  const sweep::options sweep_opts = sweep::options_from_cli(args);
  sweep::shard_result sweep_result;
  try {
    sweep_result = sweep::run(sweep_spec, sweep_opts);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "table1_comparison: %s\n", error.what());
    return 1;
  }
  const auto& all_stats = sweep_result.cells;
  for (const auto& stats : all_stats) {
    meter.add(stats);
    results.add_row({stats.graph_name,
                     support::table::num(static_cast<long long>(stats.node_count)),
                     support::table::num(static_cast<long long>(stats.diameter)),
                     stats.algorithm_name,
                     std::to_string(stats.converged) + "/" +
                         std::to_string(stats.trials),
                     support::table::num(stats.rounds.median, 0),
                     support::table::num(stats.rounds.mean, 1),
                     support::table::num(stats.rounds.q95, 0),
                     support::table::num(stats.mean_coins_per_node_round, 3)});
  }
  std::printf("%s\n", results.to_string().c_str());
  const std::string sweep_note =
      sweep::describe_result(sweep_result, sweep_opts);
  if (!sweep_note.empty()) std::printf("%s\n", sweep_note.c_str());
  std::printf("%s\n", meter.summary(threads).c_str());
  std::printf("expected shape: IdBroadcast <= BFW(1/(D+1)) < BFW(1/2) on\n"
              "high-diameter graphs; near-parity on the clique; the lottery\n"
              "matches the bound only on the clique.\n");

  if (const auto csv = args.get("csv")) {
    if (support::write_text_file(*csv, results.to_csv())) {
      std::printf("\ncsv written to %s\n", csv->c_str());
    }
  }
  return 0;
}
