// sweep_merge - merges N shard JSONL files of one sweep back into the
// exact per-cell statistics a serial run_trials per cell would have
// produced (bit-for-bit: the trial records carry the integer outcome
// of every unit, and the merge replays the shared aggregation fold in
// trial order). Typical cross-machine flow:
//
//   machine k:  ./bench/table1_comparison --shard k/3 --jsonl shard_k.jsonl
//   anywhere:   ./tools/sweep_merge shard_0.jsonl shard_1.jsonl \
//                   shard_2.jsonl --json table1.json --csv table1.csv
//
// Exits non-zero (with a message) when shards are missing, belong to
// different sweeps, or contain conflicting duplicate records.
//
// Memory: the merge streams each file twice (coverage bitmap, then a
// per-cell k-way fold) and never materializes the trial records, so
// 1e8+-unit sweeps merge in megabytes - see sweep::merge_shards.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/table.hpp"
#include "sweep/jsonl.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "sweep_merge shard0.jsonl [shard1.jsonl ...] [flags]",
      {{"json", "file to write the merged cells to as JSON"},
       {"csv", "file to write the merged table to as CSV"},
       {"quiet", "print no table", true}});
  const std::vector<std::string>& inputs = args.positionals();
  if (inputs.empty()) {
    std::fputs(args.help().c_str(), stderr);
    return 2;
  }

  sweep::merge_result merged;
  try {
    merged = sweep::merge_shards(inputs);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_merge: %s\n", error.what());
    return 1;
  }

  support::table results({"graph", "n", "D", "algorithm", "conv", "median",
                          "mean", "p95", "coins/node/rd"});
  results.set_title("merged sweep '" + merged.sweep_name + "' (" +
                    std::to_string(merged.units) + " units from " +
                    std::to_string(inputs.size()) + " shard file" +
                    (inputs.size() == 1 ? "" : "s") + ")");
  for (const sweep::merged_cell& cell : merged.cells) {
    const analysis::trial_stats& stats = cell.stats;
    results.add_row(
        {stats.graph_name,
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
  if (!args.get_bool("quiet", false)) {
    std::printf("%s", results.to_string().c_str());
    if (merged.duplicate_records != 0) {
      std::printf("(%llu identical duplicate records tolerated - "
                  "overlapping resume output)\n",
                  static_cast<unsigned long long>(merged.duplicate_records));
    }
  }

  if (const auto json_path = args.get("json")) {
    const std::string text = sweep::merge_summary(merged).dump() + "\n";
    if (!support::write_text_file(*json_path, text)) {
      std::fprintf(stderr, "sweep_merge: cannot write %s\n",
                   json_path->c_str());
      return 1;
    }
    if (!args.get_bool("quiet", false)) {
      std::printf("json summary written to %s\n", json_path->c_str());
    }
  }
  if (const auto csv_path = args.get("csv")) {
    if (!support::write_text_file(*csv_path, results.to_csv())) {
      std::fprintf(stderr, "sweep_merge: cannot write %s\n",
                   csv_path->c_str());
      return 1;
    }
    if (!args.get_bool("quiet", false)) {
      std::printf("csv written to %s\n", csv_path->c_str());
    }
  }
  return 0;
}
