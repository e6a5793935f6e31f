// Faulted Monte-Carlo sweep + gear-differential driver for the fault
// subsystem. Two modes:
//
//  * default: a small sweep of faulted BFW cells (crash bursts, edge
//    churn, corrupt rejoins) over path/grid/star instances on the
//    sharded streaming sweep machinery (`--shard i/N`, `--jsonl`,
//    `--resume`, merged exactly by sweep_merge), followed by a
//    recovery-epoch table from analysis::measure_recovery.
//  * --differential: replays one crash-burst recovery trial across
//    engine gears (default plane/compiled pipeline, interpreted sweep,
//    virtual gear, tiled execution with either sweep) and fails with a
//    nonzero exit when any gear disagrees on any epoch, round count or
//    coin draw - the CI bit-exactness check for faulted runs.
//
//   ./build/tools/fault_sweep [--trials 8] [--seed 11] [--threads 0]
//                             [--engine-threads 1] [--tile-words 0]
//                             [--shard i/N] [--jsonl out.jsonl] [--resume]
//   ./build/tools/fault_sweep --differential [--seed 11]
//
// --threads parallelizes across trials; --engine-threads/--tile-words
// set the intra-trial tiled execution of each engine (bit-identical at
// any setting) and are recorded in the JSONL exec audit fields
// (exec_threads / exec_tile_words).
#include <cstdio>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/recovery.hpp"
#include "core/bfw.hpp"
#include "core/faults.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace beepkit;

/// The canonical crash-burst plan the differential and the recovery
/// table share: let the election settle, then knock out a batch of
/// nodes (auto-rejoining later), then a second, harder burst.
core::fault_plan crash_burst_plan() {
  core::fault_plan plan;
  plan.name = "crash_burst";
  plan.fault_seed = 7;
  plan.burst(48, 6, 32);
  plan.burst(160, 12, 48);
  return plan;
}

core::fault_plan churn_plan() {
  core::fault_plan plan;
  plan.name = "edge_churn";
  plan.fault_seed = 19;
  plan.churn(24, 2, 8, 120);
  return plan;
}

core::fault_plan corrupt_plan() {
  core::fault_plan plan;
  plan.name = "corrupt_rejoin";
  plan.fault_seed = 5;
  plan.crash(40, 1);
  plan.restart_as(90, 1, 1);  // rejoin in a corrupt (beeping) state
  plan.corrupt(140, 3);
  return plan;
}

struct gear_point {
  std::string name;
  analysis::recovery_result result;
};

int run_differential(std::uint64_t seed) {
  const graph::graph g = graph::make_grid(12, 12);
  const core::bfw_machine machine(0.5);
  const core::fault_plan plan = crash_burst_plan();

  std::vector<gear_point> gears;
  const auto run_gear = [&](std::string name,
                            const core::election_options& options) {
    gears.push_back({std::move(name),
                     analysis::measure_recovery(g, machine, seed, options)});
  };
  const core::election_options base{.max_rounds = 4096, .faults = &plan};
  run_gear("plane+compiled", base);
  {
    auto options = base;
    options.compiled_kernel = false;
    run_gear("plane interpreted", options);
  }
  {
    auto options = base;
    options.fast_path = false;
    run_gear("virtual", options);
  }
  {
    auto options = base;
    options.exec = {3, 0};
    run_gear("tiled threads=3", options);
  }
  {
    auto options = base;
    options.exec = {2, 1};
    run_gear("tiled 1-word tiles", options);
  }
  {
    // The interpreted sweep through the shared plane driver's tile path.
    auto options = base;
    options.compiled_kernel = false;
    options.exec = {2, 1};
    run_gear("interpreted tiled threads=2 tile=1", options);
  }

  const gear_point& ref = gears.front();
  bool ok = true;
  std::printf("=== fault_sweep --differential: crash-burst recovery across "
              "gears ===\n");
  std::printf("grid 12x12, plan %s, seed %llu\n\n", plan.name.c_str(),
              static_cast<unsigned long long>(seed));
  support::table table({"gear", "epochs", "recovered", "rounds", "coins",
                        "faults", "match"});
  for (const gear_point& gear : gears) {
    const bool match =
        gear.result.points.size() == ref.result.points.size() &&
        gear.result.outcome.rounds == ref.result.outcome.rounds &&
        gear.result.outcome.total_coins == ref.result.outcome.total_coins &&
        gear.result.outcome.converged == ref.result.outcome.converged &&
        gear.result.faults_applied == ref.result.faults_applied;
    bool epochs_match = match;
    for (std::size_t i = 0;
         epochs_match && i < gear.result.points.size(); ++i) {
      const auto& a = gear.result.points[i];
      const auto& b = ref.result.points[i];
      epochs_match = a.fault_round == b.fault_round &&
                     a.recovered == b.recovered &&
                     a.rounds_to_recover == b.rounds_to_recover;
    }
    ok = ok && epochs_match;
    table.add_row(
        {gear.name,
         support::table::num(static_cast<long long>(gear.result.epochs())),
         support::table::num(
             static_cast<long long>(gear.result.recovered_epochs())),
         support::table::num(
             static_cast<long long>(gear.result.outcome.rounds)),
         support::table::num(
             static_cast<long long>(gear.result.outcome.total_coins)),
         support::table::num(
             static_cast<long long>(gear.result.faults_applied)),
         epochs_match ? "yes" : "NO"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(ok ? "\nall gears bit-identical\n"
                 : "\nGEAR MISMATCH - faulted replay broke bit-exactness\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const support::cli args(
      argc, argv, "fault_sweep [flags]",
      sweep::cli_flags(
          {{"trials", "trials per cell (default 8)"},
           {"seed", "base seed (default 11)"},
           {"engine-threads", "tiled workers per engine (default 1)"},
           {"tile-words",
            "tile size in words (default 0: 8192; a smaller engine runs "
            "one serial tile)"},
           {"differential", "replay one trial across every gear", true}}));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  if (args.has("differential")) return run_differential(seed);

  const auto trials = static_cast<std::size_t>(args.get_int("trials", 8));
  core::engine_exec exec;
  exec.threads =
      static_cast<std::size_t>(args.get_int("engine-threads", 1));
  exec.tile_words = static_cast<std::size_t>(args.get_int("tile-words", 0));
  std::printf("=== fault_sweep: faulted BFW cells on the sharded sweep ===\n\n");

  std::deque<analysis::instance> instances;
  std::vector<analysis::matrix_cell> cells;
  const auto add_cell = [&](analysis::instance inst, core::fault_plan plan,
                            std::uint64_t horizon_scale) {
    instances.push_back(std::move(inst));
    const auto& stored = instances.back();
    cells.push_back({&stored,
                     analysis::make_faulted_bfw(0.5, std::move(plan), exec),
                     trials, seed,
                     horizon_scale *
                         core::default_horizon(stored.g, stored.diameter)});
  };
  add_cell(analysis::make_instance(graph::make_path(65)), crash_burst_plan(),
           16);
  add_cell(analysis::make_instance(graph::make_grid(8, 8)), crash_burst_plan(),
           16);
  // Churn can strand several waves in absorbed silent-leader states -
  // plain BFW has no timeout to detect that (the self-stabilizing
  // variant does), so this cell measures the stall rate under a 1x
  // horizon rather than waiting out a 16x one.
  add_cell(analysis::make_instance(graph::make_grid(8, 8)), churn_plan(), 1);
  add_cell(analysis::make_instance(graph::make_star(64)), corrupt_plan(), 16);

  sweep::spec sweep_spec{"fault_sweep", std::move(cells)};
  const sweep::options sweep_opts = sweep::options_from_cli(args);
  sweep::shard_result sweep_result;
  try {
    sweep_result = sweep::run(sweep_spec, sweep_opts);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fault_sweep: %s\n", error.what());
    return 1;
  }

  support::table table({"graph", "plan", "trials", "converged", "median",
                        "p95", "mean coins/node/round"});
  for (const auto& stats : sweep_result.cells) {
    table.add_row(
        {stats.graph_name, stats.algorithm_name,
         support::table::num(static_cast<long long>(stats.trials)),
         support::table::num(static_cast<long long>(stats.converged)),
         support::table::num(stats.rounds.median, 0),
         support::table::num(stats.rounds.q95, 0),
         support::table::num(stats.mean_coins_per_node_round, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("%s", sweep::describe_result(sweep_result, sweep_opts).c_str());

  // Recovery-epoch detail for the canonical burst plan (serial, not
  // sharded: one trial, epoch-by-epoch).
  const graph::graph g = graph::make_grid(12, 12);
  const core::bfw_machine machine(0.5);
  const core::fault_plan plan = crash_burst_plan();
  const analysis::recovery_result recovery = analysis::measure_recovery(
      g, machine, seed, {.max_rounds = 4096, .faults = &plan});
  support::table epochs({"epoch", "disrupted at", "recovered",
                         "rounds to recover"});
  epochs.set_title("crash-burst recovery epochs (grid 12x12, one trial)");
  for (std::size_t i = 0; i < recovery.points.size(); ++i) {
    const auto& point = recovery.points[i];
    epochs.add_row(
        {support::table::num(static_cast<long long>(i)),
         support::table::num(static_cast<long long>(point.fault_round)),
         point.recovered ? "yes" : "no",
         support::table::num(
             static_cast<long long>(point.rounds_to_recover))});
  }
  std::printf("\n%s", epochs.to_string().c_str());
  return 0;
}
