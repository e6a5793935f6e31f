// E3 - Theorem 2: uniform BFW (constant p, no knowledge) elects a
// single leader in O(D^2 log n) rounds w.h.p.
//
// Three sweeps expose the two factors of the bound:
//   (1) paths, D growing        -> median rounds should fit ~ D^2
//       (log n rides along as log D here, inflating the raw exponent
//       slightly above 2);
//   (2) stars, n growing, D = 2 -> rounds should fit ~ log n
//       (linear when plotted against log n);
//   (3) a p-ablation on a fixed grid: Theorem 2 holds for every
//       constant p, but the constant degrades toward both endpoints.
//
// All three sweeps run as one spec on the sharded streaming sweep
// subsystem: `--shard i/N` executes this process's (start, stride)
// slice, `--jsonl out.jsonl` streams per-trial records (resumable
// with --resume), and `sweep_merge` reassembles exact statistics
// across shards.
//
//   ./build/bench/thm2_uniform_scaling [--trials 15] [--seed 2]
//                                      [--max-d 64] [--threads 0]
//                                      [--csv out.csv] [--shard i/N]
//                                      [--jsonl out.jsonl] [--resume]
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <vector>

#include "analysis/experiment.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "thm2_uniform_scaling [flags]",
      sweep::cli_flags({{"trials", "trials per cell (default 15)"},
                        {"seed", "base seed (default 2)"},
                        {"max-d", "largest diameter (default 64)"},
                        {"csv", "also write the table to this CSV file"}}));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 15));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2));
  const auto max_d = static_cast<std::uint32_t>(args.get_int("max-d", 64));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== E3: Theorem 2 - O(D^2 log n) for uniform BFW (p = 1/2) "
              "===\n\n");
  const auto algo = analysis::make_bfw(0.5);

  // All three sweeps become cells of one spec (instances live in a
  // deque so the matrix_cell pointers stay stable while we append).
  std::deque<analysis::instance> instances;
  std::vector<analysis::matrix_cell> cells;
  std::vector<double> ds;
  for (std::uint32_t d = 4; d <= max_d; d *= 2) {
    instances.push_back(analysis::make_instance(graph::make_path(d + 1)));
    const auto& inst = instances.back();
    cells.push_back({&inst, algo, trials, seed,
                     16 * core::default_horizon(inst.g, inst.diameter)});
    ds.push_back(d);
  }
  const std::size_t sweep_n_begin = cells.size();
  std::vector<double> logns;
  for (std::size_t n = 16; n <= 2048; n *= 4) {
    instances.push_back(analysis::make_instance(graph::make_star(n)));
    const auto& inst = instances.back();
    cells.push_back({&inst, algo, trials, seed + 1,
                     16 * core::default_horizon(inst.g, inst.diameter)});
    logns.push_back(std::log2(static_cast<double>(n)));
  }
  const std::size_t sweep_p_begin = cells.size();
  instances.push_back(analysis::make_instance(graph::make_grid(8, 8)));
  const auto& grid = instances.back();
  const std::vector<double> ps = {0.05, 0.1, 0.25, 0.5, 0.75, 0.9};
  for (const double p : ps) {
    cells.push_back({&grid, analysis::make_bfw(p), trials, seed + 2,
                     16 * core::default_horizon(grid.g, grid.diameter)});
  }

  sweep::spec sweep_spec{"thm2_uniform_scaling", std::move(cells)};
  const sweep::options sweep_opts = sweep::options_from_cli(args);
  sweep::shard_result sweep_result;
  try {
    sweep_result = sweep::run(sweep_spec, sweep_opts);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "thm2_uniform_scaling: %s\n", error.what());
    return 1;
  }
  for (const auto& stats : sweep_result.cells) {
    meter.add(stats);
  }

  // --- Sweep 1: diameter on paths -----------------------------------------
  support::table sweep_d({"graph", "n", "D", "median", "mean", "p95",
                          "median/D^2"});
  sweep_d.set_title("Sweep 1 - paths, growing diameter");
  // Under --shard a cell can hold zero local trials (median 0), which
  // would poison the log-log fit - fit only over populated cells.
  std::vector<double> fit_ds, medians;
  for (std::size_t i = 0; i < sweep_n_begin; ++i) {
    const auto& stats = sweep_result.cells[i];
    const double d = ds[i];
    if (stats.rounds.median > 0) {
      fit_ds.push_back(d);
      medians.push_back(stats.rounds.median);
    }
    sweep_d.add_row(
        {stats.graph_name,
         support::table::num(static_cast<long long>(stats.node_count)),
         support::table::num(static_cast<long long>(d)),
         support::table::num(stats.rounds.median, 0),
         support::table::num(stats.rounds.mean, 1),
         support::table::num(stats.rounds.q95, 0),
         support::table::num(stats.rounds.median / (d * d), 3)});
  }
  const auto fit_d = medians.size() >= 2 ? support::fit_loglog(fit_ds, medians)
                                         : support::linear_fit{};
  std::printf("%s", sweep_d.to_string().c_str());
  std::printf("log-log slope of median vs D: %.2f (R^2 %.3f) - paper "
              "predicts ~2 (+ log factor)\n\n",
              fit_d.slope, fit_d.r_squared);

  // --- Sweep 2: population at fixed diameter ------------------------------
  support::table sweep_n({"graph", "n", "D", "median", "p95",
                          "median/log2(n)"});
  sweep_n.set_title("Sweep 2 - stars (D = 2), growing population");
  std::vector<double> fit_logns, medians_n;
  for (std::size_t i = sweep_n_begin; i < sweep_p_begin; ++i) {
    const auto& stats = sweep_result.cells[i];
    const double logn = logns[i - sweep_n_begin];
    if (stats.rounds.median > 0) {
      fit_logns.push_back(logn);
      medians_n.push_back(stats.rounds.median);
    }
    sweep_n.add_row(
        {stats.graph_name,
         support::table::num(static_cast<long long>(stats.node_count)),
         support::table::num(static_cast<long long>(stats.diameter)),
         support::table::num(stats.rounds.median, 0),
         support::table::num(stats.rounds.q95, 0),
         support::table::num(stats.rounds.median / logn, 2)});
  }
  const auto fit_n = medians_n.size() >= 2
                         ? support::fit_linear(fit_logns, medians_n)
                         : support::linear_fit{};
  std::printf("%s", sweep_n.to_string().c_str());
  std::printf("median vs log2(n) linear fit: slope %.2f, R^2 %.3f - the\n"
              "log n factor of the bound, isolated\n\n",
              fit_n.slope, fit_n.r_squared);

  // --- Sweep 3: p-ablation --------------------------------------------------
  support::table sweep_p({"p", "conv", "median", "mean", "p95"});
  sweep_p.set_title("Sweep 3 - p-ablation on grid(8x8): any constant p "
                    "works; the constant does not");
  for (std::size_t i = sweep_p_begin; i < sweep_result.cells.size(); ++i) {
    const auto& stats = sweep_result.cells[i];
    sweep_p.add_row({support::table::num(ps[i - sweep_p_begin], 2),
                     std::to_string(stats.converged) + "/" +
                         std::to_string(stats.trials),
                     support::table::num(stats.rounds.median, 0),
                     support::table::num(stats.rounds.mean, 1),
                     support::table::num(stats.rounds.q95, 0)});
  }
  std::printf("%s", sweep_p.to_string().c_str());
  const std::string sweep_note =
      sweep::describe_result(sweep_result, sweep_opts);
  if (!sweep_note.empty()) std::printf("\n%s", sweep_note.c_str());
  std::printf("\n%s\n", meter.summary(threads).c_str());

  if (const auto csv = args.get("csv")) {
    if (support::write_text_file(*csv, sweep_d.to_csv())) {
      std::printf("\ncsv (sweep 1) written to %s\n", csv->c_str());
    }
  }
  return 0;
}
