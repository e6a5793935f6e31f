// E8 - the Section-5 tightness conjecture: with two leaders at the
// ends of a path of length D, the meeting point of their waves drifts
// like a simple random walk, so elimination should take Theta(D^2)
// rounds - suggesting Theorem 2 is tight up to the log n factor.
//
// We start from exactly that configuration (Eq. 2-compliant: both
// endpoints in W•, everyone else W◦) and measure the round at which
// one leader dies, sweeping D. The paper's prediction: the log-log
// slope of the median elimination time vs D is ~2, and the survivor is
// an unbiased coin flip between the two ends.
//
// Scale-out: the Part-1 sweep runs on the sharded streaming sweep
// subsystem (`--shard i/N`, `--jsonl out.jsonl`, `--resume`; merge
// shard files with sweep_merge). The survivor split is accumulated
// through the executor's per-trial hook, since "which endpoint won"
// is not part of the standard aggregates.
//
//   ./build/bench/tightness_conjecture [--trials 20] [--seed 4]
//                                      [--max-d 128] [--threads 0]
//                                      [--csv out.csv] [--shard i/N]
//                                      [--jsonl out.jsonl] [--resume]
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/wave_tracker.hpp"
#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "tightness_conjecture [flags]",
      sweep::cli_flags({{"trials", "trials per cell (default 20)"},
                        {"seed", "base seed (default 4)"},
                        {"max-d", "largest diameter (default 128)"},
                        {"csv", "also write the table to this CSV file"}}));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));
  const auto max_d = static_cast<std::uint32_t>(args.get_int("max-d", 128));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== E8: Section 5 conjecture - two leaders on a path die in "
              "Theta(D^2) ===\n\n");

  support::table sweep_table({"D", "median", "mean", "p95", "median/D^2",
                              "left wins"});
  sweep_table.set_title("Two leaders at path ends, p = 1/2 (" +
                        std::to_string(trials) + " trials)");

  // Uniform BFW started from the Eq. 2-compliant two-leader
  // configuration; deterministic in (graph, seed) like every sweep
  // algorithm, so it shards and resumes like the standard cells.
  const analysis::algorithm two_leader_algo{
      "BFW(p=0.5, two leaders at path ends)",
      [](const graph::topology_view& view, std::uint64_t trial_seed,
         std::uint64_t max_rounds) {
        return core::run_election(
            view, core::bfw_machine(0.5), trial_seed,
            {.max_rounds = max_rounds,
             .initial = core::two_leaders_at_path_ends(view.node_count())});
      }};

  std::deque<analysis::instance> instances;
  std::vector<analysis::matrix_cell> cells;
  std::vector<double> ds;
  for (std::uint32_t d = 8; d <= max_d; d *= 2) {
    const std::size_t n = d + 1;
    instances.push_back(analysis::make_instance(graph::make_path(n)));
    const auto horizon = 64ULL * d * d *
                         (4 + static_cast<std::uint64_t>(std::log2(n)));
    cells.push_back(
        {&instances.back(), two_leader_algo, trials, seed * 131 + d,
         horizon});
    ds.push_back(d);
  }

  std::vector<std::size_t> left_wins(cells.size(), 0);
  sweep::spec sweep_spec{"tightness_conjecture", std::move(cells)};
  sweep::options sweep_opts = sweep::options_from_cli(args);
  sweep_opts.on_trial = [&left_wins](const sweep::unit& u,
                                     const core::election_outcome& outcome) {
    if (outcome.converged && outcome.leader == 0) ++left_wins[u.cell];
  };
  sweep::shard_result sweep_result;
  try {
    sweep_result = sweep::run(sweep_spec, sweep_opts);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tightness_conjecture: %s\n", error.what());
    return 1;
  }

  std::vector<double> fit_ds, medians;
  for (std::size_t i = 0; i < sweep_result.cells.size(); ++i) {
    const auto& stats = sweep_result.cells[i];
    meter.add(stats);
    const double d = ds[i];
    if (stats.rounds.median > 0) {
      fit_ds.push_back(d);
      medians.push_back(stats.rounds.median);
    }
    sweep_table.add_row(
        {support::table::num(static_cast<long long>(d)),
         support::table::num(stats.rounds.median, 0),
         support::table::num(stats.rounds.mean, 1),
         support::table::num(stats.rounds.q95, 0),
         support::table::num(stats.rounds.median / (d * d), 3),
         std::to_string(left_wins[i]) + "/" +
             std::to_string(stats.trials)});
  }
  const auto fit = medians.size() >= 2 ? support::fit_loglog(fit_ds, medians)
                                       : support::linear_fit{};
  std::printf("%s", sweep_table.to_string().c_str());
  const std::string sweep_note =
      sweep::describe_result(sweep_result, sweep_opts);
  if (!sweep_note.empty()) std::printf("%s", sweep_note.c_str());
  std::printf("log-log slope of median elimination time vs D: %.2f "
              "(R^2 %.3f)\n",
              fit.slope, fit.r_squared);
  std::printf("conjecture: ~2 (random-walk meeting point); survivor split "
              "should hover around 50%%.\n");

  // --- Part 2: is the meeting point actually a random walk? ---------------
  // Wave provenance tracking colors every beep by its side of origin
  // and records each wave crash. If the paper's heuristic is right,
  // the crash-position sequence diffuses: mean squared displacement
  // ~ linear in lag, with near-zero mean drift.
  std::printf("\nPart 2 - the meeting point under the microscope "
              "(path(97), aggregated over trials)\n");
  std::vector<double> all_lags, all_msd;
  support::table msd_table({"lag", "MSD", "MSD/lag"});
  {
    const std::size_t n = 97;
    const auto g = graph::make_path(n);
    constexpr std::size_t max_lag = 12;
    std::vector<double> msd_sum(max_lag + 1, 0.0);
    std::vector<std::size_t> msd_count(max_lag + 1, 0);
    double drift_sum = 0.0;
    std::size_t drift_count = 0;
    struct microscope_trial {
      std::vector<double> msd;
      std::size_t crashes = 0;
      double drift_sum = 0.0;
      std::size_t drift_count = 0;
      std::uint64_t rounds = 0;
    };
    const auto runs = analysis::map_trials(
        trials, seed * 977, threads,
        [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
          const core::bfw_machine machine(0.5);
          beeping::fsm_protocol proto(machine);
          beeping::engine sim(g, proto, trial_seed);
          proto.set_states(core::two_leaders_at_path_ends(n));
          sim.restart_from_protocol();
          analysis::wave_crash_tracker tracker(proto);
          sim.add_observer(&tracker);
          (void)sim.run_until_single_leader(4000000);

          const auto& crashes = tracker.crashes();
          microscope_trial result;
          result.msd = analysis::mean_squared_displacement(crashes, max_lag);
          result.crashes = crashes.size();
          for (std::size_t i = 1; i < crashes.size(); ++i) {
            result.drift_sum += crashes[i].position - crashes[i - 1].position;
            ++result.drift_count;
          }
          result.rounds = sim.round();
          return result;
        });
    for (const microscope_trial& run : runs) {
      meter.add_run(run.rounds);
      for (std::size_t lag = 1; lag <= max_lag; ++lag) {
        if (run.crashes > lag) {
          msd_sum[lag] += run.msd[lag];
          ++msd_count[lag];
        }
      }
      drift_sum += run.drift_sum;
      drift_count += run.drift_count;
    }
    for (std::size_t lag = 1; lag <= max_lag; ++lag) {
      if (msd_count[lag] == 0) continue;
      const double value = msd_sum[lag] / static_cast<double>(msd_count[lag]);
      all_lags.push_back(static_cast<double>(lag));
      all_msd.push_back(value);
      msd_table.add_row(
          {support::table::num(static_cast<long long>(lag)),
           support::table::num(value, 2),
           support::table::num(value / static_cast<double>(lag), 2)});
    }
    std::printf("%s", msd_table.to_string().c_str());
    const auto msd_fit = support::fit_linear(all_lags, all_msd);
    std::printf("MSD vs lag linear fit: slope %.2f, R^2 %.3f; mean drift "
                "per crash %.3f\n",
                msd_fit.slope, msd_fit.r_squared,
                drift_count ? drift_sum / static_cast<double>(drift_count)
                            : 0.0);
    std::printf("diffusive (linear-in-lag) MSD with ~zero drift = the "
                "random-walk picture behind the D^2 conjecture.\n");
  }
  std::printf("\n%s\n", meter.summary(threads).c_str());

  if (const auto csv = args.get("csv")) {
    if (support::write_text_file(*csv, sweep_table.to_csv())) {
      std::printf("\ncsv written to %s\n", csv->c_str());
    }
  }
  return 0;
}
