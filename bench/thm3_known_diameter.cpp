// E4 - Theorem 3: with p = 1/(D+1), BFW elects in O(D log n) rounds -
// a factor-~D speedup over the uniform protocol, at the price of
// knowing (a constant-factor approximation of) D.
//
// Sweeps paths of growing diameter under both parameterizations and
// reports the crossover factor; also checks the robustness remark by
// running with 2x over/underestimates of D.
//
//   ./build/bench/thm3_known_diameter [--trials 15] [--seed 3]
//                                     [--max-d 128] [--threads 0]
//                                     [--csv out.csv]
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "thm3_known_diameter [flags]",
      {{"trials", "trials per cell (default 15)"},
       {"seed", "base seed (default 3)"},
       {"max-d", "largest diameter (default 128)"},
       {"csv", "also write the table to this CSV file"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 15));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  const auto max_d = static_cast<std::uint32_t>(args.get_int("max-d", 128));
  const std::size_t threads = args.get_threads();
  const analysis::run_options opts{threads};
  analysis::throughput_meter meter;

  std::printf("=== E4: Theorem 3 - O(D log n) with p = 1/(D+1) ===\n\n");

  support::table sweep({"D", "median p=1/2", "median p=1/(D+1)", "speedup",
                        "known-D median/D"});
  sweep.set_title("Paths: uniform vs known-diameter BFW");
  std::vector<double> ds, known_medians;
  for (std::uint32_t d = 8; d <= max_d; d *= 2) {
    const auto inst = analysis::make_instance(graph::make_path(d + 1));
    const auto horizon = 16 * core::default_horizon(inst.g, inst.diameter);
    const auto uniform = analysis::run_trials(inst.g, inst.diameter,
                                              analysis::make_bfw(0.5), trials,
                                              seed, horizon, opts);
    const auto known = analysis::run_trials(
        inst.g, inst.diameter, analysis::make_bfw_known_diameter(d), trials,
        seed, horizon, opts);
    meter.add(uniform);
    meter.add(known);
    ds.push_back(d);
    known_medians.push_back(known.rounds.median);
    sweep.add_row(
        {support::table::num(static_cast<long long>(d)),
         support::table::num(uniform.rounds.median, 0),
         support::table::num(known.rounds.median, 0),
         support::table::num(uniform.rounds.median /
                                 std::max(1.0, known.rounds.median), 1),
         support::table::num(known.rounds.median / static_cast<double>(d),
                             2)});
  }
  const auto fit = support::fit_loglog(ds, known_medians);
  std::printf("%s", sweep.to_string().c_str());
  std::printf("log-log slope of known-D median vs D: %.2f (R^2 %.3f) - "
              "paper predicts ~1 (+ log factor);\nspeedup should grow "
              "roughly linearly in D\n\n",
              fit.slope, fit.r_squared);

  // Robustness: a constant-factor approximation of D suffices.
  support::table approx({"assumed D", "true D", "conv", "median", "p95"});
  approx.set_title("Approximation remark - path(65), true D = 64");
  const auto inst = analysis::make_instance(graph::make_path(65));
  for (const std::uint32_t assumed : {16U, 32U, 64U, 128U, 256U}) {
    const auto stats = analysis::run_trials(
        inst.g, inst.diameter, analysis::make_bfw_known_diameter(assumed),
        trials, seed + 1, 32 * core::default_horizon(inst.g, inst.diameter),
        opts);
    meter.add(stats);
    approx.add_row({support::table::num(static_cast<long long>(assumed)),
                    "64",
                    std::to_string(stats.converged) + "/" +
                        std::to_string(stats.trials),
                    support::table::num(stats.rounds.median, 0),
                    support::table::num(stats.rounds.q95, 0)});
  }
  std::printf("%s", approx.to_string().c_str());
  std::printf("constant-factor mis-estimates shift the constant, not the "
              "convergence.\n");
  std::printf("\n%s\n", meter.summary(threads).c_str());

  if (const auto csv = args.get("csv")) {
    if (support::write_text_file(*csv, sweep.to_csv())) {
      std::printf("\ncsv written to %s\n", csv->c_str());
    }
  }
  return 0;
}
