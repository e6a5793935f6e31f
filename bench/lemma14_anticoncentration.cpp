// E6/E7 - the probabilistic engine room of Section 4:
//   Eq. (16)  stationary distribution pi = (1, p, p)/(2p+1)
//   Lemma 14  anti-concentration of the visit counts N_t(B)
//   tau ~ 2 + Geom(p) return times (proof of Lemma 14)
//   Var(N_t) = Theta(t) (the Jensen step of Lemma 14)
//   sigma_{u,v} (Eq. 17) divergence times scaling like Theta(D^2)
//             (Lemma 15/17's D^2 log n engine)
//
//   ./build/bench/lemma14_anticoncentration [--trials 4000] [--seed 7]
//                                           [--threads 0]
#include <cmath>
#include <cstdio>

#include "core/markov.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "lemma14_anticoncentration [flags]",
      {{"trials", "trials per cell (default 4000)"},
       {"seed", "base seed (default 7)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 4000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::size_t threads = args.get_threads();

  std::printf("=== E6/E7: Section 4 probabilistic toolkit ===\n\n");

  // --- Eq. (16): stationary distribution ----------------------------------
  support::table pi_table({"p", "pi_W (theory)", "pi_W (sim)", "pi_B (theory)",
                           "pi_B (sim)", "pi_F (theory)", "pi_F (sim)"});
  pi_table.set_title("Eq. (16) - occupation frequencies over 20000 rounds");
  for (const double p : {0.1, 0.25, 0.5, 0.75}) {
    core::leader_chain chain(p);
    support::rng rng(seed);
    std::array<std::uint64_t, 3> visits = {0, 0, 0};
    constexpr std::uint64_t t = 20000;
    for (std::uint64_t s = 0; s < t; ++s) {
      visits[static_cast<std::size_t>(chain.step(rng))] += 1;
    }
    const auto pi = core::chain_stationary(p);
    pi_table.add_row(
        {support::table::num(p, 2), support::table::num(pi[0], 4),
         support::table::num(static_cast<double>(visits[0]) / t, 4),
         support::table::num(pi[1], 4),
         support::table::num(static_cast<double>(visits[1]) / t, 4),
         support::table::num(pi[2], 4),
         support::table::num(static_cast<double>(visits[2]) / t, 4)});
  }
  std::printf("%s\n", pi_table.to_string().c_str());

  // --- Return times --------------------------------------------------------
  support::table tau_table({"p", "E[tau] theory = 2+1/p", "E[tau] sim",
                            "min", "P(tau=3) theory", "P(tau=3) sim"});
  tau_table.set_title("Return times to B: tau ~ 2 + Geom(p)");
  for (const double p : {0.25, 0.5, 0.75}) {
    const auto times = core::sample_return_times(p, trials * 4, seed + 1);
    support::running_stats acc;
    std::uint64_t atoms3 = 0;
    for (auto t : times) {
      acc.add(static_cast<double>(t));
      if (t == 3) ++atoms3;
    }
    tau_table.add_row(
        {support::table::num(p, 2), support::table::num(2.0 + 1.0 / p, 3),
         support::table::num(acc.mean(), 3),
         support::table::num(static_cast<long long>(acc.min())),
         support::table::num(p, 3),
         support::table::num(static_cast<double>(atoms3) /
                                 static_cast<double>(times.size()), 3)});
  }
  std::printf("%s\n", tau_table.to_string().c_str());

  // --- Variance growth ------------------------------------------------------
  support::table var_table({"t", "Var(N_t) sim", "Var/t",
                            "theory sigma^2 t / mu^3"});
  var_table.set_title("Var(N_t) = Theta(t) at p = 1/2 (Lemma 14's engine)");
  std::vector<double> ts, vars;
  for (const std::uint64_t t : {1000ULL, 4000ULL, 16000ULL}) {
    const auto counts = core::sample_visit_counts(0.5, t, trials, seed + 2);
    support::running_stats acc;
    for (auto c : counts) acc.add(static_cast<double>(c));
    ts.push_back(static_cast<double>(t));
    vars.push_back(acc.variance());
    // Renewal CLT: Var ~ sigma_tau^2 t / mu_tau^3 = 2t/64 at p = 1/2.
    var_table.add_row({support::table::num(static_cast<long long>(t)),
                       support::table::num(acc.variance(), 1),
                       support::table::num(acc.variance() /
                                               static_cast<double>(t), 4),
                       support::table::num(static_cast<double>(t) * 2 / 64,
                                           1)});
  }
  const auto var_fit = support::fit_loglog(ts, vars);
  std::printf("%s", var_table.to_string().c_str());
  std::printf("log-log slope of Var vs t: %.2f (linear growth expected)\n\n",
              var_fit.slope);

  // --- Anti-concentration ---------------------------------------------------
  support::table ac_table({"window", "sup_m P(|N_t - m| <= window)",
                           "1 - sup (the eps)"});
  ac_table.set_title("Lemma 14 / Theorem 13 - anti-concentration at t = "
                     "10000, p = 1/2, stationary start");
  const std::uint64_t t = 10000;
  const auto counts = core::sample_visit_counts(0.5, t, trials, seed + 3,
                                                true);
  support::running_stats acc;
  for (auto c : counts) acc.add(static_cast<double>(c));
  const double sd = acc.stddev();
  const struct {
    const char* label;
    double value;
  } windows[] = {
      {"0.5 sd", 0.5 * sd},
      {"1 sd", sd},
      {"2 sd", 2 * sd},
      {"sqrt(t) (~5.7 sd)", std::sqrt(static_cast<double>(t))},
  };
  for (const auto& w : windows) {
    const double sup = core::anti_concentration_sup(counts, w.value);
    ac_table.add_row({std::string(w.label) + " = " +
                          support::table::num(w.value, 1),
                      support::table::num(sup, 4),
                      support::table::num(1.0 - sup, 4)});
  }
  std::printf("%s", ac_table.to_string().c_str());
  std::printf("Lemma 14's bound is stated for the sqrt(t) window, where the "
              "true eps is\nbelow empirical resolution; the sd-scaled rows "
              "show the Theorem 13 mechanism\n(no window of width c*sd "
              "captures all the mass).\n\n");

  // --- Divergence times (Eq. 17) --------------------------------------------
  support::table div_table({"threshold d", "median sigma", "median/d^2"});
  div_table.set_title("sigma_{u,v}: first round two chains differ by > d "
                      "(Lemma 15 regime)");
  std::vector<double> ds, meds;
  support::rng div_rng(seed + 4);
  for (const std::uint64_t d : {4ULL, 8ULL, 16ULL, 32ULL}) {
    // Each trial owns a substream keyed by (d, trial), so the fan-out
    // is trivially deterministic in the root seed.
    std::vector<double> samples(400);
    support::parallel_for(samples.size(), threads, [&](std::size_t trial) {
      support::rng r = div_rng.substream(d * 10007 + trial);
      samples[trial] = static_cast<double>(
          core::sample_divergence_time(0.5, d, 4000000, r));
    });
    const double med = support::quantile(samples, 0.5);
    ds.push_back(static_cast<double>(d));
    meds.push_back(med);
    div_table.add_row({support::table::num(static_cast<long long>(d)),
                       support::table::num(med, 0),
                       support::table::num(med / (double(d) * d), 2)});
  }
  const auto div_fit = support::fit_loglog(ds, meds);
  std::printf("%s", div_table.to_string().c_str());
  std::printf("log-log slope of median sigma vs d: %.2f (the d^2 engine "
              "behind Theorem 2's D^2)\n",
              div_fit.slope);
  return 0;
}
