// Experiment harness: named election algorithms behind one facade,
// multi-trial runners with seed discipline, and the aggregates the
// bench binaries print. Every binary in bench/ is a thin driver over
// this module, so the Table-1 comparison, the Theorem-2/3 sweeps and
// the Section-5 experiments all share trial mechanics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/convergence.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"

namespace beepkit::analysis {

/// A named, self-contained election algorithm. `run` executes one
/// trial; it must be deterministic in (topology, seed). Takes a
/// topology view so the same algorithm serves materialized graphs and
/// implicit tagged topologies (graphs convert implicitly at the call
/// site).
struct algorithm {
  std::string name;
  std::function<core::election_outcome(const graph::topology_view& view,
                                       std::uint64_t seed,
                                       std::uint64_t max_rounds)>
      run;
};

/// BFW with fixed p (the paper's uniform protocol; Theorem 2).
[[nodiscard]] algorithm make_bfw(double p);

/// BFW with p = 1/(D+1) (Theorem 3; D must upper-bound the diameter).
[[nodiscard]] algorithm make_bfw_known_diameter(std::uint32_t diameter);

/// Unique-ID beep-wave broadcast baseline (Table 1 class [14]/[11]).
[[nodiscard]] algorithm make_id_broadcast(std::uint32_t diameter);

/// Clique lottery baseline (Table 1 class [17]); clique-only.
[[nodiscard]] algorithm make_clique_lottery(double epsilon);

/// Aggregates over a batch of trials of one algorithm on one graph.
struct trial_stats {
  std::string algorithm_name;
  std::string graph_name;
  std::size_t node_count = 0;
  std::uint32_t diameter = 0;
  std::size_t trials = 0;
  std::size_t converged = 0;
  support::summary rounds;       ///< Convergence rounds (horizon-capped).
  double mean_coins_per_node_round = 0.0;  ///< Fair-coin rate (E10).
  // Throughput accounting (timing only - never part of the
  // reproducibility contract; everything above is bit-identical for a
  // given root seed regardless of thread count). Rates are derived at
  // the display layer (throughput_meter) from wall time, where they
  // reflect the parallelism actually delivered.
  std::uint64_t total_rounds = 0;  ///< Simulated rounds across all trials.
  double busy_seconds = 0.0;       ///< Sum of per-trial durations.
};

/// The deterministic per-trial quantities that feed the aggregates -
/// exactly the payload of one sweep JSONL trial record. Everything in
/// trial_stats except the timing fields is a pure function of a
/// cell's trial points folded in trial order.
struct trial_point {
  std::uint64_t rounds = 0;
  bool converged = false;
  std::uint64_t coins = 0;
};

/// Identity of one (graph, algorithm) cell, decoupled from the live
/// graph/algorithm objects so that a merge tool can rebuild aggregates
/// from records alone.
struct cell_meta {
  std::string algorithm_name;
  std::string graph_name;
  std::size_t node_count = 0;
  std::uint32_t diameter = 0;
};

/// Folds trial points in index order - the exact arithmetic of the
/// historical serial loop. run_trials, the sweep shard executor and
/// sweep_merge all share this fold; that single code path is what
/// makes an N-shard merge bit-identical to a serial run.
/// (busy_seconds is timing-only and stays zero here.)
[[nodiscard]] trial_stats aggregate_trial_points(
    const cell_meta& meta, std::span<const trial_point> points,
    std::uint64_t max_rounds);

/// Execution knobs for the trial runners. `threads == 1` runs inline
/// on the calling thread (the reference serial path); `threads == 0`
/// uses one worker per hardware thread.
struct run_options {
  std::size_t threads = 1;
};

/// Runs `trials` independent elections (seeds derived from `seed`).
///
/// Reproducibility contract: every statistical field of the result is
/// bit-identical for a given (view, algo, trials, seed, max_rounds)
/// regardless of `opts.threads`. Per-trial seeds are derived serially
/// up front, each trial is deterministic in (topology, seed) with its
/// own generators, and aggregation happens in trial order after the
/// join barrier (coin counts included - no shared mutable accounting).
[[nodiscard]] trial_stats run_trials(const graph::topology_view& view,
                                     std::uint32_t diameter,
                                     const algorithm& algo,
                                     std::size_t trials, std::uint64_t seed,
                                     std::uint64_t max_rounds,
                                     const run_options& opts = {});

/// A (topology, diameter) test instance; diameter is computed once.
/// Two flavors: explicit (owns a materialized graph, the historical
/// form) and implicit (carries only a geometry tag; `g` stays empty
/// and nothing O(n) is ever allocated). Either way, view() is the
/// handle trials bind to; the view borrows from this instance, which
/// must outlive it.
struct instance {
  graph::graph g;               ///< empty for implicit instances
  std::uint32_t diameter = 0;
  std::optional<graph::topology> implicit_topo;  ///< set iff implicit
  std::string implicit_name;

  [[nodiscard]] bool is_implicit() const noexcept {
    return implicit_topo.has_value();
  }
  [[nodiscard]] graph::topology_view view() const {
    return is_implicit()
               ? graph::topology_view::implicit(*implicit_topo, implicit_name)
               : graph::topology_view(g);
  }
  [[nodiscard]] std::size_t node_count() const {
    return is_implicit() ? view().node_count() : g.node_count();
  }
  [[nodiscard]] std::string name() const {
    return is_implicit() ? view().name() : g.name();
  }
};

/// Computes the diameter (exact up to `exact_limit` nodes, double-sweep
/// beyond) and bundles it with the graph.
[[nodiscard]] instance make_instance(graph::graph g,
                                     std::size_t exact_limit = 4096);

/// Implicit-instance counterpart: geometry tag only, diameter from the
/// closed-form formula, no adjacency ever materialized. This is how
/// sweeps and benches put 10^8-node topologies in a matrix without
/// paying O(n) memory per instance.
[[nodiscard]] instance make_implicit_instance(graph::topology topo,
                                              std::string name = {});

/// One (instance, algorithm) cell of an experiment matrix. `inst` is
/// non-owning and must outlive the sweep::run call.
struct matrix_cell {
  const instance* inst = nullptr;
  algorithm algo;
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  std::uint64_t max_rounds = 0;
};

/// Derives one seed per trial from `seed` - the exact sequence
/// `support::rng(seed).next_u64()` that the serial bench loops use -
/// and maps fn(trial_index, trial_seed) across `threads` workers.
/// Results come back in trial order, so any order-dependent
/// aggregation done by the caller matches the serial loop bit for bit.
/// Fn must be safe to call concurrently for distinct trials (own your
/// generators; see support/parallel.hpp).
template <typename Fn>
[[nodiscard]] auto map_trials(std::size_t trials, std::uint64_t seed,
                              std::size_t threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t, std::uint64_t>> {
  using result_type = std::invoke_result_t<Fn&, std::size_t, std::uint64_t>;
  std::vector<std::uint64_t> seeds(trials);
  support::rng seeder(seed);
  for (auto& trial_seed : seeds) {
    trial_seed = seeder.next_u64();
  }
  std::vector<result_type> results(trials);
  support::parallel_for(trials, threads, [&](std::size_t trial) {
    results[trial] = fn(trial, seeds[trial]);
  });
  return results;
}

/// Accumulates the timing fields of trial_stats batches and renders
/// the one-line throughput summary the bench binaries print, e.g.
/// "throughput: 812.5 trials/s, 1.42e+06 rounds/s (96 trials, ...)".
/// Rates use wall time from construction to summary(), so they reflect
/// the speedup actually delivered by `threads` workers.
class throughput_meter {
 public:
  throughput_meter();

  void add(const trial_stats& stats);

  /// For bespoke trial loops that bypass run_trials: one simulation of
  /// `rounds` rounds. Per-run rounds also feed the shared
  /// support::telemetry::log2_histogram, so summary() can report the
  /// run-length distribution (p50/p90/p99) alongside the rates.
  void add_run(std::uint64_t rounds) noexcept {
    ++trials_;
    rounds_ += rounds;
    run_rounds_.record(rounds);
  }

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// Distribution of per-run rounds (populated by add_run only;
  /// add() folds pre-aggregated batches and cannot recover per-trial
  /// values).
  [[nodiscard]] const support::telemetry::log2_histogram& run_rounds()
      const noexcept {
    return run_rounds_;
  }

  [[nodiscard]] std::string summary(std::size_t threads) const;

 private:
  std::size_t trials_ = 0;
  std::uint64_t rounds_ = 0;
  double busy_seconds_ = 0.0;
  support::telemetry::log2_histogram run_rounds_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace beepkit::analysis
