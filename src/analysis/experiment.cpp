#include "analysis/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "baselines/clique_lottery.hpp"
#include "baselines/id_broadcast.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/algorithms.hpp"

namespace beepkit::analysis {

namespace {

/// One executed trial: the deterministic outcome plus its (timing-only)
/// duration.
struct trial_record {
  core::election_outcome outcome;
  double seconds = 0.0;
};

trial_record execute_trial(const graph::topology_view& view,
                           const algorithm& algo, std::uint64_t trial_seed,
                           std::uint64_t max_rounds) {
  const auto start = std::chrono::steady_clock::now();
  trial_record record;
  record.outcome = algo.run(view, trial_seed, max_rounds);
  record.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return record;
}

/// Folds per-trial records in trial order through the shared
/// aggregate_trial_points arithmetic, then adds the timing fields
/// (which are never part of the reproducibility contract).
trial_stats aggregate(const graph::topology_view& view, std::uint32_t diameter,
                      const algorithm& algo,
                      std::span<const trial_record> records,
                      std::uint64_t max_rounds) {
  std::vector<trial_point> points;
  points.reserve(records.size());
  for (const trial_record& record : records) {
    points.push_back({record.outcome.rounds, record.outcome.converged,
                      record.outcome.total_coins});
  }
  trial_stats stats = aggregate_trial_points(
      {algo.name, view.name(), view.node_count(), diameter}, points,
      max_rounds);
  for (const trial_record& record : records) {
    stats.busy_seconds += record.seconds;
  }
  return stats;
}

core::election_outcome run_protocol(const graph::topology_view& view,
                                    beeping::protocol& proto,
                                    std::uint64_t seed,
                                    std::uint64_t max_rounds) {
  beeping::engine sim(view, proto, seed);
  return core::finish_election(sim, sim.run_until_single_leader(max_rounds));
}

}  // namespace

trial_stats aggregate_trial_points(const cell_meta& meta,
                                   std::span<const trial_point> points,
                                   std::uint64_t max_rounds) {
  // The exact arithmetic of the historical serial loop: any change to
  // operation order here silently breaks the shard-merge bit-identity
  // contract (tests/test_sweep.cpp pins it).
  trial_stats stats;
  stats.algorithm_name = meta.algorithm_name;
  stats.graph_name = meta.graph_name;
  stats.node_count = meta.node_count;
  stats.diameter = meta.diameter;
  stats.trials = points.size();

  std::vector<double> rounds;
  rounds.reserve(points.size());
  double coin_rate_sum = 0.0;
  for (const trial_point& point : points) {
    if (point.converged) ++stats.converged;
    const double r =
        static_cast<double>(point.converged ? point.rounds : max_rounds);
    rounds.push_back(r);
    const double node_rounds =
        static_cast<double>(meta.node_count) * std::max(1.0, r);
    coin_rate_sum += static_cast<double>(point.coins) / node_rounds;
    stats.total_rounds += point.rounds;
  }
  stats.rounds = support::summarize(rounds);
  stats.mean_coins_per_node_round =
      coin_rate_sum /
      static_cast<double>(std::max<std::size_t>(1, points.size()));
  return stats;
}

// The BFW machines are immutable, so each algorithm builds its machine
// once and every trial - on any worker - binds to that one instance.
algorithm make_bfw(double p) {
  std::ostringstream name;
  name << "BFW(p=" << p << ")";
  auto machine = std::make_shared<const core::bfw_machine>(p);
  return {name.str(),
          [machine](const graph::topology_view& view, std::uint64_t seed,
                    std::uint64_t max_rounds) {
            core::election_options options;
            options.max_rounds = max_rounds;
            return core::run_election(view, *machine, seed, options);
          }};
}

algorithm make_bfw_known_diameter(std::uint32_t diameter) {
  std::ostringstream name;
  name << "BFW(p=1/(D+1), D=" << diameter << ")";
  auto machine = std::make_shared<const core::bfw_machine>(
      core::make_known_diameter_bfw(diameter));
  return {name.str(),
          [machine](const graph::topology_view& view, std::uint64_t seed,
                    std::uint64_t max_rounds) {
            core::election_options options;
            options.max_rounds = max_rounds;
            return core::run_election(view, *machine, seed, options);
          }};
}

algorithm make_id_broadcast(std::uint32_t diameter) {
  std::ostringstream name;
  name << "IdBroadcast(D=" << diameter << ")";
  return {name.str(),
          [diameter](const graph::topology_view& view, std::uint64_t seed,
                     std::uint64_t max_rounds) {
            baselines::id_broadcast_election proto(diameter);
            return run_protocol(view, proto, seed, max_rounds);
          }};
}

algorithm make_clique_lottery(double epsilon) {
  std::ostringstream name;
  name << "CliqueLottery(eps=" << epsilon << ")";
  return {name.str(),
          [epsilon](const graph::topology_view& view, std::uint64_t seed,
                    std::uint64_t max_rounds) {
            baselines::clique_lottery proto(epsilon);
            return run_protocol(view, proto, seed, max_rounds);
          }};
}

trial_stats run_trials(const graph::topology_view& view,
                       std::uint32_t diameter, const algorithm& algo,
                       std::size_t trials, std::uint64_t seed,
                       std::uint64_t max_rounds, const run_options& opts) {
  const auto records = map_trials(
      trials, seed, opts.threads,
      [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
        return execute_trial(view, algo, trial_seed, max_rounds);
      });
  return aggregate(view, diameter, algo, records, max_rounds);
}

throughput_meter::throughput_meter()
    : start_(std::chrono::steady_clock::now()) {}

void throughput_meter::add(const trial_stats& stats) {
  trials_ += stats.trials;
  rounds_ += stats.total_rounds;
  busy_seconds_ += stats.busy_seconds;
}

std::string throughput_meter::summary(std::size_t threads) const {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::ostringstream out;
  out.precision(4);
  out << "throughput: ";
  if (wall > 0.0) {
    out << static_cast<double>(trials_) / wall << " trials/s, "
        << static_cast<double>(rounds_) / wall << " rounds/s";
  } else {
    out << "n/a";
  }
  out << " (" << trials_ << " trials, " << rounds_ << " rounds, ";
  out.precision(3);
  // add_run() has no per-trial timing, so busy time may be untracked.
  if (busy_seconds_ > 0.0) {
    out << busy_seconds_ << " s busy over ";
  }
  out << wall << " s wall, " << threads
      << (threads == 1 ? " thread)" : " threads)");
  return out.str();
}

instance make_instance(graph::graph g) {
  instance inst;
  const std::uint32_t diameter = g.node_count() <= exact_diameter_limit
                                     ? graph::diameter_exact(g)
                                     : graph::diameter_double_sweep(g);
  inst.g = std::move(g);
  inst.diameter = diameter;
  return inst;
}

instance make_implicit_instance(graph::topology topo, std::string name) {
  // The view validates the geometry (throws on zero-area shapes) and
  // resolves the default name; the diameter is the exact closed form,
  // so nothing here is O(n).
  const auto view = graph::topology_view::implicit(topo, std::move(name));
  instance inst;
  inst.diameter = view.formula_diameter();
  inst.implicit_topo = topo;
  inst.implicit_name = view.name();
  return inst;
}

}  // namespace beepkit::analysis
