#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "analysis/recovery.hpp"
#include "analysis/wave_tracker.hpp"
#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/convergence.hpp"
#include "graph/generators.hpp"
#include "sweep/jsonl.hpp"

namespace perfbench {

namespace bk = beepkit;
using bk::analysis::instance;

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t bench_default) {
  return bench_default + 7919 * (run_seed - 1);  // unsigned wrap is fine
}

std::size_t worker_count() {
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, scale size,
                                        const std::string& run_dir) {
  if (name == "giant_grid") {
    return std::make_unique<giant_workload>(name, seed, size, run_dir);
  }
  if (name == "paper_sweep" || name == "tightness" || name == "faulted_sweep") {
    return std::make_unique<sweep_workload>(name, seed, size, run_dir);
  }
  return nullptr;
}

namespace {

engine_recipe bfw_recipe(double p) {
  return {[p] { return bk::core::bfw_machine(p); }, false};
}

// The fault_sweep tool's three plans, verbatim.
bk::core::fault_plan crash_burst_plan() {
  bk::core::fault_plan plan;
  plan.name = "crash_burst";
  plan.fault_seed = 7;
  plan.burst(48, 6, 32);
  plan.burst(160, 12, 48);
  return plan;
}

bk::core::fault_plan churn_plan() {
  bk::core::fault_plan plan;
  plan.name = "edge_churn";
  plan.fault_seed = 19;
  plan.churn(24, 2, 8, 120);
  return plan;
}

bk::core::fault_plan corrupt_plan() {
  bk::core::fault_plan plan;
  plan.name = "corrupt_rejoin";
  plan.fault_seed = 5;
  plan.crash(40, 1);
  plan.restart_as(90, 1, 1);
  plan.corrupt(140, 3);
  return plan;
}

constexpr std::size_t kMicroscopeNodes = 97;
constexpr std::size_t kMaxLag = 12;

}  // namespace

// ---- sweep workloads -----------------------------------------------------

void sweep_workload::add_cell(const instance& inst,
                              bk::analysis::algorithm algo, std::size_t trials,
                              std::uint64_t seed, std::uint64_t max_rounds,
                              engine_recipe recipe,
                              std::optional<bk::core::fault_plan> faults) {
  cells_.push_back({{&inst, std::move(algo), trials, seed, max_rounds},
                    std::move(recipe), std::move(faults)});
}

double sweep_workload::setup() {
  const bool full = scale_ == scale::full;
  const auto start = clock_type::now();
  if (name_ == "paper_sweep") {
    // table1_comparison's cells, then thm2_uniform_scaling's.
    const std::size_t n = full ? 64 : 16;
    const std::size_t trials = full ? 100 : 2;
    const std::uint64_t seed1 = derive_seed(seed_, 1);
    bk::support::rng graph_rng(seed1 ^ 0x61);
    const std::size_t table1_begin = instances_.size();
    instances_.push_back(bk::analysis::make_instance(bk::graph::make_path(n)));
    instances_.push_back(bk::analysis::make_instance(bk::graph::make_cycle(n)));
    instances_.push_back(
        bk::analysis::make_instance(bk::graph::make_grid(8, n / 8)));
    instances_.push_back(bk::analysis::make_instance(
        bk::graph::make_erdos_renyi_connected(
            n, 6.0 / static_cast<double>(n), graph_rng)));
    instances_.push_back(
        bk::analysis::make_instance(bk::graph::make_complete(n)));
    for (std::size_t i = table1_begin; i < instances_.size(); ++i) {
      const instance& inst = instances_[i];
      const std::uint32_t d = inst.diameter;
      const auto horizon = 8 * bk::core::default_horizon(inst.g, d);
      add_cell(inst, bk::analysis::make_id_broadcast(d), trials, seed1 + 17,
               horizon, {});
      add_cell(inst, bk::analysis::make_bfw_known_diameter(d), trials,
               seed1 + 17, horizon,
               {[d] { return bk::core::make_known_diameter_bfw(d); }, false});
      add_cell(inst, bk::analysis::make_bfw(0.5), trials, seed1 + 17, horizon,
               bfw_recipe(0.5));
      if (d <= 1) {
        add_cell(inst, bk::analysis::make_clique_lottery(0.01), trials,
                 seed1 + 17, horizon, {});
      }
    }
    const std::uint64_t seed2 = derive_seed(seed_, 2);
    const std::uint32_t max_d = full ? 64 : 8;
    for (std::uint32_t d = 4; d <= max_d; d *= 2) {
      instances_.push_back(
          bk::analysis::make_instance(bk::graph::make_path(d + 1)));
      const instance& inst = instances_.back();
      add_cell(inst, bk::analysis::make_bfw(0.5), trials, seed2,
               16 * bk::core::default_horizon(inst.g, inst.diameter),
               bfw_recipe(0.5));
    }
    const std::size_t max_star = full ? 2048 : 64;
    for (std::size_t stars = 16; stars <= max_star; stars *= 4) {
      instances_.push_back(
          bk::analysis::make_instance(bk::graph::make_star(stars)));
      const instance& inst = instances_.back();
      add_cell(inst, bk::analysis::make_bfw(0.5), trials, seed2 + 1,
               16 * bk::core::default_horizon(inst.g, inst.diameter),
               bfw_recipe(0.5));
    }
    instances_.push_back(bk::analysis::make_instance(bk::graph::make_grid(8, 8)));
    const instance& grid = instances_.back();
    for (const double p : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9}) {
      add_cell(grid, bk::analysis::make_bfw(p), trials, seed2 + 2,
               16 * bk::core::default_horizon(grid.g, grid.diameter),
               bfw_recipe(p));
    }
  } else if (name_ == "tightness") {
    // tightness_conjecture: part 1 cells plus the part 2 microscope.
    const std::size_t trials = full ? 160 : 2;
    const std::uint32_t max_d = full ? 128 : 16;
    const std::uint64_t seed4 = derive_seed(seed_, 4);
    const bk::analysis::algorithm two_leader_algo{
        "BFW(p=0.5, two leaders at path ends)",
        [](const bk::graph::topology_view& view, std::uint64_t trial_seed,
           std::uint64_t max_rounds) {
          return bk::core::run_bfw_election_from(
              view, 0.5, bk::core::two_leaders_at_path_ends(view.node_count()),
              trial_seed, max_rounds);
        }};
    engine_recipe recipe = bfw_recipe(0.5);
    recipe.two_leaders = true;
    for (std::uint32_t d = 8; d <= max_d; d *= 2) {
      const std::size_t n = d + 1;
      instances_.push_back(bk::analysis::make_instance(bk::graph::make_path(n)));
      const auto horizon = 64ULL * d * d *
                           (4 + static_cast<std::uint64_t>(std::log2(n)));
      add_cell(instances_.back(), two_leader_algo, trials, seed4 * 131 + d,
               horizon, recipe);
    }
    microscope_trials_ = full ? 200 : 2;  // 1000 trials per pass in all
    microscope_seed_ = seed4 * 977;
  } else if (name_ == "faulted_sweep") {
    const std::size_t trials = full ? 1000 : 4;
    const std::uint64_t seed11 = derive_seed(seed_, 11);
    const auto add = [&](bk::graph::graph g, bk::core::fault_plan plan,
                         std::uint64_t horizon_scale) {
      instances_.push_back(bk::analysis::make_instance(std::move(g)));
      const instance& inst = instances_.back();
      auto algo = bk::analysis::make_faulted_bfw(0.5, plan);
      add_cell(inst, std::move(algo), trials, seed11,
               horizon_scale * bk::core::default_horizon(inst.g, inst.diameter),
               bfw_recipe(0.5), std::move(plan));
    };
    add(bk::graph::make_path(65), crash_burst_plan(), 16);
    add(bk::graph::make_grid(8, 8), crash_burst_plan(), 16);
    add(bk::graph::make_grid(8, 8), churn_plan(), 1);
    add(bk::graph::make_star(64), corrupt_plan(), 16);
    shards_ = 3;
    merge_in_pass_ = true;
  } else {
    throw std::invalid_argument("unknown sweep workload " + name_);
  }
  left_wins_.assign(cells_.size(), 0);
  return seconds_since(start);
}

std::uint64_t sweep_workload::pass_shift(std::uint64_t pass) {
  return pass * 0x9E3779B97F4A7C15ULL;  // pass 0 keeps the bench seeds
}

std::vector<bk::analysis::matrix_cell> sweep_workload::pass_cells(
    std::uint64_t pass) const {
  std::vector<bk::analysis::matrix_cell> cells;
  cells.reserve(cells_.size());
  for (const cell& c : cells_) {
    cells.push_back(c.base);
    cells.back().seed += pass_shift(pass);
  }
  return cells;
}

std::vector<std::string> sweep_workload::shard_paths() const {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < shards_; ++i) {
    paths.push_back(path("shard" + std::to_string(i) + ".jsonl"));
  }
  return paths;
}

std::vector<bk::analysis::trial_stats> sweep_workload::merged_stats() const {
  const auto paths = shard_paths();
  const auto merged = bk::sweep::merge_shards(paths);
  std::vector<bk::analysis::trial_stats> stats;
  for (const auto& cell : merged.cells) stats.push_back(cell.stats);
  return stats;
}

double sweep_workload::run_microscope(bool attach_tracker, std::size_t trials,
                                      digest* d, std::uint64_t pass) {
  struct microscope_trial {
    std::vector<double> msd;
    std::size_t crashes = 0;
    double drift_sum = 0.0;
    std::uint64_t rounds = 0;
  };
  const auto g = bk::graph::make_path(kMicroscopeNodes);
  const auto start = clock_type::now();
  const auto runs = bk::analysis::map_trials(
      trials, microscope_seed_ + pass_shift(pass), workers,
      [&](std::size_t, std::uint64_t trial_seed) {
        const auto trial_start = clock_type::now();
        const bk::core::bfw_machine machine(0.5);
        bk::beeping::fsm_protocol proto(machine);
        bk::beeping::engine sim(g, proto, trial_seed);
        proto.set_states(bk::core::two_leaders_at_path_ends(kMicroscopeNodes));
        sim.restart_from_protocol();
        microscope_trial result;
        if (attach_tracker) {
          bk::analysis::wave_crash_tracker tracker(proto);
          sim.add_observer(&tracker);
          (void)sim.run_until_single_leader(4000000);
          const auto& crashes = tracker.crashes();
          result.msd = bk::analysis::mean_squared_displacement(crashes, kMaxLag);
          result.crashes = crashes.size();
          for (std::size_t i = 1; i < crashes.size(); ++i) {
            result.drift_sum += crashes[i].position - crashes[i - 1].position;
          }
        } else {
          (void)sim.run_until_single_leader(4000000);
        }
        result.rounds = sim.round();
        log_.record(seconds_since(trial_start),
                    static_cast<double>(kMicroscopeNodes) *
                        static_cast<double>(result.rounds));
        return result;
      });
  const double seconds = seconds_since(start);
  if (d != nullptr) {
    for (const microscope_trial& run : runs) {
      d->add(run.rounds);
      d->add(static_cast<std::uint64_t>(run.crashes));
      d->add(run.drift_sum);
      for (const double v : run.msd) d->add(v);
    }
  }
  return seconds;
}

pass_stats sweep_workload::run_pass(std::uint64_t pass) {
  pass_stats out;
  std::vector<bk::analysis::matrix_cell> cells = pass_cells(pass);
  for (auto& c : cells) c.algo = timed(std::move(c.algo), log_);
  const bk::sweep::spec spec{name_, std::move(cells)};
  const double rounds_before = log_.node_rounds();
  const double busy_before = log_.busy_seconds();
  const auto paths = shard_paths();
  last_pass_ = pass;
  const auto start = clock_type::now();
  try {
    std::fill(left_wins_.begin(), left_wins_.end(), 0);
    bk::sweep::options opts;
    opts.threads = workers;
    if (microscope_trials_ > 0) {
      opts.on_trial = [this](const bk::sweep::unit& u,
                             const bk::core::election_outcome& outcome) {
        if (outcome.converged && outcome.leader == 0) ++left_wins_[u.cell];
      };
    }
    std::vector<bk::analysis::trial_stats> stats;
    for (std::size_t i = 0; i < shards_; ++i) {
      opts.shard = {i, shards_};
      opts.jsonl_path = write_jsonl ? paths[i] : std::string{};
      auto result = bk::sweep::run(spec, opts);
      out.trials += result.units_run;
      stats = std::move(result.cells);
    }
    if (merge_in_pass_ && write_jsonl) stats = merged_stats();
    digest sweep_part;
    add_stats(sweep_part, stats);
    for (const std::size_t wins : left_wins_) {
      sweep_part.add(static_cast<std::uint64_t>(wins));
    }
    out.digest = sweep_part.hex();
    if (microscope_trials_ > 0) {
      digest microscope_part;
      run_microscope(true, microscope_trials_, &microscope_part, pass);
      out.trials += microscope_trials_;
      out.digest += microscope_part.hex();
    }
    out.wall_s = seconds_since(start);
  } catch (const std::exception& error) {
    out.wall_s = seconds_since(start);
    out.digest.clear();
    out.error = error.what();
  }
  out.node_rounds = log_.node_rounds() - rounds_before;
  out.busy_s = log_.busy_seconds() - busy_before;
  return out;
}

std::string sweep_workload::check_pass(const pass_stats& last) {
  digest d;
  if (merge_in_pass_) {
    // The pass digested the JSONL merge; recompute in process.
    bk::sweep::options opts;
    opts.threads = workers;
    add_stats(d, bk::sweep::run({name_, pass_cells(last_pass_)}, opts).cells);
    for (std::size_t i = 0; i < cells_.size(); ++i) d.add(std::uint64_t{0});
  } else {
    // The pass digested the in-process aggregates; recompute from its
    // JSONL records (merge, plus the survivor side of each record).
    add_stats(d, merged_stats());
    std::vector<std::uint64_t> wins(cells_.size(), 0);
    for (const auto& path : shard_paths()) {
      for (const auto& rec : bk::sweep::read_shard_file(path).trials) {
        if (microscope_trials_ > 0 && rec.converged && rec.leader == 0) {
          ++wins[rec.cell];
        }
      }
    }
    for (const std::uint64_t w : wins) d.add(w);
  }
  if (last.digest.compare(0, 16, d.hex()) == 0) return {};
  return name_ + ": pass " + std::to_string(last_pass_) + " digest " +
         last.digest.substr(0, 16) + " differs from the recomputed " + d.hex();
}

std::string sweep_workload::final_check(const pass_stats& first) {
  if (microscope_trials_ == 0) return {};
  // The microscope of pass 0 again, serially.
  const std::size_t saved = workers;
  workers = 1;
  digest d;
  run_microscope(true, microscope_trials_, &d, 0);
  workers = saved;
  if (first.digest.compare(16, std::string::npos, d.hex()) == 0) return {};
  return name_ + ": microscope digest " + first.digest.substr(16) +
         " differs from the serial " + d.hex();
}

std::vector<probe_instance> sweep_workload::probe_instances() {
  std::vector<probe_instance> out;
  std::vector<const instance*> seen;
  for (const cell& c : cells_) {
    if (!c.recipe.machine) continue;
    // One probe per instance, except fault plans: each plan is its own.
    const bool repeat = std::find(seen.begin(), seen.end(), c.base.inst) !=
                        seen.end();
    if (repeat && !c.faults.has_value()) continue;
    seen.push_back(c.base.inst);
    out.push_back({c.base.inst->view(), c.recipe, c.faults, c.base.max_rounds,
                   false});
  }
  return out;
}

// ---- giant workload ------------------------------------------------------

double giant_workload::setup() {
  const bool full = scale_ == scale::full;
  const std::size_t side = full ? 8192 : 512;
  rounds_ = full ? 24 : 8;
  threads_ = worker_count();
  trial_seed_ = derive_seed(seed_, 1);
  const auto start = clock_type::now();
  view_ = bk::graph::topology_view::implicit(
      {bk::graph::topology::kind::grid, side, side});
  const double build_s = seconds_since(start);
  // Arena reservation + tile autotune, as the trial's own engine does.
  const bk::core::bfw_machine machine(0.5);
  bk::beeping::fsm_protocol proto(machine);
  bk::beeping::engine sim(view_, proto, trial_seed_, {},
                          bk::beeping::engine_config::giant());
  sim.set_parallelism(threads_, 0);
  arena_bytes_ = sim.arena_bytes_reserved();
  return build_s;
}

bk::core::giant_options giant_workload::pass_options(bool checkpoint) const {
  bk::core::giant_options options;
  options.stop_after_round = rounds_;
  options.threads = threads_;
  if (checkpoint) options.checkpoint_path = path("journal.jsonl");
  return options;
}

double giant_workload::run_trial(const bk::core::giant_options& options) {
  const bk::core::bfw_machine machine(0.5);
  const auto start = clock_type::now();
  const auto result =
      bk::core::run_giant_trial(view_, machine, trial_seed_, options);
  const double seconds = seconds_since(start);
  if (result.rounds != rounds_ || !result.stopped_early) {
    throw std::runtime_error("giant: trial stopped at round " +
                             std::to_string(result.rounds));
  }
  if (!options.checkpoint_path.empty()) {
    if (result.checkpoints_written != 1) {
      throw std::runtime_error("giant: expected exactly one checkpoint");
    }
    journal_bytes_ = std::filesystem::file_size(options.checkpoint_path);
    std::filesystem::remove(options.checkpoint_path);
  }
  digest d;
  d.add(result.rounds);
  d.add(static_cast<std::uint64_t>(result.leaders));
  d.add(result.draws);
  d.add(static_cast<std::uint64_t>(result.converged));
  last_digest_ = d.hex();
  return seconds;
}

pass_stats giant_workload::run_pass(std::uint64_t) {
  pass_stats out;
  out.trials = 1;
  try {
    out.wall_s = run_trial(pass_options(true));
    out.digest = last_digest_;
    out.busy_s = out.wall_s;
    out.node_rounds = static_cast<double>(view_.node_count()) *
                      static_cast<double>(rounds_);
    log_.record(out.wall_s, out.node_rounds);
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  return out;
}

std::string giant_workload::check_pass(const pass_stats&) { return {}; }

std::string giant_workload::final_check(const pass_stats& first) {
  // Same trial on one tile thread and without the journal: every
  // thread count must reproduce rounds, leaders and draws exactly.
  auto options = pass_options(false);
  options.threads = 1;
  (void)run_trial(options);
  if (last_digest_ == first.digest) return {};
  return "giant_grid: 1-thread digest " + last_digest_ +
         " differs from the pass digest " + first.digest;
}

std::vector<probe_instance> giant_workload::probe_instances() {
  return {{view_, bfw_recipe(0.5), std::nullopt, rounds_, true}};
}

}  // namespace perfbench
