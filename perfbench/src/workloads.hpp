// The four perfbench workloads. Each one builds its inputs from the
// run seed (setup), then repeats one fixed unit of work - a "pass" -
// whose outputs are digested and checked: the same seed always gives
// the same digest, pinned per seed in perfbench/pins.json.
//
//   paper_sweep    Table 1 + Theorem 2 cells through sweep::run + JSONL
//   tightness      two leaders at path ends (D = 8..128) + the path(97)
//                  microscope with wave_crash_tracker attached
//   giant_grid     one implicit grid BFW(1/2) trial through
//                  core::run_giant_trial, fixed rounds, one checkpoint
//   faulted_sweep  the fault_sweep cells as 3 JSONL shards + merge
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "common.hpp"
#include "core/bfw.hpp"
#include "core/faults.hpp"
#include "core/giant.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

enum class scale { full, tiny };

/// Sweep workers and giant tile threads: 4, capped at the hardware.
[[nodiscard]] std::size_t worker_count();

/// Maps the run seed onto a bench binary's default seed: seed 1 gives
/// the bench default itself, other seeds shift it deterministically.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t run_seed,
                                        std::uint64_t bench_default);

/// The BFW machine of a cell and whether its trials start from two
/// leaders at the path ends, so the layer probes can bind engines to
/// it. An empty `machine` marks a cell the probes cannot open up (the
/// ID-broadcast and lottery baselines).
struct engine_recipe {
  std::function<beepkit::core::bfw_machine()> machine;
  bool two_leaders = false;
};

/// One topology + BFW recipe the layer probes bind engines to.
struct probe_instance {
  beepkit::graph::topology_view view;
  engine_recipe recipe;
  std::optional<beepkit::core::fault_plan> faults;
  std::uint64_t max_rounds = 0;
  bool giant = false;  ///< plane-pinned giant engine (engine_config::giant)
};

/// One pass: its wall time, work, and the digest of its outputs
/// (empty when the pass threw; `error` says why).
struct pass_stats {
  double wall_s = 0.0;
  std::uint64_t trials = 0;
  double node_rounds = 0.0;
  double busy_s = 0.0;  ///< Sum of the pass's per-trial latencies.
  std::string digest;
  std::string error;
};

class workload {
 public:
  workload(std::string name, std::uint64_t seed, scale size,
           std::string run_dir)
      : name_(std::move(name)), seed_(seed), scale_(size),
        run_dir_(std::move(run_dir)) {}
  virtual ~workload() = default;
  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Generates graphs and instances; returns the seconds spent there
  /// (the graph.instance_build_s layer metric).
  virtual double setup() = 0;
  /// One fixed unit of work. Sweep passes draw fresh trial seeds per
  /// pass index (pass 0 keeps the bench seeds); giant passes repeat one
  /// trial.
  virtual pass_stats run_pass(std::uint64_t pass) = 0;
  /// Recomputes the digest of the pass just run by an independent route
  /// (JSONL merge vs in-process aggregates); "" when it agrees.
  virtual std::string check_pass(const pass_stats& last) = 0;
  /// The costlier recomputation of pass 0 for seeds without a pin (the
  /// serial microscope, the giant trial on one thread); "" when it agrees.
  virtual std::string final_check(const pass_stats& first) = 0;
  /// Whether every pass repeats the same trials (and digest).
  [[nodiscard]] virtual bool passes_repeat() const noexcept = 0;
  /// Topologies and recipes of this workload for the layer probes.
  [[nodiscard]] virtual std::vector<probe_instance> probe_instances() = 0;

  [[nodiscard]] trial_log& log() noexcept { return log_; }

 protected:
  [[nodiscard]] std::string path(const std::string& file) const {
    return run_dir_ + "/" + name_ + "." + file;
  }

  std::string name_;
  std::uint64_t seed_;
  scale scale_;
  std::string run_dir_;
  trial_log log_;
};

/// paper_sweep, tightness and faulted_sweep: cells on sweep::run.
class sweep_workload final : public workload {
 public:
  using workload::workload;

  double setup() override;
  pass_stats run_pass(std::uint64_t pass) override;
  std::string check_pass(const pass_stats& last) override;
  std::string final_check(const pass_stats& first) override;
  bool passes_repeat() const noexcept override { return false; }
  std::vector<probe_instance> probe_instances() override;

  /// Paired-run knobs (layer probes flip them; the timed passes use
  /// the defaults).
  std::size_t workers = worker_count();
  bool write_jsonl = true;

  [[nodiscard]] std::vector<std::string> shard_paths() const;
  [[nodiscard]] bool has_microscope() const noexcept {
    return microscope_trials_ > 0;
  }
  /// The tightness microscope: path(97) from two leaders at its ends,
  /// `trials` trials on `workers` threads, the tracker attached or not.
  /// Folds its crash statistics into `d` when given; returns seconds.
  double run_microscope(bool attach_tracker, std::size_t trials, digest* d,
                        std::uint64_t pass = 0);

 private:
  struct cell {
    beepkit::analysis::matrix_cell base;
    engine_recipe recipe;
    std::optional<beepkit::core::fault_plan> faults;
  };
  void add_cell(const beepkit::analysis::instance& inst,
                beepkit::analysis::algorithm algo, std::size_t trials,
                std::uint64_t seed, std::uint64_t max_rounds,
                engine_recipe recipe,
                std::optional<beepkit::core::fault_plan> faults = std::nullopt);
  [[nodiscard]] static std::uint64_t pass_shift(std::uint64_t pass);
  /// The cells with pass `pass`'s seeds and their own algorithms.
  [[nodiscard]] std::vector<beepkit::analysis::matrix_cell> pass_cells(
      std::uint64_t pass) const;
  /// Aggregates merged back from the shard files of the last pass.
  [[nodiscard]] std::vector<beepkit::analysis::trial_stats> merged_stats() const;

  std::deque<beepkit::analysis::instance> instances_;
  std::vector<cell> cells_;
  std::size_t shards_ = 1;
  bool merge_in_pass_ = false;
  std::size_t microscope_trials_ = 0;
  std::uint64_t microscope_seed_ = 0;
  std::vector<std::size_t> left_wins_;
  std::uint64_t last_pass_ = 0;
};

/// giant_grid: run_giant_trial at fixed rounds with one checkpoint.
class giant_workload final : public workload {
 public:
  using workload::workload;

  double setup() override;
  pass_stats run_pass(std::uint64_t pass) override;
  std::string check_pass(const pass_stats& last) override;
  std::string final_check(const pass_stats& first) override;
  bool passes_repeat() const noexcept override { return true; }
  std::vector<probe_instance> probe_instances() override;

  /// Options of one timed pass (checkpoint into the run directory).
  [[nodiscard]] beepkit::core::giant_options pass_options(bool checkpoint) const;
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] std::uint64_t trial_seed() const noexcept { return trial_seed_; }
  /// Plane arena plus the 4-byte lazy RNG cursor per node.
  [[nodiscard]] std::size_t working_set_bytes() const noexcept {
    return arena_bytes_ + 4 * view_.node_count();
  }
  /// Journal bytes of the most recent checkpointed pass.
  [[nodiscard]] std::uint64_t last_journal_bytes() const noexcept {
    return journal_bytes_;
  }
  /// Runs one trial with `options`; returns seconds.
  double run_trial(const beepkit::core::giant_options& options);

 private:
  beepkit::graph::topology_view view_;
  std::uint64_t rounds_ = 0;
  std::size_t threads_ = 4;
  std::uint64_t trial_seed_ = 0;
  std::size_t arena_bytes_ = 0;
  std::uint64_t journal_bytes_ = 0;
  std::string last_digest_;
};

/// Builds a workload by name (nullptr for an unknown name).
[[nodiscard]] std::unique_ptr<workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      scale size,
                                                      const std::string& run_dir);

}  // namespace perfbench
