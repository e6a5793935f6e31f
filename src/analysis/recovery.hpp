// Recovery-measurement harness: drives a fault_plan against one
// election trial and measures, per disruption epoch, how many rounds
// the protocol needs to re-reach a single-alive-leader configuration.
// This is the quantitative side of the paper's self-stabilization
// remark (Section 5): BFW's absorbing single-leader configuration is
// re-entered after crashes, rejoins and topology churn, and the
// harness reports how fast.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/convergence.hpp"
#include "core/faults.hpp"
#include "graph/view.hpp"
#include "support/telemetry.hpp"

namespace beepkit::analysis {

/// One disruption epoch: the run left (or started outside) the
/// single-alive-leader configuration at `fault_round` and re-entered
/// it `rounds_to_recover` rounds later (or hit the horizon,
/// recovered == false, with rounds_to_recover capped at the remaining
/// horizon).
struct recovery_point {
  std::uint64_t fault_round = 0;
  bool recovered = false;
  std::uint64_t rounds_to_recover = 0;
};

/// Everything one recovery trial reports. Deterministic in
/// (view, machine, seed, options) - same contract as
/// run_election, including bit-identical replay under any kernel,
/// tiling or thread count.
struct recovery_result {
  /// Epochs in time order. points[0] is initial convergence (from the
  /// start configuration); later points are fault-induced.
  std::vector<recovery_point> points;
  /// Distribution of rounds_to_recover over recovered epochs.
  support::telemetry::log2_histogram recovery_rounds;
  std::uint64_t faults_applied = 0;  ///< Individual fault actions fired.
  /// The final engine state folded exactly like a run_election trial.
  core::election_outcome outcome;

  [[nodiscard]] std::size_t epochs() const noexcept { return points.size(); }
  [[nodiscard]] std::size_t recovered_epochs() const noexcept {
    std::size_t count = 0;
    for (const recovery_point& point : points) count += point.recovered ? 1 : 0;
    return count;
  }
};

/// Runs one election under `options.faults` (nullptr: no plan) and
/// measures every disruption epoch. The trial is bound by
/// core::election_trial from the same options run_election takes, so
/// with no plan and no scheduler the single epoch's
/// rounds_to_recover and the final outcome are run_election's. When
/// telemetry is compiled in and enabled, folds a "recovery_rounds"
/// histogram plus recovery_epochs_total / recovery_unrecovered_total
/// counters into the global registry (probe-only: numbers never
/// change).
[[nodiscard]] recovery_result measure_recovery(
    const graph::topology_view& view, const beeping::state_machine& machine,
    std::uint64_t seed, const core::election_options& options = {});

/// BFW with parameter `p` under `plan`, packaged as a named algorithm
/// so faulted cells drop into the sweep/shard/JSONL/merge machinery
/// unchanged (the plan is captured by value; trials stay deterministic
/// in (topology, seed)). `exec` sets the intra-trial tile/thread
/// configuration - never a number, only wall clock - and is recorded
/// in each trial's JSONL exec audit fields.
[[nodiscard]] algorithm make_faulted_bfw(double p, core::fault_plan plan,
                                         core::engine_exec exec = {});

}  // namespace beepkit::analysis
