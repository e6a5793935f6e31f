// Streaming, shardable Monte-Carlo sweep subsystem.
//
// A sweep is a list of (instance, algorithm) cells - the same
// analysis::matrix_cell the bench binaries already build - executed as
// a lazily enumerated stream of (cell, trial) work units. Three ideas
// make it scale past a single process without ever changing a number:
//
//  * Work units have a cell-major *global index*, and per-trial seeds
//    are derived from each cell's root seed by the exact
//    `support::rng(seed).next_u64()` sequence run_trials uses. The
//    seed of unit g is therefore a pure function of the spec - never
//    of shard layout, thread count, or execution order.
//  * A shard is a (start, stride) slice: `--shard i/N` runs exactly
//    the units with global index congruent to i modulo N. Any
//    partition of {0..N-1} across processes or machines covers every
//    unit exactly once.
//  * Each executed trial streams one self-describing JSONL record
//    (plus periodic checkpoints), so shard outputs can be merged by
//    `sweep_merge` into the aggregates a serial run_trials per cell
//    would have produced - bit-for-bit, via the shared
//    analysis::aggregate_trial_points fold - and crashed runs resume
//    by skipping already-recorded units.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/convergence.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace beepkit::sweep {

/// A named sweep over matrix cells. Cell order defines the global unit
/// indexing, so it is part of the sweep's identity: reordering cells
/// reshuffles which shard runs which unit (but never changes seeds or
/// the merged statistics, which are keyed by cell).
struct spec {
  std::string name;
  std::vector<analysis::matrix_cell> cells;

  [[nodiscard]] std::uint64_t total_units() const noexcept;
};

/// One (cell, trial) work unit.
struct unit {
  std::size_t cell = 0;
  std::uint64_t trial = 0;   ///< Trial index within the cell.
  std::uint64_t global = 0;  ///< Cell-major index across the sweep.
  std::uint64_t seed = 0;    ///< Derived per-trial seed.
};

/// Lazy enumerator of one shard's units in global order. Nothing about
/// the sweep is materialized up front: memory is O(1) in the trial
/// count, so a 10^9-unit sweep streams as cheaply as a 10-unit one.
/// Seeds for units the shard skips are drawn and discarded (a few ns
/// each), which keeps the derivation identical to the serial run.
class work_source {
 public:
  work_source(const spec& s, support::shard_spec shard);

  /// Units in the full sweep, all shards together.
  [[nodiscard]] std::uint64_t total_units() const noexcept { return total_; }
  /// Units owned by this shard.
  [[nodiscard]] std::uint64_t shard_units() const noexcept { return owned_; }

  /// Next owned unit, nullopt when the shard is exhausted.
  [[nodiscard]] std::optional<unit> next();

 private:
  const spec* spec_;
  support::shard_spec shard_;
  std::uint64_t total_ = 0;
  std::uint64_t owned_ = 0;
  std::size_t cell_ = 0;
  std::uint64_t cell_base_ = 0;   // global index of trial 0 of cell_
  std::uint64_t next_trial_ = 0;  // next candidate trial within cell_
  std::uint64_t drawn_ = 0;       // seeds drawn so far within cell_
  support::rng seeder_{0};
};

/// Optional per-trial hook, invoked in global unit order (resumed
/// units included, with the outcome reconstructed from their record).
/// It may be called from any worker thread, but never concurrently:
/// calls are serialized, each one happens-after the previous one.
/// Benches use this for bespoke statistics the aggregates do not
/// carry, e.g. which endpoint survived in the tightness experiment.
using trial_hook =
    std::function<void(const unit&, const core::election_outcome&)>;

/// Execution knobs for one shard of a sweep.
struct options {
  std::size_t threads = 1;
  support::shard_spec shard{};
  std::string jsonl_path;  ///< Empty = no record stream.
  /// Fold and skip units already recorded in jsonl_path and its .tmp
  /// (crash recovery); the file is then rewritten whole (see run).
  bool resume = false;
  /// A checkpoint record follows exactly every this many folded units
  /// (0 = none), independent of the thread count.
  std::uint64_t checkpoint_every = 4096;
  trial_hook on_trial;
  /// Write a telemetry snapshot (support::telemetry JSON, plus a
  /// Prometheus text sibling at `<path>.prom`) when the shard finishes.
  std::string telemetry_path;
  /// Record Chrome trace_event spans (trial/checkpoint/engine rounds)
  /// and write them here when the shard finishes (Perfetto-loadable).
  std::string trace_path;
};

/// What one shard produced. `cells[i]` aggregates only this shard's
/// trials of cell i (for shard 0/1 that is the exact run_trials
/// result); merged cross-shard statistics come from sweep_merge.
struct shard_result {
  std::vector<analysis::trial_stats> cells;
  std::uint64_t units_run = 0;
  std::uint64_t units_resumed = 0;
  std::uint64_t units_total = 0;  ///< Full sweep, all shards.
};

/// Runs one shard of the sweep, streaming records to
/// `opts.jsonl_path` (if set) and aggregating shard-locally.
///
/// Reproducibility contract: the statistical fields of the merged
/// per-cell aggregates over any disjoint covering set of shards are
/// bit-identical to run_trials on each cell, for any thread
/// count. Throws std::runtime_error when the record stream cannot be
/// written, or when a resume file or its .tmp is malformed or belongs
/// to another sweep, spec or --shard layout (left untouched then).
[[nodiscard]] shard_result run(const spec& s, const options& opts = {});

/// Builds options from the standard bench flags: `--threads`,
/// `--shard i/N`, `--jsonl path`, `--resume`, `--telemetry path`,
/// `--trace path`. Benches layer their bespoke hooks on top.
[[nodiscard]] options options_from_cli(const support::cli& args);

/// A sweep bench's flag declaration: its own flags followed by the
/// standard ones options_from_cli reads.
[[nodiscard]] std::vector<support::flag> cli_flags(
    std::vector<support::flag> own);

/// The standard epilogue the ported benches print after their tables:
/// a shard-locality warning when sharded and a record-stream note when
/// `--jsonl` was given. Empty for a default (whole-sweep, no-jsonl)
/// run, so default output is untouched.
[[nodiscard]] std::string describe_result(const shard_result& result,
                                          const options& opts);

}  // namespace beepkit::sweep
