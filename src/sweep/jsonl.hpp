// JSONL record schema for sweep shards, plus the reader/merger that
// turns N shard files back into the exact single-process aggregates.
//
// A shard file is a sequence of single-line JSON records:
//
//   {"type":"sweep", "name":..., "shard_index":i, "shard_count":N,
//    "cells":M, "total_units":T, "format_version":1}
//   {"type":"cell", "cell":c, "algorithm":..., "graph":..., "n":...,
//    "diameter":..., "trials":..., "seed":..., "max_rounds":...}   (x M)
//   {"type":"trial", "cell":c, "trial":t, "global":g, "algorithm":...,
//    "graph":..., "n":..., "diameter":..., "seed":..., "rounds":...,
//    "converged":..., "coins":..., "leader":...}                   (streamed)
//   {"type":"checkpoint", "units_done":..., "units_owned":...}     (periodic)
//   {"type":"cell_summary", "cell":c, ...shard-local aggregates}   (x M)
//   {"type":"done", "units_run":..., "units_resumed":...}
//
// Trial records are self-describing (they repeat the cell's identity)
// so a single grep/jq pass over any shard file yields analyzable
// trajectories without a side table. All integer fields - seeds, coin
// counts, round counts - round-trip exactly through support::json;
// that exactness is what lets `merge_shards` re-run the shared
// analysis::aggregate_trial_points fold and land on bit-identical
// doubles. A file without a "done" record is a crashed/partial shard;
// both readers tolerate torn lines (every complete record is
// self-contained, and the merge's completeness check catches any unit
// a crash actually lost).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace beepkit::sweep {

/// Cell identity + trial plan as recorded in a shard file header.
struct cell_record {
  std::uint64_t cell = 0;
  std::string algorithm;
  std::string graph;
  std::uint64_t n = 0;
  std::uint32_t diameter = 0;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;       ///< Cell root seed (trial seeds derive from it).
  std::uint64_t max_rounds = 0;

  friend bool operator==(const cell_record&, const cell_record&) = default;
};

/// One executed trial as recorded in a shard file.
struct trial_record {
  std::uint64_t cell = 0;
  std::uint64_t trial = 0;
  std::uint64_t global = 0;
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  bool converged = false;
  std::uint64_t coins = 0;
  std::uint64_t leader = 0;  ///< Meaningful only when converged.

  friend bool operator==(const trial_record&, const trial_record&) = default;
};

/// Execution metadata for one trial record (Satellite audit trail):
/// which heard-gather kernel the engine actually ran and the
/// intra-trial tile/thread configuration. Serialized as extra JSON
/// fields; readers ignore them, so old files and the merge/resume
/// paths are unaffected.
struct trial_exec {
  std::string gather_kernel;
  std::uint64_t threads = 1;
  std::uint64_t tile_words = 0;
};

/// Streams one shard's records to disk through a buffered writer
/// thread: the producer (whichever sweep worker holds the fold; calls
/// come from different threads but never concurrently, so this class
/// is still single-producer) serializes each record into a reused line
/// buffer and appends it to an in-memory byte queue, and a background
/// thread performs the actual ofstream writes, so the serializer never
/// stalls trial aggregation at high trials/sec. Trial records are
/// formatted directly (std::to_chars and json::append_string), with
/// the bytes and key order a dumped support::json object would have;
/// the other record types go through support::json. The writer thread
/// is woken once per ~64 KiB of queued lines, or by flush() and
/// close(), so a record costs no wake-up. Error semantics are
/// unchanged: flush() drains the queue
/// synchronously and healthy() reflects every write that already hit
/// the stream, so disk-full and quota failures still surface as errors
/// at checkpoint boundaries, not silence. Always truncates: resumed
/// runs rewrite the file (header + salvaged records) rather than
/// appending, so output is always well-formed.
class record_writer {
 public:
  record_writer() = default;
  ~record_writer();

  record_writer(const record_writer&) = delete;
  record_writer& operator=(const record_writer&) = delete;

  /// Opens `path` and starts the writer thread. Truncates by default
  /// (resumed sweeps rewrite the file so output is always well-formed);
  /// `append == true` keeps the existing contents and adds records at
  /// the end - the giant-trial checkpoint stream (core/giant.hpp)
  /// appends snapshots to one growing journal across interruptions.
  /// Returns false when the file cannot be opened.
  [[nodiscard]] bool open(const std::string& path, bool append = false);
  [[nodiscard]] bool is_open() const noexcept { return opened_; }

  void write_header(const std::string& sweep_name, support::shard_spec shard,
                    std::uint64_t cell_count, std::uint64_t total_units);
  void write_cell(const cell_record& cell);
  void write_trial(const trial_record& trial, const cell_record& meta);
  /// Same, with the execution audit fields appended.
  void write_trial(const trial_record& trial, const cell_record& meta,
                   const trial_exec& exec);
  void write_checkpoint(std::uint64_t units_done, std::uint64_t units_owned);
  void write_cell_summary(const analysis::trial_stats& stats,
                          std::uint64_t cell);
  void write_done(std::uint64_t units_run, std::uint64_t units_resumed);
  /// Streams an arbitrary record through the same queue (used by the
  /// giant-trial checkpoint journal, whose record types live in
  /// core/giant.cpp rather than here).
  void write_record(const support::json& record);
  /// Drains the queue (synchronous barrier) and flushes the stream.
  void flush();

  /// False once any write has failed (disk full, quota, ...); callers
  /// check after flush points so losses surface as errors, not
  /// silence.
  [[nodiscard]] bool healthy() const noexcept {
    return ok_.load(std::memory_order_acquire);
  }
  /// Drains, flushes and closes; false when any write failed.
  [[nodiscard]] bool close();

  /// Total wall time producers spent blocked in enqueue() because the
  /// queue was at its backpressure bound. Valid any time, including
  /// after close(); folded into the sweep telemetry snapshot.
  [[nodiscard]] double stall_seconds();
  /// High-water mark of the queue depth (lines), for sizing the bound.
  [[nodiscard]] std::size_t max_queue_depth();

 private:
  void write_line(const support::json& record);
  /// Appends line_ plus a newline to the queue.
  void enqueue_line();
  void drain();        ///< Blocks until the queue is empty + written.
  void stop_writer();  ///< Drains, then joins the writer thread.
  void writer_loop();

  std::ofstream out_;  // writer-thread-owned once the thread runs
  bool opened_ = false;
  std::thread writer_;
  std::mutex mutex_;
  std::condition_variable queue_ready_;
  std::condition_variable queue_drained_;
  std::string line_;  // producer-owned serialization buffer, reused
  std::string queue_;  // complete lines, swapped out in batches, FIFO order
  std::size_t queued_lines_ = 0;
  bool writer_busy_ = false;
  bool draining_ = false;  // a drain wants the queue written now
  bool stopping_ = false;
  std::atomic<bool> ok_{true};
  std::uint64_t stall_ns_ = 0;    // guarded by mutex_
  std::size_t max_depth_ = 0;     // guarded by mutex_
};

/// Fully parsed shard file (strict: the merge path). Throws
/// std::runtime_error with a line reference on malformed input.
struct shard_file {
  std::string sweep_name;
  support::shard_spec shard{};
  std::uint64_t total_units = 0;
  bool done = false;  ///< A "done" record was present (clean finish).
  std::uint64_t torn_lines = 0;  ///< Unparseable lines skipped (crash scars).
  std::vector<cell_record> cells;
  std::vector<trial_record> trials;
};

[[nodiscard]] shard_file read_shard_file(const std::string& path);

/// Lenient scan of an existing (possibly crashed) shard file for the
/// resume path: recorded trials keyed by global index. A torn trailing
/// line - the signature of a mid-write crash - is ignored; other
/// record types are skipped.
[[nodiscard]] std::map<std::uint64_t, trial_record> scan_trials(
    const std::string& path);

/// One merged cell: recorded identity plus the recomputed aggregates.
struct merged_cell {
  cell_record meta;
  analysis::trial_stats stats;
};

/// Result of merging shard files covering a sweep.
struct merge_result {
  std::string sweep_name;
  std::vector<merged_cell> cells;
  std::uint64_t units = 0;              ///< Distinct trials merged.
  std::uint64_t duplicate_records = 0;  ///< Identical duplicates tolerated.
};

/// Merges shard JSONL files into exactly the per-cell aggregates a
/// serial run_trials on each cell of the spec would have produced
/// (bit-for-bit: the same analysis::aggregate_trial_points fold over
/// the same integer trial points in the same order). Throws
/// std::runtime_error on inconsistent cell metadata across files,
/// conflicting duplicate records, or missing units (an absent shard).
/// Identical duplicates - the overlap a resumed run can legitimately
/// produce - are tolerated and counted.
///
/// Memory: two streaming passes. Pass 1 checks coverage with one bit
/// per unit; pass 2 folds each cell via a k-way merge of the per-file
/// record streams, holding one record per file plus a single cell's
/// trial points - so merging a 1e8-unit sweep needs megabytes, not the
/// O(total units) record table the naive merge would build. Files with
/// out-of-order trial records (nothing our writer produces) fall back
/// to an in-memory sort of that file only.
[[nodiscard]] merge_result merge_shards(std::span<const std::string> paths);

/// Deterministic BENCH_*-style JSON summary of a merge: cell
/// identities plus every statistical aggregate, no timing fields, so
/// equal merges serialize byte-identically.
[[nodiscard]] support::json merge_summary(const merge_result& merged);

}  // namespace beepkit::sweep
