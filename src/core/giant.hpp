// Giant single-trial runner: one election on a 10^8-10^9-node implicit
// topology, streamed through the plane gear with checkpointing.
//
// What makes a trial "giant" is that nothing O(n) beyond the planes
// may exist: the topology is an implicit view (no adjacency), the
// engine runs engine_config::giant() (lazy 4-byte RNG cursors, planes
// seeded at bind with no state vector ever materialized; the engine
// keeps no beep counts at all), and all word storage lives in the
// engine's mmap plane arena. Budget: the state planes plus the beep /
// heard / active / leader sets, 7 words per 64 nodes for BFW (~0.9
// bytes/node; 12 words at the 256-state cap), plus the 4-byte cursor
// per node.
//
// Checkpointing streams the complete trial state - planes, beep /
// active / leader sets, and every per-node RNG cursor - through the
// sweep JSONL record machinery into an appendable journal:
//
//   {"type":"giant_header", topology, n, seed, format_version:2, ...}
//   {"type":"ckpt_begin", seq, round, leaders, plane_count}
//   {"type":"ckpt_words", seq, section, offset, data(base64)}   (chunked)
//   {"type":"ckpt_cursors", seq, offset, count, data(varints)}  (chunked)
//   {"type":"ckpt_end", seq, words, cursors, digest}
//   {"type":"giant_done", ...}
//
// A resume refuses a journal whose header carries another
// format_version. A checkpoint is adoptable iff its ckpt_end is present
// and its FNV-1a digest (header integers + every word and cursor in
// stream order) verifies - a torn tail from a kill mid-checkpoint is skipped in
// favor of the previous complete snapshot. Resume restores the exact
// generator cursors, so the continued run is bit-identical
// draw-for-draw to the uninterrupted one (tests/test_giant_trial.cpp
// pins outcome, round and total draw count).
#pragma once

#include <cstdint>
#include <string>

#include "beeping/protocol.hpp"
#include "graph/view.hpp"

namespace beepkit::core {

struct giant_options {
  /// Stop horizon; 0 derives the Theorem-2 default from the view's
  /// formula diameter (node count for untagged explicit graphs).
  std::uint64_t max_rounds = 0;
  /// Checkpoint journal path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Rounds between snapshots (counted from round 0, so checkpoints
  /// land on multiples; 0 with a path set = only the forced snapshot
  /// at an early stop).
  std::uint64_t checkpoint_every = 0;
  /// Resume from the last complete snapshot in checkpoint_path
  /// (which must exist); new records append to the same journal.
  bool resume = false;
  /// Stop (with a forced snapshot when checkpointing) once the round
  /// counter reaches this value - the controlled "kill" half of the
  /// kill/resume differential. 0 = run to election or horizon.
  std::uint64_t stop_after_round = 0;
  /// Worker threads for the tiled plane rounds (1 = serial, 0 = one
  /// per hardware thread). Any thread count is bit-identical in
  /// outcome, round and draw count - checkpoints taken under one
  /// thread count resume cleanly under another.
  std::size_t threads = 1;
  /// Tile size in plane words; 0 = support::kL2TileWords (see
  /// engine::set_parallelism).
  std::size_t tile_words = 0;
};

struct giant_result {
  bool converged = false;       ///< Exactly one leader at the stop round.
  std::uint64_t rounds = 0;     ///< Round counter at the stop.
  std::size_t leaders = 0;      ///< Leader count at the stop.
  graph::node_id leader = 0;    ///< The survivor (when converged).
  std::uint64_t draws = 0;      ///< Total RNG draws across all nodes.
  std::uint64_t start_round = 0;        ///< 0, or the resumed round.
  std::uint64_t checkpoints_written = 0;
  bool stopped_early = false;   ///< stop_after_round fired.
  std::size_t arena_bytes = 0;  ///< Engine plane-arena reservation.
};

/// Runs one giant trial of `machine` on `view` (typically implicit;
/// explicit graphs work but pay their own adjacency). Throws
/// std::invalid_argument on an unusable machine/config and
/// std::runtime_error on journal I/O or resume-verification failure.
[[nodiscard]] giant_result run_giant_trial(const graph::topology_view& view,
                                           const beeping::state_machine& machine,
                                           std::uint64_t seed,
                                           const giant_options& options = {});

}  // namespace beepkit::core
