// Giant single-trial runner: one election on a 10^8-10^9-node implicit
// topology, streamed through the plane gear with checkpointing.
//
// What makes a trial "giant" is that nothing O(n) beyond the planes
// may exist: the topology is an implicit view (no adjacency), the
// engine runs engine_config::giant() (lazy RNG cursors, planes seeded
// at bind with no state vector ever materialized; the engine keeps no
// beep counts at all), and all word storage lives in the engine's mmap
// plane arena. Budget: the state planes plus the beep / heard / active
// / leader sets, 7 words per 64 nodes for BFW (~0.9 bytes/node; 12
// words at the 256-state cap), plus one cursor per node: 1 byte below
// round 255, 2 below round 65535, 4 after (support::rng_store widens
// it as the rounds go; the journal always carries u32 varints).
//
// Checkpointing streams the complete trial state - planes, beep /
// active / leader sets, and every per-node RNG cursor - through the
// sweep JSONL record machinery into an appendable journal:
//
//   {"type":"giant_header", topology, n, seed, format_version:3, ...}
//   {"type":"ckpt_begin", seq, round, leaders, plane_count}
//   {"type":"ckpt_words", seq, section, offset, digest, data(base64)}
//                                                            (chunked)
//   {"type":"ckpt_cursors", seq, offset, count, digest, data(varints)}
//                                                            (chunked)
//   {"type":"ckpt_end", seq, words, cursors, digest}
//   {"type":"giant_done", ...}
//
// Each chunk record carries its own digest (support::codec::
// chunk_digest over the chunk's raw words or cursors); ckpt_end's
// digest is FNV-1a over round, leaders, plane_count and the chunk
// digests in stream order. The writer encodes and digests the chunks
// in batches on the trial's tile threads, and every chunk line is a
// function of its chunk alone, so the journal's bytes do not depend on
// the thread count.
//
// A resume reads the journal twice through sweep::record_reader, the
// reader of shard files, which scans each line without building a
// JSON DOM: a torn line is skipped wherever a kill left it, a
// malformed field is refused with its path:line, and so is a header
// with another format_version. The second pass decodes and digests
// the chunks straight from the reader's line buffers, in batches of
// one per tile thread as the writer encodes them, and folds the
// digests in stream order. A checkpoint is adoptable iff its ckpt_end
// is present, every chunk's digest matches the words or cursors it
// decodes to (a mismatch names the section and offset), and the
// folded digest verifies - a torn tail from a kill mid-checkpoint is
// skipped in favor of the previous complete snapshot. Resume restores the exact generator cursors, so the
// continued run is bit-identical draw-for-draw to the uninterrupted
// one (tests/test_giant_trial.cpp pins outcome, round and total draw
// count).
#pragma once

#include <cstdint>
#include <string>

#include "beeping/protocol.hpp"
#include "graph/view.hpp"

namespace beepkit::core {

struct giant_options {
  /// Stop horizon; 0 derives it by election_horizon with default
  /// options (the view's formula diameter, node count for untagged
  /// explicit graphs).
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
  /// The thread count and tile size the rounds ran with, read off the
  /// engine (engine::parallel_threads / tile_words): threads = 0
  /// resolves to the hardware's count, a tiled engine handed
  /// tile_words = 0 runs support::kL2TileWords, and a serial engine
  /// reports 0 (it runs no tiles).
  std::size_t exec_threads = 1;
  std::size_t exec_tile_words = 0;
  /// Bytes per node of the lazy RNG cursors when the run stopped: 1
  /// below round 255, 2 below round 65535, else 4 (rng_store).
  std::size_t cursor_bytes = 1;
};

/// Runs one giant trial of `machine` on `view` (typically implicit;
/// explicit graphs work but pay their own adjacency). Throws
/// std::invalid_argument on an unusable machine/config and
/// std::runtime_error on journal I/O or resume-verification failure
/// (std::range_error, one of them, when a checkpoint holds a cursor
/// above its round).
[[nodiscard]] giant_result run_giant_trial(const graph::topology_view& view,
                                           const beeping::state_machine& machine,
                                           std::uint64_t seed,
                                           const giant_options& options = {});

}  // namespace beepkit::core
