// The one worker pool: tile_executor. Intra-trial rounds run their
// word-parallel kernels over its word-range tiles, and the experiment
// layer's parallel_for is a short-lived executor over one-index tiles.
//
// Design goals, in order: (1) determinism of callers must be easy -
// the pool never decides *what* a work item computes, only *when* it
// runs, so a caller that pre-derives all randomness and writes results
// into per-index slots gets bit-identical output for any thread count;
// (2) dynamic load balancing - Monte-Carlo trials have wildly varying
// durations (a stuck election runs to the horizon), so tiles are
// claimed from a shared atomic counter rather than pre-chunked;
// (3) zero dependencies beyond <thread>.
//
// Thread-safety contract for RNG/coin accounting (see support/rng.hpp):
// an `rng` is NOT thread-safe; every parallel work item must own its
// generators, and per-trial coin counts are summed by the caller after
// the join barrier - never through shared mutable state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace beepkit::support {

/// Resolves a user-facing `--threads` value: 0 means "one per hardware
/// thread", anything else is clamped to at least 1.
[[nodiscard]] std::size_t resolve_threads(std::int64_t requested) noexcept;

/// Persistent executor for word-range tiling: the per-round engine
/// kernels (stencil gather, reception noise, plane sweep with its
/// ripple-carry adds) are word-parallel, so a round is split into
/// tiles of `tile_words` consecutive words and the tiles are claimed
/// dynamically by a fixed set of workers.
///
/// Determinism contract: a tile body may write only to per-word state
/// inside its [begin, end) range and to per-`slot` scratch owned by
/// the caller; cross-tile results (sums, OR-folds, seam carries) are
/// combined by the caller after run_tiles returns (which is a full
/// barrier). Under that contract the tile size and worker count can
/// never change a number - per-node generators are disjoint by
/// construction (see the rng note above), so even drawing kernels stay
/// draw-for-draw identical.
///
/// The workers persist across calls (a round is microseconds; spawning
/// threads per round would dwarf the work). `threads == 1` never
/// spawns anything and runs tiles inline, in order, on the caller.
class tile_executor {
 public:
  /// `threads` is the total worker count including the calling thread
  /// (0 = one per hardware thread). Slots 1..threads-1 are pool
  /// workers; the calling thread participates as slot 0.
  explicit tile_executor(std::size_t threads);
  ~tile_executor();

  tile_executor(const tile_executor&) = delete;
  tile_executor& operator=(const tile_executor&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Telemetry: cumulative tiles/words claimed by one slot since
  /// construction (or the last reset). Each slot writes only its own
  /// cache-line-padded counter inside drain(), so the word loops stay
  /// atomics-free; read these after run_tiles' barrier only.
  struct slot_claims {
    std::uint64_t tiles = 0;
    std::uint64_t words = 0;
  };
  [[nodiscard]] std::vector<slot_claims> claim_counts() const;
  void reset_claim_counts() noexcept;

  /// Invokes body(slot, begin, end) for consecutive word ranges
  /// covering [0, words), each at most `tile_words` long
  /// (tile_words == 0 splits the range evenly across the workers).
  /// `slot` identifies the executing worker (stable within one call,
  /// in [0, thread_count())), for per-slot scratch. Returns after all
  /// claimed tiles completed; once a body throws, no further tile is
  /// claimed, and the first exception is rethrown here. The executor
  /// stays usable afterwards.
  template <typename F>
  void run_tiles(std::size_t words, std::size_t tile_words, F&& body) {
    run_impl(words, tile_words,
             [](void* ctx, std::size_t slot, std::size_t begin,
                std::size_t end) {
               (*static_cast<std::remove_reference_t<F>*>(ctx))(slot, begin,
                                                                end);
             },
             const_cast<void*>(static_cast<const void*>(&body)));
  }

 private:
  using tile_fn = void (*)(void*, std::size_t, std::size_t, std::size_t);

  void run_impl(std::size_t words, std::size_t tile_words, tile_fn fn,
                void* ctx);
  void worker_loop(std::size_t slot);
  void drain(std::size_t slot, tile_fn fn, void* ctx, std::size_t words,
             std::size_t tile_words);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  // Job descriptor for the current generation; written under mutex_
  // before the wakeup, copied out under mutex_ by each worker.
  tile_fn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_words_ = 0;
  std::size_t job_tile_words_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t workers_pending_ = 0;
  std::atomic<std::size_t> next_tile_{0};
  std::exception_ptr first_error_;
  bool stopping_ = false;
  // One cache line per slot; slot s is written only by the thread
  // executing as slot s (workers under the job barrier, the caller on
  // the inline path), read/reset only between jobs.
  struct alignas(64) padded_claims {
    std::uint64_t tiles = 0;
    std::uint64_t words = 0;
  };
  std::vector<padded_claims> claims_;
};

/// Words per tile that keep one tile's plane traffic inside a typical
/// L2 slice: 8192 words = 64 KiB per touched array, and a plane sweep
/// touches ~6 arrays (heard/beep/active/leader + planes), so one tile
/// streams ~384 KiB.
inline constexpr std::size_t kL2TileWords = std::size_t{1} << 13;

/// The tile size tile_words == 0 resolves to: always kL2TileWords.
/// Kept only because perfbench/src/main.cpp still stamps it; delete it
/// together with that stamp field.
[[nodiscard]] constexpr std::size_t autotuned_tile_words(
    const tile_executor& /*exec*/) noexcept {
  return kL2TileWords;
}

/// Runs body(i) for every i in [0, count) on a tile_executor of
/// min(threads, count) workers (threads == 0 = one per hardware
/// thread) over one-index tiles; one worker is a plain inline loop.
/// The body must be safe to call concurrently for distinct indices;
/// the call returns after all claimed indices completed (join barrier)
/// and rethrows the first exception any body raised.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace beepkit::support
