#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/telemetry.hpp"

namespace beepkit::support {

std::size_t resolve_threads(std::int64_t requested) noexcept {
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  return static_cast<std::size_t>(requested);
}

tile_executor::tile_executor(std::size_t threads) {
  const std::size_t count = threads == 0 ? resolve_threads(0) : threads;
  claims_.resize(count > 0 ? count : 1);
  workers_.reserve(count > 0 ? count - 1 : 0);
  for (std::size_t i = 1; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

tile_executor::~tile_executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void tile_executor::drain(std::size_t slot, tile_fn fn, void* ctx,
                          std::size_t words, std::size_t tile_words) {
  const std::size_t tiles = (words + tile_words - 1) / tile_words;
  for (;;) {
    const std::size_t t = next_tile_.fetch_add(1, std::memory_order_relaxed);
    if (t >= tiles) return;
    const std::size_t begin = t * tile_words;
    const std::size_t end = std::min(words, begin + tile_words);
    if constexpr (telemetry::compiled_in) {
      ++claims_[slot].tiles;
      claims_[slot].words += end - begin;
    }
    try {
      fn(ctx, slot, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      // Stop every slot claiming: the call fails anyway, so the
      // remaining tiles would only delay the rethrow.
      next_tile_.store(tiles, std::memory_order_relaxed);
    }
  }
}

void tile_executor::worker_loop(std::size_t slot) {
  std::uint64_t seen = 0;
  for (;;) {
    tile_fn fn = nullptr;
    void* ctx = nullptr;
    std::size_t words = 0;
    std::size_t tile_words = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock,
                      [&] { return stopping_ || generation_ != seen; });
      if (generation_ == seen) return;  // stopping_, no new job
      seen = generation_;
      fn = job_fn_;
      ctx = job_ctx_;
      words = job_words_;
      tile_words = job_tile_words_;
    }
    drain(slot, fn, ctx, words, tile_words);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--workers_pending_ == 0) job_done_.notify_all();
    }
  }
}

void tile_executor::run_impl(std::size_t words, std::size_t tile_words,
                             tile_fn fn, void* ctx) {
  if (words == 0) return;
  std::size_t tw = tile_words;
  if (tw == 0) {
    // Whole-range split: one tile per worker, evenly sized.
    tw = (words + thread_count() - 1) / thread_count();
  }
  if (tw == 0) tw = 1;
  const std::size_t tiles = (words + tw - 1) / tw;
  if (workers_.empty() || tiles <= 1) {
    // Inline serial path: tiles in ascending order on the caller. The
    // per-tile results the caller folds are order-independent by
    // contract, so this is bit-identical to the threaded path.
    if constexpr (telemetry::compiled_in) {
      claims_[0].tiles += tiles;
      claims_[0].words += words;
    }
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t begin = t * tw;
      fn(ctx, 0, begin, std::min(words, begin + tw));
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_words_ = words;
    job_tile_words_ = tw;
    workers_pending_ = workers_.size();
    next_tile_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  job_ready_.notify_all();
  drain(0, fn, ctx, words, tw);
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [this] { return workers_pending_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::vector<tile_executor::slot_claims> tile_executor::claim_counts() const {
  std::vector<slot_claims> out(claims_.size());
  for (std::size_t s = 0; s < claims_.size(); ++s) {
    out[s] = slot_claims{claims_[s].tiles, claims_[s].words};
  }
  return out;
}

void tile_executor::reset_claim_counts() noexcept {
  for (padded_claims& c : claims_) c = padded_claims{};
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  tile_executor exec(
      std::min(threads == 0 ? resolve_threads(0) : threads, count));
  exec.run_tiles(count, 1, [&](std::size_t, std::size_t i, std::size_t) {
    body(i);
  });
}

}  // namespace beepkit::support
