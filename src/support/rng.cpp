#include "support/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "support/parallel.hpp"

namespace beepkit::support {

rng::rng(std::uint64_t seed) noexcept {
  split_mix64 sm(seed);
  for (auto& word : state_) {
    word = sm.next();
  }
  // xoshiro must not start from the all-zero state; splitmix64 output
  // of four consecutive words is never all zero, but be defensive.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t rng::uniform_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(range));
}

std::uint64_t rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  // Inverse transform: floor(log(U) / log(1-p)).
  const double u = 1.0 - uniform01();  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::vector<std::size_t> rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(std::span<std::size_t>(perm));
  return perm;
}

std::vector<rng> make_node_streams(std::uint64_t root_seed,
                                   std::size_t count) {
  const rng root(root_seed);
  std::vector<rng> streams;
  streams.reserve(count);
  for (std::size_t node = 0; node < count; ++node) {
    streams.push_back(root.substream(node));
  }
  return streams;
}

rng_store rng_store::dense(std::uint64_t root_seed, std::size_t count) {
  rng_store store;
  store.dense_ = make_node_streams(root_seed, count);
  return store;
}

namespace {

/// Calls f with the lazy cursor array typed at its width: the one
/// place a width turns into a type.
template <class F>
decltype(auto) with_width(std::size_t bytes, void* data, F&& f) {
  switch (bytes) {
    case 1:
      return f(static_cast<std::uint8_t*>(data));
    case 2:
      return f(static_cast<std::uint16_t*>(data));
    default:
      return f(static_cast<std::uint32_t*>(data));
  }
}

}  // namespace

rng_store rng_store::lazy(std::uint64_t root_seed, std::size_t count,
                          draw_mode mode) {
  rng_store store;
  store.lazy_ = true;
  store.mode_ = mode;
  store.root_ = rng(root_seed);
  store.count_ = count;
  // Zero pages, not a value-initialized vector: the mapping costs no
  // O(n) pass at bind, and each page is first touched by whichever
  // tile thread draws from its streams.
  store.cursor_bytes_ = 1;
  store.cursor_max_ = std::numeric_limits<std::uint8_t>::max();
  store.cursor_data_ = store.cursor_arena_.alloc_words((count + 7) / 8).data();
  return store;
}

void rng_store::widen(std::uint64_t draws, tile_executor* exec) {
  const std::size_t bytes =
      draws <= std::numeric_limits<std::uint16_t>::max() ? 2 : 4;
  if (bytes <= cursor_bytes_) return;
  plane_arena arena;
  void* const data = arena.alloc_words((count_ * bytes + 7) / 8).data();
  const auto copy = [&](std::size_t begin, std::size_t end) {
    with_width(cursor_bytes_, cursor_data_, [&](const auto* from) {
      with_width(bytes, data, [&](auto* to) {
        if constexpr (sizeof(*to) > sizeof(*from)) {
          std::copy(from + begin, from + end, to + begin);
        }
      });
    });
  };
  if (exec != nullptr) {
    exec->run_tiles(count_, 0, [&](std::size_t, std::size_t begin,
                                   std::size_t end) { copy(begin, end); });
  } else {
    copy(0, count_);
  }
  cursor_arena_ = std::move(arena);
  cursor_data_ = data;
  cursor_bytes_ = bytes;
  cursor_max_ = bytes == 2 ? std::numeric_limits<std::uint16_t>::max()
                           : std::numeric_limits<std::uint32_t>::max();
}

rng rng_store::replay(std::size_t stream, std::uint64_t cursor) const noexcept {
  rng generator = root_.substream(stream);
  if (cursor != 0) {
    if (mode_ == draw_mode::coins) {
      generator.discard_coins(cursor);
    } else {
      generator.discard_u64(cursor);
    }
  }
  return generator;
}

std::uint64_t rng_store::cursor_of(const rng& stream) const noexcept {
  return mode_ == draw_mode::coins ? stream.coins_consumed()
                                   : stream.u64_draws();
}

rng& rng_store::acquire(std::size_t slot, std::size_t stream) {
  sync(slot);
  slot_state& s = slots_[slot];
  const std::uint64_t cursor = with_width(
      cursor_bytes_, cursor_data_,
      [stream](const auto* cursors) -> std::uint64_t { return cursors[stream]; });
  s.active = stream;
  s.scratch = replay(stream, cursor);
  return s.scratch;
}

void rng_store::sync(std::size_t slot) {
  slot_state& s = slots_[slot];
  if (s.active == npos) return;
  const std::uint64_t cursor = cursor_of(s.scratch);
  reserve_draws(cursor);
  with_width(cursor_bytes_, cursor_data_, [&](auto* cursors) {
    cursors[s.active] =
        static_cast<std::remove_reference_t<decltype(*cursors)>>(cursor);
  });
  s.active = npos;
}

std::uint64_t rng_store::lazy_draws(std::size_t slot, std::size_t word,
                                    std::uint64_t mask, bool coin, double p) {
  // The slot's scratch may hold one of these streams with draws its
  // cursor does not show yet. Folding it back must not widen: in a
  // tiled round the other slots are drawing (the engine folds every
  // scratch back before one starts).
  slot_state& s = slots_[slot];
  if (s.active != npos) {
    assert(cursor_of(s.scratch) <= cursor_max_);
    sync(slot);
  }
  return with_width(cursor_bytes_, cursor_data_, [&](auto* cursors) {
    return lazy_draws_at(cursors, word, mask, coin, p);
  });
}

// A draw that still reads the stream's first generator word - a coin
// at cursor < 64, a raw64 draw at cursor 0 - is that word's bit or
// value in closed form (rng::substream_first_u64). Any later draw
// rebuilds the lane's generator in a local rather than in the slot's
// one scratch, so the reconstructions of consecutive lanes are
// independent and overlap in the pipeline. The caller raised the bound
// past every cursor this call writes (one draw per lane).
template <class Cursor>
std::uint64_t rng_store::lazy_draws_at(Cursor* cursors, std::size_t word,
                                       std::uint64_t mask, bool coin,
                                       double p) const noexcept {
  const std::size_t base = word << 6;
  const bool coins = mode_ == draw_mode::coins;
  // Cursors below this bound draw from the first word: 64 coin bits,
  // or the one raw64 word.
  const unsigned first_word_draws = coin == coins ? (coins ? 64 : 1) : 0;
  std::uint64_t out = 0;
  std::uint64_t replays = 0;
  // The closed-form lanes first, in a loop without calls, with a local
  // root so its state stays in registers.
  const rng root = root_;
  for (; mask != 0; mask &= mask - 1) {
    const int b = std::countr_zero(mask);
    const Cursor cursor = cursors[base + b];
    assert(cursor < std::numeric_limits<Cursor>::max());
    if (cursor >= first_word_draws) {
      replays |= 1ULL << b;
      continue;
    }
    const std::uint64_t first = root.substream_first_u64(base + b);
    const bool hit =
        coin ? ((first >> cursor) & 1ULL) != 0 : rng::to_unit(first) < p;
    out |= static_cast<std::uint64_t>(hit) << b;
    cursors[base + b] = static_cast<Cursor>(cursor + 1);
  }
  for (; replays != 0; replays &= replays - 1) {
    const int b = std::countr_zero(replays);
    rng stream = replay(base + b, cursors[base + b]);
    const bool hit = coin ? stream.coin() : stream.uniform01() < p;
    out |= static_cast<std::uint64_t>(hit) << b;
    cursors[base + b] = static_cast<Cursor>(cursor_of(stream));
  }
  return out;
}

void rng_store::sync_all() {
  if (!lazy_) return;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) sync(slot);
}

void rng_store::set_slots(std::size_t slots) {
  sync_all();
  slots_.resize(slots == 0 ? 1 : slots);
}

std::vector<std::uint32_t> rng_store::cursors() {
  sync_all();
  std::vector<std::uint32_t> out(size());
  read_cursors(0, out);
  return out;
}

void rng_store::read_cursors(std::size_t offset,
                             std::span<std::uint32_t> out) const {
  if (!lazy_ || offset > count_ || out.size() > count_ - offset) {
    throw std::invalid_argument("rng_store: cursor range out of bounds");
  }
  with_width(cursor_bytes_, cursor_data_, [&](const auto* cursors) {
    std::copy(cursors + offset, cursors + offset + out.size(), out.begin());
  });
}

void rng_store::set_cursors(std::span<const std::uint32_t> values,
                            std::size_t offset) {
  if (!lazy_ || offset > count_ || values.size() > count_ - offset) {
    throw std::invalid_argument("rng_store: cursor range out of bounds");
  }
  if (!values.empty() &&
      *std::max_element(values.begin(), values.end()) > cursor_max_) {
    throw std::out_of_range("rng_store: cursor exceeds the " +
                            std::to_string(cursor_bytes_) +
                            "-byte width (reserve_draws first)");
  }
  for (slot_state& s : slots_) {
    if (s.active != npos && s.active >= offset &&
        s.active - offset < values.size()) {
      s.active = npos;
    }
  }
  with_width(cursor_bytes_, cursor_data_, [&](auto* cursors) {
    using Cursor = std::remove_reference_t<decltype(*cursors)>;
    std::transform(values.begin(), values.end(), cursors + offset,
                   [](std::uint32_t v) { return static_cast<Cursor>(v); });
  });
}

std::uint64_t rng_store::total_draws(tile_executor* exec) {
  if (!lazy_) {
    std::uint64_t total = 0;
    for (const rng& stream : dense_) total += stream.coins_consumed();
    return total;
  }
  sync_all();
  const auto sum = [this](std::size_t begin, std::size_t end) {
    return with_width(cursor_bytes_, cursor_data_, [&](const auto* cursors) {
      std::uint64_t total = 0;
      for (std::size_t i = begin; i < end; ++i) total += cursors[i];
      return total;
    });
  };
  if (exec == nullptr) return sum(0, count_);
  std::vector<std::uint64_t> partials(exec->thread_count(), 0);
  exec->run_tiles(count_, 0,
                  [&](std::size_t slot, std::size_t begin, std::size_t end) {
                    partials[slot] += sum(begin, end);
                  });
  std::uint64_t total = 0;
  for (const std::uint64_t part : partials) total += part;
  return total;
}

std::uint64_t rng_store::total_coins() {
  if (lazy_ && mode_ == draw_mode::raw64) return 0;
  return total_draws();
}

}  // namespace beepkit::support
