// Deterministic pseudo-random number generation for simulations.
//
// The paper emphasises a parsimonious use of randomness: with p = 1/2 a
// node consumes exactly one fair coin per round (Section 1.3). To make
// that claim checkable, `rng` keeps an explicit account of the fair
// coin flips drawn through `coin()`.
//
// Reproducibility contract: every simulation trial is fully determined
// by a root seed. Per-node generators are derived with `substream()`,
// which hashes (state, stream-id) through splitmix64, so results do not
// depend on node iteration order and streams are statistically
// independent for all practical purposes.
//
// Thread-safety contract: an `rng` (its state *and* its coin account)
// is plain mutable data - never share one across threads. The parallel
// trial runner gives every trial its own generators and aggregates
// coin counts per trial after the join barrier (summing
// `coins_consumed()` of finished trials in trial order), so the
// accounting needs no atomics and stays bit-identical to a serial run.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace beepkit::support {

/// splitmix64: tiny, fast 64-bit generator used only for seeding and
/// stream derivation (Steele, Lea & Flood 2014).
struct split_mix64 {
  std::uint64_t state = 0;

  constexpr explicit split_mix64(std::uint64_t seed) noexcept : state(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// xoshiro256** 1.0 (Blackman & Vigna 2018) behind a simulation-oriented
/// interface. Satisfies UniformRandomBitGenerator, so it can be plugged
/// into <random> distributions when needed.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state by running splitmix64 from `seed`.
  explicit rng(std::uint64_t seed) noexcept;

  /// Derives an independent generator for a logical stream (e.g. one
  /// per node). Deterministic in (current seed material, stream).
  [[nodiscard]] rng substream(std::uint64_t stream) const noexcept;

  // The draw primitives below are defined inline: they sit on the
  // engine's per-node round path, where an out-of-line call would cost
  // as much as the draw itself.

  /// Raw 64 uniform bits (xoshiro256** scrambler).
  std::uint64_t next_u64() noexcept {
    ++calls_;
    const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) trial; p is clamped to [0, 1].
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// One fair coin flip, served from an internal 64-bit buffer so that
  /// 64 flips consume a single generator call. Increments the coin
  /// account by exactly one bit.
  bool coin() noexcept {
    if (coin_bits_left_ == 0) {
      coin_buffer_ = next_u64();
      coin_bits_left_ = 64;
    }
    const bool bit = (coin_buffer_ & 1ULL) != 0;
    coin_buffer_ >>= 1;
    --coin_bits_left_;
    ++coins_;
    return bit;
  }

  /// Unbiased integer in [0, bound) via Lemire's method with rejection.
  /// bound == 0 is undefined; callers must guarantee bound >= 1.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Geometric: number of failures before the first success of a
  /// Bernoulli(p) sequence (support {0, 1, 2, ...}).
  std::uint64_t geometric(double p) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Uniform random permutation of {0, ..., n-1}.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Number of fair coin bits drawn through coin() so far.
  [[nodiscard]] std::uint64_t coins_consumed() const noexcept { return coins_; }

  /// Number of raw 64-bit words drawn through next_u64() so far (every
  /// draw primitive bottoms out there). Together with coins_consumed()
  /// this is the complete draw cursor of a stream: a fresh generator
  /// fast-forwarded by either count lands on the identical state, which
  /// is what lets giant trials store a 4-byte cursor per node instead
  /// of a 64-byte generator (rng_store below).
  [[nodiscard]] std::uint64_t u64_draws() const noexcept { return calls_; }

  /// Advances past `count` fair coins exactly as `count` coin() calls
  /// would - same buffer refill boundaries, same residual buffer bits,
  /// same coin account - without reading the results.
  void discard_coins(std::uint64_t count) noexcept {
    coin_buffer_ = 0;
    coin_bits_left_ = 0;
    for (std::uint64_t i = 0; i < count / 64; ++i) (void)next_u64();
    const auto rem = static_cast<unsigned>(count % 64);
    if (rem != 0) {
      coin_buffer_ = next_u64() >> rem;
      coin_bits_left_ = 64 - rem;
    }
    coins_ += count;
  }

  /// Advances past `count` raw next_u64() draws.
  void discard_u64(std::uint64_t count) noexcept {
    for (std::uint64_t i = 0; i < count; ++i) (void)next_u64();
  }

  /// Resets only the coin account (state is untouched).
  void reset_coin_account() noexcept { coins_ = 0; }

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next_u64(); }

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t coin_buffer_ = 0;
  unsigned coin_bits_left_ = 0;
  std::uint64_t coins_ = 0;
  std::uint64_t calls_ = 0;
};

/// Derives `count` per-node generators from a root seed, one substream
/// per node id. Convenience used by every simulator.
[[nodiscard]] std::vector<rng> make_node_streams(std::uint64_t root_seed,
                                                 std::size_t count);

/// How a lazily reconstructed stream's draw cursor maps back onto
/// generator state: `coins` replays fair-coin bits through the coin
/// buffer (BFW with p = 1/2 - one bit per draw), `raw64` replays whole
/// next_u64 calls (bernoulli / uniform draws - one word per draw).
enum class draw_mode : std::uint8_t { coins, raw64 };

namespace detail {

/// One draw from each of `lanes[b]` for every set bit b of `mask`, in
/// ascending b; bit b of the result is the draw's outcome.
template <class Draw>
std::uint64_t draw_lanes(rng* lanes, std::uint64_t mask, Draw draw) noexcept {
  std::uint64_t out = 0;
  for (; mask != 0; mask &= mask - 1) {
    const int b = std::countr_zero(mask);
    out |= static_cast<std::uint64_t>(draw(lanes[b])) << b;
  }
  return out;
}

}  // namespace detail

/// The per-node generator array behind an engine, in one of two
/// representations with identical draw sequences:
///
///  * dense - a materialized std::vector<rng>, exactly the historical
///    make_node_streams array. Zero-cost indexing; 64 bytes per node
///    (sizeof(rng)).
///  * lazy  - a 4-byte draw cursor per node plus one scratch
///    generator per slot. A stream is reconstructed on demand
///    (substream + fast-forward by the cursor), so a 10^9-node giant
///    trial pays 4 GB instead of 64 GB, and the cursor array doubles as
///    the checkpoint representation of all randomness. Reconstruction
///    replays cursor/64 words, which stays cheap because a BFW node
///    only draws while it waits in W-black.
///
/// Every stream draws in its own order and no other: the contract is
/// per stream, so callers may visit different streams in any order.
///
/// Two access paths. at(slot, stream) serves one stream at a time per
/// slot through that slot's scratch generator (single-stream access:
/// protocols, tests, checkpoints). The batched rng_source::coins() and
/// bernoulli() draw once from each stream of a 64-lane word; in lazy
/// mode they sync the slot's scratch first, then rebuild each lane's
/// generator in a local and write its cursor straight back, so
/// consecutive lanes do not serialize on the one scratch.
///
/// A slot is a thread context: tiled sweeps give every executor slot
/// its own cache-line-aligned scratch generator. Concurrent use is
/// race-free as long as slots touch disjoint stream ranges (tiles own
/// disjoint words, hence disjoint nodes): each slot writes only its own
/// scratch plus the cursors of streams it drew from. After a tiled
/// round's join barrier the engine must call sync_all() - tile->slot
/// assignment is dynamic, so a cursor left cached in one slot's scratch
/// would be stale-read by another slot next round. Dense mode has the
/// exact sharing contract of the vector it replaces.
class rng_store {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  rng_store() = default;

  [[nodiscard]] static rng_store dense(std::uint64_t root_seed,
                                       std::size_t count);
  [[nodiscard]] static rng_store lazy(std::uint64_t root_seed,
                                      std::size_t count, draw_mode mode);

  [[nodiscard]] bool is_lazy() const noexcept { return lazy_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return lazy_ ? cursors_.size() : dense_.size();
  }

  /// Number of independent scratch slots (>= 1; slot 0 always exists).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  /// Grows/shrinks the slot array to `slots` (clamped to >= 1). Syncs
  /// every active scratch stream back into the cursors first, so no
  /// draws are lost when contexts disappear.
  void set_slots(std::size_t slots);

  rng& operator[](std::size_t stream) noexcept { return at(0, stream); }

  /// The stream, reconstructed in (or served from) the given slot's
  /// scratch context. Lazy mode only distinguishes slots; dense mode
  /// ignores the slot and indexes the shared array.
  rng& at(std::size_t slot, std::size_t stream) noexcept {
    if (!lazy_) return dense_[stream];
    slot_state& s = slots_[slot];
    return stream == s.active ? s.scratch : acquire(slot, stream);
  }

  /// Folds every slot's active scratch stream back into the cursor
  /// array and deactivates it. Must run after each tiled round's join
  /// barrier (see class comment); no-op in dense mode.
  void sync_all() noexcept;

  /// Lazy mode: the per-stream draw cursors with the active scratch
  /// stream folded back in - the complete serializable state of every
  /// generator. Invalidated by the next operator[].
  [[nodiscard]] std::span<const std::uint32_t> cursors();
  /// Lazy mode: restores cursors saved by cursors(). Size must match.
  void set_cursors(std::span<const std::uint32_t> cursors);
  /// Lazy mode: mutable access to the cursor array for in-place
  /// restore - the giant resume decodes varint chunks straight into
  /// this span instead of staging a second O(n) buffer. Syncs and
  /// deactivates the scratch stream first. Throws std::logic_error in
  /// dense mode.
  [[nodiscard]] std::span<std::uint32_t> cursors_mutable();

  /// Total draws across all streams (coin bits or u64 calls, per the
  /// mode). Dense mode reports coin bits.
  [[nodiscard]] std::uint64_t total_draws();
  /// Fair-coin account across all streams - what engines report as
  /// total_coins_consumed(). raw64-mode draws are not coins and count
  /// zero, exactly as bernoulli() never touched the dense coin account.
  [[nodiscard]] std::uint64_t total_coins();

  /// The draw-loop view of this store, bound to one scratch slot (see
  /// rng_source below). Tiled sweeps call source(slot) inside the tile
  /// body so each executor slot draws through its own context.
  [[nodiscard]] struct rng_source source(std::size_t slot = 0) noexcept;

 private:
  /// One thread context: its own scratch generator plus which stream
  /// currently lives in it. Cache-line-aligned so concurrent slots
  /// never false-share.
  struct alignas(64) slot_state {
    rng scratch{0};
    std::size_t active = npos;
  };

  rng& acquire(std::size_t slot, std::size_t stream) noexcept;
  void sync(std::size_t slot) noexcept;
  /// Lazy mode: the stream's generator rebuilt from its cursor, and the
  /// cursor a generator's draws map back to.
  [[nodiscard]] rng replay(std::size_t stream) const noexcept;
  [[nodiscard]] std::uint32_t cursor_of(const rng& stream) const noexcept;
  /// Lazy mode: the batched draws behind rng_source::coins (`coin`)
  /// and rng_source::bernoulli (0 < p < 1).
  std::uint64_t lazy_draws(std::size_t slot, std::size_t word,
                           std::uint64_t mask, bool coin, double p) noexcept;

  bool lazy_ = false;
  draw_mode mode_ = draw_mode::coins;
  std::vector<rng> dense_;
  // Lazy representation:
  rng root_{0};
  std::vector<std::uint32_t> cursors_;
  std::vector<slot_state> slots_ = std::vector<slot_state>(1);

  friend struct rng_source;
};

/// The indirection the engines' draw loops go through: dense engines
/// expose the raw stream array (one predictable branch over the
/// historical direct indexing), giant engines the lazy store. `slot`
/// selects the lazy store's scratch context; dense mode ignores it.
struct rng_source {
  rng* dense = nullptr;
  rng_store* store = nullptr;
  std::size_t slot = 0;

  rng& operator[](std::size_t stream) const noexcept {
    return dense != nullptr ? dense[stream] : store->at(slot, stream);
  }

  /// Batched draws over streams 64*word + b for every set bit b of
  /// `mask`: one coin() (coins) or one bernoulli(p) (bernoulli) from
  /// each, exactly the call operator[] would make, so every stream's
  /// sequence matches per-stream access. Bit b of the result is stream
  /// 64*word + b's outcome. bernoulli draws nothing at p <= 0 or
  /// p >= 1, like rng::bernoulli. The plane sweeps' one draw path.
  std::uint64_t coins(std::size_t word, std::uint64_t mask) const noexcept {
    if (dense == nullptr) return store->lazy_draws(slot, word, mask, true, 0);
    return detail::draw_lanes(dense + (word << 6), mask,
                              [](rng& r) { return r.coin(); });
  }
  std::uint64_t bernoulli(std::size_t word, std::uint64_t mask,
                          double p) const noexcept {
    if (p <= 0.0) return 0;
    if (p >= 1.0) return mask;
    if (dense == nullptr) return store->lazy_draws(slot, word, mask, false, p);
    return detail::draw_lanes(dense + (word << 6), mask,
                              [p](rng& r) { return r.uniform01() < p; });
  }
};

inline rng_source rng_store::source(std::size_t slot) noexcept {
  return lazy_ ? rng_source{nullptr, this, slot}
               : rng_source{dense_.data(), nullptr, 0};
}

}  // namespace beepkit::support
