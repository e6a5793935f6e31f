#include "beeping/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "graph/patch.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace beepkit::beeping {

namespace {

constexpr std::size_t word_count(std::size_t n) noexcept {
  return (n + 63) / 64;
}

constexpr bool test_bit(std::span<const std::uint64_t> words,
                        graph::node_id u) noexcept {
  return (words[u >> 6] >> (u & 63)) & 1ULL;
}

constexpr void set_bit(std::span<std::uint64_t> words,
                       graph::node_id u) noexcept {
  words[u >> 6] |= 1ULL << (u & 63);
}

// Spreads the low 8 bits of `x` into 8 bytes holding 0/1 (bit i ->
// byte i). The multiply places bit i at bit 7 of byte 7-i; the byte
// swap restores ascending order.
inline std::uint64_t spread_bits_to_bytes(std::uint64_t x) noexcept {
  return __builtin_bswap64((x * 0x8040201008040201ULL) &
                           0x8080808080808080ULL) >>
         7;
}

// Widens the low/high 4 bytes of a packed-byte word into 4 uint16
// lanes (classic morton spacing).
inline std::uint64_t widen_bytes_to_u16(std::uint64_t bytes) noexcept {
  std::uint64_t x = bytes & 0xFFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  return x;
}

}  // namespace

engine::engine(graph::topology_view view, protocol& proto, std::uint64_t seed)
    : engine(std::move(view), proto, seed, noise_model{}) {}

engine::engine(graph::topology_view view, protocol& proto, std::uint64_t seed,
               const noise_model& noise)
    : engine(std::move(view), proto, seed, noise, engine_config{}) {}

engine::engine(graph::topology_view view, protocol& proto, std::uint64_t seed,
               const noise_model& noise, const engine_config& config)
    : view_(std::move(view)),
      n_(view_.node_count()),
      proto_(&proto),
      config_(config),
      noise_(noise),
      gather_(view_) {
  const std::size_t n = n_;
  // NUMA placement must be requested before the first chunk is mapped;
  // best-effort (no-op off Linux or when mbind is refused).
  if (config_.numa_interleave) arena_.set_numa_interleave(true);
  // Bind-time fast-path detection: an FSM protocol whose machine
  // compiles to a flat table runs rounds without virtual dispatch.
  fsm_ = dynamic_cast<fsm_protocol*>(&proto);
  if (fsm_ != nullptr) {
    table_ = fsm_->machine().compile_table();
  }
  // Plane-mode eligibility. (The SWAR transpose writes state ids
  // through little-endian byte order; the sparse sweep carries
  // big-endian hosts.) The state cap is 64: six planes cover every
  // bundled machine including Timeout-BFW up to T = 59; larger
  // machines take the sparse sweep.
  plane_capable_ = table_.has_value() && table_->state_count() <= 64 &&
                   std::endian::native == std::endian::little;
  support::draw_mode mode = support::draw_mode::coins;
  if (config_.giant_mode) {
    if (!plane_capable_) {
      throw std::invalid_argument(
          "beeping::engine: giant mode requires a plane-capable "
          "fsm_protocol machine");
    }
    if (noise_.enabled()) {
      throw std::invalid_argument(
          "beeping::engine: giant mode cannot serve a noise model "
          "(dedicated noise streams stay dense)");
    }
    // A 4-byte cursor can only replay a stream whose draws are uniform
    // in kind: all fair coins (one bit each) or all raw words.
    bool any_coin = false;
    bool any_raw = false;
    for (const transition_rule& rule : table_->rules) {
      if (rule.draw == transition_rule::draw_kind::coin) any_coin = true;
      if (rule.draw == transition_rule::draw_kind::bernoulli) any_raw = true;
    }
    if (any_coin && any_raw) {
      throw std::invalid_argument(
          "beeping::engine: giant mode requires draw rules uniform in kind "
          "(all coin or all bernoulli)");
    }
    mode = any_raw ? support::draw_mode::raw64 : support::draw_mode::coins;
  }
  // Stream n (never a node id) initializes the protocol, so identifier
  // draws in baselines do not perturb the per-node round streams.
  rngs_ = config_.giant_mode ? support::rng_store::lazy(seed, n + 1, mode)
                             : support::rng_store::dense(seed, n + 1);
  if (config_.giant_mode) {
    // No O(n) state vector: the planes are seeded from the machine's
    // initial state below and stay authoritative for the whole run.
    fsm_->reset_deferred(n);
  } else {
    proto_->reset(n, rngs_[n]);
  }
  if (noise_.enabled()) {
    // Dedicated streams: enabling noise must not perturb the protocol
    // coins, and a (0, 0) noise model stays bit-identical.
    noise_rngs_ = support::make_node_streams(seed ^ 0x6e015eULL, n);
  }
  const std::size_t words = word_count(n);
  beep_words_ = arena_.alloc_words(words);
  heard_words_ = arena_.alloc_words(words);
  active_words_ = arena_.alloc_words(words);
  leader_words_ = arena_.alloc_words(words);
  // Giant mode keeps no per-node count array (only the pinned plane
  // sweep can run without it; giant runs never read counts).
  if (!config_.giant_mode) beep_counts_.assign(n, 0);
  if (plane_capable_) {
    plan_ = make_plane_plan(*table_);
    for (std::size_t j = 0; j < plan_.plane_count; ++j) {
      planes_[j] = arena_.alloc_words(words);
    }
    // beepc kernel dispatch: a registered kernel whose baked-in
    // structure matches this table takes over the plane rounds
    // (stochastic rows stay runtime data, so e.g. the one bfw kernel
    // serves every p).
    compiled_kernel_ = find_compiled_kernel(*table_);
  }
  tail_mask_ = (n % 64 == 0) ? ~0ULL : ((1ULL << (n % 64)) - 1);
  if (plane_capable_) {
    for (auto& lp : ledger_planes_) lp = arena_.alloc_words(words);
    // Planes authoritative: outside reads of the protocol's state
    // vector unpack from the planes on demand (lazy materialization).
    fsm_->bind_lazy_source(this);
  }
  dirty_ledger_words_ = arena_.alloc_words(word_count(words));
  slot_leaders_.assign(1, 0);
  slot_active_.assign(1, 0);
  slot_dirty_.assign(1, std::vector<std::uint64_t>(dirty_ledger_words_.size(), 0));
  if (config_.giant_mode) {
    enter_plane_mode_initial();
    if (fsm_ != nullptr) synced_version_ = fsm_->config_version();
  } else {
    refresh_round_state();
  }
}

engine::~engine() {
  // The protocol outlives the engine: flush any pending lazy unpack
  // and detach the hook before the planes disappear. Pinned giant
  // engines abandon instead - the O(n) unpack is exactly what the
  // mode exists to avoid, and the run's result was read off the
  // planes already.
  if (fsm_ != nullptr && plane_capable_) {
    if (config_.giant_mode) {
      fsm_->abandon_lazy_source(this);
    } else {
      fsm_->unbind_lazy_source(this);
    }
  }
}

void engine::set_parallelism(std::size_t threads, std::size_t tile_words) {
  const std::size_t resolved =
      threads == 0 ? support::resolve_threads(0) : threads;
  if (resolved <= 1) {
    exec_.reset();
    gather_.set_executor(nullptr, 0);
    tile_words_ = tile_words;
    rngs_.set_slots(1);
    slot_leaders_.assign(1, 0);
    slot_active_.assign(1, 0);
    slot_dirty_.assign(
        1, std::vector<std::uint64_t>(dirty_ledger_words_.size(), 0));
    return;
  }
  if (!exec_ || exec_->thread_count() != resolved) {
    exec_ = std::make_unique<support::tile_executor>(resolved);
  }
  // tile_words == 0 resolves through the one-shot micro-probe
  // (whole-range vs L2-sized tiles). The probe result is cached for
  // the process, so re-applying parallelism - or restarting the trial
  // via restart_from_protocol - always lands on the same tile size.
  tile_words_ = tile_words != 0 ? tile_words
                                : support::autotuned_tile_words(*exec_);
  gather_.set_executor(exec_.get(), tile_words_);
  // One lazy-store scratch context per executor slot: tiles own
  // disjoint stream ranges, and the engine syncs all slots after every
  // tiled round's barrier (see rng_store's class comment).
  rngs_.set_slots(resolved);
  slot_leaders_.assign(resolved, 0);
  slot_active_.assign(resolved, 0);
  slot_dirty_.assign(
      resolved, std::vector<std::uint64_t>(dirty_ledger_words_.size(), 0));
}

void engine::distribute_plane_pages() {
  if (exec_) arena_.distribute_first_touch(*exec_, tile_words_);
}

void engine::add_observer(observer* obs) {
  // The round-0 call runs first: an observer that rejects the binding
  // (throws) is never attached.
  obs->on_round(make_view());
  observers_.push_back(obs);
}

void engine::refresh_round_state() {
  const std::size_t n = n_;
  // The protocol's state vector becomes the source of truth here:
  // materialize any pending plane unpack, then drop out of plane mode;
  // it re-engages on the next dense round.
  if (fsm_ != nullptr) fsm_->ensure_states_fresh();
  plane_mode_ = false;
  leader_count_ = 0;
  std::fill(beep_words_.begin(), beep_words_.end(), 0);
  std::fill(leader_words_.begin(), leader_words_.end(), 0);
  if (fast_path_active()) {
    // Table-driven refresh: same sweep, zero virtual calls; also
    // rebuilds the active set the fused round sweep relies on.
    const machine_table& table = *table_;
    const std::span<state_id> states = fsm_->raw_states();
    std::fill(active_words_.begin(), active_words_.end(), 0);
    for (graph::node_id u = 0; u < n; ++u) {
      const state_id s = states[u];
      if (table.beeps(s)) {
        ++beep_counts_[u];
        set_bit(beep_words_, u);
      }
      const std::uint64_t lead = table.leader_flag[s];
      leader_count_ += lead;
      leader_words_[u >> 6] |= lead << (u & 63);
      if (table.bot_identity[s] == 0) set_bit(active_words_, u);
    }
  } else if (fsm_ != nullptr) {
    // Virtual gear on an FSM protocol (fast path disabled or the
    // machine did not compile): states are fresh (see above), so read
    // the flags through the machine directly instead of paying the
    // per-call guard in fsm_protocol::beeping/is_leader.
    const state_machine& machine = fsm_->machine();
    const state_id* const states = fsm_->raw_states().data();
    for (graph::node_id u = 0; u < n; ++u) {
      if (machine.beeps(states[u])) {
        ++beep_counts_[u];
        set_bit(beep_words_, u);
      }
      if (machine.is_leader(states[u])) {
        ++leader_count_;
        set_bit(leader_words_, u);
      }
    }
  } else {
    // Any other protocol reads out the whole round in one call.
    leader_count_ = proto_->round_sets(n, beep_words_, leader_words_);
    for (std::size_t w = 0; w < beep_words_.size(); ++w) {
      for (std::uint64_t bits = beep_words_[w]; bits != 0; bits &= bits - 1) {
        ++beep_counts_[(w << 6) +
                       static_cast<std::size_t>(std::countr_zero(bits))];
      }
    }
  }
  if (fsm_ != nullptr) synced_version_ = fsm_->config_version();
}

void engine::rebuild_active_set() {
  const std::size_t n = n_;
  const machine_table& table = *table_;
  const std::span<state_id> states = fsm_->raw_states();
  std::fill(active_words_.begin(), active_words_.end(), 0);
  for (graph::node_id u = 0; u < n; ++u) {
    if (table.bot_identity[states[u]] == 0) set_bit(active_words_, u);
  }
}

void engine::set_fast_path_enabled(bool enabled) {
  if (enabled && !fast_enabled_ && table_.has_value()) {
    // States may have moved under the virtual path while the active
    // set was not maintained; rebuild it before fast rounds resume.
    fast_enabled_ = true;
    rebuild_active_set();
    return;
  }
  if (!enabled && config_.giant_mode) {
    throw std::logic_error(
        "beeping::engine: the virtual gear is unavailable under "
        "giant mode");
  }
  if (!enabled && plane_mode_) {
    // The virtual path reads the protocol's vector directly; hand the
    // authority back before leaving plane mode.
    fsm_->ensure_states_fresh();
    plane_mode_ = false;
  }
  fast_enabled_ = enabled;
}

// Dirty-word fold: only words that banked a beep since the last flush
// are visited, so observer rounds on mostly-quiet graphs pay
// O(beeping region), not O(n). Each dirty word's vertical counters are
// transposed back to per-node byte counts with the SWAR spread (8
// groups x up to 8 planes) - paid once per flush, not per round.
void engine::flush_pending_ledger() const {
  if (pending_rounds_ == 0) return;
  const std::size_t n = n_;
  if (beep_counts_.empty()) {
    // Counts untracked (giant mode): drop the banked rounds, keeping
    // the ledger planes and dirty bitset clean for the next bank.
    for (std::size_t d = 0; d < dirty_ledger_words_.size(); ++d) {
      std::uint64_t dirty = dirty_ledger_words_[d];
      dirty_ledger_words_[d] = 0;
      while (dirty != 0) {
        const std::size_t w =
            (d << 6) + static_cast<std::size_t>(std::countr_zero(dirty));
        dirty &= dirty - 1;
        for (std::size_t j = 0; j < 8; ++j) ledger_planes_[j][w] = 0;
      }
    }
    pending_rounds_ = 0;
    return;
  }
  for (std::size_t d = 0; d < dirty_ledger_words_.size(); ++d) {
    std::uint64_t dirty = dirty_ledger_words_[d];
    dirty_ledger_words_[d] = 0;
    while (dirty != 0) {
      const std::size_t w =
          (d << 6) + static_cast<std::size_t>(std::countr_zero(dirty));
      dirty &= dirty - 1;
      const std::size_t base = w << 6;
      const std::size_t end = std::min(n, base + 64);
      for (std::size_t g = 0; base + g < end; g += 8) {
        std::uint64_t bytes = 0;
        for (std::size_t j = 0; j < 8; ++j) {
          const std::uint64_t plane = ledger_planes_[j][w];
          if (plane == 0) continue;
          bytes |= spread_bits_to_bytes((plane >> g) & 0xFF) << j;
        }
        if (bytes == 0) continue;
        const std::size_t limit = std::min<std::size_t>(8, end - base - g);
        for (std::size_t i = 0; i < limit; ++i) {
          beep_counts_[base + g + i] += (bytes >> (i * 8)) & 0xFF;
        }
      }
      for (std::size_t j = 0; j < 8; ++j) ledger_planes_[j][w] = 0;
    }
  }
  pending_rounds_ = 0;
}

// Transposes the state vector into the bit-planes; called when a dense
// round engages the word-parallel sweep. (The beep, leader and active
// sets are current in every gear already.)
void engine::enter_plane_mode() {
  const std::size_t n = n_;
  const state_id* const states = fsm_->raw_states().data();
  for (std::size_t j = 0; j < plan_.plane_count; ++j) {
    std::fill(planes_[j].begin(), planes_[j].end(), 0);
  }
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t bit = 1ULL << (u & 63);
    const state_id s = states[u];
    for (std::size_t j = 0; j < plan_.plane_count; ++j) {
      if ((s >> j) & 1U) planes_[j][u >> 6] |= bit;
    }
  }
  plane_mode_ = true;
}

// Seeds the planes directly from the machine's initial state: every
// lane starts identical, so each plane/flag word is all-ones (masked
// by the tail) or all-zeros. O(words) - the pinned giant path never
// materializes a state vector at all.
void engine::enter_plane_mode_initial() {
  const machine_table& table = *table_;
  const state_id init = fsm_->machine().initial_state();
  const std::size_t words = beep_words_.size();
  const auto fill_all = [&](support::word_buffer& buf) {
    for (std::size_t w = 0; w < words; ++w) {
      buf[w] = (w + 1 == words) ? tail_mask_ : ~0ULL;
    }
  };
  for (std::size_t j = 0; j < plan_.plane_count; ++j) {
    if ((init >> j) & 1U) fill_all(planes_[j]);
  }
  const std::uint8_t meta = table.meta[init];
  if ((meta & machine_table::meta_beep) != 0) {
    fill_all(beep_words_);
    // Bank the round-0 beeps in the ledger so flushes stay exact even
    // when counts are tracked under pinning.
    for (std::size_t w = 0; w < words; ++w) {
      if (beep_words_[w] == 0) continue;
      dirty_ledger_words_[w >> 6] |= 1ULL << (w & 63);
      ledger_planes_[0][w] = beep_words_[w];
    }
    pending_rounds_ = 1;
  }
  if ((meta & machine_table::meta_leader) != 0) {
    fill_all(leader_words_);
    leader_count_ = n_;
  } else {
    leader_count_ = 0;
  }
  if ((meta & machine_table::meta_bot_identity) == 0) {
    fill_all(active_words_);
  }
  plane_mode_ = true;
  fsm_->mark_states_stale();
}

// The lazy unpack behind fsm_protocol::states(): transposes the
// authoritative bit planes back into the uint16 vector (SWAR
// bit-to-byte spread + widening store). This is exactly the write-back
// every plane round used to perform eagerly; now it runs at most once
// per batch of unobserved rounds, on first read.
void engine::materialize_states(std::span<state_id> out) {
  const std::size_t n = n_;
  state_id* const states = out.data();
  const std::size_t words = word_count(n);
  const std::size_t p = plan_.plane_count;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w << 6;
    const std::size_t in_word = std::min<std::size_t>(64, n - base);
    std::size_t i = 0;
    for (; i + 8 <= in_word; i += 8) {
      // Merge the planes before the byte reversal: the multiply parks
      // bit k at the top of byte 7-k, so plane j's flags shift down to
      // bit j of each byte and one bswap fixes the order for all
      // planes at once.
      std::uint64_t acc = 0;
      for (std::size_t j = 0; j < p; ++j) {
        acc |= ((((planes_[j][w] >> i) & 0xFF) * 0x8040201008040201ULL) &
                0x8080808080808080ULL) >>
               (7 - j);
      }
      const std::uint64_t bytes = __builtin_bswap64(acc);
#if defined(__SSE2__)
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(states + base + i),
          _mm_unpacklo_epi8(_mm_cvtsi64_si128(static_cast<long long>(bytes)),
                            _mm_setzero_si128()));
#else
      const std::uint64_t lo = widen_bytes_to_u16(bytes);
      const std::uint64_t hi = widen_bytes_to_u16(bytes >> 32);
      std::memcpy(states + base + i, &lo, 8);
      std::memcpy(states + base + i + 4, &hi, 8);
#endif
    }
    for (; i < in_word; ++i) {
      state_id s = 0;
      for (std::size_t j = 0; j < p; ++j) {
        s |= static_cast<state_id>(((planes_[j][w] >> i) & 1U) << j);
      }
      states[base + i] = s;
    }
  }
}

void engine::check_in_sync() const {
  if (fsm_ != nullptr && fsm_->config_version() != synced_version_) {
    throw std::logic_error(
        "beeping::engine: protocol configuration was replaced "
        "(fsm_protocol::set_states or reset) without "
        "engine::restart_from_protocol(); the engine's round state is "
        "stale");
  }
}

round_view engine::make_view() const {
  round_view view;
  view.round = round_;
  view.topology = &view_;
  view.proto = proto_;
  view.beep_words = beep_words_;
  view.leader_words = leader_words_;
  view.leader_count = leader_count_;
  view.source = this;
  return view;
}

std::span<const std::uint64_t> round_view::beep_counts() const {
  return source->beep_counts();
}

std::uint64_t round_view::beep_count(graph::node_id u) const {
  return source->beep_count(u);
}

const std::vector<state_id>& round_view::states() const {
  if (source->fsm_ == nullptr) {
    throw std::logic_error(
        "beeping::round_view::states: the bound protocol is not an "
        "fsm_protocol");
  }
  return source->fsm_->states();
}

void round_view::class_words(std::uint64_t state_mask,
                             std::span<std::uint64_t> out) const {
  source->class_words(state_mask, out);
}

void engine::class_words(std::uint64_t state_mask,
                         std::span<std::uint64_t> out) const {
  if (fsm_ == nullptr) {
    throw std::logic_error(
        "beeping::engine::class_words: the bound protocol is not an "
        "fsm_protocol");
  }
  const std::size_t words = beep_words_.size();
  if (out.size() != words) {
    throw std::invalid_argument(
        "beeping::engine::class_words: output must hold one word per 64 "
        "nodes");
  }
  if (words == 0) return;
  if (plane_mode_) {
    // Each member state s decodes as the AND over planes of plane j or
    // its complement, by bit j of s; ids past the plane range cannot
    // occur.
    const std::size_t p = plan_.plane_count;
    if (p < 6) state_mask &= (1ULL << (1U << p)) - 1;
    std::fill(out.begin(), out.end(), 0);
    for (std::uint64_t m = state_mask; m != 0; m &= m - 1) {
      const auto s = static_cast<std::uint64_t>(std::countr_zero(m));
      std::uint64_t flip[6];  // 0 keeps plane j, ~0 complements it
      for (std::size_t j = 0; j < p; ++j) flip[j] = ((s >> j) & 1U) - 1;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t t = ~0ULL;
        for (std::size_t j = 0; j < p; ++j) t &= planes_[j][w] ^ flip[j];
        out[w] |= t;
      }
    }
    out[words - 1] &= tail_mask_;
    return;
  }
  const std::size_t n = n_;
  const state_id* const states = fsm_->states().data();
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w << 6;
    const std::size_t in_word = std::min<std::size_t>(64, n - base);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < in_word; ++i) {
      const state_id s = states[base + i];
      if (s < 64 && ((state_mask >> s) & 1ULL) != 0) bits |= 1ULL << i;
    }
    out[w] = bits;
  }
}

void engine::restart_from_protocol() {
  if (config_.giant_mode) {
    throw std::logic_error(
        "beeping::engine: restart_from_protocol is unavailable under "
        "giant mode (the planes are the only state authority)");
  }
  round_ = 0;
  // Per-run introspection restarts with the configuration: plane/kernel
  // round counts, the last-used gather kernel, the telemetry scratch
  // and the crashed set all describe the run that ended here, not the
  // next one. (The topology patch and the adversary hook stay attached
  // - they are configuration, like a forced kernel.)
  plane_rounds_ = 0;
  compiled_rounds_ = 0;
  gather_.reset_last_used();
  metrics_.reset();
  clear_faults();
  std::fill(beep_counts_.begin(), beep_counts_.end(), 0);
  for (auto& lp : ledger_planes_) std::fill(lp.begin(), lp.end(), 0);
  std::fill(dirty_ledger_words_.begin(), dirty_ledger_words_.end(), 0);
  pending_rounds_ = 0;
  refresh_round_state();
  notify_round_observers();
}

void engine::resync_with_protocol() {
  if (config_.giant_mode) {
    throw std::logic_error(
        "beeping::engine: resync_with_protocol is unavailable under "
        "giant mode");
  }
  // Undo the current round's ledger contribution (added by the refresh
  // that entered this round), then recompute all bookkeeping from the
  // protocol's new configuration; the round counter keeps running.
  flush_pending_ledger();  // the contribution may live in the sidecar
  for (std::size_t w = 0; w < beep_words_.size(); ++w) {
    std::uint64_t bits = beep_words_[w];
    while (bits != 0) {
      const auto u = static_cast<graph::node_id>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      --beep_counts_[u];
    }
  }
  refresh_round_state();
  // Corpses stay crashed through an injected configuration; they are
  // re-frozen in whatever the new states say (and re-silenced - the
  // refresh above counted their beeps as if they were alive).
  if (crashed_count_ != 0) refreeze_crashed();
}

// ---- fault-injection surface ---------------------------------------

void engine::require_fault_capable() const {
  if (fsm_ == nullptr || !table_.has_value()) {
    throw std::logic_error(
        "beeping::engine: fault injection requires a compiled "
        "fsm_protocol machine");
  }
  if (config_.giant_mode) {
    throw std::logic_error(
        "beeping::engine: fault injection is unavailable under "
        "giant mode (frozen snapshots would materialize O(n) state)");
  }
}

void engine::ensure_fault_buffers() {
  const std::size_t words = beep_words_.size();
  if (crashed_words_.size() != words) crashed_words_.assign(words, 0);
  if (frozen_states_.size() != n_) frozen_states_.assign(n_, 0);
  if (plane_capable_) {
    for (std::size_t j = 0; j < plan_.plane_count; ++j) {
      if (frozen_planes_[j].size() != words) {
        frozen_planes_[j].assign(words, 0);
      }
    }
    if (frozen_leader_words_.size() != words) {
      frozen_leader_words_.assign(words, 0);
    }
    if (frozen_active_words_.size() != words) {
      frozen_active_words_.assign(words, 0);
    }
  }
}

state_id engine::current_state_of(graph::node_id u) {
  if (plane_mode_) {
    const std::size_t w = u >> 6;
    const std::uint64_t shift = u & 63;
    state_id s = 0;
    for (std::size_t j = 0; j < plan_.plane_count; ++j) {
      s |= static_cast<state_id>(((planes_[j][w] >> shift) & 1ULL) << j);
    }
    return s;
  }
  fsm_->ensure_states_fresh();
  return fsm_->raw_states()[u];
}

void engine::write_lane_state(graph::node_id u, state_id s, bool frozen) {
  const machine_table& table = *table_;
  const std::size_t w = u >> 6;
  const std::uint64_t bit = 1ULL << (u & 63);
  const bool lead = table.leader_flag[s] != 0;
  const bool act = table.bot_identity[s] == 0;
  if (plane_mode_) {
    const state_id prev = current_state_of(u);
    for (std::size_t j = 0; j < plan_.plane_count; ++j) {
      planes_[j][w] =
          (planes_[j][w] & ~bit) | ((((s >> j) & 1U) != 0) ? bit : 0);
    }
    leader_count_ += lead ? 1 : 0;
    leader_count_ -= table.leader_flag[prev];
    fsm_->mark_states_stale();
  } else {
    fsm_->ensure_states_fresh();
    state_id* const states = fsm_->raw_states().data();
    leader_count_ += lead ? 1 : 0;
    leader_count_ -= table.leader_flag[states[u]];
    states[u] = s;
  }
  leader_words_[w] = (leader_words_[w] & ~bit) | (lead ? bit : 0);
  active_words_[w] = (active_words_[w] & ~bit) | (act ? bit : 0);
  if (frozen) {
    frozen_states_[u] = s;
    if (plane_capable_) {
      for (std::size_t j = 0; j < plan_.plane_count; ++j) {
        frozen_planes_[j][w] =
            (frozen_planes_[j][w] & ~bit) | ((((s >> j) & 1U) != 0) ? bit : 0);
      }
      frozen_leader_words_[w] =
          (frozen_leader_words_[w] & ~bit) | (lead ? bit : 0);
      frozen_active_words_[w] =
          (frozen_active_words_[w] & ~bit) | (act ? bit : 0);
    }
  }
}

bool engine::suppress_current_beep(graph::node_id u) {
  const std::size_t w = u >> 6;
  const std::uint64_t bit = 1ULL << (u & 63);
  if ((beep_words_[w] & bit) == 0) return false;
  // The current round's contribution may still sit in the ledger
  // sidecar; fold it into the counts first, then take back exactly one
  // (the resync_with_protocol convention).
  flush_pending_ledger();
  beep_words_[w] &= ~bit;
  if (!beep_counts_.empty()) --beep_counts_[u];
  return true;
}

void engine::crash_with_state(graph::node_id u, state_id s) {
  require_fault_capable();
  check_in_sync();
  if (u >= n_) {
    throw std::invalid_argument("beeping::engine::fault_crash: node out of range");
  }
  if (s >= table_->state_count()) {
    throw std::invalid_argument(
        "beeping::engine::fault_crash: state out of range");
  }
  ensure_fault_buffers();
  const std::size_t w = u >> 6;
  const std::uint64_t bit = 1ULL << (u & 63);
  const bool was_crashed = (crashed_words_[w] & bit) != 0;
  if (was_crashed) {
    crashed_leaders_ -= table_->leader_flag[frozen_states_[u]];
  }
  write_lane_state(u, s, /*frozen=*/true);
  suppress_current_beep(u);
  crashed_words_[w] |= bit;
  if (!was_crashed) ++crashed_count_;
  crashed_leaders_ += table_->leader_flag[s];
  ++metrics_.faults_applied;
}

void engine::fault_crash(graph::node_id u) {
  require_fault_capable();
  if (u >= n_) {
    throw std::invalid_argument("beeping::engine::fault_crash: node out of range");
  }
  if (crashed(u)) return;  // idempotent: already frozen in place
  crash_with_state(u, current_state_of(u));
}

void engine::fault_crash_as(graph::node_id u, state_id s) {
  crash_with_state(u, s);
}

void engine::fault_restart(graph::node_id u) {
  fault_restart_as(u, fsm_ != nullptr ? fsm_->machine().initial_state()
                                      : state_id{0});
}

void engine::fault_restart_as(graph::node_id u, state_id s) {
  require_fault_capable();
  check_in_sync();
  if (u >= n_) {
    throw std::invalid_argument(
        "beeping::engine::fault_restart: node out of range");
  }
  if (s >= table_->state_count()) {
    throw std::invalid_argument(
        "beeping::engine::fault_restart: state out of range");
  }
  if (!crashed(u)) {
    throw std::logic_error(
        "beeping::engine::fault_restart: node is alive (corrupt live "
        "nodes through fsm_protocol::set_states + resync_with_protocol)");
  }
  const std::size_t w = u >> 6;
  const std::uint64_t bit = 1ULL << (u & 63);
  crashed_words_[w] &= ~bit;
  --crashed_count_;
  crashed_leaders_ -= table_->leader_flag[frozen_states_[u]];
  write_lane_state(u, s, /*frozen=*/false);
  // The node re-enters the *current* round's configuration: it beeps
  // this round iff its new state beeps (the crashed lane's bit is
  // guaranteed clear beforehand).
  if (table_->beeps(s)) {
    flush_pending_ledger();
    beep_words_[w] |= bit;
    if (!beep_counts_.empty()) ++beep_counts_[u];
  }
  ++metrics_.faults_applied;
}

void engine::clear_faults() noexcept {
  if (crashed_count_ == 0) return;
  std::fill(crashed_words_.begin(), crashed_words_.end(), 0);
  crashed_count_ = 0;
  crashed_leaders_ = 0;
}

void engine::set_topology_patch(const graph::patch_overlay* patch) {
  if (patch != nullptr && patch->view().node_count() != n_) {
    throw std::invalid_argument(
        "beeping::engine::set_topology_patch: overlay node count mismatch");
  }
  patch_ = patch;
  gather_.set_patch(patch);
}

void engine::mask_crashed_heard() {
  for (std::size_t w = 0; w < crashed_words_.size(); ++w) {
    heard_words_[w] &= ~crashed_words_[w];
  }
}

void engine::fixup_crashed_vector() {
  const machine_table& table = *table_;
  state_id* const states = fsm_->raw_states().data();
  for (std::size_t w = 0; w < crashed_words_.size(); ++w) {
    std::uint64_t c = crashed_words_[w];
    if (c == 0) continue;
    // Silence first: whatever the rolled-back transition beeped is
    // taken back (bit + count), making the corpse's net contribution
    // to this round exactly zero.
    const std::uint64_t bb = beep_words_[w] & c;
    if (bb != 0) {
      beep_words_[w] &= ~bb;
      std::uint64_t bits = bb;
      while (bits != 0) {
        const auto u = static_cast<graph::node_id>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        --beep_counts_[u];
      }
    }
    while (c != 0) {
      const auto offset = static_cast<std::size_t>(std::countr_zero(c));
      const std::uint64_t bit = c & (~c + 1);
      c &= c - 1;
      const auto u = static_cast<graph::node_id>((w << 6) + offset);
      const state_id frozen = frozen_states_[u];
      const state_id cur = states[u];
      if (cur != frozen) {
        leader_count_ += table.leader_flag[frozen];
        leader_count_ -= table.leader_flag[cur];
        states[u] = frozen;
      }
      leader_words_[w] =
          (leader_words_[w] & ~bit) | (table.is_leader(frozen) ? bit : 0);
      active_words_[w] = (active_words_[w] & ~bit) |
                         (table.bot_identity[frozen] == 0 ? bit : 0);
    }
  }
}

void engine::fixup_crashed_plane() {
  for (std::size_t w = 0; w < crashed_words_.size(); ++w) {
    const std::uint64_t c = crashed_words_[w];
    if (c == 0) continue;
    const std::uint64_t bb = beep_words_[w] & c;
    if (bb != 0) {
      beep_words_[w] &= ~bb;
      // Un-bank the sweep's ledger add for these lanes: a ripple-borrow
      // subtract of 1 from each vertical counter (the lane just banked
      // +1, so the counter is >= 1 and the borrow terminates).
      std::uint64_t borrow = bb;
      for (std::size_t j = 0; j < 8 && borrow != 0; ++j) {
        const std::uint64_t old = ledger_planes_[j][w];
        ledger_planes_[j][w] = old ^ borrow;
        borrow &= ~old;
      }
    }
    for (std::size_t j = 0; j < plan_.plane_count; ++j) {
      planes_[j][w] = (planes_[j][w] & ~c) | (frozen_planes_[j][w] & c);
    }
    const std::uint64_t cur_lead = leader_words_[w] & c;
    const std::uint64_t froz_lead = frozen_leader_words_[w] & c;
    if (cur_lead != froz_lead) {
      leader_count_ += static_cast<std::size_t>(std::popcount(froz_lead));
      leader_count_ -= static_cast<std::size_t>(std::popcount(cur_lead));
      leader_words_[w] = (leader_words_[w] & ~c) | froz_lead;
    }
    active_words_[w] = (active_words_[w] & ~c) | (frozen_active_words_[w] & c);
  }
}

void engine::refreeze_crashed() {
  // refresh_round_state just rebuilt all bookkeeping from the new
  // configuration (plane mode is off, states are fresh) - counting
  // crashed lanes as alive; re-snapshot and re-silence them.
  const machine_table& table = *table_;
  const state_id* const states = fsm_->raw_states().data();
  crashed_leaders_ = 0;
  for (std::size_t w = 0; w < crashed_words_.size(); ++w) {
    std::uint64_t c = crashed_words_[w];
    while (c != 0) {
      const std::uint64_t bit = c & (~c + 1);
      const auto u = static_cast<graph::node_id>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(c)));
      c &= c - 1;
      const state_id s = states[u];
      frozen_states_[u] = s;
      crashed_leaders_ += table.leader_flag[s];
      if (plane_capable_) {
        for (std::size_t j = 0; j < plan_.plane_count; ++j) {
          frozen_planes_[j][w] =
              (frozen_planes_[j][w] & ~bit) | ((((s >> j) & 1U) != 0) ? bit : 0);
        }
        frozen_leader_words_[w] = (frozen_leader_words_[w] & ~bit) |
                                  (table.leader_flag[s] != 0 ? bit : 0);
        frozen_active_words_[w] = (frozen_active_words_[w] & ~bit) |
                                  (table.bot_identity[s] == 0 ? bit : 0);
      }
      suppress_current_beep(u);
    }
  }
}

// Reception noise redraws every silent node's verdict from its own
// dedicated stream (exactly one draw per silent node, in node order,
// matching the scalar reference draw for draw). Tiled over word
// ranges: a node's verdict touches only its own word and its own
// dedicated noise stream, so tiles are fully independent and the
// result is bit-identical at every (tile, thread) point.
void engine::apply_noise() {
  const std::size_t n = n_;
  const std::size_t words = heard_words_.size();
  const std::uint64_t* const beep = beep_words_.data();
  std::uint64_t* const heard = heard_words_.data();
  support::rng* const noise = noise_rngs_.data();
  const double miss = noise_.miss;
  const double hallucinate = noise_.hallucinate;
  const auto noise_range = [&](std::size_t /*slot*/, std::size_t wb,
                               std::size_t we) {
    for (std::size_t w = wb; w < we; ++w) {
      const std::size_t base = w << 6;
      const std::size_t limit = n - base < 64 ? n - base : 64;
      const std::uint64_t own = beep[w];
      std::uint64_t hw = heard[w];
      for (std::size_t i = 0; i < limit; ++i) {
        const std::uint64_t mask = 1ULL << i;
        if ((own & mask) != 0) continue;  // own beep is never corrupted
        const bool neighbor_beeped = (hw & mask) != 0;
        const bool h = neighbor_beeped ? !noise[base + i].bernoulli(miss)
                                       : noise[base + i].bernoulli(hallucinate);
        hw = h ? (hw | mask) : (hw & ~mask);
      }
      heard[w] = hw;
    }
  };
  if (exec_) {
    exec_->run_tiles(words, tile_words_, noise_range);
  } else {
    noise_range(0, 0, words);
  }
  namespace tel = support::telemetry;
  if (tel::compiled_in && telemetry_enabled_ && tel::enabled()) {
    if (exec_) {
      ++metrics_.noise_passes_tiled;
    } else {
      ++metrics_.noise_passes_serial;
    }
  }
}

void engine::notify_round_observers() {
  if (observers_.empty()) return;
  const round_view view = make_view();
  for (observer* obs : observers_) {
    obs->on_round(view);
  }
}

// Phase 2 + bookkeeping shared by step() and step_reference(); expects
// heard_words_ to hold the delta_top set for the current round.
void engine::finish_step() {
  const std::size_t n = n_;
  if (fsm_ != nullptr) {
    // Guard-free virtual gear: fsm_protocol::step re-checks the
    // lazy-state guard on every call (~10-15% of a reference round);
    // one freshness check up front buys the whole sweep, which then
    // runs the same per-node virtual delta calls on the raw vector.
    fsm_->ensure_states_fresh();
    const state_machine& machine = fsm_->machine();
    state_id* const states = fsm_->raw_states().data();
    for (graph::node_id u = 0; u < n; ++u) {
      states[u] = test_bit(heard_words_, u)
                      ? machine.delta_top(states[u], rngs_[u])
                      : machine.delta_bot(states[u], rngs_[u]);
    }
  } else {
    proto_->step_round(n, heard_words_, rngs_.source());
  }
  ++round_;
  refresh_round_state();
  // The refresh counted crashed lanes as if alive (their lanes
  // transitioned naturally, keeping the draw sequence gear-identical);
  // roll them back to their frozen snapshots before anyone looks.
  if (crashed_count_ != 0) fixup_crashed_vector();
  notify_round_observers();
}

// Table-driven phase 2 fused with the next round's beep/leader refresh:
// one sweep over heard ∪ active applies the compiled rules to the raw
// state vector and updates all bookkeeping incrementally. Skipped nodes
// (silent, bot row a draw-free self-loop) keep their state, contribute
// no bookkeeping deltas, and - crucially - consume no generator draws,
// so the sweep is draw-for-draw identical to the full virtual loop.
// Tiled over word ranges when enough words carry work: every write
// (states, beep counts, beep/active sets) is word-local, draws come
// from per-node streams, and the leader count folds from per-slot
// deltas - modular arithmetic makes the negative deltas exact.
void engine::finish_step_fast() {
  const machine_table& table = *table_;
  state_id* const states = fsm_->raw_states().data();
  const transition_rule* const rules = table.rules.data();
  const std::uint8_t* const meta = table.meta.data();
  std::uint64_t* const beep_counts = beep_counts_.data();
  const std::uint64_t* const heard = heard_words_.data();
  std::uint64_t* const beep = beep_words_.data();
  std::uint64_t* const active = active_words_.data();
  const std::size_t words = heard_words_.size();
  // Density gate: per-tile claiming costs a fetch_add plus a barrier,
  // which a near-empty sweep (late quiet phase) cannot amortize. Count
  // the populated words first - a read-only scan, so the choice never
  // changes a draw - and fall back to the inline loop below threshold.
  constexpr std::size_t kSparseTiledMinWords = 1024;
  bool tiled = false;
  if (exec_) {
    std::size_t populated = 0;
    for (std::size_t w = 0; w < words; ++w) {
      populated += (heard[w] | active[w]) != 0 ? 1 : 0;
    }
    tiled = populated >= kSparseTiledMinWords;
  }
  // Every current beeper is in the heard set (it hears itself), so the
  // new beep set is rebuilt entirely from visited nodes; visited leader
  // lanes are rebuilt too, while skipped nodes keep their state, hence
  // their leader and active lanes. Bookkeeping accumulates in locals:
  // the loop stores into std::uint64_t arrays, which would otherwise
  // force the member counters back to memory on every iteration (they
  // may alias under TBAA).
  std::uint64_t* const leader = leader_words_.data();
  std::fill(slot_leaders_.begin(), slot_leaders_.end(), 0);
  const auto sweep_range = [&](std::size_t slot, std::size_t wb,
                               std::size_t we) {
    const support::rng_source rngs = rngs_.source(slot);
    // Net leader delta for this range; decrements wrap mod 2^64, and
    // the fold below re-adds every slot's delta, so the sum is exact.
    std::size_t leaders = 0;
    for (std::size_t w = wb; w < we; ++w) {
      const std::uint64_t heard_bits = heard[w];
      std::uint64_t bits = heard_bits | active[w];
      std::uint64_t beep_bits = 0;
      std::uint64_t active_bits = active[w];
      std::uint64_t leader_bits = leader[w] & ~bits;
      while (bits != 0) {
        const auto offset = static_cast<std::size_t>(std::countr_zero(bits));
        const std::uint64_t mask = bits & (~bits + 1);
        bits &= bits - 1;
        const auto u = static_cast<graph::node_id>((w << 6) + offset);
        const state_id s = states[u];
        const transition_rule& rule =
            rules[(static_cast<std::size_t>(s) << 1) |
                  ((heard_bits & mask) != 0 ? 1U : 0U)];
        const state_id next = apply_rule(rule, rngs[u]);
        states[u] = next;
        // Branchless bookkeeping: wave fronts make beep/identity
        // branches unpredictable, so fold the flag bits arithmetically.
        const std::uint64_t next_meta = meta[next];
        const std::uint64_t is_beep = next_meta & machine_table::meta_beep;
        leaders += (next_meta >> 1) & 1U;
        leaders -= (meta[s] >> 1) & 1U;
        beep_counts[u] += is_beep;
        beep_bits |= mask & (0 - is_beep);
        leader_bits |= mask & (0 - ((next_meta >> 1) & 1U));
        active_bits =
            (active_bits | mask) ^ (mask & (0 - ((next_meta >> 2) & 1U)));
      }
      beep[w] = beep_bits;
      leader[w] = leader_bits;
      active[w] = active_bits;
    }
    slot_leaders_[slot] += leaders;
  };
  if (tiled) {
    exec_->run_tiles(words, tile_words_, sweep_range);
    rngs_.sync_all();
  } else {
    sweep_range(0, 0, words);
  }
  std::size_t leaders = leader_count_;
  for (std::size_t s = 0; s < slot_leaders_.size(); ++s) {
    leaders += slot_leaders_[s];
  }
  leader_count_ = leaders;
  namespace tel = support::telemetry;
  if (tel::compiled_in && telemetry_enabled_ && tel::enabled()) {
    if (tiled) {
      ++metrics_.sparse_rounds_tiled;
    } else {
      ++metrics_.sparse_rounds_serial;
    }
  }
  if (crashed_count_ != 0) fixup_crashed_vector();
  ++round_;
  notify_round_observers();
}

void engine::set_compiled_width(std::size_t width) {
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    throw std::invalid_argument(
        "beeping::engine::set_compiled_width: width must be 1, 2, 4 or 8");
  }
  compiled_width_ = width;
}

// The plane round: one sweep over word-range tiles - the matched beepc
// kernel at the configured width, else the interpreted reference (the
// two are draw-for-draw bit-identical; the differential tests enforce
// it per width) - then the shared fold and epilogue. Every word's
// update is independent (per-word planes, per-node generator streams),
// so tiles of consecutive words run on any worker; leader/active
// counts and dirty-ledger bits accumulate per slot and are folded
// after the barrier (sums and ORs - order never matters). Serial
// execution is the one-tile special case. No state write-back: the
// planes stay authoritative and the protocol's vector is unpacked
// lazily on first outside read (materialize_states).
void engine::finish_step_plane() {
  const std::size_t n = n_;
  const std::size_t words = heard_words_.size();
  std::uint64_t* plane_ptrs[6] = {};
  for (std::size_t j = 0; j < plan_.plane_count; ++j) {
    plane_ptrs[j] = planes_[j].data();
  }
  std::uint64_t* ledger_ptrs[8];
  for (std::size_t j = 0; j < 8; ++j) ledger_ptrs[j] = ledger_planes_[j].data();
  plane_ctx ctx;
  ctx.heard = heard_words_.data();
  ctx.beep = beep_words_.data();
  ctx.active = active_words_.data();
  ctx.leader = leader_words_.data();
  ctx.planes = plane_ptrs;
  ctx.ledger = ledger_ptrs;
  ctx.rules = table_->rules.data();
  ctx.table = &*table_;
  ctx.plan = &plan_;
  ctx.tail_mask = tail_mask_;
  ctx.words = words;
  const bool compiled = compiled_kernel_active();
  const sweep_fn sweep =
      compiled ? compiled_kernel_->sweep[kernel_width_slot(compiled_width_)]
               : interpreted_sweep(plan_.plane_count);
  std::fill(slot_leaders_.begin(), slot_leaders_.end(), 0);
  std::fill(slot_active_.begin(), slot_active_.end(), 0);
  const auto sweep_range = [&](std::size_t slot, std::size_t wb,
                               std::size_t we) {
    // Per-tile ctx copy with a slot-local generator source: in
    // lazy-cursor mode each slot owns a scratch generator, so
    // concurrent tiles never share mutable state.
    plane_ctx tile_ctx = ctx;
    tile_ctx.rngs = rngs_.source(slot);
    const sweep_result part = sweep(tile_ctx, slot_dirty_[slot].data(), wb, we);
    slot_leaders_[slot] += part.leaders;
    slot_active_[slot] += part.active;
  };
  if (exec_) {
    exec_->run_tiles(words, tile_words_, sweep_range);
    // Tile->slot assignment is dynamic, so a stream's cursor may sit
    // cached in any slot's scratch generator; flush them all before
    // the next round (or a checkpoint) reads streams. No-op in dense
    // mode.
    rngs_.sync_all();
  } else {
    sweep_range(0, 0, words);
  }
  std::size_t leaders = 0;
  std::size_t active_next = 0;
  for (std::size_t s = 0; s < slot_leaders_.size(); ++s) {
    leaders += slot_leaders_[s];
    active_next += slot_active_[s];
  }
  for (auto& dirty : slot_dirty_) {
    for (std::size_t d = 0; d < dirty.size(); ++d) {
      dirty_ledger_words_[d] |= dirty[d];
      dirty[d] = 0;
    }
  }
  leader_count_ = leaders;
  if (crashed_count_ != 0) fixup_crashed_plane();
  fsm_->mark_states_stale();
  ++round_;
  ++plane_rounds_;
  if (compiled) ++compiled_rounds_;
  if (++pending_rounds_ >= 254) flush_pending_ledger();
  // Hysteresis: when the wave traffic dies down, hand the next rounds
  // back to the sparse sweep - which reads the protocol's vector, so
  // the authority moves back with one unpack here (the active set is
  // maintained in plane rounds, so no rebuild is needed on the way
  // out). Pinned engines never leave: the sparse gear would need the
  // O(n) state vector the giant path refuses to materialize.
  if (!config_.giant_mode && active_next * 8 < n) {
    plane_mode_ = false;
    fsm_->ensure_states_fresh();
  }
  notify_round_observers();
}

void engine::step() {
  check_in_sync();
  // Telemetry probes: counter bumps every round when enabled, clock
  // reads / quiet-word scans / trace spans only on sampled rounds.
  // Probes never touch the RNG streams or the sweep's iteration order
  // (the differential tests pin probes-on == probes-off draw for draw),
  // and tel_on is constant-false when BEEPKIT_TELEMETRY is OFF, so the
  // whole block folds away.
  namespace tel = support::telemetry;
  const bool tel_on = tel::compiled_in && telemetry_enabled_ && tel::enabled();
  const bool sampled = tel_on && tel::round_sampled(round_);
  const std::uint64_t probe_start = sampled ? tel::now_ns() : 0;
  const bool was_plane = plane_mode_;
  // Phase 1: a node applies delta_top iff it beeped or a neighbor did.
  // Seed the heard set with the beep set (a beeper always "hears"),
  // then let the gather dispatch pick its kernel: stencil on tagged
  // topologies, otherwise word-CSR push vs packed pull by beep density
  // (with hysteresis). Every kernel computes the same set, so the
  // choice never affects results.
  std::copy(beep_words_.begin(), beep_words_.end(), heard_words_.begin());
  gather_(beep_words_, heard_words_);
  if (noise_.enabled()) {
    apply_noise();
  }
  // Fault stack, in fixed order: the adversary gets the final say on
  // perception (after noise), then crashed nodes are masked deaf -
  // the hook cannot wake the dead.
  if (heard_hook_) heard_hook_(round_, beep_words_, heard_words_);
  if (crashed_count_ != 0) mask_crashed_heard();
  if (tel_on && patch_ != nullptr) {
    metrics_.fault_patched_words += patch_->patched_words();
  }
  // Phase 2: simultaneous transitions (the heard set is frozen above).
  if (fast_path_active()) {
    if (plane_capable_ && !plane_mode_) {
      // Engage the word-parallel sweep when the visited set is dense:
      // per-node iteration overhead then exceeds whole-word routing.
      std::size_t processed = 0;
      for (std::size_t w = 0; w < heard_words_.size(); ++w) {
        processed += static_cast<std::size_t>(
            std::popcount(heard_words_[w] | active_words_[w]));
      }
      if (processed * 4 >= n_) {
        enter_plane_mode();
        if (tel_on) ++metrics_.plane_entries;
      }
    }
    if (sampled) {
      // Quiet-word rate: the words the plane sweep would skip wholesale
      // (no heard or active lane). A read-only scan of already-computed
      // sets - same answer on every gear.
      const std::size_t words = heard_words_.size();
      std::uint64_t quiet = 0;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t valid = (w + 1 == words) ? tail_mask_ : ~0ULL;
        if (((heard_words_[w] | active_words_[w]) & valid) == 0) ++quiet;
      }
      metrics_.quiet_words += quiet;
      metrics_.scanned_words += words;
    }
    if (plane_mode_) {
      if (tel_on) {
        if (compiled_kernel_active()) {
          ++metrics_.rounds_plane_compiled;
        } else {
          ++metrics_.rounds_plane_interpreted;
        }
      }
      finish_step_plane();
    } else {
      if (tel_on) ++metrics_.rounds_sparse;
      finish_step_fast();
    }
  } else {
    if (tel_on) ++metrics_.rounds_virtual;
    finish_step();
  }
  if (tel_on && was_plane && !plane_mode_) ++metrics_.plane_exits;
  if (sampled) {
    const std::uint64_t dur = tel::now_ns() - probe_start;
    metrics_.round_ns.record(dur);
    ++metrics_.sampled_rounds;
    if (tel::trace_enabled()) {
      tel::trace_complete("round", "engine", probe_start, dur);
    }
  }
}

void engine::step_reference() {
  check_in_sync();
  const std::size_t n = n_;
  // The original scalar loop, kept verbatim in behavior: per-node
  // neighbor scan reading the beep set one bit at a time, writing the
  // packed heard set.
  const auto beeping = [&](graph::node_id v) {
    return test_bit(beep_words_, v);
  };
  const graph::graph* const g = view_.explicit_graph();
  std::fill(heard_words_.begin(), heard_words_.end(), 0);
  for (graph::node_id u = 0; u < n; ++u) {
    bool heard = beeping(u);
    if (!heard) {
      bool neighbor_beeped = false;
      if (patch_ != nullptr && patch_->touched(u)) {
        // Churned neighborhood: the overlay's effective neighbor list
        // replaces the base scan (matches gather + fix_heard exactly).
        patch_->for_each_neighbor(u, [&](graph::node_id v) {
          if (beeping(v)) neighbor_beeped = true;
        });
      } else if (g != nullptr) {
        for (graph::node_id v : g->neighbors(u)) {
          if (beeping(v)) {
            neighbor_beeped = true;
            break;
          }
        }
      } else {
        graph::node_id nb[4];
        const std::size_t deg = view_.implicit_neighbors(u, nb);
        for (std::size_t i = 0; i < deg; ++i) {
          if (beeping(nb[i])) {
            neighbor_beeped = true;
            break;
          }
        }
      }
      heard = neighbor_beeped;
      if (noise_.enabled()) {
        // Reception noise: erase a real beep or hallucinate one. A
        // node's own beep is never affected (it knows its state).
        if (neighbor_beeped) {
          heard = !noise_rngs_[u].bernoulli(noise_.miss);
        } else {
          heard = noise_rngs_[u].bernoulli(noise_.hallucinate);
        }
      }
    }
    if (heard) set_bit(heard_words_, u);
  }
  // Same fault-stack order as step(): adversary hook, then the crash
  // deafness mask.
  if (heard_hook_) heard_hook_(round_, beep_words_, heard_words_);
  if (crashed_count_ != 0) mask_crashed_heard();
  finish_step();
}

run_result engine::run_until_single_leader(std::uint64_t max_rounds) {
  check_in_sync();
  while (round_ < max_rounds) {
    // Both absorbing cases stop the run for leader-monotone protocols;
    // only exactly-one-alive-leader counts as a successful election (a
    // leader frozen inside the crashed set leads nobody; with no
    // faults alive == total, the historical predicate).
    if (alive_leader_count() <= 1) break;
    step();
  }
  return {round_, alive_leader_count() == 1, alive_leader_count()};
}

void engine::run_rounds(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    step();
  }
}

graph::node_id engine::sole_leader() const {
  if (leader_count_ != 1) {
    return static_cast<graph::node_id>(n_);
  }
  // The packed leader set is current in every gear; scanning it never
  // materializes the O(n) state vector (essential for pinned giant
  // engines).
  for (std::size_t w = 0; w < leader_words_.size(); ++w) {
    if (leader_words_[w] != 0) {
      return static_cast<graph::node_id>(
          (w << 6) +
          static_cast<std::size_t>(std::countr_zero(leader_words_[w])));
    }
  }
  return static_cast<graph::node_id>(n_);
}

support::telemetry::engine_metrics engine::telemetry_metrics() const {
  support::telemetry::engine_metrics m = metrics_;
  if (fsm_ != nullptr) m.materializations = fsm_->materialization_count();
  if (exec_) {
    const auto claims = exec_->claim_counts();
    std::uint64_t max_words = 0;
    for (const auto& c : claims) {
      m.tile_claims += c.tiles;
      m.tile_claimed_words += c.words;
      max_words = std::max(max_words, c.words);
    }
    if (m.tile_claimed_words != 0) {
      const double mean = static_cast<double>(m.tile_claimed_words) /
                          static_cast<double>(claims.size());
      m.tile_imbalance = static_cast<double>(max_words) / mean;
    }
  }
  return m;
}

std::uint64_t engine::total_coins_consumed() const noexcept {
  return rngs_.total_coins();
}

engine::plane_state engine::plane_snapshot() {
  if (!plane_mode_) {
    throw std::logic_error(
        "beeping::engine::plane_snapshot: the planes are only "
        "authoritative in plane mode");
  }
  plane_state st;
  st.plane_count = plan_.plane_count;
  for (std::size_t j = 0; j < plan_.plane_count; ++j) {
    st.planes[j] = {planes_[j].data(), planes_[j].size()};
  }
  st.beep = {beep_words_.data(), beep_words_.size()};
  st.active = {active_words_.data(), active_words_.size()};
  st.leader = {leader_words_.data(), leader_words_.size()};
  for (std::size_t j = 0; j < 8; ++j) {
    st.ledger[j] = {ledger_planes_[j].data(), ledger_planes_[j].size()};
  }
  st.dirty = {dirty_ledger_words_.data(), dirty_ledger_words_.size()};
  st.round = round_;
  st.leaders = leader_count_;
  st.pending_rounds = pending_rounds_;
  return st;
}

void engine::adopt_plane_state(std::uint64_t round, std::size_t leaders,
                               std::uint32_t pending_rounds) {
  if (!plane_mode_) {
    throw std::logic_error(
        "beeping::engine::adopt_plane_state: requires plane mode "
        "(bind with engine_config::giant)");
  }
  round_ = round;
  leader_count_ = leaders;
  pending_rounds_ = pending_rounds;
  if (fsm_ != nullptr) fsm_->mark_states_stale();
}

}  // namespace beepkit::beeping
