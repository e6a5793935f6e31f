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
  // Bind-time fast-path detection: an FSM protocol whose machine
  // compiles to a flat table runs rounds without virtual dispatch.
  fsm_ = dynamic_cast<fsm_protocol*>(&proto);
  if (fsm_ != nullptr) {
    table_ = fsm_->machine().compile_table();
  }
  plane_capable_ = table_.has_value() && beeping::plane_capable(*table_);
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
    // A draw cursor can only replay a stream whose draws are uniform
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
    // No O(n) state vector: the planes seeded below are the only state
    // authority for the whole run.
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
    // Planes authoritative: outside reads of the protocol's state
    // vector unpack from the planes on demand (lazy materialization).
    fsm_->bind_lazy_source(this);
  }
  if (fast_path_active()) {
    // The reset put every lane in the initial state.
    enter_plane_mode_initial();
    synced_version_ = fsm_->config_version();
  } else {
    refresh_round_state();
  }
  bind_plane_round();
}

engine::~engine() {
  // The protocol outlives the engine: flush any pending lazy unpack
  // and detach the hook before the planes disappear. Giant engines
  // abandon instead - the O(n) unpack is exactly what the
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
    tile_words_ = 0;  // a serial round runs no tiles
    rngs_.set_slots(1);
    // Serial rounds write the leader count directly.
    slot_leaders_.clear();
    bind_plane_round();
    return;
  }
  if (!exec_ || exec_->thread_count() != resolved) {
    exec_ = std::make_unique<support::tile_executor>(resolved);
  }
  tile_words_ = tile_words != 0 ? tile_words : support::kL2TileWords;
  gather_.set_executor(exec_.get(), tile_words_);
  // One lazy-store scratch context per executor slot: tiles own
  // disjoint stream ranges, and every round syncs all slots before its
  // tiles draw (see rng_store's class comment).
  rngs_.set_slots(resolved);
  slot_leaders_.assign(resolved, 0);
  bind_plane_round();
}

void engine::add_observer(observer* obs) {
  // The round-0 call runs first: an observer that rejects the binding
  // (throws) is never attached.
  obs->on_round(make_view());
  observers_.push_back(obs);
}

void engine::refresh_round_state() {
  const std::size_t n = n_;
  if (fsm_ == nullptr) {
    // Any other protocol reads out the whole round in one call.
    leader_count_ = proto_->round_sets(n, beep_words_, leader_words_);
    return;
  }
  // The protocol's state vector is the source of truth here: it was
  // just written by the virtual gear, or injected by set_states.
  fsm_->ensure_states_fresh();
  if (fast_path_active()) {
    enter_plane_mode();
  } else {
    // Virtual gear: states are fresh (see above), so read the flags
    // through the machine directly instead of paying the per-call guard
    // in fsm_protocol::beeping/is_leader.
    const state_machine& machine = fsm_->machine();
    const state_id* const states = fsm_->raw_states().data();
    leader_count_ = 0;
    std::fill(beep_words_.begin(), beep_words_.end(), 0);
    std::fill(leader_words_.begin(), leader_words_.end(), 0);
    for (graph::node_id u = 0; u < n; ++u) {
      if (machine.beeps(states[u]) && !crashed(u)) {  // a corpse never beeps
        set_bit(beep_words_, u);
      }
      if (machine.is_leader(states[u])) {
        ++leader_count_;
        set_bit(leader_words_, u);
      }
    }
  }
  synced_version_ = fsm_->config_version();
}

void engine::set_fast_path_enabled(bool enabled) {
  if (!enabled && config_.giant_mode) {
    throw std::logic_error(
        "beeping::engine: the virtual gear is unavailable under "
        "giant mode");
  }
  if (enabled == fast_enabled_ || !plane_capable_) {
    fast_enabled_ = enabled;
    return;
  }
  // The state authority moves with the gear: the virtual gear reads the
  // protocol's vector (one unpack on the way out), the plane gear the
  // planes (one transpose on the way in). The beep and leader words
  // are current in both gears, so this round's sets stand.
  fsm_->ensure_states_fresh();
  fast_enabled_ = enabled;
  if (enabled) enter_plane_mode();
  bind_plane_round();
}

// Transposes the protocol's state vector into the bit planes, one word
// of lanes at a time, and rebuilds the beep, leader and active words
// from the table: the way into the plane gear after a configuration
// change or a return from the virtual gear. Crashed lanes keep their
// beep bit clear (a corpse never beeps).
void engine::enter_plane_mode() {
  const std::size_t n = n_;
  const machine_table& table = *table_;
  const state_id* const states = fsm_->raw_states().data();
  const std::size_t p = plan_.plane_count;
  leader_count_ = 0;
  for (std::size_t w = 0; w < beep_words_.size(); ++w) {
    const std::size_t base = w << 6;
    const std::size_t in_word = std::min<std::size_t>(64, n - base);
    std::uint64_t plane_bits[max_planes] = {};
    std::uint64_t beep = 0;
    std::uint64_t lead = 0;
    std::uint64_t act = 0;
    // Branchless: state ids and flags are data-dependent, so tests
    // would mispredict on every mixed word.
    for (std::size_t i = 0; i < in_word; ++i) {
      const std::uint64_t s = states[base + i];
      for (std::size_t j = 0; j < p; ++j) plane_bits[j] |= ((s >> j) & 1U) << i;
      const std::uint64_t meta = table.meta[s];
      beep |= (meta & machine_table::meta_beep) << i;
      lead |= ((meta >> 1) & 1U) << i;   // meta_leader
      act |= ((~meta >> 2) & 1U) << i;   // not meta_bot_identity
    }
    for (std::size_t j = 0; j < p; ++j) planes_[j][w] = plane_bits[j];
    if (crashed_count_ != 0) beep &= ~crashed_words_[w];
    beep_words_[w] = beep;
    leader_words_[w] = lead;
    active_words_[w] = act;
    leader_count_ += static_cast<std::size_t>(std::popcount(lead));
  }
}

// Seeds the planes directly from the machine's initial state: every
// lane starts identical, so each plane/flag word is all-ones (masked
// by the tail) or all-zeros. O(words) - a giant engine never
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
  if ((meta & machine_table::meta_beep) != 0) fill_all(beep_words_);
  if ((meta & machine_table::meta_leader) != 0) {
    fill_all(leader_words_);
    leader_count_ = n_;
  } else {
    leader_count_ = 0;
  }
  if ((meta & machine_table::meta_bot_identity) == 0) {
    fill_all(active_words_);
  }
  // A deferred reset left the vector empty; an ordinary reset already
  // wrote the initial state everywhere, so that cache is fresh.
  if (config_.giant_mode) fsm_->mark_states_stale();
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
  if (fast_path_active()) {
    // Each member state s decodes as the AND over planes of plane j or
    // its complement, by bit j of s; ids past the plane range cannot
    // occur.
    const std::size_t p = plan_.plane_count;
    if (p < 6) state_mask &= (1ULL << (1U << p)) - 1;
    std::fill(out.begin(), out.end(), 0);
    for (std::uint64_t m = state_mask; m != 0; m &= m - 1) {
      const auto s = static_cast<std::uint64_t>(std::countr_zero(m));
      std::uint64_t flip[max_planes];  // 0 keeps plane j, ~0 complements it
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
  round_base_ = 0;
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
  refresh_round_state();
  bind_plane_round();
  notify_round_observers();
}

void engine::resync_with_protocol() {
  if (config_.giant_mode) {
    throw std::logic_error(
        "beeping::engine: resync_with_protocol is unavailable under "
        "giant mode");
  }
  // Recompute all bookkeeping from the protocol's new configuration;
  // the round counter keeps running.
  refresh_round_state();
  bind_plane_round();
  // Corpses stay crashed through an injected configuration; they are
  // re-frozen in whatever the new states say (the refresh above kept
  // them silent).
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
  if (fast_path_active()) {
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
  if (fast_path_active()) {
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
  beep_words_[w] &= ~bit;  // a corpse never beeps, from this round on
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
  if (table_->beeps(s)) beep_words_[w] |= bit;
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

void engine::restore_crashed_states() {
  state_id* const states = fsm_->raw_states().data();
  for (std::size_t w = 0; w < crashed_words_.size(); ++w) {
    for (std::uint64_t c = crashed_words_[w]; c != 0; c &= c - 1) {
      const auto u = static_cast<graph::node_id>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(c)));
      states[u] = frozen_states_[u];
    }
  }
}

void engine::fixup_crashed_plane() {
  for (std::size_t w = 0; w < crashed_words_.size(); ++w) {
    const std::uint64_t c = crashed_words_[w];
    if (c == 0) continue;
    beep_words_[w] &= ~c;
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
  // configuration (states are fresh, crashed lanes silent);
  // re-snapshot the corpses.
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
    // Crashed lanes transitioned naturally, keeping the draw sequence
    // gear-identical; roll them back to their frozen snapshots before
    // the refresh reads them (it also keeps them silent).
    if (crashed_count_ != 0) restore_crashed_states();
  } else {
    proto_->step_round(n, heard_words_, rngs_.source());
  }
  ++round_;
  refresh_round_state();
  notify_round_observers();
}

// Binds everything a plane round reads: the word and plane pointers
// (arena buffers, stable for the engine's life), the rules,
// plan and tail mask, and the sweep entry point - the matched beepc
// kernel, else the interpreted reference (the two are draw-for-draw
// bit-identical; the differential tests enforce it). Runs at bind and
// in every setter that changes one of them, so a round reads one ready
// context.
void engine::bind_plane_round() noexcept {
  if (!plane_capable_) return;
  for (std::size_t j = 0; j < plan_.plane_count; ++j) {
    plane_ptrs_[j] = planes_[j].data();
  }
  plane_ctx_.heard = heard_words_.data();
  plane_ctx_.beep = beep_words_.data();
  plane_ctx_.active = active_words_.data();
  plane_ctx_.leader = leader_words_.data();
  plane_ctx_.planes = plane_ptrs_.data();
  plane_ctx_.rngs = rngs_.source();
  plane_ctx_.rules = table_->rules.data();
  plane_ctx_.table = &*table_;
  plane_ctx_.plan = &plan_;
  plane_ctx_.tail_mask = tail_mask_;
  plane_ctx_.words = heard_words_.size();
  sweep_compiled_ = compiled_kernel_active();
  sweep_ = sweep_compiled_ ? compiled_kernel_->sweep
                           : interpreted_sweep(plan_.plane_count);
}

// The tiled plane sweep: every word's update is independent (per-word
// planes, per-node generator streams), so tiles of consecutive words
// run on any worker; leader counts accumulate per slot and are summed
// after the barrier (order never matters). Returns the leader count.
std::size_t engine::sweep_tiled() {
  std::fill(slot_leaders_.begin(), slot_leaders_.end(), 0);
  exec_->run_tiles(plane_ctx_.words, tile_words_,
                   [&](std::size_t slot, std::size_t wb, std::size_t we) {
                     // Per-tile ctx copy with a slot-local generator
                     // source: in lazy-cursor mode each slot owns a
                     // scratch generator, so concurrent tiles never
                     // share mutable state.
                     plane_ctx tile_ctx = plane_ctx_;
                     tile_ctx.rngs = rngs_.source(slot);
                     slot_leaders_[slot] += sweep_(tile_ctx, wb, we).leaders;
                   });
  std::size_t leaders = 0;
  for (const std::size_t part : slot_leaders_) leaders += part;
  return leaders;
}

engine::call_knobs engine::read_call_knobs() const {
  namespace tel = support::telemetry;
  call_knobs k;
  k.plane = fast_path_active();
  k.tel_on = tel::compiled_in && telemetry_enabled_ && tel::enabled();
  k.stride = k.tel_on ? tel::round_sample_stride() : 0;
  if (k.stride != 0) {
    // The first round r >= round_ with r % stride == 0; later samples
    // follow every stride rounds (round_ advances by one per round).
    const std::uint64_t into = round_ % k.stride;
    k.next_sample = into == 0 ? round_ : round_ + (k.stride - into);
  }
  k.noise = noise_.enabled();
  k.hook = static_cast<bool>(heard_hook_);
  k.crashed = crashed_count_ != 0;
  k.patch = patch_ != nullptr;
  k.observers = !observers_.empty();
  return k;
}

// One synchronous round transition (t -> t+1) under the call's knobs:
// the one round body, inlined into step() and both run loops.
//
// Telemetry probes: clock reads, quiet-word scans and trace spans run
// only on sampled rounds; the gear counters are derived from the round
// counts (telemetry_metrics), so an unsampled round pays no probe at
// all. Probes never touch the RNG streams or the sweep's iteration
// order (the differential tests pin probes-on == probes-off draw for
// draw), and tel_on is constant-false when BEEPKIT_TELEMETRY is OFF.
//
// Plane rounds: one sweep over the bound context - serially straight
// into the leader count, or over word-range tiles (sweep_tiled) - then
// the crash fix-up.
// No state write-back: the planes stay authoritative and the
// protocol's vector is unpacked lazily on first outside read
// (materialize_states).
[[gnu::always_inline]] inline void engine::run_round(call_knobs& k) {
  namespace tel = support::telemetry;
  const bool sampled = round_ == k.next_sample;
  std::uint64_t probe_start = 0;
  if (sampled) {
    k.next_sample += k.stride;
    probe_start = tel::now_ns();
  }
  // Lazy streams: a round draws at most once per node, so no cursor
  // passes round_ + 1. Make that storable, and fold back any stream a
  // single-stream access left in a slot's scratch, before any tile
  // draws: the batched draws never widen the cursor array.
  if (rngs_.is_lazy()) {
    rngs_.reserve_draws(round_ + 1, exec_.get());
    rngs_.sync_all();
  }
  // Phase 1: a node applies delta_top iff it beeped or a neighbor did.
  // The gather writes B ∪ N(B) (a beeper always "hears"), through the
  // kernel its dispatch picks: stencil on tagged topologies, otherwise
  // word-CSR push vs pull by beep density (with hysteresis). Every
  // kernel computes the same set, so the choice never affects results.
  gather_(beep_words_, heard_words_);
  if (k.noise) {
    apply_noise();
    if (k.tel_on) {
      ++(exec_ ? metrics_.noise_passes_tiled : metrics_.noise_passes_serial);
    }
  }
  // Fault stack, in fixed order: the adversary gets the final say on
  // perception (after noise), then crashed nodes are masked deaf -
  // the hook cannot wake the dead.
  if (k.hook) heard_hook_(round_, beep_words_, heard_words_);
  if (k.crashed) mask_crashed_heard();
  if (k.tel_on && k.patch) {
    metrics_.fault_patched_words += patch_->patched_words();
  }
  // Phase 2: simultaneous transitions (the heard set is frozen above).
  if (k.plane) {
    if (sampled) {
      // Quiet-word rate: the words the plane sweep skips wholesale (no
      // heard or active lane). A read-only scan of already-computed
      // sets.
      const std::size_t words = heard_words_.size();
      std::uint64_t quiet = 0;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t valid = (w + 1 == words) ? tail_mask_ : ~0ULL;
        if (((heard_words_[w] | active_words_[w]) & valid) == 0) ++quiet;
      }
      metrics_.quiet_words += quiet;
      metrics_.scanned_words += words;
    }
    leader_count_ =
        exec_ ? sweep_tiled() : sweep_(plane_ctx_, 0, plane_ctx_.words).leaders;
    if (k.crashed) fixup_crashed_plane();
    fsm_->mark_states_stale();
    ++round_;
    ++plane_rounds_;
    if (sweep_compiled_) ++compiled_rounds_;
    if (k.observers) notify_round_observers();
  } else {
    finish_step();
  }
  if (sampled) {
    const std::uint64_t dur = tel::now_ns() - probe_start;
    metrics_.round_ns.record(dur);
    ++metrics_.sampled_rounds;
    if (tel::trace_enabled()) {
      tel::trace_complete("round", "engine", probe_start, dur);
    }
  }
}

void engine::step() {
  check_in_sync();
  call_knobs knobs = read_call_knobs();
  run_round(knobs);
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
  call_knobs knobs = read_call_knobs();
  // Both absorbing cases stop the run for leader-monotone protocols;
  // only exactly-one-alive-leader counts as a successful election (a
  // leader frozen inside the crashed set leads nobody; with no faults
  // alive == total, the historical predicate).
  while (round_ < max_rounds && alive_leader_count() > 1) {
    run_round(knobs);
  }
  return {round_, alive_leader_count() == 1, alive_leader_count()};
}

void engine::run_rounds(std::uint64_t count) {
  check_in_sync();
  call_knobs knobs = read_call_knobs();
  for (std::uint64_t i = 0; i < count; ++i) run_round(knobs);
}

graph::node_id engine::sole_leader() const {
  if (alive_leader_count() != 1) {
    return static_cast<graph::node_id>(n_);
  }
  // The packed leader set is current in every gear; scanning it never
  // materializes the O(n) state vector (essential for giant
  // engines). Corpses frozen in a leader state are masked out.
  for (std::size_t w = 0; w < leader_words_.size(); ++w) {
    std::uint64_t alive = leader_words_[w];
    if (crashed_count_ != 0) alive &= ~crashed_words_[w];
    if (alive != 0) {
      return static_cast<graph::node_id>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(alive)));
    }
  }
  return static_cast<graph::node_id>(n_);
}

support::telemetry::engine_metrics engine::telemetry_metrics() const {
  namespace tel = support::telemetry;
  support::telemetry::engine_metrics m = metrics_;
  // The gear counters are derived, not bumped per round: every round
  // this engine ran is a plane round (compiled or interpreted) or a
  // virtual one.
  if (tel::compiled_in && telemetry_enabled_) {
    m.rounds_plane_compiled = compiled_rounds_;
    m.rounds_plane_interpreted = plane_rounds_ - compiled_rounds_;
    m.rounds_virtual = round_ - round_base_ - plane_rounds_;
  }
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
  if (!fast_path_active()) {
    throw std::logic_error(
        "beeping::engine::plane_snapshot: the planes are only "
        "authoritative in the plane gear");
  }
  plane_state st;
  st.plane_count = plan_.plane_count;
  for (std::size_t j = 0; j < plan_.plane_count; ++j) {
    st.planes[j] = {planes_[j].data(), planes_[j].size()};
  }
  st.beep = {beep_words_.data(), beep_words_.size()};
  st.active = {active_words_.data(), active_words_.size()};
  st.leader = {leader_words_.data(), leader_words_.size()};
  st.round = round_;
  st.leaders = leader_count_;
  return st;
}

void engine::adopt_plane_state(std::uint64_t round, std::size_t leaders) {
  if (!fast_path_active()) {
    throw std::logic_error(
        "beeping::engine::adopt_plane_state: requires the plane gear");
  }
  // A resumed engine reports only the rounds it runs itself.
  round_base_ += round - round_;
  round_ = round;
  leader_count_ = leaders;
  if (fsm_ != nullptr) fsm_->mark_states_stale();
}

}  // namespace beepkit::beeping
