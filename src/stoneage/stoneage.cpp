#include "stoneage/stoneage.hpp"

#include <algorithm>
#include <stdexcept>

namespace beepkit::stoneage {

namespace {

/// The beep symbol of a two-symbol beep automaton (bfw_stoneage.hpp
/// pins silent = 0, beep = 1; the fast path requires this layout).
constexpr symbol beep_symbol = 1;

}  // namespace

engine::engine(graph::topology_view view, const automaton& machine,
               std::uint32_t threshold, std::uint64_t seed)
    : view_(std::move(view)),
      n_(view_.node_count()),
      machine_(&machine),
      threshold_(threshold) {
  if (threshold_ == 0) {
    throw std::invalid_argument("stoneage::engine: threshold must be >= 1");
  }
  census_.assign(machine.alphabet_size(), 0);
  // Fast-path bind: an automaton that is a beeping machine in disguise
  // runs on the beeping engine. The hook contract (two symbols,
  // matching display/leader predicates) is verified here; any
  // violation is a bug in the automaton, not a reason to fall back
  // silently.
  if (const beeping::state_machine* bm = machine.beep_machine();
      bm != nullptr) {
    if (machine.alphabet_size() != 2 ||
        bm->state_count() != machine.state_count()) {
      throw std::invalid_argument(
          "stoneage::engine: beep_machine() automaton must have alphabet "
          "{silent, beep} and matching state count");
    }
    for (std::size_t s = 0; s < machine.state_count(); ++s) {
      const auto state = static_cast<state_id>(s);
      if ((machine.display(state) == beep_symbol) != bm->beeps(state) ||
          machine.is_leader(state) != bm->is_leader(state)) {
        throw std::invalid_argument(
            "stoneage::engine: beep_machine() display/leader predicates "
            "disagree with the automaton");
      }
    }
    // A machine the plane round cannot serve (uncompiled, or beyond
    // beeping::plane_capable) simply keeps the generic census path.
    const auto table = bm->compile_table();
    if (table.has_value() && beeping::plane_capable(*table)) {
      plane_ = std::make_unique<plane_delegate>(view_, *bm, seed);
      return;
    }
  }
  rngs_ = support::make_node_streams(seed, n_);
  states_.assign(n_, machine.initial_state());
  next_states_.assign(n_, machine.initial_state());
  refresh_counters();
}

void engine::set_fast_path_enabled(bool enabled) {
  if (!plane_ || enabled == fast_enabled_) {
    fast_enabled_ = enabled;
    return;
  }
  fast_enabled_ = enabled;
  if (!enabled) {
    // Hand the configuration to the census path; the per-node streams
    // stay in the delegate (node_rng).
    states_ = plane_->proto.states();
    next_states_.resize(n_);
    leader_count_ = plane_->sim.leader_count();
    return;
  }
  // Adopt the census path's configuration as the current round; the
  // round counter keeps running.
  plane_->proto.set_states(states_);
  plane_->sim.resync_with_protocol();
}

void engine::set_parallelism(std::size_t threads, std::size_t tile_words) {
  if (plane_) plane_->sim.set_parallelism(threads, tile_words);
}

void engine::set_compiled_width(std::size_t width) {
  if (plane_) plane_->sim.set_compiled_width(width);
}

void engine::set_gather_kernel(graph::gather_kernel kernel) {
  if (!plane_) {
    throw std::logic_error(
        "stoneage::engine::set_gather_kernel: no packed gather - the "
        "automaton exposes no beep_machine(), so rounds take the generic "
        "census path");
  }
  plane_->sim.set_gather_kernel(kernel);
}

void engine::set_topology_patch(const graph::patch_overlay* patch) {
  if (!plane_) {
    throw std::logic_error(
        "stoneage::engine::set_topology_patch: no packed gather - the "
        "automaton exposes no beep_machine(), so rounds take the generic "
        "census path");
  }
  plane_->sim.set_topology_patch(patch);
}

void engine::set_telemetry_enabled(bool enabled) noexcept {
  telemetry_enabled_ = enabled;
  if (plane_) plane_->sim.set_telemetry_enabled(enabled);
}

void engine::refresh_counters() {
  leader_count_ = 0;
  for (state_id s : states_) {
    if (machine_->is_leader(s)) ++leader_count_;
  }
}

void engine::step() {
  if (fast_path_active()) {
    plane_->sim.step();
  } else {
    step_census();
  }
}

// The generic round: clipped census of the neighbors' displayed
// symbols, then the automaton's virtual transition.
void engine::step_census() {
  // Same probe discipline as beeping::engine::step: counter bumps when
  // enabled, clock reads and trace spans only on sampled rounds, and
  // never a probe that could touch RNG streams or iteration order.
  namespace tel = support::telemetry;
  const bool tel_on = tel::compiled_in && telemetry_enabled_ && tel::enabled();
  const bool sampled = tel_on && tel::round_sampled(round());
  const std::uint64_t probe_start = sampled ? tel::now_ns() : 0;
  if (tel_on) ++metrics_.rounds_virtual;
  for (graph::node_id u = 0; u < n_; ++u) {
    std::fill(census_.begin(), census_.end(), 0U);
    view_.for_each_neighbor(u, [&](graph::node_id v) {
      const symbol sigma = machine_->display(states_[v]);
      if (census_[sigma] < threshold_) ++census_[sigma];
    });
    next_states_[u] = machine_->transition(states_[u], census_, node_rng(u));
  }
  states_.swap(next_states_);
  ++round_;
  refresh_counters();
  if (sampled) {
    const std::uint64_t dur = tel::now_ns() - probe_start;
    metrics_.round_ns.record(dur);
    ++metrics_.sampled_rounds;
    if (tel::trace_enabled()) {
      tel::trace_complete("round", "stoneage", probe_start, dur);
    }
  }
}

support::telemetry::engine_metrics engine::telemetry_metrics() const {
  if (!plane_) return metrics_;
  support::telemetry::engine_metrics m = plane_->sim.telemetry_metrics();
  m.rounds_virtual += metrics_.rounds_virtual;
  m.sampled_rounds += metrics_.sampled_rounds;
  m.round_ns.merge(metrics_.round_ns);
  return m;
}

void engine::run_rounds(std::uint64_t count) {
  if (fast_path_active()) {
    plane_->sim.run_rounds(count);
    return;
  }
  for (std::uint64_t i = 0; i < count; ++i) step_census();
}

engine::run_result engine::run_until_single_leader(std::uint64_t max_rounds) {
  if (fast_path_active()) {
    // The delegate counts only its own rounds; census rounds run
    // before a toggle are the offset.
    const auto r = plane_->sim.run_until_single_leader(
        max_rounds - std::min(round_, max_rounds));
    return {round(), r.converged, r.leaders};
  }
  while (round() < max_rounds && leader_count_ > 1) step_census();
  return {round(), leader_count_ == 1, leader_count_};
}

graph::node_id engine::sole_leader() const {
  if (fast_path_active()) return plane_->sim.sole_leader();
  if (leader_count_ != 1) return static_cast<graph::node_id>(n_);
  for (graph::node_id u = 0; u < n_; ++u) {
    if (machine_->is_leader(states_[u])) return u;
  }
  return static_cast<graph::node_id>(n_);
}

void engine::set_states(std::vector<state_id> states) {
  if (states.size() != n_) {
    throw std::invalid_argument("stoneage::engine::set_states: size mismatch");
  }
  for (state_id s : states) {
    if (s >= machine_->state_count()) {
      throw std::invalid_argument(
          "stoneage::engine::set_states: invalid state id");
    }
  }
  if (fast_path_active()) {
    plane_->proto.set_states(std::move(states));
    plane_->sim.resync_with_protocol();
    return;
  }
  states_ = std::move(states);
  refresh_counters();
}

}  // namespace beepkit::stoneage
