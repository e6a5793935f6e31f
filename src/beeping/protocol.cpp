#include "beeping/protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace beepkit::beeping {

namespace {

void check_successor(const state_machine& machine, state_id successor,
                     const char* what) {
  if (successor >= machine.state_count()) {
    throw std::invalid_argument(std::string("build_machine_table: ") + what +
                                " successor out of range for " +
                                machine.name());
  }
}

void check_rule(const state_machine& machine, const transition_rule& rule,
                const char* row) {
  if (rule.draw == transition_rule::draw_kind::none) {
    check_successor(machine, rule.next, row);
  } else {
    check_successor(machine, rule.on_true, row);
    check_successor(machine, rule.on_false, row);
  }
  if (rule.draw == transition_rule::draw_kind::bernoulli &&
      !(rule.p >= 0.0 && rule.p <= 1.0)) {
    throw std::invalid_argument(
        "build_machine_table: bernoulli parameter outside [0, 1] for " +
        machine.name());
  }
}

}  // namespace

void protocol::step(graph::node_id /*node*/, bool /*heard*/,
                    support::rng& /*node_rng*/) {
  throw std::logic_error(name() +
                         " advances whole rounds only (step_round); it has "
                         "no per-node step");
}

void protocol::step_round(std::size_t node_count,
                          std::span<const std::uint64_t> heard,
                          support::rng_source rngs) {
  for (graph::node_id u = 0; u < node_count; ++u) {
    step(u, ((heard[u >> 6] >> (u & 63)) & 1ULL) != 0, rngs[u]);
  }
}

std::size_t protocol::round_sets(std::size_t node_count,
                                 std::span<std::uint64_t> beep,
                                 std::span<std::uint64_t> leader) const {
  std::fill(beep.begin(), beep.end(), 0);
  std::fill(leader.begin(), leader.end(), 0);
  std::size_t leaders = 0;
  for (graph::node_id u = 0; u < node_count; ++u) {
    const std::uint64_t bit = 1ULL << (u & 63);
    if (beeping(u)) beep[u >> 6] |= bit;
    if (is_leader(u)) {
      ++leaders;
      leader[u >> 6] |= bit;
    }
  }
  return leaders;
}

machine_table build_machine_table(const state_machine& machine,
                                  std::span<const transition_rule> bot,
                                  std::span<const transition_rule> top) {
  const std::size_t n = machine.state_count();
  if (bot.size() != n || top.size() != n) {
    throw std::invalid_argument(
        "build_machine_table: row count != state_count for " + machine.name());
  }
  machine_table table;
  table.rules.resize(2 * n);
  table.beep_flag.resize(n);
  table.leader_flag.resize(n);
  table.bot_identity.resize(n);
  table.meta.resize(n);
  // Scratch generator for probing deterministic rows; by definition a
  // deterministic delta never draws from it.
  support::rng probe(0x7ab1e5ULL);
  for (std::size_t s = 0; s < n; ++s) {
    const auto state = static_cast<state_id>(s);
    check_rule(machine, bot[s], "delta_bot");
    check_rule(machine, top[s], "delta_top");
    // Deterministic rows can be verified against the virtual deltas
    // outright; stochastic rows are pinned by the differential tests.
    if (bot[s].draw == transition_rule::draw_kind::none &&
        machine.delta_bot(state, probe) != bot[s].next) {
      throw std::invalid_argument(
          "build_machine_table: delta_bot row disagrees with machine " +
          machine.name() + " in state " + machine.state_name(state));
    }
    if (top[s].draw == transition_rule::draw_kind::none &&
        machine.delta_top(state, probe) != top[s].next) {
      throw std::invalid_argument(
          "build_machine_table: delta_top row disagrees with machine " +
          machine.name() + " in state " + machine.state_name(state));
    }
    table.rules[2 * s] = bot[s];
    table.rules[2 * s + 1] = top[s];
    table.beep_flag[s] = machine.beeps(state) ? 1 : 0;
    table.leader_flag[s] = machine.is_leader(state) ? 1 : 0;
    table.bot_identity[s] =
        (bot[s].draw == transition_rule::draw_kind::none &&
         bot[s].next == state)
            ? 1
            : 0;
    table.meta[s] = static_cast<std::uint8_t>(
        (table.beep_flag[s] != 0 ? machine_table::meta_beep : 0) |
        (table.leader_flag[s] != 0 ? machine_table::meta_leader : 0) |
        (table.bot_identity[s] != 0 ? machine_table::meta_bot_identity : 0));
  }
  return table;
}

void fsm_protocol::materialize_cold() const {
  states_stale_ = false;
  // A deferred reset leaves the vector empty; grow it on the first
  // read that actually needs it.
  if (deferred_nodes_ != 0 && states_.size() != deferred_nodes_) {
    states_.resize(deferred_nodes_);
  }
  if (source_ == nullptr) {
    // Deferred reset with no authority bound yet: every node still
    // sits in the initial state.
    std::fill(states_.begin(), states_.end(), machine_->initial_state());
    return;
  }
  ++materializations_;
  source_->materialize_states(std::span<state_id>(states_));
}

void fsm_protocol::reset(std::size_t node_count, support::rng& /*init_rng*/) {
  // Wholesale overwrite: the fresh vector is the new truth, so any
  // pending lazy unpack is moot.
  states_stale_ = false;
  deferred_nodes_ = node_count;
  states_.assign(node_count, machine_->initial_state());
  ++config_version_;
}

void fsm_protocol::reset_deferred(std::size_t node_count) {
  states_.clear();
  states_.shrink_to_fit();
  deferred_nodes_ = node_count;
  states_stale_ = true;
  ++config_version_;
}

bool fsm_protocol::beeping(graph::node_id node) const {
  materialize();
  return machine_->beeps(states_[node]);
}

bool fsm_protocol::is_leader(graph::node_id node) const {
  materialize();
  return machine_->is_leader(states_[node]);
}

void fsm_protocol::step(graph::node_id node, bool heard,
                        support::rng& node_rng) {
  materialize();  // the vector becomes truth before it is mutated
  states_[node] = heard ? machine_->delta_top(states_[node], node_rng)
                        : machine_->delta_bot(states_[node], node_rng);
}

std::string fsm_protocol::describe(graph::node_id node) const {
  materialize();
  return machine_->state_name(states_[node]);
}

void fsm_protocol::set_states(std::vector<state_id> states) {
  if (states.size() != states_.size()) {
    throw std::invalid_argument(
        "fsm_protocol::set_states: configuration size " +
        std::to_string(states.size()) + " != node count " +
        std::to_string(states_.size()));
  }
  for (state_id s : states) {
    if (s >= machine_->state_count()) {
      throw std::invalid_argument("fsm_protocol::set_states: invalid state id");
    }
  }
  states_stale_ = false;  // wholesale overwrite: the new vector is truth
  states_ = std::move(states);
  ++config_version_;
}

}  // namespace beepkit::beeping
