#include "core/faults.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

namespace beepkit::core {

namespace {

using beeping::state_id;
using graph::node_id;

[[noreturn]] void plan_error(const std::string& what) {
  throw std::invalid_argument("fault_plan: " + what);
}

const char* kind_name(fault_event::kind type) {
  switch (type) {
    case fault_event::kind::crash: return "crash";
    case fault_event::kind::restart: return "restart";
    case fault_event::kind::edge_add: return "edge_add";
    case fault_event::kind::edge_remove: return "edge_remove";
    case fault_event::kind::churn: return "churn";
    case fault_event::kind::burst: return "burst";
    case fault_event::kind::inject: return "inject";
    case fault_event::kind::corrupt: return "corrupt";
  }
  return "?";
}

fault_event::kind kind_from_name(const std::string& name) {
  if (name == "crash") return fault_event::kind::crash;
  if (name == "restart") return fault_event::kind::restart;
  if (name == "edge_add") return fault_event::kind::edge_add;
  if (name == "edge_remove") return fault_event::kind::edge_remove;
  if (name == "churn") return fault_event::kind::churn;
  if (name == "burst") return fault_event::kind::burst;
  if (name == "inject") return fault_event::kind::inject;
  if (name == "corrupt") return fault_event::kind::corrupt;
  plan_error("JSON: unknown event kind \"" + name + "\"");
}

constexpr std::uint64_t kMaxNode = std::numeric_limits<node_id>::max();
constexpr std::uint64_t kMaxState = std::numeric_limits<state_id>::max();

/// The integer field `key` through json::as_uint, the strict read of
/// the shard and journal readers: at most `max`, or `fallback` when
/// absent. Anything else is an error; nothing is narrowed silently.
std::uint64_t plan_u64(const support::json& doc, const char* key,
                       const std::string& where, std::uint64_t max = UINT64_MAX,
                       std::optional<std::uint64_t> fallback = std::nullopt) {
  const support::json* value = doc.find(key);
  if (value == nullptr && fallback.has_value()) return *fallback;
  const std::optional<std::uint64_t> number =
      value != nullptr ? value->as_uint() : std::nullopt;
  if (!number || *number > max) {
    plan_error("JSON: " + where + " needs \"" + key +
               "\" as an integer in [0, " + std::to_string(max) + "]");
  }
  return *number;
}

}  // namespace

// ---- fault_plan builders ---------------------------------------------

fault_plan& fault_plan::crash(std::uint64_t round, node_id node) {
  fault_event e;
  e.type = fault_event::kind::crash;
  e.round = round;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::crash_as(std::uint64_t round, node_id node,
                                 state_id state) {
  crash(round, node);
  events.back().has_state = true;
  events.back().state = state;
  return *this;
}

fault_plan& fault_plan::restart(std::uint64_t round, node_id node) {
  fault_event e;
  e.type = fault_event::kind::restart;
  e.round = round;
  e.node = node;
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::restart_as(std::uint64_t round, node_id node,
                                   state_id state) {
  restart(round, node);
  events.back().has_state = true;
  events.back().state = state;
  return *this;
}

fault_plan& fault_plan::add_edge(std::uint64_t round, node_id u, node_id v) {
  fault_event e;
  e.type = fault_event::kind::edge_add;
  e.round = round;
  e.node = u;
  e.peer = v;
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::remove_edge(std::uint64_t round, node_id u,
                                    node_id v) {
  fault_event e;
  e.type = fault_event::kind::edge_remove;
  e.round = round;
  e.node = u;
  e.peer = v;
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::churn(std::uint64_t start, std::uint64_t count,
                              std::uint64_t period, std::uint64_t until) {
  fault_event e;
  e.type = fault_event::kind::churn;
  e.round = start;
  e.count = count;
  e.period = period;
  e.until = until < start ? start : until;
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::burst(std::uint64_t round, std::uint64_t count,
                              std::uint64_t down) {
  fault_event e;
  e.type = fault_event::kind::burst;
  e.round = round;
  e.count = count;
  e.down = down;
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::inject(std::uint64_t round,
                               std::vector<state_id> states) {
  fault_event e;
  e.type = fault_event::kind::inject;
  e.round = round;
  e.states = std::move(states);
  events.push_back(std::move(e));
  return *this;
}

fault_plan& fault_plan::corrupt(std::uint64_t round, std::uint64_t count) {
  fault_event e;
  e.type = fault_event::kind::corrupt;
  e.round = round;
  e.count = count;
  events.push_back(std::move(e));
  return *this;
}

// ---- validation ------------------------------------------------------

void fault_plan::validate(std::size_t node_count,
                          std::size_t state_count) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const fault_event& e = events[i];
    const std::string where =
        name + ": event " + std::to_string(i) + " (" + kind_name(e.type) + ")";
    switch (e.type) {
      case fault_event::kind::crash:
      case fault_event::kind::restart:
        if (e.node >= node_count) plan_error(where + ": node out of range");
        if (e.has_state && e.state >= state_count) {
          plan_error(where + ": state out of range");
        }
        break;
      case fault_event::kind::edge_add:
      case fault_event::kind::edge_remove:
        if (e.node >= node_count || e.peer >= node_count) {
          plan_error(where + ": endpoint out of range");
        }
        if (e.node == e.peer) plan_error(where + ": self-loop");
        break;
      case fault_event::kind::churn:
        if (node_count < 2) plan_error(where + ": needs at least two nodes");
        if (e.count == 0) plan_error(where + ": zero toggles per firing");
        if (e.period > 0 && e.until < e.round) {
          plan_error(where + ": \"until\" precedes the first firing");
        }
        break;
      case fault_event::kind::burst:
        if (e.count == 0) plan_error(where + ": zero victims");
        break;
      case fault_event::kind::inject:
        if (e.states.size() != node_count) {
          plan_error(where + ": configuration size " +
                     std::to_string(e.states.size()) + " != node count " +
                     std::to_string(node_count));
        }
        for (const state_id s : e.states) {
          if (s >= state_count) plan_error(where + ": state out of range");
        }
        break;
      case fault_event::kind::corrupt:
        if (e.count == 0) plan_error(where + ": zero nodes");
        break;
    }
  }
}

// ---- JSON form -------------------------------------------------------

support::json fault_plan::to_json() const {
  support::json doc;
  doc.set("version", std::uint64_t{1});
  doc.set("name", name);
  doc.set("fault_seed", fault_seed);
  support::json::array event_docs;
  for (const fault_event& e : events) {
    support::json entry;
    entry.set("kind", kind_name(e.type));
    entry.set("round", e.round);
    switch (e.type) {
      case fault_event::kind::crash:
      case fault_event::kind::restart:
        entry.set("node", std::uint64_t{e.node});
        if (e.has_state) entry.set("state", std::uint64_t{e.state});
        break;
      case fault_event::kind::edge_add:
      case fault_event::kind::edge_remove:
        entry.set("node", std::uint64_t{e.node});
        entry.set("peer", std::uint64_t{e.peer});
        break;
      case fault_event::kind::churn:
        entry.set("count", e.count);
        entry.set("period", e.period);
        if (e.period > 0) entry.set("until", e.until);
        break;
      case fault_event::kind::burst:
        entry.set("count", e.count);
        if (e.down > 0) entry.set("down", e.down);
        break;
      case fault_event::kind::inject: {
        support::json::array states;
        states.reserve(e.states.size());
        for (const state_id s : e.states) {
          states.push_back(support::json(std::uint64_t{s}));
        }
        entry.set("states", support::json(std::move(states)));
        break;
      }
      case fault_event::kind::corrupt:
        entry.set("count", e.count);
        break;
    }
    event_docs.push_back(std::move(entry));
  }
  doc.set("events", support::json(std::move(event_docs)));
  return doc;
}

fault_plan fault_plan::from_json(const support::json& doc) {
  if (!doc.is_object()) plan_error("JSON: document is not an object");
  if (plan_u64(doc, "version", "plan", UINT64_MAX, 1) != 1) {
    plan_error("JSON: unsupported version");
  }
  fault_plan plan;
  if (const support::json* n = doc.find("name"); n != nullptr) {
    plan.name = n->as_string();
  }
  plan.fault_seed = plan_u64(doc, "fault_seed", "plan", UINT64_MAX, 0);
  const support::json* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    plan_error("JSON: missing \"events\" array");
  }
  for (const support::json& entry : events->as_array()) {
    if (!entry.is_object()) plan_error("JSON: event is not an object");
    const support::json* kind = entry.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      plan_error("JSON: event without a \"kind\"");
    }
    fault_event e;
    e.type = kind_from_name(kind->as_string());
    const std::string k = std::string(kind_name(e.type)) + " event";
    e.round = plan_u64(entry, "round", k);
    switch (e.type) {
      case fault_event::kind::crash:
      case fault_event::kind::restart:
        e.node = static_cast<node_id>(plan_u64(entry, "node", k, kMaxNode));
        if (entry.find("state") != nullptr) {
          e.has_state = true;
          e.state =
              static_cast<state_id>(plan_u64(entry, "state", k, kMaxState));
        }
        break;
      case fault_event::kind::edge_add:
      case fault_event::kind::edge_remove:
        e.node = static_cast<node_id>(plan_u64(entry, "node", k, kMaxNode));
        e.peer = static_cast<node_id>(plan_u64(entry, "peer", k, kMaxNode));
        break;
      case fault_event::kind::churn:
        e.count = plan_u64(entry, "count", k);
        e.period = plan_u64(entry, "period", k, UINT64_MAX, 0);
        e.until = plan_u64(entry, "until", k, UINT64_MAX, e.round);
        break;
      case fault_event::kind::burst:
        e.count = plan_u64(entry, "count", k);
        e.down = plan_u64(entry, "down", k, UINT64_MAX, 0);
        break;
      case fault_event::kind::inject: {
        const support::json* states = entry.find("states");
        if (states == nullptr || !states->is_array()) {
          plan_error("JSON: inject event needs a \"states\" array");
        }
        e.states.reserve(states->as_array().size());
        for (const support::json& s : states->as_array()) {
          const std::optional<std::uint64_t> state = s.as_uint();
          if (!state || *state > kMaxState) {
            plan_error("JSON: injected state must be an integer in [0, " +
                       std::to_string(kMaxState) + "]");
          }
          e.states.push_back(static_cast<state_id>(*state));
        }
        break;
      }
      case fault_event::kind::corrupt:
        e.count = plan_u64(entry, "count", k);
        break;
    }
    plan.events.push_back(std::move(e));
  }
  return plan;
}

fault_plan fault_plan::from_json_text(std::string_view text) {
  const std::optional<support::json> doc = support::json::parse(text);
  if (!doc.has_value()) plan_error("JSON: malformed document");
  return from_json(*doc);
}

// ---- bundled adversaries ---------------------------------------------

namespace {

class wave_jammer final : public adversary {
 public:
  [[nodiscard]] std::string name() const override { return "wave_jammer"; }
  void intervene(std::uint64_t /*round*/, std::size_t /*node_count*/,
                 std::span<const std::uint64_t> beep,
                 std::span<std::uint64_t> heard) override {
    for (std::size_t w = 0; w < heard.size(); ++w) heard[w] &= beep[w];
  }
};

class spurious_waker final : public adversary {
 public:
  spurious_waker(std::size_t wakeups, std::uint64_t seed)
      : wakeups_(wakeups), rng_(seed) {}
  [[nodiscard]] std::string name() const override { return "spurious_waker"; }
  void intervene(std::uint64_t /*round*/, std::size_t node_count,
                 std::span<const std::uint64_t> /*beep*/,
                 std::span<std::uint64_t> heard) override {
    if (node_count == 0) return;
    for (std::size_t i = 0; i < wakeups_; ++i) {
      const std::uint64_t u = rng_.uniform_below(node_count);
      heard[u >> 6] |= 1ULL << (u & 63);
    }
  }

 private:
  std::size_t wakeups_;
  support::rng rng_;
};

}  // namespace

std::unique_ptr<adversary> make_wave_jammer() {
  return std::make_unique<wave_jammer>();
}

std::unique_ptr<adversary> make_spurious_waker(std::size_t wakeups_per_round,
                                               std::uint64_t seed) {
  return std::make_unique<spurious_waker>(wakeups_per_round, seed);
}

// ---- fault_session ---------------------------------------------------

namespace {

// Salt for the dedicated fault stream; keeps it disjoint from the
// per-node protocol substreams rng(seed).substream(u) and the noise
// streams rng(seed ^ 0x6e015e).substream(u).
constexpr std::uint64_t kFaultStreamSalt = 0xfa1175eedULL;

}  // namespace

fault_session::fault_session(const fault_plan& plan, beeping::engine& sim,
                             std::uint64_t seed)
    : plan_(plan),
      sim_(&sim),
      fault_rng_(support::rng(seed ^ kFaultStreamSalt)
                     .substream(plan.fault_seed)) {
  std::size_t state_count = ~std::size_t{0};
  if (const auto* fsm = dynamic_cast<const beeping::fsm_protocol*>(
          &sim.proto())) {
    state_count = fsm->machine().state_count();
  }
  plan_.validate(sim.node_count(), state_count);
  next_fire_.reserve(plan_.events.size());
  bool needs_overlay = false;
  for (const fault_event& e : plan_.events) {
    next_fire_.push_back(e.round);
    needs_overlay = needs_overlay || e.type == fault_event::kind::edge_add ||
                    e.type == fault_event::kind::edge_remove ||
                    e.type == fault_event::kind::churn;
  }
  if (needs_overlay) {
    overlay_.emplace(sim.view());
    sim_->set_topology_patch(&*overlay_);
  }
}

fault_session::~fault_session() {
  if (overlay_.has_value()) sim_->set_topology_patch(nullptr);
  if (adversary_ != nullptr) sim_->set_heard_hook({});
}

void fault_session::set_adversary(adversary* adv) {
  adversary_ = adv;
  if (adv == nullptr) {
    sim_->set_heard_hook({});
    return;
  }
  sim_->set_heard_hook([this](std::uint64_t round,
                              std::span<const std::uint64_t> beep,
                              std::span<std::uint64_t> heard) {
    adversary_->intervene(round, sim_->node_count(), beep, heard);
  });
}

bool fault_session::exhausted() const noexcept {
  if (!rejoins_.empty()) return false;
  for (const std::uint64_t next : next_fire_) {
    if (next != kDone) return false;
  }
  return true;
}

beeping::fsm_protocol& fault_session::fsm_proto() {
  auto* fsm = dynamic_cast<beeping::fsm_protocol*>(&sim_->proto());
  if (fsm == nullptr) {
    throw std::logic_error(
        "fault_session: inject/corrupt events need an fsm_protocol");
  }
  return *fsm;
}

void fault_session::push_states(std::vector<state_id> states) {
  fsm_proto().set_states(std::move(states));
  // At round 0 this is the historical adversarial-initialization
  // sequence (set_states + restart_from_protocol), draw-for-draw; a
  // mid-run replacement resyncs in place and keeps corpses frozen in
  // the injected configuration.
  if (sim_->round() == 0) {
    sim_->restart_from_protocol();
  } else {
    sim_->resync_with_protocol();
  }
}

void fault_session::apply_pending() {
  const std::uint64_t now = sim_->round();
  // Burst auto-rejoins first, in schedule order; a node already
  // revived by an explicit plan event is skipped.
  for (auto it = rejoins_.begin(); it != rejoins_.end();) {
    if (it->round <= now) {
      if (sim_->crashed(it->node)) {
        sim_->fault_restart(it->node);
        ++faults_applied_;
      }
      it = rejoins_.erase(it);
    } else {
      ++it;
    }
  }
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    while (next_fire_[i] != kDone && next_fire_[i] <= now) {
      const fault_event& e = plan_.events[i];
      apply_event(e);
      if (e.type == fault_event::kind::churn && e.period > 0 &&
          next_fire_[i] + e.period <= e.until) {
        next_fire_[i] += e.period;
      } else {
        next_fire_[i] = kDone;
      }
    }
  }
}

void fault_session::apply_event(const fault_event& e) {
  beeping::engine& sim = *sim_;
  const std::size_t n = sim.node_count();
  switch (e.type) {
    case fault_event::kind::crash:
      if (e.has_state) {
        sim.fault_crash_as(e.node, e.state);
      } else {
        sim.fault_crash(e.node);
      }
      ++faults_applied_;
      break;
    case fault_event::kind::restart:
      if (sim.crashed(e.node)) {
        if (e.has_state) {
          sim.fault_restart_as(e.node, e.state);
        } else {
          sim.fault_restart(e.node);
        }
        ++faults_applied_;
      }
      break;
    case fault_event::kind::edge_add:
      overlay_->add_edge(e.node, e.peer);
      ++faults_applied_;
      break;
    case fault_event::kind::edge_remove:
      overlay_->remove_edge(e.node, e.peer);
      ++faults_applied_;
      break;
    case fault_event::kind::churn:
      for (std::uint64_t i = 0; i < e.count; ++i) {
        node_id u;
        node_id v;
        do {
          u = static_cast<node_id>(fault_rng_.uniform_below(n));
          v = static_cast<node_id>(fault_rng_.uniform_below(n));
        } while (u == v);
        overlay_->toggle_edge(u, v);
        ++faults_applied_;
      }
      break;
    case fault_event::kind::burst: {
      const std::uint64_t victims = std::min<std::uint64_t>(
          e.count, static_cast<std::uint64_t>(n - sim.crashed_count()));
      for (std::uint64_t i = 0; i < victims; ++i) {
        node_id u;
        do {
          u = static_cast<node_id>(fault_rng_.uniform_below(n));
        } while (sim.crashed(u));
        sim.fault_crash(u);
        ++faults_applied_;
        if (e.down > 0) rejoins_.push_back({sim.round() + e.down, u});
      }
      break;
    }
    case fault_event::kind::inject:
      push_states(e.states);
      ++faults_applied_;
      break;
    case fault_event::kind::corrupt: {
      beeping::fsm_protocol& fsm = fsm_proto();
      const std::size_t q = fsm.machine().state_count();
      std::vector<state_id> states = fsm.states();
      for (std::uint64_t i = 0; i < e.count; ++i) {
        const node_id u = static_cast<node_id>(fault_rng_.uniform_below(n));
        states[u] = static_cast<state_id>(fault_rng_.uniform_below(q));
        ++faults_applied_;
      }
      push_states(std::move(states));
      break;
    }
  }
}

void fault_session::step() {
  apply_pending();
  sim_->step();
}

std::uint64_t fault_session::next_event_round() const noexcept {
  std::uint64_t next = kDone;
  for (const scheduled_restart& r : rejoins_) next = std::min(next, r.round);
  for (const std::uint64_t fire : next_fire_) next = std::min(next, fire);
  return next;
}

beeping::run_result fault_session::run_until_single_leader(
    std::uint64_t max_rounds) {
  // Each stretch between events is one engine::run_rounds call: no
  // event fires inside it, so the knobs run_rounds reads once (crashed
  // set, patch, hook, noise, observers) hold for all of its rounds.
  // The stopping test is skipped inside a stretch, as it was when this
  // looped over step(): a pending event may still revive a leader.
  apply_pending();
  while (!exhausted()) {
    const std::uint64_t now = sim_->round();
    if (now >= max_rounds) break;
    sim_->run_rounds(std::min(next_event_round(), max_rounds) - now);
    apply_pending();
  }
  // Nothing can fire any more: the rest is the engine's own run.
  return sim_->run_until_single_leader(max_rounds);
}

}  // namespace beepkit::core
