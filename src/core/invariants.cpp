#include "core/invariants.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/bfw.hpp"
#include "graph/algorithms.hpp"

namespace beepkit::core {

namespace {

constexpr std::uint64_t state_bit(bfw_state s) noexcept {
  return 1ULL << static_cast<unsigned>(s);
}

constexpr std::uint64_t kWaiting =
    state_bit(bfw_state::leader_wait) | state_bit(bfw_state::follower_wait);
constexpr std::uint64_t kBeeping =
    state_bit(bfw_state::leader_beep) | state_bit(bfw_state::follower_beep);
constexpr std::uint64_t kFrozen =
    state_bit(bfw_state::leader_frozen) | state_bit(bfw_state::follower_frozen);
constexpr std::uint64_t kRelay = state_bit(bfw_state::follower_beep);

bool test_bit(const std::vector<std::uint64_t>& words, graph::node_id u) {
  return ((words[u >> 6] >> (u & 63)) & 1ULL) != 0;
}

}  // namespace

invariant_checker::invariant_checker(const graph::graph& g,
                                     const beeping::fsm_protocol& /*proto*/,
                                     invariant_options options)
    : g_(&g), options_(options), gather_(g) {
  const std::size_t words = (g.node_count() + 63) / 64;
  for (class_masks* masks : {&previous_, &current_}) {
    masks->waiting.assign(words, 0);
    masks->beeping.assign(words, 0);
    masks->frozen.assign(words, 0);
    masks->relay.assign(words, 0);
  }
  near_beeping_.assign(words, 0);
  near_frozen_.assign(words, 0);
  if (options_.check_ohms_law && options_.sampled_paths > 0) {
    support::rng path_rng(options_.path_sample_seed);
    paths_ = sample_paths(g, options_.sampled_paths,
                          options_.sampled_path_length, path_rng);
  }
  if (options_.check_lemma11 || options_.check_lemma12) {
    distances_ = graph::distance_matrix(g);
  }
}

void invariant_checker::report(std::uint64_t round,
                               const std::string& message) {
  if (violations_.size() >= max_violations) return;
  std::ostringstream out;
  out << "round " << round << ": " << message;
  violations_.push_back(out.str());
}

void invariant_checker::on_round(const beeping::round_view& view) {
  // First, so a late attach throws before anything is checked: counts
  // that miss rounds would report Ohm's-law and Lemma 11 violations
  // that are not real.
  counts_.on_round(view);
  ++rounds_checked_;
  const bool classes =
      options_.check_claim6 || (options_.check_ohms_law && !paths_.empty());
  if (classes) load_classes(view);
  if (options_.check_leader_floor) check_leader_floor(view);
  if (options_.check_claim6 && have_previous_) check_claim6(view);
  if (options_.check_ohms_law) check_ohms_law(view);
  if (options_.check_lemma11) check_lemma11(view);
  if (options_.check_lemma12) check_lemma12(view);

  if (classes) std::swap(previous_, current_);
  previous_leader_count_ = view.leader_count;
  have_previous_ = true;
}

void invariant_checker::load_classes(const beeping::round_view& view) {
  view.class_words(kWaiting, current_.waiting);
  view.class_words(kBeeping, current_.beeping);
  view.class_words(kFrozen, current_.frozen);
  view.class_words(kRelay, current_.relay);
}

// Eqs. (3)-(11) as identities between the class masks of rounds t-1
// (p) and t (c). Each term is the set of nodes the equation's scan
// would report; (6), (10) and (11) read the neighbour-ORs, which also
// contain the set itself - harmless: a W node is never in B or F, and
// a B_follower node inside B_{t-1} already fails Eq. (8).
bool invariant_checker::claim6_identities_hold() {
  const class_masks& p = previous_;
  const class_masks& c = current_;
  std::copy(p.beeping.begin(), p.beeping.end(), near_beeping_.begin());
  gather_(p.beeping, near_beeping_);
  std::copy(c.frozen.begin(), c.frozen.end(), near_frozen_.begin());
  gather_(c.frozen, near_frozen_);
  std::uint64_t bad = 0;
  for (std::size_t w = 0; w < near_beeping_.size(); ++w) {
    bad |= p.waiting[w] & c.frozen[w];                        // (3)
    bad |= p.beeping[w] & ~c.frozen[w];                       // (4)
    bad |= p.frozen[w] & ~c.waiting[w];                       // (5)
    bad |= p.waiting[w] & ~c.relay[w] & near_beeping_[w];     // (6)
    bad |= c.waiting[w] & p.beeping[w];                       // (7)
    bad |= c.beeping[w] & ~p.waiting[w];                      // (8)
    bad |= c.frozen[w] & ~p.beeping[w];                       // (9)
    bad |= c.waiting[w] & ~p.frozen[w] & near_frozen_[w];     // (10)
    bad |= c.relay[w] & ~near_beeping_[w];                    // (11)
  }
  return bad == 0;
}

void invariant_checker::check_leader_floor(const beeping::round_view& view) {
  if (view.leader_count == 0) {
    report(view.round, "Lemma 9 violated: zero leaders in the population");
  }
  if (have_previous_ && view.leader_count > previous_leader_count_) {
    std::ostringstream out;
    out << "leader count increased " << previous_leader_count_ << " -> "
        << view.leader_count;
    report(view.round, out.str());
  }
}

void invariant_checker::check_claim6(const beeping::round_view& view) {
  // Nothing to add once the log is full; otherwise only a failing
  // identity pays for the node-ordered scan that words the report.
  if (violations_.size() >= max_violations || claim6_identities_hold()) {
    return;
  }
  const class_masks& p = previous_;
  const class_masks& c = current_;
  const std::size_t n = g_->node_count();

  for (graph::node_id u = 0; u < n; ++u) {
    // Eq. (3): u in W_{t-1}  =>  u not in F_t.
    if (test_bit(p.waiting, u) && test_bit(c.frozen, u)) {
      report(view.round, "Eq.(3): waiting node froze without beeping");
    }
    // Eq. (4): u in B_{t-1}  =>  u in F_t.
    if (test_bit(p.beeping, u) && !test_bit(c.frozen, u)) {
      report(view.round, "Eq.(4): beeping node did not freeze");
    }
    // Eq. (5): u in F_{t-1}  =>  u in W_t.
    if (test_bit(p.frozen, u) && !test_bit(c.waiting, u)) {
      report(view.round, "Eq.(5): frozen node did not return to waiting");
    }
    // Eq. (7): u in W_t  =>  u not in B_{t-1}.
    if (test_bit(c.waiting, u) && test_bit(p.beeping, u)) {
      report(view.round, "Eq.(7): waiting node was beeping last round");
    }
    // Eq. (8): u in B_t  =>  u in W_{t-1}.
    if (test_bit(c.beeping, u) && !test_bit(p.waiting, u)) {
      report(view.round, "Eq.(8): beeping node was not waiting last round");
    }
    // Eq. (9): u in F_t  =>  u in B_{t-1}.
    if (test_bit(c.frozen, u) && !test_bit(p.beeping, u)) {
      report(view.round, "Eq.(9): frozen node was not beeping last round");
    }
    // Eq. (11): u in B_follower_t => some neighbor beeped in t-1.
    if (test_bit(c.relay, u)) {
      bool neighbor_beeped = false;
      for (graph::node_id v : g_->neighbors(u)) {
        if (test_bit(p.beeping, v)) {
          neighbor_beeped = true;
          break;
        }
      }
      if (!neighbor_beeped) {
        report(view.round,
               "Eq.(11): relayed beep without a beeping neighbor");
      }
    }
  }

  // Edge relations (6) and (10), previous-round oriented both ways.
  for (graph::node_id u = 0; u < n; ++u) {
    for (graph::node_id v : g_->neighbors(u)) {
      // Eq. (6): u in B_{t-1}, v in W_{t-1}  =>  v in B_follower_t.
      if (test_bit(p.beeping, u) && test_bit(p.waiting, v) &&
          !test_bit(c.relay, v)) {
        report(view.round, "Eq.(6): waiting neighbor of a beeper did not beep");
      }
      // Eq. (10): u in F_t, v in W_t  =>  v in F_{t-1}.
      if (test_bit(c.frozen, u) && test_bit(c.waiting, v) &&
          !test_bit(p.frozen, v)) {
        report(view.round, "Eq.(10): F/W edge without frozen predecessor");
      }
    }
  }
}

void invariant_checker::check_ohms_law(const beeping::round_view& view) {
  // Definition 5's flow read off this round's W and B class masks, and
  // the two endpoint counts pulled one node at a time.
  const class_masks& c = current_;
  for (const auto& path : paths_) {
    if (path.size() < 2) continue;
    int flow = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const graph::node_id u = path[i];
      const graph::node_id v = path[i + 1];
      if (test_bit(c.beeping, u) && test_bit(c.waiting, v)) {
        ++flow;
      } else if (test_bit(c.waiting, u) && test_bit(c.beeping, v)) {
        --flow;
      }
    }
    const auto first = static_cast<std::int64_t>(counts_.count(path.front()));
    const auto last = static_cast<std::int64_t>(counts_.count(path.back()));
    if (flow != first - last) {
      std::ostringstream out;
      out << "Corollary 8 (Ohm's law) violated on path " << path.front()
          << ".." << path.back() << ": flow=" << flow
          << " but N(v1)-N(vk)=" << (first - last);
      report(view.round, out.str());
    }
  }
}

void invariant_checker::check_lemma11(const beeping::round_view& view) {
  const std::size_t n = g_->node_count();
  const auto counts = counts_.counts();
  for (graph::node_id u = 0; u < n; ++u) {
    for (graph::node_id v = u + 1; v < n; ++v) {
      const auto nu = static_cast<std::int64_t>(counts[u]);
      const auto nv = static_cast<std::int64_t>(counts[v]);
      const auto spread = static_cast<std::uint64_t>(nu > nv ? nu - nv
                                                             : nv - nu);
      if (spread > distances_[u][v]) {
        std::ostringstream out;
        out << "Lemma 11 violated: |N(" << u << ")-N(" << v
            << ")| = " << spread << " > dis = " << distances_[u][v];
        report(view.round, out.str());
      }
    }
  }
}

void invariant_checker::check_lemma12(const beeping::round_view& view) {
  // Discharge obligations satisfied by a beep this round.
  std::erase_if(obligations_, [&](const obligation& ob) {
    return ((view.beep_words[ob.debtor >> 6] >> (ob.debtor & 63)) & 1ULL) != 0;
  });
  // Anything past its deadline is a violation.
  for (const auto& ob : obligations_) {
    if (view.round >= ob.deadline) {
      std::ostringstream out;
      out << "Lemma 12 violated: node " << ob.debtor
          << " owed a beep by round " << ob.deadline << " (creditor "
          << ob.creditor << ", created round " << ob.created_at << ")";
      report(view.round, out.str());
    }
  }
  std::erase_if(obligations_,
                [&](const obligation& ob) { return view.round >= ob.deadline; });

  // Create new obligations on sampled pairs.
  const auto n = static_cast<graph::node_id>(g_->node_count());
  if (n < 2) return;
  support::rng pair_rng(options_.path_sample_seed ^ (view.round * 0x9e37ULL));
  for (std::size_t i = 0;
       i < options_.lemma12_pairs && obligations_.size() < 4096; ++i) {
    const auto u = static_cast<graph::node_id>(pair_rng.uniform_below(n));
    const auto v = static_cast<graph::node_id>(pair_rng.uniform_below(n));
    if (u == v) continue;
    if (counts_.count(u) > counts_.count(v)) {
      obligations_.push_back(
          {v, view.round + distances_[u][v], view.round, u});
    }
  }
}

}  // namespace beepkit::core
