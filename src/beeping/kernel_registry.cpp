#include "beeping/plane_kernel.hpp"

#include <bit>
#include <memory>
#include <string>

namespace beepkit::beeping {

namespace {

// Stable-address storage: engines cache the pointer returned by
// find_compiled_kernel across rounds, so registration must never move
// an already-registered kernel.
std::vector<std::unique_ptr<compiled_kernel>>& registry() {
  static std::vector<std::unique_ptr<compiled_kernel>> kernels;
  return kernels;
}

// Word-parallel phase 2 for machines with <= 256 states: per word,
// decode a membership mask for every state, split it by the heard
// plane, and route each part to its successor's mask with pure word
// ops. Bit-sliced-counter runs (Timeout-BFW patience) bypass per-state
// decoding: one range comparison finds the run members and one
// ripple-carry add over the planes advances all silent ones at once.
// Words whose lanes are all silent and sitting in draw-free self-loops
// are skipped wholesale (their beep word is provably 0 and their
// states, leader lanes and active lanes are unchanged). A stochastic
// part costs one draw_outcomes() call: one draw from each of its nodes'
// own streams, whose outcome word splits the part between the rule's
// two successors. Every node draws what the scalar loop draws from its
// stream, so the order across nodes is free. The new planes, beep set
// and leader count all fall out of the per-successor masks.
// Specialized on the plane count: the inner loops over the planes then
// unroll and the per-word plane words live in registers (a runtime
// plane count costs ~40% on wave-saturated rounds).
template <std::size_t P>
sweep_result interpreted_sweep_impl(const plane_ctx& ctx, std::size_t wb,
                                    std::size_t we) {
  const machine_table& table = *ctx.table;
  const plane_plan& plan = *ctx.plan;
  const std::size_t q = table.state_count();
  const std::size_t words = ctx.words;
  const std::uint64_t tail_mask = ctx.tail_mask;
  const std::uint64_t* const heard = ctx.heard;
  std::uint64_t* const beep = ctx.beep;
  std::uint64_t* const active = ctx.active;
  std::uint64_t* const leader = ctx.leader;
  std::uint64_t* plane[P];
  for (std::size_t j = 0; j < P; ++j) plane[j] = ctx.planes[j];
  const support::rng_source rngs = ctx.rngs;
  std::size_t leaders = 0;
  for (std::size_t w = wb; w < we; ++w) {
    const std::uint64_t valid = (w + 1 == words) ? tail_mask : ~0ULL;
    const std::uint64_t h = heard[w];
    const std::uint64_t act = active[w];
    if (((h | act) & valid) == 0) {
      // Fully quiet word: every lane is silent (so beep[w] is already
      // 0 - a beeper always hears itself) and sits in a draw-free bot
      // self-loop. Nothing moves, beeps, or draws; the stored leader
      // lanes still count.
      leaders += static_cast<std::size_t>(std::popcount(leader[w]));
      continue;
    }
    std::uint64_t b[P];
    for (std::size_t j = 0; j < P; ++j) b[j] = plane[j][w];
    std::uint64_t moved[1 << P];  // moved[t]: nodes whose successor is t
    for (std::size_t t = 0; t < q; ++t) moved[t] = 0;
    // Moves a part along `rule`: a stochastic rule splits it by one
    // outcome word between its two successors.
    const auto route = [&](const transition_rule& rule,
                           std::uint64_t part) {
      if (rule.draw == transition_rule::draw_kind::none) {
        moved[rule.next] |= part;
        return;
      }
      const std::uint64_t yes = draw_outcomes(rngs, rule, w, part);
      moved[rule.on_true] |= yes;
      moved[rule.on_false] |= part & ~yes;
    };
    // Bit-sliced comparison of the plane-encoded state ids against a
    // constant: gt/eq masks accumulated from the highest plane down.
    const auto compare = [&b, valid](std::uint64_t k, std::uint64_t& gt,
                                     std::uint64_t& eq) noexcept {
      gt = 0;
      eq = valid;
      for (std::size_t j = P; j-- > 0;) {
        if ((k >> j) & 1U) {
          eq &= b[j];
        } else {
          gt |= eq & b[j];
          eq &= ~b[j];
        }
      }
    };
    std::uint64_t chain_np[P] = {};
    std::uint64_t chain_members = 0;
    std::uint64_t chain_beep = 0;
    std::uint64_t chain_leader = 0;
    std::uint64_t chain_active = 0;
    for (const kernel_chain& chain : plan.chains) {
      std::uint64_t gt_last = 0;
      std::uint64_t eq_last = 0;
      compare(chain.last, gt_last, eq_last);
      std::uint64_t ge_first = valid;
      if (chain.first != 0) {
        std::uint64_t gt_before = 0;
        std::uint64_t eq_before = 0;
        compare(static_cast<std::uint64_t>(chain.first) - 1, gt_before,
                eq_before);
        ge_first = gt_before;
      }
      const std::uint64_t members = ge_first & ~gt_last;
      if (members == 0) continue;
      chain_members |= members;
      const std::uint64_t top_part = members & h;
      if (top_part != 0) moved[chain.top_next] |= top_part;
      // The run's last state exits the counter; its silent transition
      // is routed individually (it may even draw).
      const std::uint64_t last_bot = eq_last & ~h;
      if (last_bot != 0) route(table.rule(chain.last, false), last_bot);
      // Every other silent member ticks its counter: state id += 1 is
      // a ripple-carry add over the planes, restricted to those lanes.
      const std::uint64_t inc = members & ~eq_last & ~h;
      if (inc != 0) {
        std::uint64_t carry = inc;
        for (std::size_t j = 0; j < P; ++j) {
          chain_np[j] |= (b[j] ^ carry) & inc;
          carry &= b[j];
        }
        if ((chain.meta & machine_table::meta_beep) != 0) chain_beep |= inc;
        if ((chain.meta & machine_table::meta_leader) != 0) {
          chain_leader |= inc;
        }
        if ((chain.meta & machine_table::meta_bot_identity) == 0) {
          chain_active |= inc;
        }
      }
    }
    // Decode states in descending id order with a remaining-lanes mask:
    // once every lane of the word is accounted for, the loop exits -
    // wave-phase words typically hold only the 2-3 highest follower
    // states, so the leader states are usually never decoded. State
    // iteration order is free: the routed parts are disjoint and each
    // node draws from its own stream.
    std::uint64_t rem = valid & ~chain_members;
    for (std::size_t s = q; s-- > 0;) {
      if (rem == 0) break;
      if (plan.chain_member[s] != 0) continue;  // handled above
      std::uint64_t dec = rem;
      for (std::size_t j = 0; j < P; ++j) {
        dec &= ((s >> j) & 1U) ? b[j] : ~b[j];
      }
      if (dec == 0) continue;
      rem &= ~dec;
      const std::uint64_t top_part = dec & h;
      const std::uint64_t bot_part = dec & ~h;
      const auto state = static_cast<state_id>(s);
      if (top_part != 0) route(table.rule(state, true), top_part);
      if (bot_part != 0) route(table.rule(state, false), bot_part);
    }
    std::uint64_t np[P];
    for (std::size_t j = 0; j < P; ++j) np[j] = chain_np[j];
    std::uint64_t beep_bits = chain_beep;
    std::uint64_t leader_bits = chain_leader;
    std::uint64_t active_bits = chain_active;
    for (std::size_t t = 0; t < q; ++t) {
      const std::uint64_t m = moved[t];
      if (m == 0) continue;
      for (std::size_t j = 0; j < P; ++j) {
        if ((t >> j) & 1U) np[j] |= m;
      }
      const std::uint8_t t_meta = table.meta[t];
      if ((t_meta & machine_table::meta_beep) != 0) beep_bits |= m;
      if ((t_meta & machine_table::meta_leader) != 0) leader_bits |= m;
      if ((t_meta & machine_table::meta_bot_identity) == 0) active_bits |= m;
    }
    for (std::size_t j = 0; j < P; ++j) plane[j][w] = np[j];
    beep[w] = beep_bits;
    leader[w] = leader_bits;
    active[w] = active_bits;
    leaders += static_cast<std::size_t>(std::popcount(leader_bits));
  }
  return {leaders};
}

}  // namespace

plane_plan make_plane_plan(const machine_table& table) {
  const std::size_t q = table.state_count();
  plane_plan plan;
  plan.plane_count = 1;
  while ((std::size_t{1} << plan.plane_count) < q) ++plan.plane_count;
  plan.chain_member.assign(q, 0);
  const auto det_next = [&table](std::size_t s, bool heard,
                                 state_id& next) noexcept {
    const transition_rule& rule =
        table.rule(static_cast<state_id>(s), heard);
    if (rule.draw != transition_rule::draw_kind::none) return false;
    next = rule.next;
    return true;
  };
  for (std::size_t s = 0; s < q; ++s) {
    if (plan.chain_member[s] != 0) continue;
    state_id top_next = 0;
    if (!det_next(s, true, top_next)) continue;
    std::size_t last = s;
    while (last + 1 < q && plan.chain_member[last + 1] == 0) {
      state_id bot_next = 0;
      if (!det_next(last, false, bot_next) || bot_next != last + 1) break;
      state_id next_top = 0;
      if (!det_next(last + 1, true, next_top) || next_top != top_next) break;
      if (table.meta[last + 1] != table.meta[s]) break;
      ++last;
    }
    if (last - s + 1 < 4) continue;
    plan.chains.push_back({static_cast<state_id>(s),
                           static_cast<state_id>(last), top_next,
                           table.meta[s]});
    for (std::size_t t = s; t <= last; ++t) plan.chain_member[t] = 1;
  }
  return plan;
}

bool plane_capable(const machine_table& table) noexcept {
  return table.state_count() <= (std::size_t{1} << max_planes) &&
         std::endian::native == std::endian::little;
}

sweep_fn interpreted_sweep(std::size_t plane_count) {
  switch (plane_count) {
    case 1:
      return &interpreted_sweep_impl<1>;
    case 2:
      return &interpreted_sweep_impl<2>;
    case 3:
      return &interpreted_sweep_impl<3>;
    case 4:
      return &interpreted_sweep_impl<4>;
    case 5:
      return &interpreted_sweep_impl<5>;
    case 6:
      return &interpreted_sweep_impl<6>;
    case 7:
      return &interpreted_sweep_impl<7>;
    default:
      return &interpreted_sweep_impl<8>;
  }
}

// Runs at every engine bind (find_compiled_kernel), so it appends to
// one std::string instead of formatting through a stream. The bytes
// are baked into kernels/*.gen.cpp and must not change.
std::string serialize_table_structure(const machine_table& table) {
  std::string out;
  const std::size_t q = table.state_count();
  out.reserve(8 + q * 12);
  out += "q=";
  out += std::to_string(q);
  for (std::size_t s = 0; s < q; ++s) {
    out += ';';
    out += std::to_string(static_cast<unsigned>(table.meta[s]));
    for (const bool heard : {false, true}) {
      const transition_rule& rule = table.rule(static_cast<state_id>(s), heard);
      if (rule.draw == transition_rule::draw_kind::none) {
        out += ",d";
        out += std::to_string(rule.next);
      } else {
        // Stochastic rows are structure-equal regardless of successor
        // targets, parameter, or coin-vs-bernoulli: the kernel resolves
        // all three per node through plane_ctx::rules.
        out += ",r";
      }
    }
  }
  return out;
}

void register_compiled_kernel(const compiled_kernel& kernel) {
  for (auto& existing : registry()) {
    if (existing->structure == kernel.structure) {
      *existing = kernel;
      return;
    }
  }
  registry().push_back(std::make_unique<compiled_kernel>(kernel));
}

const compiled_kernel* find_compiled_kernel(const machine_table& table) {
  ensure_builtin_kernels_registered();
  const std::string structure = serialize_table_structure(table);
  for (const auto& kernel : registry()) {
    if (kernel->structure == structure) return kernel.get();
  }
  return nullptr;
}

std::vector<const compiled_kernel*> list_compiled_kernels() {
  ensure_builtin_kernels_registered();
  std::vector<const compiled_kernel*> out;
  out.reserve(registry().size());
  for (const auto& kernel : registry()) out.push_back(kernel.get());
  return out;
}

}  // namespace beepkit::beeping
