// The beepc-generated round kernel: one templated plane sweep,
// instantiated per protocol structure by the generated TUs under
// src/beeping/kernels/.
//
// This is the interpreted sweep (plane_kernel.hpp, interpreted_sweep)
// with every runtime lookup hoisted to compile time through a Traits
// block: state and plane counts, per-state decode targets,
// beep/leader/identity routing, and the patience-chain layout of
// make_plane_plan() all become constexpr, so the decode and routing unroll into
// straight-line word algebra with the transition masks folded into
// constants - no moved[] successor array, no table loads, no draw-kind
// branches. The algebra runs one plain std::uint64_t word at a time.
//
// Bit-identity contract (the registry's acceptance bar): for any word
// range, the sweep computes exactly the interpreted sweep's
// planes, beep/leader/active words, ledger banks and leader count,
// and every node consumes exactly its generator draws from its own
// stream (the contract is per stream; order across nodes is free).
// The two liberties it takes are proven-safe:
//  * A word is skipped only when all its lanes are quiet; quiet lanes
//    inside a processed word go through the full algebra, which
//    reproduces their state bit-for-bit (quiet lanes sit in draw-free
//    bot self-loops, cannot be in beeping states - a beeper hears
//    itself - and so route to themselves with unchanged flags).
//  * Stochastic rows are resolved through plane_ctx::rules at run time
//    (parameter and successors are NOT baked in): one draw_outcomes()
//    word per stochastic part, routed to the runtime
//    successors with branch-free masks. One kernel therefore serves a
//    whole protocol family (every BFW p, coin or bernoulli).
//
// Traits requirements (emitted by tools/beepc):
//   static constexpr std::size_t state_count, plane_count,
//                                chain_count, draw_count;
//   static constexpr std::uint8_t meta[state_count];       // fused flags
//   static constexpr kernel_rule top[state_count], bot[state_count];
//   static constexpr bool chain_member[state_count];
//   static constexpr kernel_chain chains[max(1, chain_count)];
//   static constexpr std::uint16_t draw_slots[max(1, draw_count)];
//     // rule-table indices ((s << 1) | heard) of the stochastic rows
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "beeping/plane_kernel.hpp"

namespace beepkit::beeping {

namespace sweep_detail {

/// Compile-time-unrolled loop: f receives integral_constant<size_t, I>,
/// so Traits arrays indexed inside stay constant expressions.
template <std::size_t N, class F>
inline void unroll(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

}  // namespace sweep_detail

/// The plane round over words [wb, we) - the beeping engine's, which
/// also carries the stone-age fast path - register-ready as
/// compiled_kernel::sweep.
template <class Traits>
sweep_result compiled_sweep(const plane_ctx& ctx, std::uint64_t* dirty,
                            std::size_t wb, std::size_t we) {
  using word = std::uint64_t;
  using sweep_detail::unroll;
  constexpr std::size_t P = Traits::plane_count;
  constexpr std::size_t Q = Traits::state_count;
  sweep_result result;
  for (std::size_t w = wb; w < we; ++w) {
    const word valid = w + 1 == ctx.words ? ctx.tail_mask : ~word{0};
    const word h = ctx.heard[w];
    if (((h | ctx.active[w]) & valid) == 0) {
      // Quiet word: nothing moves, beeps, or draws; the stored leader
      // lanes still count.
      result.leaders += static_cast<std::size_t>(std::popcount(ctx.leader[w]));
      continue;
    }
    word b[P];
    unroll<P>([&](auto J) { b[J] = ctx.planes[J][w]; });
    word np[P] = {};
    word beep_bits = 0;
    word leader_bits = 0;
    word active_bits = 0;
    // Routes a part to its compile-time successor: plane bits and flag
    // sets fold to constants, replacing the interpreted gear's moved[]
    // array and per-target meta loads.
    const auto route = [&](auto target, word part) {
      constexpr std::size_t t = decltype(target)::value;
      unroll<P>([&](auto J) {
        if constexpr (((t >> decltype(J)::value) & 1U) != 0) np[J] |= part;
      });
      if constexpr ((Traits::meta[t] & machine_table::meta_beep) != 0) {
        beep_bits |= part;
      }
      if constexpr ((Traits::meta[t] & machine_table::meta_leader) != 0) {
        leader_bits |= part;
      }
      if constexpr ((Traits::meta[t] & machine_table::meta_bot_identity) ==
                    0) {
        active_bits |= part;
      }
    };
    // Routes a part to a runtime successor through all-ones/all-zeros
    // masks made from its id and meta byte.
    const auto route_to = [&](state_id t, word part) {
      const auto all = [](bool on) { return 0 - static_cast<word>(on); };
      const std::uint8_t meta = Traits::meta[t];
      for (std::size_t j = 0; j < P; ++j) np[j] |= part & all((t >> j) & 1U);
      beep_bits |= part & all((meta & machine_table::meta_beep) != 0);
      leader_bits |= part & all((meta & machine_table::meta_leader) != 0);
      active_bits |=
          part & all((meta & machine_table::meta_bot_identity) == 0);
    };
    // A stochastic row's part: one outcome word off the runtime rule
    // table (draw slot `d`), routed with the successors' masks - no
    // branch on an outcome.
    const auto draw = [&](std::size_t d, word part) {
      if (part == 0) return;
      const transition_rule& rule = ctx.rules[Traits::draw_slots[d]];
      const word yes = draw_outcomes(ctx.rngs, rule, w, part);
      route_to(rule.on_true, yes);
      route_to(rule.on_false, part & ~yes);
    };
    // Bit-sliced comparison of the plane-encoded ids against a
    // compile-time constant (gt/eq accumulated highest plane first).
    const auto compare = [&](auto bound, word& gt, word& eq) {
      constexpr std::size_t k = decltype(bound)::value;
      gt = 0;
      eq = valid;
      unroll<P>([&](auto Jr) {
        constexpr std::size_t j = P - 1 - decltype(Jr)::value;
        if constexpr (((k >> j) & 1U) != 0) {
          eq &= b[j];
        } else {
          gt |= eq & b[j];
          eq &= ~b[j];
        }
      });
    };
    word chain_members = 0;
    if constexpr (Traits::chain_count > 0) {
      unroll<Traits::chain_count>([&](auto C) {
        constexpr kernel_chain chain = Traits::chains[decltype(C)::value];
        word gt_last, eq_last;
        compare(std::integral_constant<std::size_t, chain.last>{}, gt_last,
                eq_last);
        word ge_first = valid;
        if constexpr (chain.first != 0) {
          word gt_before, eq_before;
          compare(std::integral_constant<std::size_t, chain.first - 1>{},
                  gt_before, eq_before);
          ge_first = gt_before;
        }
        const word members = ge_first & ~gt_last;
        if (members == 0) return;
        chain_members |= members;
        route(std::integral_constant<std::size_t, chain.top_next>{},
              members & h);
        // The run's last state exits the counter; its silent transition
        // is routed individually (it may even draw).
        const word last_bot = eq_last & ~h;
        constexpr kernel_rule last_rule = Traits::bot[chain.last];
        if constexpr (last_rule.stochastic) {
          draw(last_rule.draw, last_bot);
        } else {
          route(std::integral_constant<std::size_t, last_rule.next>{},
                last_bot);
        }
        // Every other silent member ticks its counter: one ripple-carry
        // add over the planes, restricted to those lanes.
        const word inc = members & ~eq_last & ~h;
        if (inc != 0) {
          word carry = inc;
          unroll<P>([&](auto J) {
            np[J] |= (b[J] ^ carry) & inc;
            carry &= b[J];
          });
          if constexpr ((chain.meta & machine_table::meta_beep) != 0) {
            beep_bits |= inc;
          }
          if constexpr ((chain.meta & machine_table::meta_leader) != 0) {
            leader_bits |= inc;
          }
          if constexpr ((chain.meta & machine_table::meta_bot_identity) == 0) {
            active_bits |= inc;
          }
        }
      });
    }
    // Per-state decode, fully unrolled; chain members are handled
    // above. State order is free: the routed parts are disjoint and
    // each node draws from its own stream.
    unroll<Q>([&](auto S) {
      constexpr std::size_t s = decltype(S)::value;
      if constexpr (!Traits::chain_member[s]) {
        word dec = valid & ~chain_members;
        unroll<P>([&](auto J) {
          constexpr std::size_t j = decltype(J)::value;
          if constexpr (((s >> j) & 1U) != 0) {
            dec &= b[j];
          } else {
            dec &= ~b[j];
          }
        });
        if (dec == 0) return;
        constexpr kernel_rule top = Traits::top[s];
        constexpr kernel_rule bot = Traits::bot[s];
        const word top_part = dec & h;
        const word bot_part = dec & ~h;
        if constexpr (top.stochastic) {
          draw(top.draw, top_part);
        } else {
          route(std::integral_constant<std::size_t, top.next>{}, top_part);
        }
        if constexpr (bot.stochastic) {
          draw(bot.draw, bot_part);
        } else {
          route(std::integral_constant<std::size_t, bot.next>{}, bot_part);
        }
      }
    });
    unroll<P>([&](auto J) { ctx.planes[J][w] = np[J]; });
    ctx.beep[w] = beep_bits;
    ctx.leader[w] = leader_bits;
    ctx.active[w] = active_bits;
    result.leaders += static_cast<std::size_t>(std::popcount(leader_bits));
    // Ledger: bank this round's +1s with one ripple-carry add into the
    // vertical counters.
    if (beep_bits != 0) {
      dirty[w >> 6] |= 1ULL << (w & 63);
      word carry = beep_bits;
      for (std::size_t j = 0; j < 8 && carry != 0; ++j) {
        const word old = ctx.ledger[j][w];
        ctx.ledger[j][w] = old ^ carry;
        carry &= old;
      }
    }
  }
  return result;
}

}  // namespace beepkit::beeping
