// The beepc-generated round kernel: one templated plane sweep,
// instantiated per (protocol structure, SIMD width) by the generated
// TUs under src/beeping/kernels/.
//
// This is the interpreted sweep (plane_kernel.hpp, interpreted_sweep)
// with every runtime lookup hoisted to compile time through a Traits
// block: state and plane counts, per-state decode targets,
// beep/leader/identity routing, and the patience-chain layout of
// make_plane_plan() all become constexpr, so the decode and routing unroll into
// straight-line word algebra with the transition masks folded into
// constants - no moved[] successor array, no table loads, no draw-kind
// branches. Batches of W words run through support::simd::wordvec<W>,
// which lowers to the native vector ISA (or unrolled scalar ILP).
//
// Bit-identity contract (the registry's acceptance bar): for any word
// range and any W, the sweep computes exactly the interpreted sweep's
// planes, beep/leader/active words, ledger banks and leader/active
// counts, and consumes exactly its generator draws in the same order.
// The two liberties it takes are proven-safe:
//  * A batch is skipped only when ALL its words are quiet; quiet words
//    inside a processed batch go through the full algebra, which
//    reproduces their state bit-for-bit (quiet lanes sit in draw-free
//    bot self-loops, cannot be in beeping states - a beeper hears
//    itself - and so route to themselves with unchanged flags).
//  * Stochastic rows are resolved per node through plane_ctx::rules at
//    run time (parameter and successors are NOT baked in), in ascending
//    node order across the batch - the same draw sequence as the
//    scalar loop. One kernel therefore serves a whole protocol family
//    (every BFW p, coin or bernoulli).
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
#include "support/simd.hpp"

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
template <class Traits, std::size_t W>
sweep_result compiled_sweep(const plane_ctx& ctx, std::uint64_t* dirty,
                            std::size_t wb, std::size_t we) {
  using vec = support::simd::wordvec<W>;
  using sweep_detail::unroll;
  constexpr std::size_t P = Traits::plane_count;
  constexpr std::size_t Q = Traits::state_count;
  constexpr std::size_t D = Traits::draw_count;
  sweep_result result;
  for (std::size_t w = wb; w < we; w += W) {
    if constexpr (W > 1) {
      // Narrow range tail: finish word-at-a-time (same algebra at
      // W = 1, so tiling boundaries never change a number).
      if (w + W > we) {
        const sweep_result tail =
            compiled_sweep<Traits, 1>(ctx, dirty, w, we);
        result.leaders += tail.leaders;
        result.active += tail.active;
        break;
      }
    }
    vec valid = vec::splat(~0ULL);
    if (w + W >= ctx.words) valid.set_lane(ctx.words - 1 - w, ctx.tail_mask);
    const vec h = vec::load(ctx.heard + w);
    const vec act = vec::load(ctx.active + w);
    if (!(((h | act) & valid)).any()) {
      // Fully quiet batch: nothing moves, beeps, or draws; the stored
      // leader and active lanes still count.
      for (std::size_t l = 0; l < W; ++l) {
        result.leaders +=
            static_cast<std::size_t>(std::popcount(ctx.leader[w + l]));
        result.active += static_cast<std::size_t>(std::popcount(act.lane(l)));
      }
      continue;
    }
    vec b[P];
    unroll<P>([&](auto J) { b[J] = vec::load(ctx.planes[J] + w); });
    vec np[P];
    unroll<P>([&](auto J) { np[J] = vec::zero(); });
    vec beep_bits = vec::zero();
    vec leader_bits = vec::zero();
    vec active_bits = vec::zero();
    vec draw_mask[D == 0 ? 1 : D];
    if constexpr (D > 0) {
      unroll<D>([&](auto Dd) { draw_mask[Dd] = vec::zero(); });
    }
    // Routes a part to its compile-time successor: plane bits and flag
    // sets fold to constants, replacing the interpreted gear's moved[]
    // array and per-target meta loads.
    const auto route = [&](auto target, vec part) {
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
    // Bit-sliced comparison of the plane-encoded ids against a
    // compile-time constant (gt/eq accumulated highest plane first).
    const auto compare = [&](auto bound, vec& gt, vec& eq) {
      constexpr std::size_t k = decltype(bound)::value;
      gt = vec::zero();
      eq = valid;
      unroll<P>([&](auto Jr) {
        constexpr std::size_t j = P - 1 - decltype(Jr)::value;
        if constexpr (((k >> j) & 1U) != 0) {
          eq = eq & b[j];
        } else {
          gt = gt | (eq & b[j]);
          eq = andnot(eq, b[j]);
        }
      });
    };
    vec chain_members = vec::zero();
    if constexpr (Traits::chain_count > 0) {
      unroll<Traits::chain_count>([&](auto C) {
        constexpr kernel_chain chain = Traits::chains[decltype(C)::value];
        vec gt_last, eq_last;
        compare(std::integral_constant<std::size_t, chain.last>{}, gt_last,
                eq_last);
        vec ge_first = valid;
        if constexpr (chain.first != 0) {
          vec gt_before, eq_before;
          compare(std::integral_constant<std::size_t, chain.first - 1>{},
                  gt_before, eq_before);
          ge_first = gt_before;
        }
        const vec members = andnot(ge_first, gt_last);
        if (!members.any()) return;
        chain_members |= members;
        route(std::integral_constant<std::size_t, chain.top_next>{},
              members & h);
        // The run's last state exits the counter; its silent transition
        // is routed individually (it may even draw).
        const vec last_bot = andnot(eq_last, h);
        constexpr kernel_rule last_rule = Traits::bot[chain.last];
        if constexpr (last_rule.stochastic) {
          draw_mask[last_rule.draw] |= last_bot;
        } else {
          route(std::integral_constant<std::size_t, last_rule.next>{},
                last_bot);
        }
        // Every other silent member ticks its counter: one ripple-carry
        // add over the planes, restricted to those lanes.
        const vec inc = andnot(andnot(members, eq_last), h);
        if (inc.any()) {
          vec carry = inc;
          unroll<P>([&](auto J) {
            np[J] |= (b[J] ^ carry) & inc;
            carry = carry & b[J];
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
    // draws happen below in ascending node order regardless.
    unroll<Q>([&](auto S) {
      constexpr std::size_t s = decltype(S)::value;
      if constexpr (!Traits::chain_member[s]) {
        vec dec = andnot(valid, chain_members);
        unroll<P>([&](auto J) {
          constexpr std::size_t j = decltype(J)::value;
          if constexpr (((s >> j) & 1U) != 0) {
            dec = dec & b[j];
          } else {
            dec = andnot(dec, b[j]);
          }
        });
        if (!dec.any()) return;
        constexpr kernel_rule top = Traits::top[s];
        constexpr kernel_rule bot = Traits::bot[s];
        const vec top_part = dec & h;
        const vec bot_part = andnot(dec, h);
        if constexpr (top.stochastic) {
          draw_mask[top.draw] |= top_part;
        } else {
          route(std::integral_constant<std::size_t, top.next>{}, top_part);
        }
        if constexpr (bot.stochastic) {
          draw_mask[bot.draw] |= bot_part;
        } else {
          route(std::integral_constant<std::size_t, bot.next>{}, bot_part);
        }
      }
    });
    // Stochastic rows: per node, ascending across the whole batch, off
    // the runtime rule table - exactly the scalar loop's draw sequence.
    if constexpr (D > 0) {
      vec draw_union = vec::zero();
      unroll<D>([&](auto Dd) { draw_union |= draw_mask[decltype(Dd)::value]; });
      if (draw_union.any()) {
        for (std::size_t l = 0; l < W; ++l) {
          std::uint64_t pending = draw_union.lane(l);
          if (pending == 0) continue;
          std::uint64_t add_np[P] = {};
          std::uint64_t add_beep = 0;
          std::uint64_t add_leader = 0;
          std::uint64_t add_active = 0;
          while (pending != 0) {
            const auto offset =
                static_cast<std::size_t>(std::countr_zero(pending));
            const std::uint64_t mask = pending & (~pending + 1);
            pending &= pending - 1;
            const std::size_t u = ((w + l) << 6) + offset;
            state_id t = 0;
            unroll<D>([&](auto Dd) {
              constexpr std::size_t d = decltype(Dd)::value;
              // Parts are disjoint: exactly one slot claims the bit.
              if ((draw_mask[d].lane(l) & mask) != 0) {
                t = apply_rule(ctx.rules[Traits::draw_slots[d]], ctx.rngs[u]);
              }
            });
            const std::uint8_t t_meta = Traits::meta[t];
            for (std::size_t j = 0; j < P; ++j) {
              if (((static_cast<std::size_t>(t) >> j) & 1U) != 0) {
                add_np[j] |= mask;
              }
            }
            if ((t_meta & machine_table::meta_beep) != 0) add_beep |= mask;
            if ((t_meta & machine_table::meta_leader) != 0) add_leader |= mask;
            if ((t_meta & machine_table::meta_bot_identity) == 0) {
              add_active |= mask;
            }
          }
          for (std::size_t j = 0; j < P; ++j) {
            np[j].set_lane(l, np[j].lane(l) | add_np[j]);
          }
          beep_bits.set_lane(l, beep_bits.lane(l) | add_beep);
          leader_bits.set_lane(l, leader_bits.lane(l) | add_leader);
          active_bits.set_lane(l, active_bits.lane(l) | add_active);
        }
      }
    }
    unroll<P>([&](auto J) { np[J].store(ctx.planes[J] + w); });
    beep_bits.store(ctx.beep + w);
    leader_bits.store(ctx.leader + w);
    active_bits.store(ctx.active + w);
    for (std::size_t l = 0; l < W; ++l) {
      result.leaders +=
          static_cast<std::size_t>(std::popcount(leader_bits.lane(l)));
      result.active +=
          static_cast<std::size_t>(std::popcount(active_bits.lane(l)));
    }
    // Ledger: bank this round's +1s with one ripple-carry add into the
    // vertical counters; a zero carry lane rewrites its word unchanged,
    // so the vectorized add stays value-identical to the interpreted
    // per-word loop.
    if (beep_bits.any()) {
      for (std::size_t l = 0; l < W; ++l) {
        if (beep_bits.lane(l) != 0) {
          dirty[(w + l) >> 6] |= 1ULL << ((w + l) & 63);
        }
      }
      vec carry = beep_bits;
      for (std::size_t j = 0; j < 8 && carry.any(); ++j) {
        const vec old = vec::load(ctx.ledger[j] + w);
        (old ^ carry).store(ctx.ledger[j] + w);
        carry = carry & old;
      }
    }
  }
  return result;
}

}  // namespace beepkit::beeping
