// The plane round's shared pieces: the plane layout of a machine
// table, the interpreted sweep, and the registry of compiled round
// kernels emitted by tools/beepc.
//
// make_plane_plan() is the one place the plane layout is decided: the
// engine binds it for the interpreted sweep, and beepc bakes the same
// plan into every generated kernel, so the two gears always cover the
// same states with the same bit-sliced counters.
//
// A compiled kernel is the plane sweep of ONE protocol structure with
// everything the interpreted sweep reads from machine_table and the
// plan at runtime - state count, plane count, per-state decode targets,
// beep/leader/identity meta, patience-chain layout - baked in as
// constexpr (src/beeping/compiled_sweep.hpp instantiates the template
// per structure). Kernels are matched at engine bind time by
// *structure*, not by protocol instance:
// serialize_table_structure() captures exactly what the kernel bakes in
// and classifies every stochastic row uniformly (the kernel applies
// draws through the runtime rule table, so one BFW kernel serves every
// p, coin or bernoulli). The interpreted sweep stays as the
// differential reference; a kernel is required to be draw-for-draw
// bit-identical to it.
//
// Registration is explicit: beepc emits one factory function per
// kernel plus a manifest TU whose ensure_builtin_kernels_registered()
// calls them all - static initializers would be dead-stripped out of
// the static library, an explicit call chain cannot be.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "beeping/protocol.hpp"
#include "support/rng.hpp"

namespace beepkit::beeping {

/// One bit-sliced-counter run: a maximal state range [first, last]
/// whose silent transitions count (delta_bot(s) = s+1 for s < last),
/// with one draw-free delta_top target and one meta byte across the
/// run. The plane sweep advances all silent members with one
/// ripple-carry add over the planes (last's exit transition is decoded
/// individually) - the counter that keeps Timeout-BFW's patience states
/// word-parallel for any T.
struct kernel_chain {
  state_id first = 0;
  state_id last = 0;
  state_id top_next = 0;  ///< uniform delta_top target of the run
  std::uint8_t meta = 0;  ///< uniform machine_table::meta byte
};

/// The most planes a plane sweep carries: 8 planes cover 256 states.
inline constexpr std::size_t max_planes = 8;

/// Whether `table` can run the plane sweep: at most 2^max_planes
/// states, on a little-endian host (the engine's SWAR transposes write
/// state ids in little-endian byte order). The one place the cap is
/// decided; every other machine runs the virtual gear.
[[nodiscard]] bool plane_capable(const machine_table& table) noexcept;

/// How a machine table lives in bit-planes: bit j of a node's state id
/// sits in plane j, and the counting runs tick as bit-sliced counters.
struct plane_plan {
  std::size_t plane_count = 0;  ///< ceil(log2(state_count)), 1..max_planes
  std::vector<kernel_chain> chains;
  /// Per state: 1 iff a chain covers it (the per-state decode skips it).
  std::vector<std::uint8_t> chain_member;
};

/// The plane layout of `table`: its plane count and its counting runs
/// (runs shorter than 4 states are left to the per-state decode - the
/// range comparison costs ~4 plane ops, so tiny runs would not pay).
[[nodiscard]] plane_plan make_plane_plan(const machine_table& table);

/// Everything a plane sweep reads or writes, borrowed from the
/// engine for the duration of one round. Pointers are word arrays
/// (word w covers nodes [64w, 64w+63]); `planes`/`ledger` are arrays
/// of plane pointers.
struct plane_ctx {
  const std::uint64_t* heard = nullptr;
  std::uint64_t* beep = nullptr;
  std::uint64_t* active = nullptr;
  std::uint64_t* leader = nullptr;
  std::uint64_t* const* planes = nullptr;
  std::uint64_t* const* ledger = nullptr;
  /// Per-node generator indirection: dense engines expose the raw
  /// stream array, giant engines the lazy cursor store (identical draw
  /// sequences either way).
  support::rng_source rngs;
  /// machine_table::rules.data() of the bound table: stochastic rows
  /// are drawn and routed through this at run time (draw_outcomes), so
  /// the kernel structure stays independent of p / coin-vs-bernoulli.
  const transition_rule* rules = nullptr;
  /// The bound table and its plan: read by the interpreted sweep only.
  const machine_table* table = nullptr;
  const plane_plan* plan = nullptr;
  std::uint64_t tail_mask = ~0ULL;
  std::size_t words = 0;
};

/// The one draw path of both plane sweeps: `rule`'s outcome for every
/// set lane of `mask` in word `word`, one coin() or bernoulli(p) from
/// each lane's own stream - the call apply_rule makes. Bit b is set iff
/// node 64*word + b moves to rule.on_true; the rest of `mask` moves to
/// rule.on_false. Each node draws from its own stream, so the order
/// across lanes, words and rows is free.
[[nodiscard]] inline std::uint64_t draw_outcomes(
    const support::rng_source& rngs, const transition_rule& rule,
    std::size_t word, std::uint64_t mask) noexcept {
  return rule.draw == transition_rule::draw_kind::coin
             ? rngs.coins(word, mask)
             : rngs.bernoulli(word, mask, rule.p);
}

/// Per-tile partial results, folded by the caller (order-independent).
struct sweep_result {
  std::size_t leaders = 0;
};

/// Sweep over words [wb, we): the beeping engine's plane round
/// (chains, active set, leader words, beep ledger + `dirty`
/// slot-scratch marking), which also serves the stone-age fast path.
/// Tiles may run concurrently on disjoint ranges.
using sweep_fn = sweep_result (*)(const plane_ctx&, std::uint64_t* dirty,
                                  std::size_t wb, std::size_t we);

/// The interpreted plane round over words [wb, we), specialized on the
/// plane count (1..max_planes): the reference every compiled kernel is
/// held to and the sweep for tables no kernel serves. Reads ctx.table
/// and ctx.plan.
[[nodiscard]] sweep_fn interpreted_sweep(std::size_t plane_count);

/// One compiled transition row of a generated Traits block (with
/// kernel_chain, the constexpr records compiled_sweep.hpp consumes): a
/// deterministic successor, or a reference (`draw`) into the kernel's
/// stochastic-slot list.
struct kernel_rule {
  bool stochastic = false;
  state_id next = 0;     ///< successor when !stochastic
  std::uint8_t draw = 0; ///< index into Traits::draw_slots otherwise
};

/// One registered kernel: the structure it serves plus its sweep
/// entry point.
struct compiled_kernel {
  std::string name;       ///< beepc kernel name (bench/test labels)
  std::string structure;  ///< serialize_table_structure() of the source
  sweep_fn sweep = nullptr;
};

/// Canonical structural form of a compiled table: state count, per-state
/// meta byte, and both transition rows - deterministic rows with their
/// successor, stochastic rows classified uniformly as "r" (their
/// successors and parameter are runtime data the kernel reads through
/// plane_ctx::rules). Two tables with equal strings are served by the
/// same kernel, bit for bit.
[[nodiscard]] std::string serialize_table_structure(const machine_table& table);

/// Registers a kernel (later registrations of an equal structure win;
/// beepc never emits duplicates).
void register_compiled_kernel(const compiled_kernel& kernel);

/// Bind-time lookup: the kernel whose structure matches `table`, or
/// nullptr (interpreted sweep only). Triggers builtin registration.
[[nodiscard]] const compiled_kernel* find_compiled_kernel(
    const machine_table& table);

/// All registered kernels, registration order (tools/tests).
[[nodiscard]] std::vector<const compiled_kernel*> list_compiled_kernels();

/// Defined by the beepc-generated manifest
/// (src/beeping/kernels/manifest.gen.cpp): registers every checked-in
/// generated kernel exactly once. Safe to call repeatedly.
void ensure_builtin_kernels_registered();

}  // namespace beepkit::beeping
