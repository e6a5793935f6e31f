// Differential tests for the beepc-compiled round kernels: a compiled
// sweep is required to be draw-for-draw bit-identical to the
// interpreted plane gear (and hence to the virtual reference) on every
// (kernel, graph, seed, noise) combination - same state trajectories,
// same leader counts, same beep counts, same generator draws.
// Word-boundary sizes {63, 64, 65, 128} exercise the tail word. Below
// the engine, every registered kernel's entry point is also called
// directly against interpreted_sweep on random valid plane contexts
// (KernelRegistryTest.BuiltinKernelsRegistered).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "beeping/plane_kernel.hpp"
#include "core/ablations.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/protocol_spec.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/generators.hpp"
#include "stoneage/stoneage.hpp"
#include "support/rng.hpp"

namespace beepkit {
namespace {

using beeping::beep_counter;
using beeping::engine;
using beeping::fsm_protocol;
using beeping::noise_model;
using beeping::state_id;

struct graph_case {
  std::string label;
  graph::graph g;
};

std::vector<graph_case> word_boundary_graphs() {
  std::vector<graph_case> cases;
  for (const std::size_t n : {63U, 64U, 65U, 128U}) {
    cases.push_back({"path" + std::to_string(n), graph::make_path(n)});
    cases.push_back({"tree" + std::to_string(n),
                     graph::make_complete_binary_tree(n)});
    cases.push_back({"complete" + std::to_string(n), graph::make_complete(n)});
  }
  return cases;
}

/// Runs `rounds` rounds on two engines over the same machine and seed -
/// one dispatching to the compiled kernel, one pinned to the
/// interpreted plane gear - and compares the full trace plus the next
/// raw draw of every per-node generator.
void expect_compiled_matches_interpreted(const graph::graph& g,
                                         const beeping::state_machine& machine,
                                         std::uint64_t seed, int rounds,
                                         const noise_model& noise,
                                         const std::string& label) {
  fsm_protocol compiled_proto(machine);
  fsm_protocol ref_proto(machine);
  engine compiled(g, compiled_proto, seed, noise);
  engine ref(g, ref_proto, seed, noise);
  beep_counter compiled_counts;
  beep_counter ref_counts;
  compiled.add_observer(&compiled_counts);
  ref.add_observer(&ref_counts);
  ASSERT_TRUE(compiled.compiled_kernel_active()) << label;
  ref.set_compiled_kernel_enabled(false);
  ASSERT_FALSE(ref.compiled_kernel_active()) << label;
  for (int round = 0; round < rounds; ++round) {
    compiled.step();
    ref.step();
    ASSERT_EQ(compiled_proto.states(), ref_proto.states())
        << label << " diverged at round " << round;
    ASSERT_EQ(compiled.leader_count(), ref.leader_count()) << label;
  }
  ASSERT_GT(compiled.compiled_rounds(), 0U) << label;
  EXPECT_EQ(ref.compiled_rounds(), 0U) << label;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(compiled_counts.count(u), ref_counts.count(u))
        << label << " beep count mismatch at node " << u;
  }
  EXPECT_EQ(compiled.total_coins_consumed(), ref.total_coins_consumed())
      << label;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(compiled.node_rng(u).next_u64(), ref.node_rng(u).next_u64())
        << label << " generator diverged at node " << u;
  }
}

/// The buffers one plane sweep reads and writes, owned.
struct sweep_buffers {
  std::vector<std::vector<std::uint64_t>> planes;
  std::vector<std::uint64_t> heard, beep, active, leader;
  std::vector<support::rng> rngs;
};

/// A random *valid* plane-round input for `table` over n nodes: every
/// lane's state is drawn below q and written into the planes, the
/// beep/active/leader words follow from those states, heard contains
/// every beeper (a beeper hears itself), and about one word in four is
/// fully quiet (silent lanes in a draw-free bot self-loop) so the
/// skip paths run too.
sweep_buffers random_valid_sweep_input(const beeping::machine_table& table,
                                       std::size_t plane_count,
                                       std::size_t n, std::uint64_t seed) {
  const std::size_t words = (n + 63) / 64;
  const std::size_t q = table.state_count();
  support::rng gen(seed);
  std::vector<state_id> quiet_states;
  for (std::size_t s = 0; s < q; ++s) {
    if (table.bot_identity[s] != 0 && table.beep_flag[s] == 0) {
      quiet_states.push_back(static_cast<state_id>(s));
    }
  }
  sweep_buffers in;
  in.planes.assign(plane_count, std::vector<std::uint64_t>(words, 0));
  for (auto* buf : {&in.heard, &in.beep, &in.active, &in.leader}) {
    buf->assign(words, 0);
  }
  in.rngs = support::make_node_streams(seed ^ 0x5eedULL, n);
  for (std::size_t w = 0; w < words; ++w) {
    const bool quiet = !quiet_states.empty() && gen.uniform_below(4) == 0;
    const state_id quiet_state =
        quiet ? quiet_states[gen.uniform_below(quiet_states.size())] : 0;
    const std::uint64_t noise = quiet ? 0 : gen.next_u64();
    for (std::size_t i = 0; i < 64 && (w << 6) + i < n; ++i) {
      const std::uint64_t bit = 1ULL << i;
      const auto s = quiet ? quiet_state
                           : static_cast<state_id>(gen.uniform_below(q));
      for (std::size_t j = 0; j < plane_count; ++j) {
        if (((s >> j) & 1U) != 0) in.planes[j][w] |= bit;
      }
      if (table.beeps(s)) in.beep[w] |= bit;
      if (table.is_leader(s)) in.leader[w] |= bit;
      if (table.bot_identity[s] == 0) in.active[w] |= bit;
      if ((noise & bit) != 0) in.heard[w] |= bit;
    }
    in.heard[w] |= in.beep[w];
  }
  return in;
}

/// Runs `sweep` over words [wb, we) of `buf` (mutated in place),
/// drawing from buf.rngs, or from `lazy` when given.
beeping::sweep_result run_sweep(beeping::sweep_fn sweep,
                                const beeping::machine_table& table,
                                const beeping::plane_plan& plan,
                                std::size_t n, sweep_buffers& buf,
                                std::size_t wb, std::size_t we,
                                support::rng_store* lazy = nullptr) {
  std::uint64_t* planes[beeping::max_planes] = {};
  for (std::size_t j = 0; j < buf.planes.size(); ++j) {
    planes[j] = buf.planes[j].data();
  }
  beeping::plane_ctx ctx;
  ctx.heard = buf.heard.data();
  ctx.beep = buf.beep.data();
  ctx.active = buf.active.data();
  ctx.leader = buf.leader.data();
  ctx.planes = planes;
  ctx.rngs = lazy != nullptr ? lazy->source()
                            : support::rng_source{buf.rngs.data(), nullptr, 0};
  ctx.rules = table.rules.data();
  ctx.table = &table;
  ctx.plan = &plan;
  ctx.tail_mask = (n % 64 == 0) ? ~0ULL : ((1ULL << (n % 64)) - 1);
  ctx.words = buf.heard.size();
  return sweep(ctx, wb, we);
}

/// Kernel-level differential: the entry point of `kernel` against
/// interpreted_sweep(P) on random valid inputs at word-boundary node
/// counts, over word ranges that start and end inside the word array -
/// planes, beep/leader/active words, the returned leader count and the
/// next draw of every stream. Each context also runs the kernel on a
/// lazy cursor store (coins mode for coin-only tables, raw64 for
/// bernoulli-only ones), whose cursors must match the reference's draw
/// counts.
void expect_kernel_matches_interpreted_sweep(
    const beeping::compiled_kernel& kernel,
    const beeping::machine_table& table) {
  const beeping::plane_plan plan = beeping::make_plane_plan(table);
  const beeping::sweep_fn reference =
      beeping::interpreted_sweep(plan.plane_count);
  bool any_coin = false;
  bool any_bernoulli = false;
  for (const beeping::transition_rule& rule : table.rules) {
    any_coin |= rule.draw == beeping::transition_rule::draw_kind::coin;
    any_bernoulli |=
        rule.draw == beeping::transition_rule::draw_kind::bernoulli;
  }
  const bool lazy_runs = any_coin != any_bernoulli;
  const auto lazy_mode =
      any_coin ? support::draw_mode::coins : support::draw_mode::raw64;
  // 63..128 nodes are one or two words; 65 * 64 - 3 nodes give 65
  // words with a ragged tail.
  for (const std::size_t n : {63U, 64U, 65U, 128U, 65U * 64U - 3U}) {
    const std::size_t words = (n + 63) / 64;
    std::vector<std::pair<std::size_t, std::size_t>> ranges = {{0, words}};
    if (words > 2) {
      ranges.insert(ranges.end(),
                    {{1, words}, {0, words - 1}, {3, words - 2}, {5, 18}});
    } else if (words == 2) {
      ranges.insert(ranges.end(), {{0, 1}, {1, 2}});
    }
    for (const auto& [wb, we] : ranges) {
      const std::string label = kernel.name + " n=" + std::to_string(n) +
                                " [" + std::to_string(wb) + "," +
                                std::to_string(we) + ")";
      const std::uint64_t seed = n * 131 + wb * 7 + we;
      sweep_buffers ref = random_valid_sweep_input(table, plan.plane_count,
                                                   n, seed);
      sweep_buffers got = ref;
      sweep_buffers lazy_got = ref;
      const auto ref_counts =
          run_sweep(reference, table, plan, n, ref, wb, we);
      const auto got_counts =
          run_sweep(kernel.sweep, table, plan, n, got, wb, we);
      EXPECT_EQ(got_counts.leaders, ref_counts.leaders) << label;
      EXPECT_EQ(got.planes, ref.planes) << label;
      EXPECT_EQ(got.beep, ref.beep) << label;
      EXPECT_EQ(got.leader, ref.leader) << label;
      EXPECT_EQ(got.active, ref.active) << label;
      if (lazy_runs) {
        support::rng_store lazy =
            support::rng_store::lazy(seed ^ 0x5eedULL, n, lazy_mode);
        const auto lazy_counts = run_sweep(kernel.sweep, table, plan, n,
                                           lazy_got, wb, we, &lazy);
        EXPECT_EQ(lazy_counts.leaders, ref_counts.leaders) << label;
        EXPECT_EQ(lazy_got.planes, ref.planes) << label;
        EXPECT_EQ(lazy_got.beep, ref.beep) << label;
        const auto cursors = lazy.cursors();
        for (std::size_t u = 0; u < n; ++u) {
          const std::uint64_t draws =
              lazy_mode == support::draw_mode::coins
                  ? ref.rngs[u].coins_consumed()
                  : ref.rngs[u].u64_draws();
          ASSERT_EQ(cursors[u], draws) << label << " lazy node " << u;
        }
      }
      for (std::size_t u = 0; u < n; ++u) {
        ASSERT_EQ(got.rngs[u].coins_consumed(), ref.rngs[u].coins_consumed())
            << label << " node " << u;
        ASSERT_EQ(got.rngs[u].next_u64(), ref.rngs[u].next_u64())
            << label << " node " << u;
      }
    }
  }
}

TEST(CompiledKernelDifferentialTest, BfwAllWidthsAllGraphs) {
  const core::bfw_machine machine(0.5);
  for (const auto& c : word_boundary_graphs()) {
    expect_compiled_matches_interpreted(c.g, machine, 1234, 250, {}, c.label);
  }
}

TEST(CompiledKernelDifferentialTest, BfwBernoulliMatchesThroughRuleTable) {
  // p != 1/2 swaps the coin rule for bernoulli; the kernel structure is
  // unchanged (stochastic rows are runtime data), so the same compiled
  // kernel must serve it bit for bit.
  const core::bfw_machine machine(0.3);
  expect_compiled_matches_interpreted(graph::make_path(65), machine, 99, 250,
                                      {}, "path65");
  expect_compiled_matches_interpreted(graph::make_grid(8, 16), machine, 99,
                                      250, {}, "grid8x16");
}

TEST(CompiledKernelDifferentialTest, BfwWithReceptionNoise) {
  const core::bfw_machine machine(0.5);
  const noise_model noise{0.1, 0.05};
  for (const auto& c : word_boundary_graphs()) {
    expect_compiled_matches_interpreted(c.g, machine, 7, 200, noise, c.label);
  }
}

TEST(CompiledKernelDifferentialTest, TimeoutBfwPatienceChain) {
  // T = 9 is the checked-in chain kernel (14 states, 4 planes); the
  // bit-sliced ripple-carry tick must match the interpreted chain.
  const core::timeout_bfw_machine machine(0.5, 9);
  for (const auto& c : word_boundary_graphs()) {
    expect_compiled_matches_interpreted(c.g, machine, 5, 250, {}, c.label);
  }
}

TEST(CompiledKernelDifferentialTest, BwAblationExtinction) {
  const core::bw_machine machine(0.5);
  for (const auto& c : word_boundary_graphs()) {
    expect_compiled_matches_interpreted(c.g, machine, 31, 250, {}, c.label);
  }
}

TEST(CompiledKernelDifferentialTest, MatchesVirtualReferenceDirectly) {
  // Close the triangle: compiled against the virtual-dispatch gear, not
  // just against the interpreted plane sweep.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol compiled_proto(machine);
  fsm_protocol virtual_proto(machine);
  engine compiled(g, compiled_proto, 17);
  engine ref(g, virtual_proto, 17);
  ref.set_fast_path_enabled(false);
  ASSERT_TRUE(compiled.compiled_kernel_active());
  for (int round = 0; round < 300; ++round) {
    compiled.step();
    ref.step();
    ASSERT_EQ(compiled_proto.states(), virtual_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_EQ(compiled.total_coins_consumed(), ref.total_coins_consumed());
}

TEST(CompiledKernelDifferentialTest, AdversarialInjectionsMatch) {
  // Section-5 configurations injected mid-run on both gears.
  const core::bfw_machine machine(0.5);
  struct injection {
    std::string label;
    graph::graph g;
    std::vector<state_id> states;
  };
  std::vector<injection> cases;
  cases.push_back({"two-leaders-path128", graph::make_path(128),
                   core::two_leaders_at_path_ends(128)});
  cases.push_back({"leaderless-wave-cycle64", graph::make_cycle(64),
                   core::leaderless_wave_on_cycle(64)});
  support::rng seeder(3);
  cases.push_back({"random-leaders-grid8x8", graph::make_grid(8, 8),
                   core::random_leader_configuration(64, 5, seeder)});
  for (auto& c : cases) {
    fsm_protocol compiled_proto(machine);
    fsm_protocol ref_proto(machine);
    engine compiled(c.g, compiled_proto, 11);
    engine ref(c.g, ref_proto, 11);
    ref.set_compiled_kernel_enabled(false);
    beep_counter compiled_counts;
    beep_counter ref_counts;
    compiled.add_observer(&compiled_counts);
    ref.add_observer(&ref_counts);
    compiled.run_rounds(50);
    ref.run_rounds(50);
    compiled_proto.set_states(c.states);
    ref_proto.set_states(c.states);
    compiled.restart_from_protocol();
    ref.restart_from_protocol();
    for (int round = 0; round < 250; ++round) {
      compiled.step();
      ref.step();
      ASSERT_EQ(compiled_proto.states(), ref_proto.states())
          << c.label << " diverged at round " << round;
      ASSERT_EQ(compiled.leader_count(), ref.leader_count()) << c.label;
    }
    for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
      ASSERT_EQ(compiled_counts.count(u), ref_counts.count(u)) << c.label;
    }
  }
}

TEST(CompiledKernelDifferentialTest, ToggleMidRunNeverChangesNumbers) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol toggling_proto(machine);
  fsm_protocol steady_proto(machine);
  engine toggling(g, toggling_proto, 77);
  engine steady(g, steady_proto, 77);
  for (int round = 0; round < 300; ++round) {
    toggling.set_compiled_kernel_enabled(round % 3 != 0);
    toggling.step();
    steady.step();
    ASSERT_EQ(toggling_proto.states(), steady_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_EQ(toggling.total_coins_consumed(), steady.total_coins_consumed());

  // The plane round is bound at reconfiguration: every setter that
  // changes what a round reads must rebind it, through step() and the
  // run loops alike, draw for draw against the scalar reference.
  const auto path = graph::make_path(130);
  fsm_protocol bound_proto(machine);
  fsm_protocol reference_proto(machine);
  engine bound(path, bound_proto, 19);
  engine reference(path, reference_proto, 19);
  beep_counter bound_counts;
  beep_counter reference_counts;
  bound.add_observer(&bound_counts);
  reference.add_observer(&reference_counts);
  using reconfigure = void (*)(engine&);
  const std::vector<std::pair<std::string, reconfigure>> schedule = {
      {"interpreted", [](engine& e) { e.set_compiled_kernel_enabled(false); }},
      {"tiled 4x1", [](engine& e) { e.set_parallelism(4, 1); }},
      {"compiled", [](engine& e) { e.set_compiled_kernel_enabled(true); }},
      {"serial", [](engine& e) { e.set_parallelism(1, 0); }},
      {"virtual", [](engine& e) { e.set_fast_path_enabled(false); }},
      {"plane", [](engine& e) { e.set_fast_path_enabled(true); }},
  };
  for (std::size_t block = 0; block < 3 * schedule.size(); ++block) {
    const auto& [label, apply] = schedule[block % schedule.size()];
    apply(bound);
    const std::uint64_t rounds = 1 + block % 7;
    const std::uint64_t plane_before = bound.plane_rounds();
    const std::uint64_t compiled_before = bound.compiled_rounds();
    if (block % 2 == 0) {
      bound.run_rounds(rounds);
    } else {
      for (std::uint64_t r = 0; r < rounds; ++r) bound.step();
    }
    for (std::uint64_t r = 0; r < rounds; ++r) reference.step_reference();
    ASSERT_EQ(bound_proto.states(), reference_proto.states())
        << "after " << label << " (block " << block << ")";
    ASSERT_EQ(bound.leader_count(), reference.leader_count()) << label;
    ASSERT_EQ(bound.total_coins_consumed(), reference.total_coins_consumed())
        << label;
    // The rounds ran in the gear the setter selected.
    EXPECT_EQ(bound.plane_rounds() - plane_before,
              bound.fast_path_active() ? rounds : 0U)
        << label;
    EXPECT_EQ(bound.compiled_rounds() - compiled_before,
              bound.fast_path_active() && bound.compiled_kernel_active()
                  ? rounds
                  : 0U)
        << label;
  }
  for (graph::node_id u = 0; u < path.node_count(); ++u) {
    ASSERT_EQ(bound.node_rng(u).next_u64(), reference.node_rng(u).next_u64())
        << "generator diverged at node " << u;
    ASSERT_EQ(bound_counts.count(u), reference_counts.count(u))
        << "node " << u;
  }
}

TEST(CompiledKernelDifferentialTest, TiledParallelismStaysBitIdentical) {
  // Compiled sweeps tile exactly like the interpreted gear: every
  // (threads, tile_words) point is bit-identical to serial.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(16, 16);
  fsm_protocol serial_proto(machine);
  engine serial(g, serial_proto, 5);
  serial.run_rounds(300);
  for (const std::size_t threads : {2U, 3U}) {
    for (const std::size_t tile_words : {0U, 1U}) {
      fsm_protocol tiled_proto(machine);
      engine tiled(g, tiled_proto, 5);
      tiled.set_parallelism(threads, tile_words);
      tiled.run_rounds(300);
      ASSERT_EQ(tiled_proto.states(), serial_proto.states())
          << "threads=" << threads << " tile_words=" << tile_words;
      ASSERT_EQ(tiled.leader_count(), serial.leader_count());
    }
  }
}

// --- Stone-age engine: compiled kernels via its beeping::engine ---

TEST(StoneAgeCompiledKernelTest, MatchesInterpretedAllWidths) {
  const core::bfw_stone_automaton automaton(0.5);
  for (const std::size_t n : {63U, 64U, 65U, 128U}) {
    const auto g = graph::make_path(n);
    stoneage::engine compiled(g, automaton, 1, 21);
    stoneage::engine ref(g, automaton, 1, 21);
    ASSERT_TRUE(compiled.compiled_kernel_active());
    ref.set_compiled_kernel_enabled(false);
    ASSERT_FALSE(ref.compiled_kernel_active());
    for (int round = 0; round < 250; ++round) {
      compiled.step();
      ref.step();
      ASSERT_EQ(compiled.states(), ref.states())
          << "n=" << n << " diverged at round " << round;
      ASSERT_EQ(compiled.leader_count(), ref.leader_count()) << "n=" << n;
    }
    ASSERT_GT(compiled.compiled_rounds(), 0U);
    EXPECT_EQ(ref.compiled_rounds(), 0U);
  }
}

TEST(StoneAgeCompiledKernelTest, MatchesGenericVirtualPath) {
  const core::bfw_stone_automaton automaton(0.5);
  const auto g = graph::make_grid(8, 8);
  stoneage::engine compiled(g, automaton, 1, 5);
  stoneage::engine ref(g, automaton, 1, 5);
  ref.set_fast_path_enabled(false);
  ASSERT_TRUE(compiled.compiled_kernel_active());
  for (int round = 0; round < 200; ++round) {
    compiled.step();
    ref.step();
    ASSERT_EQ(compiled.states(), ref.states()) << "diverged at round " << round;
  }
}

// --- Registry and engine introspection ---

TEST(KernelRegistryTest, BuiltinKernelsRegistered) {
  const auto kernels = beeping::list_compiled_kernels();
  ASSERT_GE(kernels.size(), 3U);
  std::vector<std::string> names;
  names.reserve(kernels.size());
  for (const auto* k : kernels) names.push_back(k->name);
  EXPECT_NE(std::find(names.begin(), names.end(), "bfw"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "timeout_bfw_t9"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "bw"), names.end());
  for (const auto* k : kernels) ASSERT_NE(k->sweep, nullptr) << k->name;
  // Every registered kernel sweeps exactly like the
  // interpreted reference - for coin and bernoulli rows alike.
  std::vector<std::string> checked;
  for (const auto& spec :
       {core::bfw_spec(0.5), core::bfw_spec(0.3),
        core::timeout_bfw_spec(0.5, 9), core::timeout_bfw_spec(0.25, 9),
        core::bw_spec(0.5)}) {
    const auto table = core::compile_spec_table(spec);
    const auto* kernel = beeping::find_compiled_kernel(table);
    ASSERT_NE(kernel, nullptr) << spec.name;
    expect_kernel_matches_interpreted_sweep(*kernel, table);
    checked.push_back(kernel->name);
  }
  for (const auto* k : kernels) {
    EXPECT_NE(std::find(checked.begin(), checked.end(), k->name),
              checked.end())
        << k->name << " has no differential input";
  }
}

TEST(KernelRegistryTest, BakedKeysMatch) {
  // beepc bakes serialize_table_structure() into kernels/*.gen.cpp;
  // the bind-time key must reproduce those strings byte for byte or
  // every engine silently falls back to the interpreted gear.
  const struct {
    const char* kernel;
    core::protocol_spec spec;
  } cases[] = {
      {"bfw", core::bfw_spec(0.5)},
      {"timeout_bfw_t9", core::timeout_bfw_spec(0.5, 9)},
      {"bw", core::bw_spec(0.5)},
  };
  const auto kernels = beeping::list_compiled_kernels();
  for (const auto& c : cases) {
    const auto it =
        std::find_if(kernels.begin(), kernels.end(),
                     [&](const auto* k) { return k->name == c.kernel; });
    ASSERT_NE(it, kernels.end()) << c.kernel;
    EXPECT_EQ(beeping::serialize_table_structure(
                  core::compile_spec_table(c.spec)),
              (*it)->structure)
        << c.kernel;
  }
}

TEST(KernelRegistryTest, StructureMatchIsParameterIndependent) {
  // One BFW kernel serves every p: the structure string classifies
  // stochastic rows uniformly, so p = 0.25 (bernoulli) binds the same
  // kernel as p = 0.5 (fair coin).
  const auto table_half = core::bfw_machine(0.5).compile_table();
  const auto table_quarter = core::bfw_machine(0.25).compile_table();
  ASSERT_TRUE(table_half.has_value());
  ASSERT_TRUE(table_quarter.has_value());
  EXPECT_EQ(beeping::serialize_table_structure(*table_half),
            beeping::serialize_table_structure(*table_quarter));
  const auto* k_half = beeping::find_compiled_kernel(*table_half);
  const auto* k_quarter = beeping::find_compiled_kernel(*table_quarter);
  ASSERT_NE(k_half, nullptr);
  EXPECT_EQ(k_half, k_quarter);
  EXPECT_EQ(k_half->name, "bfw");
}

TEST(KernelRegistryTest, UnservedStructureBindsNoKernel) {
  // Timeout-BFW with T = 7 has 12 states - no checked-in kernel; the
  // engine must fall back to the interpreted gear silently.
  const core::timeout_bfw_machine machine(0.5, 7);
  const auto table = machine.compile_table();
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(beeping::find_compiled_kernel(*table), nullptr);
  const auto g = graph::make_path(64);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  EXPECT_FALSE(sim.compiled_kernel_active());
  EXPECT_EQ(sim.compiled_kernel_name(), "");
  sim.run_rounds(50);
  EXPECT_EQ(sim.compiled_rounds(), 0U);
}

TEST(KernelRegistryTest, EngineIntrospection) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(64);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  EXPECT_TRUE(sim.compiled_kernel_active());
  EXPECT_EQ(sim.compiled_kernel_name(), "bfw");
  sim.run_rounds(50);
  EXPECT_GT(sim.compiled_rounds(), 0U);
  sim.set_compiled_kernel_enabled(false);
  EXPECT_FALSE(sim.compiled_kernel_active());
  EXPECT_EQ(sim.compiled_kernel_name(), "bfw");  // still bound, just off
}

}  // namespace
}  // namespace beepkit
