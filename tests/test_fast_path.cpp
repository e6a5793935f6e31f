// Differential tests for the devirtualized FSM fast path: the
// word-parallel plane sweep (interpreted and compiled) must be
// bit-identical to the generic virtual-dispatch path on every
// (graph, machine, seed, noise) combination - same state
// trajectories, same beep counts, same leader counts, and the same
// generator draws (pinned by comparing the next raw output of every
// per-node stream). Word-boundary sizes {63, 64, 65, 128} exercise the
// packed-word tails.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "core/ablations.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/generators.hpp"
#include "stoneage/stoneage.hpp"

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
  cases.push_back({"grid8x8", graph::make_grid(8, 8)});
  cases.push_back({"grid8x16", graph::make_grid(8, 16)});
  return cases;
}

/// Runs `rounds` rounds on two engines over the same machine and seed -
/// one with the fast path (default), one forced onto the virtual
/// reference - comparing the full trace: states after every round, then
/// leader counts, cumulative beep counts, coin totals, and finally the
/// next raw draw of every per-node generator (so the paths consumed
/// exactly the same values, draw for draw).
void expect_fast_matches_virtual(const graph::graph& g,
                                 const beeping::state_machine& machine,
                                 std::uint64_t seed, int rounds,
                                 const noise_model& noise,
                                 const std::string& label) {
  fsm_protocol fast_proto(machine);
  fsm_protocol ref_proto(machine);
  engine fast(g, fast_proto, seed, noise);
  engine ref(g, ref_proto, seed, noise);
  ref.set_fast_path_enabled(false);
  beep_counter fast_counts;
  beep_counter ref_counts;
  fast.add_observer(&fast_counts);
  ref.add_observer(&ref_counts);
  ASSERT_TRUE(fast.fast_path_active()) << label;
  ASSERT_FALSE(ref.fast_path_active()) << label;
  for (int round = 0; round < rounds; ++round) {
    fast.step();
    ref.step();
    ASSERT_EQ(fast_proto.states(), ref_proto.states())
        << label << " diverged at round " << round;
    ASSERT_EQ(fast.leader_count(), ref.leader_count()) << label;
  }
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(fast_counts.count(u), ref_counts.count(u))
        << label << " beep count mismatch at node " << u;
  }
  EXPECT_EQ(fast.total_coins_consumed(), ref.total_coins_consumed()) << label;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(fast.node_rng(u).next_u64(), ref.node_rng(u).next_u64())
        << label << " generator diverged at node " << u;
  }
}

TEST(FastPathDifferentialTest, BfwFairCoinAllGraphs) {
  const core::bfw_machine machine(0.5);
  for (const auto& c : word_boundary_graphs()) {
    expect_fast_matches_virtual(c.g, machine, 1234, 400, {}, c.label);
  }
}

TEST(FastPathDifferentialTest, BfwBernoulliAllGraphs) {
  // p != 1/2 exercises the bernoulli rule kind instead of the coin.
  const core::bfw_machine machine(0.3);
  for (const auto& c : word_boundary_graphs()) {
    expect_fast_matches_virtual(c.g, machine, 99, 300, {}, c.label);
  }
}

TEST(FastPathDifferentialTest, BfwWithReceptionNoise) {
  const core::bfw_machine machine(0.5);
  const noise_model noise{0.1, 0.05};
  for (const auto& c : word_boundary_graphs()) {
    expect_fast_matches_virtual(c.g, machine, 7, 250, noise, c.label);
  }
}

TEST(FastPathDifferentialTest, TimeoutBfwLargeStateCount) {
  // 5 + T states: T = 6 fills 3 planes, T = 40 takes 6, T = 60 (65
  // states) 7 and T = 251 (256 states) all 8.
  for (const std::uint32_t timeout : {6U, 40U, 60U, 251U}) {
    const core::timeout_bfw_machine machine(0.5, timeout);
    expect_fast_matches_virtual(graph::make_path(65), machine, 5, 300, {},
                                "timeout" + std::to_string(timeout));
    expect_fast_matches_virtual(graph::make_grid(8, 16), machine, 5, 300, {},
                                "timeout-grid" + std::to_string(timeout));
  }
  // T = 252 (257 states) is past the plane cap: with the fast path on,
  // the engine runs the virtual gear, step for step with the scalar
  // reference.
  const core::timeout_bfw_machine wide(0.5, 252);
  const auto g = graph::make_path(65);
  fsm_protocol proto(wide);
  fsm_protocol ref_proto(wide);
  engine sim(g, proto, 5);
  engine ref(g, ref_proto, 5);
  ASSERT_FALSE(sim.plane_capable());
  ASSERT_FALSE(sim.fast_path_active());
  for (int round = 0; round < 300; ++round) {
    sim.step();
    ref.step_reference();
    ASSERT_EQ(proto.states(), ref_proto.states()) << "round " << round;
  }
  EXPECT_EQ(sim.plane_rounds(), 0U);
  EXPECT_EQ(sim.total_coins_consumed(), ref.total_coins_consumed());
}

TEST(FastPathDifferentialTest, BwAblationReachesExtinctionIdentically) {
  const core::bw_machine machine(0.5);
  for (const auto& c : word_boundary_graphs()) {
    expect_fast_matches_virtual(c.g, machine, 31, 300, {}, c.label);
  }
}

TEST(FastPathDifferentialTest, ScalarReferenceStepAgrees) {
  // Third path: the pre-bit-packing scalar loop must still match.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(65);
  fsm_protocol fast_proto(machine);
  fsm_protocol scalar_proto(machine);
  engine fast(g, fast_proto, 17);
  engine scalar(g, scalar_proto, 17);
  for (int round = 0; round < 300; ++round) {
    fast.step();
    scalar.step_reference();
    ASSERT_EQ(fast_proto.states(), scalar_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_EQ(fast.total_coins_consumed(), scalar.total_coins_consumed());
}

TEST(FastPathDifferentialTest, AdversarialInjectionsMatch) {
  // Section-5 configurations injected mid-test via set_states +
  // restart_from_protocol, on both paths.
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
    fsm_protocol fast_proto(machine);
    fsm_protocol ref_proto(machine);
    engine fast(c.g, fast_proto, 11);
    engine ref(c.g, ref_proto, 11);
    ref.set_fast_path_enabled(false);
    beep_counter fast_counts;
    beep_counter ref_counts;
    fast.add_observer(&fast_counts);
    ref.add_observer(&ref_counts);
    // Warm both engines first so the injection lands mid-run.
    fast.run_rounds(50);
    ref.run_rounds(50);
    fast_proto.set_states(c.states);
    ref_proto.set_states(c.states);
    fast.restart_from_protocol();
    ref.restart_from_protocol();
    for (int round = 0; round < 300; ++round) {
      fast.step();
      ref.step();
      ASSERT_EQ(fast_proto.states(), ref_proto.states())
          << c.label << " diverged at round " << round;
      ASSERT_EQ(fast.leader_count(), ref.leader_count()) << c.label;
    }
    for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
      ASSERT_EQ(fast_counts.count(u), ref_counts.count(u)) << c.label;
    }
  }
}

TEST(FastPathDifferentialTest, ToggleMidRunNeverChangesNumbers) {
  // Flipping the fast path on/off between rounds must be invisible.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol toggling_proto(machine);
  fsm_protocol steady_proto(machine);
  engine toggling(g, toggling_proto, 77);
  engine steady(g, steady_proto, 77);
  for (int round = 0; round < 300; ++round) {
    toggling.set_fast_path_enabled(round % 3 != 0);
    toggling.step();
    steady.step();
    ASSERT_EQ(toggling_proto.states(), steady_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_EQ(toggling.total_coins_consumed(), steady.total_coins_consumed());
}

TEST(FastPathTest, ActiveOnFsmInactiveAfterDisable) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(8);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  EXPECT_TRUE(sim.fast_path_active());
  sim.set_fast_path_enabled(false);
  EXPECT_FALSE(sim.fast_path_active());
  sim.set_fast_path_enabled(true);
  EXPECT_TRUE(sim.fast_path_active());
}

TEST(FastPathTest, CompiledTableShapesAndFlags) {
  const core::bfw_machine machine(0.5);
  const auto table = machine.compile_table();
  ASSERT_TRUE(table.has_value());
  ASSERT_EQ(table->state_count(), core::bfw_state_count);
  for (state_id s = 0; s < core::bfw_state_count; ++s) {
    EXPECT_EQ(table->beeps(s), machine.beeps(s)) << "state " << int(s);
    EXPECT_EQ(table->is_leader(s), machine.is_leader(s)) << "state " << int(s);
  }
  // The only draw-free bot self-loop in BFW is the waiting follower.
  for (state_id s = 0; s < core::bfw_state_count; ++s) {
    EXPECT_EQ(table->bot_identity[s] != 0,
              s == static_cast<state_id>(core::bfw_state::follower_wait))
        << "state " << int(s);
  }
  // The W-state coin is the one stochastic rule (rng::coin at p = 1/2).
  const auto& coin_rule = table->rule(
      static_cast<state_id>(core::bfw_state::leader_wait), false);
  EXPECT_EQ(coin_rule.draw, beeping::transition_rule::draw_kind::coin);
}

// --- Satellite regressions: set_states validation + stale detection ---

TEST(SetStatesContractTest, WrongLengthRejected) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  // Too short and too long both throw; the configuration is untouched.
  EXPECT_THROW(proto.set_states(std::vector<state_id>(4, 0)),
               std::invalid_argument);
  EXPECT_THROW(proto.set_states(std::vector<state_id>(6, 0)),
               std::invalid_argument);
  EXPECT_EQ(proto.states().size(), 5U);
  sim.step();  // the engine is still in sync and steps normally
}

TEST(SetStatesContractTest, InvalidStateIdRejected) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(3);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  EXPECT_THROW(proto.set_states({0, 0, 99}), std::invalid_argument);
}

TEST(SetStatesContractTest, ForgottenRestartFailsFast) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(6);
  fsm_protocol proto(machine);
  engine sim(g, proto, 9);
  sim.run_rounds(10);
  proto.set_states(std::vector<state_id>(
      6, static_cast<state_id>(core::bfw_state::follower_wait)));
  // Every stepping entry point refuses to run on the stale bookkeeping.
  EXPECT_THROW(sim.step(), std::logic_error);
  EXPECT_THROW(sim.step_reference(), std::logic_error);
  EXPECT_THROW(sim.run_until_single_leader(100), std::logic_error);
  // restart_from_protocol resynchronizes and stepping resumes.
  sim.restart_from_protocol();
  EXPECT_EQ(sim.round(), 0U);
  EXPECT_EQ(sim.leader_count(), 0U);
  sim.step();
}

TEST(SetStatesContractTest, ResyncAdoptsMidRunCorruption) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(6);
  fsm_protocol proto(machine);
  engine sim(g, proto, 9);
  sim.run_rounds(10);
  const auto round_before = sim.round();
  auto states = proto.states();
  states[3] = static_cast<state_id>(core::bfw_state::follower_frozen);
  proto.set_states(states);
  sim.resync_with_protocol();
  EXPECT_EQ(sim.round(), round_before);  // the round counter keeps running
  sim.step();
}

// --- Convergence-semantics regressions (zero leaders != elected) ---

TEST(ConvergenceSemanticsTest, ExtinctionIsNotConvergence) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_cycle(9);
  fsm_protocol proto(machine);
  engine sim(g, proto, 4);
  // A leaderless persistent wave: zero leaders forever.
  proto.set_states(core::leaderless_wave_on_cycle(9));
  sim.restart_from_protocol();
  ASSERT_EQ(sim.leader_count(), 0U);
  const auto result = sim.run_until_single_leader(1000);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.leaders, 0U);
  EXPECT_EQ(result.rounds, 0U);  // both absorbing cases stop the run
}

TEST(ConvergenceSemanticsTest, SingleLeaderStillConverges) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_complete(8);
  fsm_protocol proto(machine);
  engine sim(g, proto, 99);
  const auto result = sim.run_until_single_leader(100000);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.leaders, 1U);
  EXPECT_EQ(sim.leader_count(), 1U);
}

// --- Stone-age engine fast path ---

TEST(StoneAgeFastPathTest, TableMatchesVirtualOnWordBoundaries) {
  const core::bfw_stone_automaton automaton(0.5);
  for (const std::size_t n : {63U, 64U, 65U, 128U}) {
    const auto g = graph::make_path(n);
    stoneage::engine fast(g, automaton, 1, 21);
    stoneage::engine ref(g, automaton, 1, 21);
    // Toggled mid-run every 37 rounds: states and per-node streams are
    // handed across in both directions, the round counter keeps going.
    stoneage::engine toggled(g, automaton, 1, 21);
    ref.set_fast_path_enabled(false);
    ASSERT_TRUE(fast.fast_path_active());
    ASSERT_FALSE(ref.fast_path_active());
    for (int round = 0; round < 300; ++round) {
      if (round % 37 == 36) {
        toggled.set_fast_path_enabled(!toggled.fast_path_active());
      }
      fast.step();
      ref.step();
      toggled.step();
      ASSERT_EQ(fast.states(), ref.states())
          << "n=" << n << " diverged at round " << round;
      ASSERT_EQ(fast.leader_count(), ref.leader_count()) << "n=" << n;
      ASSERT_EQ(toggled.states(), ref.states())
          << "n=" << n << " toggled engine diverged at round " << round;
      ASSERT_EQ(toggled.leader_count(), ref.leader_count()) << "n=" << n;
      ASSERT_EQ(toggled.round(), ref.round()) << "n=" << n;
    }
  }
}

TEST(StoneAgeFastPathTest, HigherThresholdStillExact) {
  // The beep indicator is threshold-independent (count > 0 for any
  // b >= 1), so the fast path must engage and agree for b = 2 too.
  const core::bfw_stone_automaton automaton(0.5);
  const auto g = graph::make_grid(8, 8);
  stoneage::engine fast(g, automaton, 2, 5);
  stoneage::engine ref(g, automaton, 2, 5);
  ref.set_fast_path_enabled(false);
  ASSERT_TRUE(fast.fast_path_active());
  for (int round = 0; round < 200; ++round) {
    fast.step();
    ref.step();
    ASSERT_EQ(fast.states(), ref.states()) << "diverged at round " << round;
  }
}

}  // namespace
}  // namespace beepkit
