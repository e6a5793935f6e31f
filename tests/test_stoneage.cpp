// Stone-age substrate tests: clipped-census semantics, engine
// mechanics, and the BFW embedding's exact equivalence with the
// beeping-model simulation (the paper's claim that BFW runs in a
// synchronous stone-age model with b = 1).
#include "stoneage/stoneage.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace beepkit::stoneage {
namespace {

// Census probe: state 0 = source (displays symbol 1 forever); state
// 1 = recorder (displays 0); after one transition a recorder moves to
// state 2 + (clipped count of symbol 1 among neighbors).
class census_probe final : public automaton {
 public:
  [[nodiscard]] std::size_t state_count() const override { return 64; }
  [[nodiscard]] std::size_t alphabet_size() const override { return 2; }
  [[nodiscard]] state_id initial_state() const override { return 1; }
  [[nodiscard]] symbol display(state_id state) const override {
    return state == 0 ? 1 : 0;
  }
  [[nodiscard]] bool is_leader(state_id state) const override {
    return state == 0;
  }
  [[nodiscard]] state_id transition(state_id state,
                                    std::span<const std::uint32_t> counts,
                                    support::rng& /*rng*/) const override {
    if (state == 0) return 0;
    if (state == 1) return static_cast<state_id>(2 + counts[1]);
    return state;  // recorders latch their first census
  }
  [[nodiscard]] std::string state_name(state_id state) const override {
    return std::to_string(state);
  }
  [[nodiscard]] std::string name() const override { return "census_probe"; }
};

TEST(StoneAgeEngineTest, CensusClippedAtThreshold) {
  // Star with 5 leaves, all sources; the hub records min(5, b).
  const auto g = graph::make_star(6);
  const census_probe machine;
  for (const std::uint32_t b : {1U, 2U, 3U, 10U}) {
    engine sim(g, machine, b, 0);
    std::vector<state_id> states(6, 0);  // leaves = sources
    states[0] = 1;                       // hub = recorder
    sim.set_states(states);
    sim.step();
    EXPECT_EQ(sim.state_of(0), 2 + std::min<std::uint32_t>(5, b))
        << "threshold " << b;
  }
}

TEST(StoneAgeEngineTest, CensusSeesOnlyNeighbors) {
  // On a path, the middle recorder counts only adjacent sources.
  const auto g = graph::make_path(5);
  const census_probe machine;
  engine sim(g, machine, 8, 0);
  // Sources at 0 and 4; recorders elsewhere. Node 2 sees none.
  sim.set_states({0, 1, 1, 1, 0});
  sim.step();
  EXPECT_EQ(sim.state_of(1), 2 + 1);
  EXPECT_EQ(sim.state_of(2), 2 + 0);
  EXPECT_EQ(sim.state_of(3), 2 + 1);
}

TEST(StoneAgeEngineTest, ParameterValidation) {
  const auto g = graph::make_path(3);
  const census_probe machine;
  EXPECT_THROW(engine(g, machine, 0, 0), std::invalid_argument);
  engine sim(g, machine, 1, 0);
  EXPECT_THROW(sim.set_states({1, 1}), std::invalid_argument);
  EXPECT_THROW(sim.set_states({1, 1, 9999}), std::invalid_argument);
}

TEST(StoneAgeEngineTest, RoundAndLeaderBookkeeping) {
  const auto g = graph::make_star(4);
  const census_probe machine;
  engine sim(g, machine, 1, 0);
  EXPECT_EQ(sim.round(), 0U);
  EXPECT_EQ(sim.leader_count(), 0U);  // all recorders
  sim.set_states({0, 1, 1, 1});
  EXPECT_EQ(sim.leader_count(), 1U);
  EXPECT_EQ(sim.sole_leader(), 0U);
  sim.run_rounds(3);
  EXPECT_EQ(sim.round(), 3U);
}

// --- BFW embedding --------------------------------------------------------

TEST(BfwStoneAgeTest, AutomatonMirrorsBfwMachine) {
  const core::bfw_stone_automaton automaton(0.5);
  const core::bfw_machine machine(0.5);
  EXPECT_EQ(automaton.state_count(), machine.state_count());
  EXPECT_EQ(automaton.initial_state(), machine.initial_state());
  for (state_id s = 0; s < 6; ++s) {
    EXPECT_EQ(automaton.display(s) == core::stone_beep, machine.beeps(s));
    EXPECT_EQ(automaton.is_leader(s), machine.is_leader(s));
    EXPECT_EQ(automaton.state_name(s), machine.state_name(s));
  }
}

class StoneAgeEquivalenceTest
    : public ::testing::TestWithParam<beepkit::testing::graph_case> {};

// The embedding theorem, empirically: with coupled coins, the beeping
// simulation and the stone-age simulation (threshold b = 1) produce
// the identical trajectory, round for round, node for node. The
// stone-age side runs its generic census path - its fast path *is* a
// beeping::engine, which would compare the beeping engine with itself.
TEST_P(StoneAgeEquivalenceTest, TrajectoriesIdenticalToBeepingModel) {
  const auto& gcase = GetParam();
  const auto g = gcase.make(5);
  constexpr std::uint64_t seed = 2024;

  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol beep_proto(machine);
  beeping::engine beep_sim(g, beep_proto, seed);

  const core::bfw_stone_automaton automaton(0.5);
  engine stone_sim(g, automaton, 1, seed);
  stone_sim.set_fast_path_enabled(false);

  for (int round = 0; round < 400; ++round) {
    ASSERT_EQ(beep_proto.states(), stone_sim.states())
        << gcase.label << " diverged at round " << round;
    ASSERT_EQ(beep_sim.leader_count(), stone_sim.leader_count());
    beep_sim.step();
    stone_sim.step();
  }
}

INSTANTIATE_TEST_SUITE_P(
    StandardBattery, StoneAgeEquivalenceTest,
    ::testing::ValuesIn(beepkit::testing::standard_graph_battery()),
    [](const ::testing::TestParamInfo<beepkit::testing::graph_case>& info) {
      return info.param.label;
    });

TEST(BfwStoneAgeTest, ElectsSingleLeader) {
  const auto g = graph::make_grid(5, 5);
  const core::bfw_stone_automaton automaton(0.5);
  engine sim(g, automaton, 1, 7);
  const auto result = sim.run_until_single_leader(200000);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(sim.leader_count(), 1U);
  EXPECT_LT(sim.sole_leader(), 25U);
}

TEST(BfwStoneAgeTest, LargerThresholdChangesNothingForBfw) {
  // BFW only asks "at least one": any b >= 1 yields the same run.
  const auto g = graph::make_cycle(10);
  const core::bfw_stone_automaton automaton(0.5);
  engine sim1(g, automaton, 1, 99);
  engine sim5(g, automaton, 5, 99);
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(sim1.states(), sim5.states()) << "round " << round;
    sim1.step();
    sim5.step();
  }
}

}  // namespace
}  // namespace beepkit::stoneage
