// Section-5 experiments as tests: leaderless persistent waves on
// cycles (the obstruction to dropping Eq. (2)), and the configuration
// builders used by the tightness bench.
#include "core/adversarial.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"

namespace beepkit::core {
namespace {

using beeping::state_id;

constexpr state_id WL = static_cast<state_id>(bfw_state::leader_wait);
constexpr state_id WF = static_cast<state_id>(bfw_state::follower_wait);
constexpr state_id BF = static_cast<state_id>(bfw_state::follower_beep);
constexpr state_id FF = static_cast<state_id>(bfw_state::follower_frozen);

TEST(AdversarialTest, ConfigurationWithLeadersShape) {
  const auto states = configuration_with_leaders(6, {1, 4});
  EXPECT_EQ(states.size(), 6U);
  EXPECT_EQ(states[1], WL);
  EXPECT_EQ(states[4], WL);
  EXPECT_EQ(states[0], WF);
  EXPECT_THROW(configuration_with_leaders(3, {5}), std::invalid_argument);
}

TEST(AdversarialTest, TwoLeadersAtPathEnds) {
  const auto states = two_leaders_at_path_ends(10);
  EXPECT_EQ(states.front(), WL);
  EXPECT_EQ(states.back(), WL);
  for (std::size_t i = 1; i + 1 < states.size(); ++i) {
    EXPECT_EQ(states[i], WF);
  }
  EXPECT_THROW(two_leaders_at_path_ends(1), std::invalid_argument);
}

TEST(AdversarialTest, RandomLeaderConfigurationCounts) {
  support::rng rng(12);
  const auto states = random_leader_configuration(40, 7, rng);
  std::size_t leaders = 0;
  for (auto s : states) {
    if (s == WL) ++leaders;
  }
  EXPECT_EQ(leaders, 7U);
  EXPECT_THROW(random_leader_configuration(3, 4, rng), std::invalid_argument);
}

TEST(AdversarialTest, LeaderlessWaveShape) {
  const auto states = leaderless_wave_on_cycle(8);
  EXPECT_EQ(states[0], BF);
  EXPECT_EQ(states[7], FF);
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_EQ(states[i], WF);
  }
  EXPECT_THROW(leaderless_wave_on_cycle(2), std::invalid_argument);
}

// The heart of the Section-5 discussion: a leaderless wave persists
// forever. We simulate many rounds and check (a) zero leaders always,
// (b) exactly one node beeps every round, (c) the wave front rotates
// at speed one.
TEST(AdversarialTest, LeaderlessWavePersistsForever) {
  const std::size_t n = 12;
  const auto g = graph::make_cycle(n);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 17);
  proto.set_states(leaderless_wave_on_cycle(n));
  sim.restart_from_protocol();

  for (std::uint64_t round = 0; round < 600; ++round) {
    EXPECT_EQ(sim.leader_count(), 0U) << "round " << round;
    std::size_t beepers = 0;
    graph::node_id front = 0;
    for (graph::node_id u = 0; u < n; ++u) {
      if (sim.beeping(u)) {
        ++beepers;
        front = u;
      }
    }
    ASSERT_EQ(beepers, 1U) << "round " << round;
    EXPECT_EQ(front, static_cast<graph::node_id>(round % n))
        << "wave front must rotate at speed one";
    sim.step();
  }
}

TEST(AdversarialTest, MultipleWavesDoNotInterfere) {
  const std::size_t n = 15;
  const auto g = graph::make_cycle(n);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 19);
  proto.set_states(leaderless_waves_on_cycle(n, 3));
  sim.restart_from_protocol();

  for (std::uint64_t round = 0; round < 300; ++round) {
    std::size_t beepers = 0;
    for (graph::node_id u = 0; u < n; ++u) {
      if (sim.beeping(u)) ++beepers;
    }
    ASSERT_EQ(beepers, 3U) << "round " << round;
    ASSERT_EQ(sim.leader_count(), 0U);
    sim.step();
  }
}

TEST(AdversarialTest, WaveCountValidation) {
  EXPECT_THROW(leaderless_waves_on_cycle(8, 3), std::invalid_argument);
  EXPECT_THROW(leaderless_waves_on_cycle(9, 0), std::invalid_argument);
  EXPECT_NO_THROW(leaderless_waves_on_cycle(9, 3));
}

// On a path (no cycle), an injected leaderless wave dies at the
// boundary - the persistence really is a cycle phenomenon.
TEST(AdversarialTest, LeaderlessWaveDiesOnPath) {
  const std::size_t n = 10;
  const auto g = graph::make_path(n);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 23);
  beeping::beep_counter counter;
  sim.add_observer(&counter);
  auto states = std::vector<state_id>(n, WF);
  states[0] = BF;
  proto.set_states(states);
  sim.restart_from_protocol();

  sim.run_rounds(n + 2);
  for (graph::node_id u = 0; u < n; ++u) {
    EXPECT_FALSE(sim.beeping(u)) << "wave should have left the path";
    EXPECT_EQ(counter.count(u), 1U);
  }
}

}  // namespace
}  // namespace beepkit::core
