// Unit tests for the BFW state machine: the exact transition table of
// Figure 1, state classification, the one-coin-per-round property, and
// hand-traced wave dynamics on small graphs.
#include "core/bfw.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "beeping/engine.hpp"
#include "graph/generators.hpp"

namespace beepkit::core {
namespace {

using beeping::state_id;

constexpr state_id WL = static_cast<state_id>(bfw_state::leader_wait);
constexpr state_id BL = static_cast<state_id>(bfw_state::leader_beep);
constexpr state_id FL = static_cast<state_id>(bfw_state::leader_frozen);
constexpr state_id WF = static_cast<state_id>(bfw_state::follower_wait);
constexpr state_id BF = static_cast<state_id>(bfw_state::follower_beep);
constexpr state_id FF = static_cast<state_id>(bfw_state::follower_frozen);

TEST(BfwMachineTest, ParameterValidation) {
  EXPECT_THROW(bfw_machine(0.0), std::invalid_argument);
  EXPECT_THROW(bfw_machine(1.0), std::invalid_argument);
  EXPECT_THROW(bfw_machine(-0.1), std::invalid_argument);
  EXPECT_NO_THROW(bfw_machine(0.001));
  EXPECT_NO_THROW(bfw_machine(0.999));
}

TEST(BfwMachineTest, StateClassification) {
  const bfw_machine machine(0.5);
  EXPECT_EQ(machine.state_count(), 6U);
  EXPECT_EQ(machine.initial_state(), WL);

  // Leader set L = {W•, B•, F•} (Definition 1 / Figure 1).
  EXPECT_TRUE(machine.is_leader(WL));
  EXPECT_TRUE(machine.is_leader(BL));
  EXPECT_TRUE(machine.is_leader(FL));
  EXPECT_FALSE(machine.is_leader(WF));
  EXPECT_FALSE(machine.is_leader(BF));
  EXPECT_FALSE(machine.is_leader(FF));

  // Beeping set Q_b = {B•, B◦}.
  EXPECT_FALSE(machine.beeps(WL));
  EXPECT_TRUE(machine.beeps(BL));
  EXPECT_FALSE(machine.beeps(FL));
  EXPECT_FALSE(machine.beeps(WF));
  EXPECT_TRUE(machine.beeps(BF));
  EXPECT_FALSE(machine.beeps(FF));
}

TEST(BfwMachineTest, ClassificationHelpersMatchMachine) {
  for (state_id s = 0; s < 6; ++s) {
    const int classes = static_cast<int>(bfw_is_waiting(s)) +
                        static_cast<int>(bfw_is_beeping(s)) +
                        static_cast<int>(bfw_is_frozen(s));
    EXPECT_EQ(classes, 1) << "state " << s << " must be in exactly one class";
  }
  EXPECT_TRUE(bfw_is_waiting(WL));
  EXPECT_TRUE(bfw_is_waiting(WF));
  EXPECT_TRUE(bfw_is_beeping(BL));
  EXPECT_TRUE(bfw_is_beeping(BF));
  EXPECT_TRUE(bfw_is_frozen(FL));
  EXPECT_TRUE(bfw_is_frozen(FF));
  EXPECT_TRUE(bfw_is_leader_state(WL));
  EXPECT_FALSE(bfw_is_leader_state(WF));
}

TEST(BfwMachineTest, DeltaTopTransitionTable) {
  const bfw_machine machine(0.5);
  support::rng rng(1);
  // delta_top is fully deterministic (Figure 1, solid arrows).
  EXPECT_EQ(machine.delta_top(WL, rng), BF);  // elimination
  EXPECT_EQ(machine.delta_top(BL, rng), FL);  // freeze after beeping
  EXPECT_EQ(machine.delta_top(FL, rng), WL);  // frozen ignores environment
  EXPECT_EQ(machine.delta_top(WF, rng), BF);  // relay
  EXPECT_EQ(machine.delta_top(BF, rng), FF);
  EXPECT_EQ(machine.delta_top(FF, rng), WF);
}

TEST(BfwMachineTest, DeltaBotDeterministicPart) {
  const bfw_machine machine(0.5);
  support::rng rng(2);
  EXPECT_EQ(machine.delta_bot(FL, rng), WL);
  EXPECT_EQ(machine.delta_bot(WF, rng), WF);  // silent follower stays put
  EXPECT_EQ(machine.delta_bot(FF, rng), WF);
}

TEST(BfwMachineTest, DeltaBotLeaderCoinFrequency) {
  // delta_bot(W•) fires with probability p (the only random transition).
  for (const double p : {0.2, 0.5, 0.8}) {
    const bfw_machine machine(p);
    support::rng rng(55);
    int fired = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
      const auto next = machine.delta_bot(WL, rng);
      ASSERT_TRUE(next == BL || next == WL);
      if (next == BL) ++fired;
    }
    EXPECT_NEAR(static_cast<double>(fired) / n, p, 0.01) << "p=" << p;
  }
}

TEST(BfwMachineTest, FairCoinAccountingAtHalf) {
  // Section 1.3: with p = 1/2, a waiting leader consumes exactly one
  // fair random bit per silent round.
  const bfw_machine machine(0.5);
  support::rng rng(7);
  constexpr int rounds = 1000;
  for (int i = 0; i < rounds; ++i) {
    (void)machine.delta_bot(WL, rng);
  }
  EXPECT_EQ(rng.coins_consumed(), static_cast<std::uint64_t>(rounds));

  // With p != 1/2 the machine draws from uniform01 instead; the fair
  // coin account stays untouched.
  const bfw_machine biased(0.3);
  support::rng rng2(7);
  for (int i = 0; i < rounds; ++i) {
    (void)biased.delta_bot(WL, rng2);
  }
  EXPECT_EQ(rng2.coins_consumed(), 0U);
}

TEST(BfwMachineTest, StateNamesDistinct) {
  const bfw_machine machine(0.5);
  EXPECT_EQ(machine.state_name(WL), "W*");
  EXPECT_EQ(machine.state_name(BL), "B*");
  EXPECT_EQ(machine.state_name(FL), "F*");
  EXPECT_EQ(machine.state_name(WF), "Wo");
  EXPECT_EQ(machine.state_name(BF), "Bo");
  EXPECT_EQ(machine.state_name(FF), "Fo");
  EXPECT_NE(machine.name().find("BFW"), std::string::npos);
}

TEST(BfwMachineTest, KnownDiameterFactory) {
  const auto machine = make_known_diameter_bfw(9);
  EXPECT_DOUBLE_EQ(machine.p(), 0.1);
}

// --- Hand-traced dynamics -------------------------------------------------

// A single beep wave on a path: B◦ at node 0, W◦ elsewhere (a pure
// follower wave - fully deterministic, no coins involved). The wave
// must travel right at speed one with a frozen node trailing it, and
// never bounce back (that is what F is for).
TEST(BfwWaveTest, WaveTravelsAtSpeedOneAndDies) {
  const auto g = graph::make_path(6);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  beeping::beep_counter counter;
  sim.add_observer(&counter);
  proto.set_states({BF, WF, WF, WF, WF, WF});
  sim.restart_from_protocol();

  // The wave front advances exactly one hop per round, trailed by the
  // frozen relay of the previous round.
  for (int front = 1; front <= 5; ++front) {
    sim.step();
    EXPECT_EQ(proto.state_of(static_cast<graph::node_id>(front)), BF)
        << "front should be at node " << front;
    EXPECT_EQ(proto.state_of(static_cast<graph::node_id>(front - 1)), FF)
        << "tail should trail at node " << front - 1;
  }

  // One more round: the wave fell off the end; everything quiesces.
  sim.step();
  sim.step();
  for (graph::node_id u = 0; u < 6; ++u) {
    EXPECT_EQ(proto.state_of(u), WF);
    EXPECT_EQ(counter.count(u), 1U) << "each node relays exactly once";
  }
}

// The frozen state is what protects a leader from its own echo: after
// beeping, the leader freezes through the round in which its neighbors
// relay, and returns to waiting untouched. (Deterministic over two
// rounds regardless of coin outcomes.)
TEST(BfwWaveTest, FrozenLeaderSurvivesItsOwnWave) {
  const auto g = graph::make_path(2);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 9);
  proto.set_states({BL, WF});
  sim.restart_from_protocol();

  sim.step();  // neighbor relays while the leader freezes
  EXPECT_EQ(proto.state_of(0), FL);
  EXPECT_EQ(proto.state_of(1), BF);

  sim.step();  // the frozen leader ignores the relay and thaws
  EXPECT_EQ(proto.state_of(0), WL);
  EXPECT_EQ(proto.state_of(1), FF);
  EXPECT_EQ(sim.leader_count(), 1U);
}

// Elimination: a waiting leader crossed by a wave becomes a follower
// and relays the wave. (p is tiny so the downstream leader almost
// surely stays silent until the wave arrives; the seed is fixed, so
// the test is deterministic.)
TEST(BfwWaveTest, WaveEliminatesDownstreamLeader) {
  const auto g = graph::make_path(4);
  const bfw_machine machine(0.001);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 1);
  proto.set_states({BL, WF, WF, WL});
  sim.restart_from_protocol();
  EXPECT_EQ(sim.leader_count(), 2U);

  sim.run_rounds(3);  // wave reaches node 3 in round 3
  EXPECT_EQ(proto.state_of(3), BF);  // eliminated and relaying
  EXPECT_EQ(sim.leader_count(), 1U);
  EXPECT_EQ(sim.sole_leader(), 0U);
}

// Two waves launched toward each other annihilate: between the two
// beeping fronts the middle nodes each relay once, then the fronts'
// frozen tails absorb the opposing wave.
TEST(BfwWaveTest, OpposingWavesAnnihilate) {
  const auto g = graph::make_path(6);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 3);
  beeping::beep_counter counter;
  sim.add_observer(&counter);
  proto.set_states({BL, WF, WF, WF, WF, BL});
  sim.restart_from_protocol();

  // The fronts meet between nodes 2 and 3 in round 2 and freeze in
  // round 3 - annihilation is complete before either leader can launch
  // a second wave that travels anywhere.
  sim.run_rounds(3);
  EXPECT_EQ(sim.leader_count(), 2U);
  EXPECT_EQ(proto.state_of(1), WF);
  EXPECT_EQ(proto.state_of(2), FF);
  EXPECT_EQ(proto.state_of(3), FF);
  EXPECT_EQ(proto.state_of(4), WF);
  for (graph::node_id u = 1; u <= 4; ++u) {
    EXPECT_EQ(counter.count(u), 1U) << "middle node " << u
                                     << " must relay exactly once";
  }
}

}  // namespace
}  // namespace beepkit::core
