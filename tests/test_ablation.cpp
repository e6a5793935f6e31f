// Ablation evidence: removing the Frozen state breaks Lemma 9.
// Without F, a leader hears the echo of its own wave and eliminates
// itself; the population can and does reach zero leaders, and the
// stray wave then bounces between the orphaned followers forever.
#include "core/ablations.hpp"

#include <gtest/gtest.h>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"

namespace beepkit::core {
namespace {

TEST(AblationTest, BwMachineShape) {
  const bw_machine machine(0.5);
  EXPECT_EQ(machine.state_count(), 4U);
  EXPECT_EQ(machine.initial_state(), bw_machine::leader_wait);
  EXPECT_TRUE(machine.is_leader(bw_machine::leader_beep));
  EXPECT_FALSE(machine.is_leader(bw_machine::follower_beep));
  EXPECT_TRUE(machine.beeps(bw_machine::follower_beep));
  EXPECT_THROW(bw_machine(0.0), std::invalid_argument);
}

TEST(AblationTest, SelfEliminationOnTwoNodes) {
  // On a 2-path, the first round in which exactly one leader fires
  // dooms both: the non-firer is eliminated by the wave, then its
  // relay eliminates the firer. Zero leaders follow almost surely.
  const auto g = graph::make_path(2);
  const bw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 11);

  bool reached_zero = false;
  for (int round = 0; round < 200 && !reached_zero; ++round) {
    sim.step();
    if (sim.leader_count() == 0) reached_zero = true;
  }
  EXPECT_TRUE(reached_zero)
      << "the F-less variant must violate Lemma 9 on a 2-path";
}

TEST(AblationTest, ZeroLeadersAcrossSeedsAndGraphs) {
  // The failure is not a fluke of one seed: count how many of 20 seeds
  // reach zero leaders on small graphs. (With F, the count is zero by
  // Lemma 9 - see the invariant battery tests.)
  int failures = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto g = graph::make_cycle(6);
    const bw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed);
    for (int round = 0; round < 500; ++round) {
      sim.step();
      if (sim.leader_count() == 0) {
        ++failures;
        break;
      }
    }
  }
  EXPECT_GT(failures, 10) << "self-elimination should be the common case";
}

TEST(AblationTest, EchoPersistsAfterExtinction) {
  // After all leaders die, the orphan wave keeps bouncing: the beep
  // counts keep growing with no leader in sight.
  const auto g = graph::make_path(2);
  const bw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 11);
  beeping::beep_counter counter;
  sim.add_observer(&counter);
  // Drive to extinction first.
  while (sim.leader_count() > 0) {
    sim.step();
    ASSERT_LT(sim.round(), 1000U);
  }
  const auto beeps_then = counter.count(0) + counter.count(1);
  sim.run_rounds(50);
  EXPECT_EQ(sim.leader_count(), 0U);
  EXPECT_GT(counter.count(0) + counter.count(1), beeps_then)
      << "the echo must keep ringing";
}

TEST(AblationTest, IsolatedLeaderIsSafeEvenWithoutF) {
  // A single node never hears anyone: the ablated protocol only fails
  // through neighbors. Sanity check that the failure mechanism is the
  // echo, not something degenerate.
  const auto g = graph::make_path(1);
  const bw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 3);
  sim.run_rounds(300);
  EXPECT_EQ(sim.leader_count(), 1U);
}

TEST(AblationTest, WithFrozenStateSameSeedsNeverDie) {
  // Direct paired comparison: identical seeds, identical graphs, the
  // only difference is the F state. BFW never drops to zero leaders.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto g = graph::make_cycle(6);
    const bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed);
    for (int round = 0; round < 500; ++round) {
      sim.step();
      ASSERT_GE(sim.leader_count(), 1U) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace beepkit::core
