// Engine semantics: synchronous delta dispatch, determinism, observer
// plumbing, beep accounting, and restart_from_protocol.
#include "beeping/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bfw.hpp"
#include "graph/generators.hpp"

namespace beepkit::beeping {
namespace {

// Probe protocol: node 0 beeps on even rounds, everyone else stays
// silent; every node records the heard flags the engine hands it.
class probe_protocol final : public protocol {
 public:
  void reset(std::size_t node_count, support::rng& /*init_rng*/) override {
    n_ = node_count;
    round_ = 0;
    heard_log_.clear();
  }
  [[nodiscard]] bool beeping(graph::node_id node) const override {
    return node == 0 && round_ % 2 == 0;
  }
  [[nodiscard]] bool is_leader(graph::node_id node) const override {
    return node == 0;
  }
  void step(graph::node_id node, bool heard,
            support::rng& /*node_rng*/) override {
    if (heard_log_.size() <= round_) heard_log_.resize(round_ + 1);
    heard_log_[round_].resize(n_);
    heard_log_[round_][node] = heard;
    if (node == n_ - 1) ++round_;  // engine steps nodes in order
  }
  [[nodiscard]] std::string describe(graph::node_id) const override {
    return "probe";
  }
  [[nodiscard]] std::string name() const override { return "probe"; }

  std::vector<std::vector<bool>> heard_log_;

 private:
  std::size_t n_ = 0;
  std::size_t round_ = 0;
};

TEST(EngineTest, HeardSemanticsSelfAndNeighbors) {
  // Path 0-1-2-3: when node 0 beeps, exactly nodes 0 (self) and 1
  // (neighbor) must see heard=true.
  const auto g = graph::make_path(4);
  probe_protocol proto;
  engine sim(g, proto, 0);

  sim.step();  // round 0: node 0 beeps
  sim.step();  // round 1: silence
  ASSERT_EQ(proto.heard_log_.size(), 2U);
  EXPECT_EQ(proto.heard_log_[0],
            (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(proto.heard_log_[1],
            (std::vector<bool>{false, false, false, false}));
}

TEST(EngineTest, BeepCountsIncludeCurrentRound) {
  const auto g = graph::make_path(3);
  probe_protocol proto;
  engine sim(g, proto, 0);
  // Round 0: node 0 beeps -> N_0(0) = 1 (Section 2 counts inclusively).
  EXPECT_EQ(sim.beep_count(0), 1U);
  EXPECT_TRUE(sim.beeping(0));
  sim.step();  // round 1: silent
  EXPECT_EQ(sim.beep_count(0), 1U);
  EXPECT_FALSE(sim.beeping(0));
  sim.step();  // round 2: beeps again
  EXPECT_EQ(sim.beep_count(0), 2U);
}

TEST(EngineTest, DeterministicTrajectoriesForSameSeed) {
  const auto g = graph::make_grid(4, 4);
  const core::bfw_machine machine(0.5);
  fsm_protocol a(machine);
  fsm_protocol b(machine);
  engine sim_a(g, a, 12345);
  engine sim_b(g, b, 12345);
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(a.states(), b.states()) << "diverged at round " << round;
    sim_a.step();
    sim_b.step();
  }
  EXPECT_EQ(sim_a.total_coins_consumed(), sim_b.total_coins_consumed());
}

TEST(EngineTest, RebindOnRecycledArena) {
  // An engine's planes, ledger planes and dirty words come from heap
  // blocks that a destroyed engine on the same thread leaves dirty. A
  // rebind of the same view and seed must still start from zero and
  // match an engine bound before the dirty run, draw for draw.
  const auto g = graph::make_grid(12, 12);  // 144 nodes: 3 words + tail
  const core::bfw_machine machine(0.5);
  constexpr std::uint64_t seed = 777;
  fsm_protocol fresh_proto(machine);
  engine fresh(g, fresh_proto, seed);
  {
    fsm_protocol dirty_proto(machine);
    engine dirty(g, dirty_proto, seed);
    dirty.run_rounds(300);
  }
  fsm_protocol re_proto(machine);
  engine rebound(g, re_proto, seed);
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(fresh_proto.states(), re_proto.states())
        << "diverged at round " << round;
    ASSERT_EQ(fresh.leader_count(), rebound.leader_count()) << round;
    fresh.step();
    rebound.step();
  }
  EXPECT_GT(fresh.plane_rounds(), 0U);
  const auto fresh_counts = fresh.beep_counts();
  const auto re_counts = rebound.beep_counts();
  EXPECT_TRUE(std::equal(fresh_counts.begin(), fresh_counts.end(),
                         re_counts.begin(), re_counts.end()));
  EXPECT_EQ(fresh.total_coins_consumed(), rebound.total_coins_consumed());
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(fresh.node_rng(u).next_u64(), rebound.node_rng(u).next_u64())
        << "node " << u;
  }
}

TEST(EngineTest, DifferentSeedsDiverge) {
  const auto g = graph::make_grid(4, 4);
  const core::bfw_machine machine(0.5);
  fsm_protocol a(machine);
  fsm_protocol b(machine);
  engine sim_a(g, a, 1);
  engine sim_b(g, b, 2);
  int differing_rounds = 0;
  for (int round = 0; round < 50; ++round) {
    sim_a.step();
    sim_b.step();
    if (a.states() != b.states()) ++differing_rounds;
  }
  EXPECT_GT(differing_rounds, 0);
}

class counting_observer final : public observer {
 public:
  void on_round(const round_view& view) override {
    ++calls;
    last_round = view.round;
    last_leaders = view.leader_count;
  }
  int calls = 0;
  std::uint64_t last_round = 0;
  std::size_t last_leaders = 0;
};

TEST(EngineTest, ObserversFireOnAttachAndEveryRound) {
  const auto g = graph::make_cycle(5);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 7);
  counting_observer obs;
  sim.add_observer(&obs);
  EXPECT_EQ(obs.calls, 1);  // attach = round 0 view
  EXPECT_EQ(obs.last_round, 0U);
  EXPECT_EQ(obs.last_leaders, 5U);  // everyone starts as a leader

  sim.run_rounds(10);
  EXPECT_EQ(obs.calls, 11);
  EXPECT_EQ(obs.last_round, 10U);
}

TEST(EngineTest, InitialConfigurationAllLeadersAllWaiting) {
  const auto g = graph::make_complete(6);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 11);
  EXPECT_EQ(sim.leader_count(), 6U);
  EXPECT_EQ(sim.round(), 0U);
  for (graph::node_id u = 0; u < 6; ++u) {
    EXPECT_EQ(proto.state_of(u),
              static_cast<state_id>(core::bfw_state::leader_wait));
    EXPECT_EQ(sim.beep_count(u), 0U);
  }
}

TEST(EngineTest, RestartFromProtocolResetsCounters) {
  const auto g = graph::make_path(5);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 3);
  sim.run_rounds(20);
  ASSERT_GT(sim.round(), 0U);

  proto.set_states(std::vector<state_id>(
      5, static_cast<state_id>(core::bfw_state::follower_wait)));
  sim.restart_from_protocol();
  EXPECT_EQ(sim.round(), 0U);
  EXPECT_EQ(sim.leader_count(), 0U);
  for (graph::node_id u = 0; u < 5; ++u) {
    EXPECT_EQ(sim.beep_count(u), 0U);
  }
}

TEST(EngineTest, RunUntilSingleLeaderStopsEarly) {
  const auto g = graph::make_complete(8);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 99);
  const auto result = sim.run_until_single_leader(100000);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(sim.leader_count(), 1U);
  EXPECT_LT(sim.sole_leader(), 8U);
  // Further rounds never lose the last leader (Lemma 9).
  sim.run_rounds(500);
  EXPECT_EQ(sim.leader_count(), 1U);
}

TEST(EngineTest, SoleLeaderSentinelWhenMultiple) {
  const auto g = graph::make_path(4);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 5);
  EXPECT_EQ(sim.leader_count(), 4U);
  EXPECT_EQ(sim.sole_leader(), 4U);  // sentinel = node_count
}

TEST(EngineTest, RunUntilHorizonReportsNonConvergence) {
  // Horizon 0: no work, not converged (4 leaders).
  const auto g = graph::make_path(4);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 5);
  const auto result = sim.run_until_single_leader(0);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds, 0U);
}

TEST(EngineTest, LazyBeepFlagsMatchPackedWords) {
  // The byte flags behind the observer API are materialized lazily;
  // querying them at any round must agree with the packed beep set
  // and with the per-node beeping() accessor.
  const auto g = graph::make_grid(5, 13);  // 65 nodes: crosses a word
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 77);
  for (int round = 0; round < 40; ++round) {
    sim.step();
    const auto flags = sim.beep_flags();
    const auto words = sim.beep_words();
    ASSERT_EQ(flags.size(), g.node_count());
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      const bool packed = (words[u >> 6] >> (u & 63)) & 1ULL;
      EXPECT_EQ(flags[u] != 0, packed) << "node " << u;
      EXPECT_EQ(sim.beeping(u), packed) << "node " << u;
    }
  }
}

TEST(EngineTest, LazyBeepFlagsObserverFreeRunUnchanged) {
  // An observer-free run (which skips the byte refresh entirely) must
  // stay bit-identical to a run that queries the flags every round.
  const auto g = graph::make_cycle(64);  // exact word boundary
  const core::bfw_machine machine(0.5);
  fsm_protocol lazy_proto(machine);
  fsm_protocol eager_proto(machine);
  engine lazy(g, lazy_proto, 31);
  engine eager(g, eager_proto, 31);
  for (int round = 0; round < 200; ++round) {
    lazy.step();
    eager.step();
    (void)eager.beep_flags();  // force materialization every round
    ASSERT_EQ(lazy_proto.states(), eager_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_EQ(lazy.total_coins_consumed(), eager.total_coins_consumed());
  // The flags are still correct when finally queried.
  const auto flags = lazy.beep_flags();
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(flags[u] != 0, lazy.beeping(u));
  }
}

TEST(EngineTest, FairCoinRateMatchesWaitingLeaders) {
  // With p = 1/2 every waiting leader consumes one coin per silent
  // round and no other transition consumes any: after the first round
  // from the all-W• start (all silent), exactly n coins are gone.
  const auto g = graph::make_path(6);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 21);
  EXPECT_EQ(sim.total_coins_consumed(), 0U);
  sim.step();
  EXPECT_EQ(sim.total_coins_consumed(), 6U);
}

}  // namespace
}  // namespace beepkit::beeping
