// Engine semantics: synchronous delta dispatch, determinism, observer
// plumbing, beep counting (beeping::beep_counter), and
// restart_from_protocol.
#include "beeping/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "baselines/id_broadcast.hpp"
#include "core/bfw.hpp"
#include "core/timeout_bfw.hpp"
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
  beep_counter counter;
  sim.add_observer(&counter);
  // Round 0: node 0 beeps -> N_0(0) = 1 (Section 2 counts inclusively).
  EXPECT_EQ(counter.count(0), 1U);
  EXPECT_TRUE(sim.beeping(0));
  sim.step();  // round 1: silent
  EXPECT_EQ(counter.count(0), 1U);
  EXPECT_FALSE(sim.beeping(0));
  sim.step();  // round 2: beeps again
  EXPECT_EQ(counter.count(0), 2U);
  // A counter attached after round 0 would miss rounds: the attach-time
  // call throws, so add_observer never attaches it.
  beep_counter late;
  EXPECT_THROW(sim.add_observer(&late), std::logic_error);
  sim.step();  // round 3: only the round-0 counter is notified
  EXPECT_EQ(counter.count(0), 2U);
  EXPECT_TRUE(late.counts().empty());
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
  // An engine's planes and packed sets come from heap blocks that a
  // destroyed engine on the same thread leaves dirty. A rebind of the
  // same view and seed must still start from zero and match an engine
  // bound before the dirty run, draw for draw.
  const auto g = graph::make_grid(12, 12);  // 144 nodes: 3 words + tail
  const core::bfw_machine machine(0.5);
  constexpr std::uint64_t seed = 777;
  fsm_protocol fresh_proto(machine);
  engine fresh(g, fresh_proto, seed);
  beep_counter fresh_counts;
  fresh.add_observer(&fresh_counts);
  {
    fsm_protocol dirty_proto(machine);
    engine dirty(g, dirty_proto, seed);
    dirty.run_rounds(300);
  }
  fsm_protocol re_proto(machine);
  engine rebound(g, re_proto, seed);
  beep_counter re_counts;
  rebound.add_observer(&re_counts);
  for (int round = 0; round < 300; ++round) {
    ASSERT_EQ(fresh_proto.states(), re_proto.states())
        << "diverged at round " << round;
    ASSERT_EQ(fresh.leader_count(), rebound.leader_count()) << round;
    fresh.step();
    rebound.step();
  }
  EXPECT_GT(fresh.plane_rounds(), 0U);
  EXPECT_TRUE(std::ranges::equal(fresh_counts.counts(), re_counts.counts()));
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
  beep_counter counter;
  sim.add_observer(&counter);
  EXPECT_EQ(sim.leader_count(), 6U);
  EXPECT_EQ(sim.round(), 0U);
  for (graph::node_id u = 0; u < 6; ++u) {
    EXPECT_EQ(proto.state_of(u),
              static_cast<state_id>(core::bfw_state::leader_wait));
    EXPECT_EQ(counter.count(u), 0U);
  }
}

TEST(EngineTest, RestartFromProtocolResetsCounters) {
  const auto g = graph::make_path(5);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 3);
  beep_counter counter;
  sim.add_observer(&counter);
  sim.run_rounds(20);
  ASSERT_GT(sim.round(), 0U);
  std::uint64_t before = 0;
  for (const std::uint64_t c : counter.counts()) before += c;
  ASSERT_GT(before, 0U);

  proto.set_states(std::vector<state_id>(
      5, static_cast<state_id>(core::bfw_state::follower_wait)));
  sim.restart_from_protocol();  // the round-0 view restarts the counter
  EXPECT_EQ(sim.round(), 0U);
  EXPECT_EQ(sim.leader_count(), 0U);
  for (graph::node_id u = 0; u < 5; ++u) {
    EXPECT_EQ(counter.count(u), 0U);
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
  // The packed beep and leader sets are the observer API; at any round
  // they must agree with a scalar recomputation from the states and
  // with the per-node beeping() accessor.
  const auto g = graph::make_grid(5, 13);  // 65 nodes: crosses a word
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 77);
  for (int round = 0; round < 40; ++round) {
    sim.step();
    const auto words = sim.beep_words();
    const auto leaders = sim.leader_words();
    const auto& states = proto.states();
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      const bool packed = (words[u >> 6] >> (u & 63)) & 1ULL;
      EXPECT_EQ(machine.beeps(states[u]), packed) << "node " << u;
      EXPECT_EQ(sim.beeping(u), packed) << "node " << u;
      EXPECT_EQ(machine.is_leader(states[u]),
                ((leaders[u >> 6] >> (u & 63)) & 1ULL) != 0)
          << "node " << u;
    }
  }
}

// Pulls every per-node array a round view offers (a beep_counter rides
// along beside it).
struct pulling_observer final : observer {
  std::uint64_t sink = 0;
  void on_round(const round_view& view) override {
    for (const state_id s : view.states()) sink += s;
    std::vector<std::uint64_t> words(view.beep_words.size());
    view.class_words(0b10010, words);
    for (const std::uint64_t w : words) sink ^= w;
  }
};

TEST(EngineTest, LazyBeepFlagsObserverFreeRunUnchanged) {
  // An observer-free run must stay bit-identical to a run whose
  // observers count the beeps and pull the states and a class mask
  // every round.
  const auto g = graph::make_cycle(64);  // exact word boundary
  const core::bfw_machine machine(0.5);
  fsm_protocol lazy_proto(machine);
  fsm_protocol eager_proto(machine);
  engine lazy(g, lazy_proto, 31);
  engine eager(g, eager_proto, 31);
  pulling_observer puller;
  beep_counter counter;
  eager.add_observer(&puller);
  eager.add_observer(&counter);
  for (int round = 0; round < 200; ++round) {
    lazy.step();
    eager.step();
    ASSERT_EQ(lazy_proto.states(), eager_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_EQ(lazy.total_coins_consumed(), eager.total_coins_consumed());
  const auto lazy_words = lazy.beep_words();
  const auto eager_words = eager.beep_words();
  EXPECT_TRUE(std::equal(lazy_words.begin(), lazy_words.end(),
                         eager_words.begin(), eager_words.end()));
}

// Recomputes every round's packed sets from states() one node at a
// time and counts the words that differ from what the view handed out.
struct word_audit final : observer {
  explicit word_audit(const engine& sim) : sim(&sim) {}
  void on_round(const round_view& view) override {
    const auto* fsm = dynamic_cast<const fsm_protocol*>(view.proto);
    const state_machine& machine = fsm->machine();
    const auto& states = view.states();
    const std::size_t words = view.beep_words.size();
    std::vector<std::uint64_t> beep(words, 0);
    std::vector<std::uint64_t> leader(words, 0);
    for (graph::node_id u = 0; u < states.size(); ++u) {
      const std::uint64_t bit = 1ULL << (u & 63);
      if (machine.beeps(states[u]) && !sim->crashed(u)) beep[u >> 6] |= bit;
      if (machine.is_leader(states[u])) leader[u >> 6] |= bit;
    }
    std::vector<std::uint64_t> got(words);
    for (const std::uint64_t mask : {0x1ULL, 0x9ULL, 0x12ULL, 0x24ULL, 0x10ULL,
                                     0x3FULL, 0x0ULL}) {
      view.class_words(mask, got);
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t want = 0;
        for (std::size_t i = 0; i < 64 && (w << 6) + i < states.size(); ++i) {
          const state_id st = states[(w << 6) + i];
          if (st < 64 && ((mask >> st) & 1ULL) != 0) want |= 1ULL << i;
        }
        mismatches += got[w] != want ? 1 : 0;
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      mismatches += view.beep_words[w] != beep[w] ? 1 : 0;
      mismatches += view.leader_words[w] != leader[w] ? 1 : 0;
    }
    ++rounds;
  }
  const engine* sim;
  std::size_t rounds = 0;
  std::size_t mismatches = 0;
};

TEST(EngineTest, ViewWordsInGears) {
  // The view's beep, leader and class words must be exact in every
  // gear, with and without crashes and restarts between rounds.
  // Timeout-BFW with T = 60 has 65 states, so it runs the interpreted
  // sweep on 7 planes.
  enum class gear { virtual_path, seven_planes, interpreted_plane,
                    compiled_plane };
  const core::bfw_machine bfw(0.5);
  const core::timeout_bfw_machine wide(0.5, 60);
  const auto g = graph::make_grid(9, 15);  // 135 nodes: three words
  for (const gear kind : {gear::virtual_path, gear::seven_planes,
                          gear::interpreted_plane, gear::compiled_plane}) {
    for (const bool faults : {false, true}) {
      const state_machine& machine =
          kind == gear::seven_planes ? static_cast<const state_machine&>(wide)
                                     : bfw;
      fsm_protocol proto(machine);
      engine sim(g, proto, 41);
      if (kind == gear::virtual_path) sim.set_fast_path_enabled(false);
      if (kind == gear::interpreted_plane) {
        sim.set_compiled_kernel_enabled(false);
      }
      word_audit audit(sim);
      sim.add_observer(&audit);
      for (std::uint64_t round = 0; round < 120; ++round) {
        if (faults && round % 9 == 4) {
          const auto u =
              static_cast<graph::node_id>((round * 37) % g.node_count());
          if (sim.crashed(u)) {
            sim.fault_restart(u);
          } else if (round % 2 == 0) {
            sim.fault_crash(u);
          } else {
            // Frozen in the last state: for Timeout-BFW a follower whose
            // patience runs out this round, so the rolled-back lane
            // turns leader inside every sweep.
            sim.fault_crash_as(u, static_cast<state_id>(
                                      proto.machine().state_count() - 1));
          }
        }
        sim.step();
      }
      EXPECT_EQ(audit.rounds, 121U);
      EXPECT_EQ(audit.mismatches, 0U)
          << "gear " << static_cast<int>(kind) << " faults " << faults;
      if (faults) {
        EXPECT_GT(sim.crashed_count(), 0U);
      }
      switch (kind) {
        case gear::virtual_path:
          EXPECT_FALSE(sim.fast_path_active());
          break;
        case gear::seven_planes:
          EXPECT_EQ(sim.plane_snapshot().plane_count, 7U);
          EXPECT_EQ(sim.plane_rounds(), 120U);
          EXPECT_FALSE(sim.compiled_kernel_active());
          break;
        case gear::interpreted_plane:
          EXPECT_GT(sim.plane_rounds(), 0U);
          EXPECT_EQ(sim.compiled_rounds(), 0U);
          break;
        case gear::compiled_plane:
          EXPECT_GT(sim.compiled_rounds(), 0U);
          break;
      }
    }
  }
}

// Records whether the state pull refused a non-FSM protocol.
struct state_pull_probe final : observer {
  void on_round(const round_view& view) override {
    try {
      (void)view.states();
    } catch (const std::logic_error&) {
      ++refusals;
    }
  }
  int refusals = 0;
};

TEST(EngineTest, PullsRejectBadRequests) {
  const auto g = graph::make_grid(5, 13);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 3);
  std::vector<std::uint64_t> short_out(1);
  EXPECT_THROW(sim.class_words(0x9, short_out), std::invalid_argument);

  // A protocol without a state machine has no classes and no state
  // vector, but its leader words are still current every round.
  baselines::id_broadcast_election id_proto(8);
  engine id_sim(g, id_proto, 3);
  std::vector<std::uint64_t> out(id_sim.beep_words().size());
  EXPECT_THROW(id_sim.class_words(0x9, out), std::logic_error);
  state_pull_probe probe;
  id_sim.add_observer(&probe);
  for (int round = 0; round < 60; ++round) {
    id_sim.step();
    const auto leaders = id_sim.leader_words();
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      ASSERT_EQ(((leaders[u >> 6] >> (u & 63)) & 1ULL) != 0,
                id_proto.is_leader(u))
          << "round " << round << " node " << u;
    }
  }
  EXPECT_EQ(probe.refusals, 61);
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
