// Baseline correctness: the ID-broadcast election must elect exactly
// the maximum-ID node within its deterministic round budget on every
// graph; the clique lottery must elect a single leader w.h.p. on
// cliques, never lose all candidates, and demonstrably fail on
// multi-hop graphs (it is a single-hop algorithm). Both advance whole
// rounds on packed sets; their former per-node implementations are
// kept below as the oracle the round-level ones must match round for
// round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>

#include "baselines/clique_lottery.hpp"
#include "baselines/id_broadcast.hpp"
#include "beeping/engine.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "radio/radio.hpp"

namespace beepkit::baselines {
namespace {

class IdBroadcastBatteryTest
    : public ::testing::TestWithParam<beepkit::testing::graph_case> {};

TEST_P(IdBroadcastBatteryTest, ElectsTheMaximumIdWithinBudget) {
  const auto& gcase = GetParam();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto g = gcase.make(seed);
    const auto diameter = graph::diameter_exact(g);
    id_broadcast_election proto(std::max(1U, diameter));
    beeping::engine sim(g, proto, seed);

    const auto budget = proto.termination_round();
    const auto result = sim.run_until_single_leader(budget + 1);
    ASSERT_TRUE(result.converged)
        << gcase.label << " seed " << seed << " (budget " << budget << ")";
    ASSERT_EQ(sim.leader_count(), 1U);

    // The survivor must hold the maximum identifier.
    const auto winner = sim.sole_leader();
    EXPECT_EQ(proto.id_of(winner), g.node_count() - 1)
        << gcase.label << ": winner " << winner << " id "
        << proto.id_of(winner);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StandardBattery, IdBroadcastBatteryTest,
    ::testing::ValuesIn(beepkit::testing::standard_graph_battery()),
    [](const ::testing::TestParamInfo<beepkit::testing::graph_case>& info) {
      return info.param.label;
    });

TEST(IdBroadcastTest, LeaderCountNeverIncreases) {
  const auto g = graph::make_grid(4, 4);
  id_broadcast_election proto(6);
  beeping::engine sim(g, proto, 5);
  std::size_t previous = sim.leader_count();
  EXPECT_EQ(previous, 16U);
  for (std::uint64_t round = 0; round < proto.termination_round(); ++round) {
    sim.step();
    EXPECT_LE(sim.leader_count(), previous);
    EXPECT_GE(sim.leader_count(), 1U);
    previous = sim.leader_count();
  }
}

TEST(IdBroadcastTest, RoundComplexityIsDLogN) {
  // Budget must be exactly bits * (D+1): O(D log n), the Table 1 row.
  id_broadcast_election proto(10);
  support::rng init(1);
  proto.reset(1000, init);  // 10 bits
  EXPECT_EQ(proto.bits(), 10U);
  EXPECT_EQ(proto.termination_round(), 10U * 11U);
}

TEST(IdBroadcastTest, QuiescentAfterTermination) {
  const auto g = graph::make_path(8);
  id_broadcast_election proto(7);
  beeping::engine sim(g, proto, 9);
  sim.run_rounds(proto.termination_round() + 2);
  for (int round = 0; round < 20; ++round) {
    for (graph::node_id u = 0; u < 8; ++u) {
      EXPECT_FALSE(sim.beeping(u)) << "node " << u << " beeped after halt";
    }
    sim.step();
  }
  EXPECT_EQ(sim.leader_count(), 1U);
}

TEST(IdBroadcastTest, DiameterOverestimateStillCorrect) {
  // The algorithm assumes knowledge of D but tolerates any upper
  // bound, paying proportionally more rounds.
  const auto g = graph::make_cycle(12);  // true D = 6
  for (const std::uint32_t bound : {6U, 9U, 20U}) {
    id_broadcast_election proto(bound);
    beeping::engine sim(g, proto, 21);
    const auto result = sim.run_until_single_leader(proto.termination_round());
    ASSERT_TRUE(result.converged) << "bound " << bound;
    EXPECT_EQ(proto.id_of(sim.sole_leader()), 11U);
  }
}

TEST(IdBroadcastTest, SingleNode) {
  const auto g = graph::make_path(1);
  id_broadcast_election proto(1);
  beeping::engine sim(g, proto, 0);
  EXPECT_EQ(sim.leader_count(), 1U);
  sim.run_rounds(10);
  EXPECT_EQ(sim.leader_count(), 1U);
}

TEST(IdBroadcastTest, NoPerNodeStep) {
  // Both baselines advance whole rounds only; the per-node entry point
  // left at protocol's default refuses loudly.
  support::rng rng(1);
  id_broadcast_election id_proto(3);
  id_proto.reset(4, rng);
  EXPECT_THROW(id_proto.step(0, true, rng), std::logic_error);
  clique_lottery lottery(0.1);
  lottery.reset(4, rng);
  EXPECT_THROW(lottery.step(0, true, rng), std::logic_error);
}

// --- Clique lottery --------------------------------------------------------

TEST(CliqueLotteryTest, ParameterValidation) {
  EXPECT_THROW(clique_lottery(0.0), std::invalid_argument);
  EXPECT_THROW(clique_lottery(1.0), std::invalid_argument);
}

TEST(CliqueLotteryTest, ElectsSingleLeaderOnCliques) {
  for (const std::size_t n : {2UL, 8UL, 32UL, 128UL}) {
    const auto g = graph::make_complete(n);
    int successes = 0;
    constexpr int trials = 20;
    for (int trial = 0; trial < trials; ++trial) {
      clique_lottery proto(0.01);
      beeping::engine sim(g, proto, 1000 + trial);
      const auto result =
          sim.run_until_single_leader(proto.round_budget() + 2);
      if (result.converged && sim.leader_count() == 1) ++successes;
      EXPECT_GE(sim.leader_count(), 1U) << "lottery lost every candidate";
    }
    // eps = 1%: allow at most one unlucky trial among the fixed seeds.
    EXPECT_GE(successes, trials - 1) << "n=" << n;
  }
}

TEST(CliqueLotteryTest, NeverZeroCandidatesRoundByRound) {
  const auto g = graph::make_complete(16);
  clique_lottery proto(0.1);
  beeping::engine sim(g, proto, 77);
  for (std::uint64_t round = 0; round < proto.round_budget() + 10; ++round) {
    ASSERT_GE(sim.leader_count(), 1U) << "round " << round;
    sim.step();
  }
}

TEST(CliqueLotteryTest, QuiescentAfterBudget) {
  const auto g = graph::make_complete(12);
  clique_lottery proto(0.05);
  beeping::engine sim(g, proto, 3);
  sim.run_rounds(proto.round_budget() + 2);
  for (int round = 0; round < 30; ++round) {
    for (graph::node_id u = 0; u < 12; ++u) {
      EXPECT_FALSE(sim.beeping(u));
    }
    sim.step();
  }
}

TEST(CliqueLotteryTest, BudgetGrowsWithNAndPrecision) {
  clique_lottery loose(0.1);
  clique_lottery tight(0.0001);
  support::rng init(1);
  loose.reset(100, init);
  tight.reset(100, init);
  EXPECT_GT(tight.round_budget(), loose.round_budget());

  clique_lottery small(0.1);
  clique_lottery large(0.1);
  small.reset(10, init);
  large.reset(10000, init);
  EXPECT_GT(large.round_budget(), small.round_budget());
}

TEST(CliqueLotteryTest, FailsOnMultiHopGraphs) {
  // On a long path, far-apart candidates cannot hear each other: the
  // lottery ends with many surviving "leaders". This is why Table 1
  // marks [17] as single-hop only.
  const auto g = graph::make_path(32);
  clique_lottery proto(0.01);
  beeping::engine sim(g, proto, 5);
  sim.run_rounds(proto.round_budget() + 5);
  EXPECT_GT(sim.leader_count(), 1U)
      << "multi-hop survival is expected for the clique-only baseline";
}

// --- Round-level oracle -----------------------------------------------------
//
// The per-node implementations the round-level baselines replaced,
// their code unchanged (classes renamed), as the reference: the engine
// drives them through protocol's default step_round/round_sets loops.

class reference_id_broadcast final : public beeping::protocol {
 public:
  explicit reference_id_broadcast(std::uint32_t diameter_bound)
      : diameter_bound_(diameter_bound) {}

  void reset(std::size_t node_count, support::rng& init_rng) override {
    total_bits_ = 1;
    while ((std::size_t{1} << total_bits_) < node_count) ++total_bits_;

    const auto perm = init_rng.permutation(node_count);
    nodes_.assign(node_count, node_state{});
    for (std::size_t u = 0; u < node_count; ++u) {
      nodes_[u].id = perm[u];
      nodes_[u].bit_index = total_bits_ - 1;
    }
  }

  [[nodiscard]] bool beeping(graph::node_id node) const override {
    const node_state& s = nodes_[node];
    return s.relay_pending || initiates(s);
  }

  [[nodiscard]] bool is_leader(graph::node_id node) const override {
    return nodes_[node].candidate;
  }

  void step(graph::node_id node, bool heard,
            support::rng& /*node_rng*/) override {
    node_state& s = nodes_[node];
    if (s.finished) return;

    const bool beeped_now = beeping(node);
    s.relay_pending = false;

    if (heard && !s.heard_this_phase) {
      s.heard_this_phase = true;
      if (!beeped_now && !s.relayed && s.round_in_phase < diameter_bound_) {
        s.relay_pending = true;
        s.relayed = true;
      }
    }

    if (s.round_in_phase == diameter_bound_) {
      const bool my_bit = ((s.id >> s.bit_index) & 1ULL) != 0;
      if (s.candidate && !my_bit && s.heard_this_phase) {
        s.candidate = false;
      }
      s.heard_this_phase = false;
      s.relay_pending = false;
      s.relayed = false;
      s.round_in_phase = 0;
      if (s.bit_index == 0) {
        s.finished = true;
      } else {
        --s.bit_index;
      }
    } else {
      ++s.round_in_phase;
    }
  }

  [[nodiscard]] std::string describe(graph::node_id node) const override {
    const node_state& s = nodes_[node];
    std::ostringstream out;
    out << (s.candidate ? "C" : ".") << "(id=" << s.id
        << ",bit=" << s.bit_index << ",r=" << s.round_in_phase << ")";
    return out.str();
  }

  [[nodiscard]] std::string name() const override {
    std::ostringstream out;
    out << "IdBroadcast(D<=" << diameter_bound_ << ")";
    return out.str();
  }

  [[nodiscard]] std::uint64_t id_of(graph::node_id node) const {
    return nodes_[node].id;
  }

 private:
  struct node_state {
    std::uint64_t id = 0;
    bool candidate = true;
    bool heard_this_phase = false;
    bool relay_pending = false;
    bool relayed = false;
    std::uint32_t bit_index = 0;
    std::uint32_t round_in_phase = 0;
    bool finished = false;
  };

  [[nodiscard]] bool initiates(const node_state& s) const noexcept {
    return !s.finished && s.candidate && s.round_in_phase == 0 &&
           ((s.id >> s.bit_index) & 1ULL) != 0;
  }

  std::uint32_t diameter_bound_;
  std::uint32_t total_bits_ = 1;
  std::vector<node_state> nodes_;
};

class reference_clique_lottery final : public beeping::protocol {
 public:
  explicit reference_clique_lottery(double epsilon) : epsilon_(epsilon) {}

  void reset(std::size_t node_count, support::rng& /*init_rng*/) override {
    const double n = std::max<double>(2.0, static_cast<double>(node_count));
    const double t = (2.0 * std::log2(n) + std::log2(1.0 / epsilon_)) /
                     std::log2(4.0 / 3.0);
    budget_ = static_cast<std::uint64_t>(std::ceil(t));
    nodes_.assign(node_count, node_state{});
  }

  [[nodiscard]] bool beeping(graph::node_id node) const override {
    return nodes_[node].beep_now;
  }

  [[nodiscard]] bool is_leader(graph::node_id node) const override {
    return nodes_[node].candidate;
  }

  void step(graph::node_id node, bool heard,
            support::rng& node_rng) override {
    node_state& s = nodes_[node];
    const bool listened = s.candidate && !s.beep_now;
    if (listened && heard) {
      s.candidate = false;
    }
    ++s.round;
    s.beep_now = s.candidate && s.round <= budget_ && node_rng.coin();
  }

  [[nodiscard]] std::string describe(graph::node_id node) const override {
    const node_state& s = nodes_[node];
    std::ostringstream out;
    out << (s.candidate ? "C" : ".") << (s.beep_now ? "!" : " ");
    return out.str();
  }

  [[nodiscard]] std::string name() const override {
    std::ostringstream out;
    out << "CliqueLottery(eps=" << epsilon_ << ")";
    return out.str();
  }

 private:
  struct node_state {
    bool candidate = true;
    bool beep_now = false;
    std::uint64_t round = 0;
  };

  double epsilon_;
  std::uint64_t budget_ = 0;
  std::vector<node_state> nodes_;
};

struct oracle_case {
  bool lottery = false;  // else IdBroadcast
  bool complete = false;  // else path
  std::size_t n = 0;
};

void PrintTo(const oracle_case& c, std::ostream* os) {
  *os << (c.lottery ? "lottery_" : "idb_") << (c.complete ? "K" : "P")
      << c.n;
}

std::vector<oracle_case> oracle_cases() {
  std::vector<oracle_case> cases;
  for (const std::size_t n : {1, 2, 63, 64, 65, 128, 129}) {
    cases.push_back({false, false, n});
    cases.push_back({false, true, n});
    cases.push_back({true, true, n});
  }
  return cases;
}

class BaselineOracle : public ::testing::TestWithParam<oracle_case> {};

TEST_P(BaselineOracle, RoundLevelMatchesPerNode) {
  const oracle_case& c = GetParam();
  const auto g = c.complete ? graph::make_complete(c.n) : graph::make_path(c.n);
  const std::uint32_t diameter = std::max(1U, graph::diameter_exact(g));
  const auto make_pair = [&]()
      -> std::pair<std::unique_ptr<beeping::protocol>,
                   std::unique_ptr<beeping::protocol>> {
    if (c.lottery) {
      return {std::make_unique<clique_lottery>(0.01),
              std::make_unique<reference_clique_lottery>(0.01)};
    }
    return {std::make_unique<id_broadcast_election>(diameter),
            std::make_unique<reference_id_broadcast>(diameter)};
  };
  // A few rounds past the protocol's own budget (known after reset).
  const auto rounds_of = [&](const beeping::protocol& proto) {
    return 3 + (c.lottery ? dynamic_cast<const clique_lottery&>(proto)
                                .round_budget()
                          : dynamic_cast<const id_broadcast_election&>(proto)
                                .termination_round());
  };
  const std::uint64_t seed = 40 + c.n;
  const graph::gather_kernel kernels[] = {
      graph::gather_kernel::auto_select, graph::gather_kernel::stencil,
      graph::gather_kernel::word_csr_push,
      graph::gather_kernel::word_csr_pull};
  for (const graph::gather_kernel kernel : kernels) {
    for (const bool noisy : {false, true}) {
      SCOPED_TRACE(graph::gather_kernel_name(kernel) +
                   (noisy ? " noisy" : " quiet"));
      const beeping::noise_model noise =
          noisy ? beeping::noise_model{0.1, 0.02} : beeping::noise_model{};
      auto [proto, ref] = make_pair();
      beeping::engine sim(g, *proto, seed, noise);
      beeping::engine oracle(g, *ref, seed, noise);
      try {
        sim.set_gather_kernel(kernel);
      } catch (const std::invalid_argument&) {
        continue;  // no stencil on an untagged graph
      }
      oracle.set_gather_kernel(kernel);
      beeping::beep_counter sim_counts;
      beeping::beep_counter oracle_counts;
      sim.add_observer(&sim_counts);
      oracle.add_observer(&oracle_counts);
      const std::uint64_t rounds = rounds_of(*proto);
      for (std::uint64_t round = 0; round <= rounds; ++round) {
        ASSERT_TRUE(std::ranges::equal(sim.beep_words(), oracle.beep_words()))
            << "round " << round;
        ASSERT_TRUE(
            std::ranges::equal(sim.leader_words(), oracle.leader_words()))
            << "round " << round;
        ASSERT_EQ(sim.leader_count(), oracle.leader_count());
        ASSERT_TRUE(
            std::ranges::equal(sim_counts.counts(), oracle_counts.counts()));
        ASSERT_EQ(sim.total_coins_consumed(), oracle.total_coins_consumed());
        for (graph::node_id u = 0; u <= c.n; ++u) {
          support::rng next = sim.node_rng(u);
          support::rng oracle_next = oracle.node_rng(u);
          ASSERT_EQ(next.next_u64(), oracle_next.next_u64()) << "stream " << u;
        }
        // Labels are a pure function of the state; one configuration
        // per case checks them (each builds an ostringstream).
        const bool labels =
            kernel == graph::gather_kernel::auto_select && !noisy;
        for (graph::node_id u = 0; labels && u < c.n; ++u) {
          ASSERT_EQ(proto->describe(u), ref->describe(u)) << "node " << u;
          if (!c.lottery) {
            ASSERT_EQ(dynamic_cast<id_broadcast_election&>(*proto).id_of(u),
                      dynamic_cast<reference_id_broadcast&>(*ref).id_of(u));
          }
        }
        sim.step();
        oracle.step();
      }
    }
  }
  // End to end: the runner's verdict and the winner, on the beeping
  // engine and on the collision-detecting radio engine.
  auto [proto, ref] = make_pair();
  beeping::engine sim(g, *proto, seed);
  beeping::engine oracle(g, *ref, seed);
  const std::uint64_t horizon = rounds_of(*proto);
  const beeping::run_result got = sim.run_until_single_leader(horizon);
  const beeping::run_result want = oracle.run_until_single_leader(horizon);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.leaders, want.leaders);
  EXPECT_EQ(sim.sole_leader(), oracle.sole_leader());
  radio::engine radio_sim(g, *proto, seed, /*collision_detection=*/true);
  radio::engine radio_oracle(g, *ref, seed, /*collision_detection=*/true);
  const auto radio_got = radio_sim.run_until_single_leader(horizon);
  const auto radio_want = radio_oracle.run_until_single_leader(horizon);
  EXPECT_EQ(radio_got.rounds, radio_want.rounds);
  EXPECT_EQ(radio_got.leaders, radio_want.leaders);
  EXPECT_EQ(radio_sim.sole_leader(), radio_oracle.sole_leader());
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineOracle, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<oracle_case>& info) {
      std::ostringstream name;
      PrintTo(info.param, &name);
      return name.str();
    });

}  // namespace
}  // namespace beepkit::baselines
