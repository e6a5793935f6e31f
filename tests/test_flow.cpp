// Flow machinery tests: Definition 5, Lemma 7 (conservation of flow),
// Corollary 8 (Ohm's law), Lemma 11 and Lemma 12 - checked against
// live BFW runs across the standard graph battery.
#include "core/flow.hpp"

#include <gtest/gtest.h>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace beepkit::core {
namespace {

using beeping::state_id;

constexpr state_id WL = static_cast<state_id>(bfw_state::leader_wait);
constexpr state_id BL = static_cast<state_id>(bfw_state::leader_beep);
constexpr state_id FL = static_cast<state_id>(bfw_state::leader_frozen);
constexpr state_id WF = static_cast<state_id>(bfw_state::follower_wait);
constexpr state_id BF = static_cast<state_id>(bfw_state::follower_beep);
constexpr state_id FF = static_cast<state_id>(bfw_state::follower_frozen);

TEST(FlowTest, EdgeFlowDefinition5) {
  // All 6x6 state pairs: +1 iff (beep, wait), -1 iff (wait, beep).
  const std::vector<state_id> all = {WL, BL, FL, WF, BF, FF};
  for (state_id su : all) {
    for (state_id sv : all) {
      const std::vector<state_id> states = {su, sv};
      const int flow = edge_flow(states, 0, 1);
      int expected = 0;
      if (bfw_is_beeping(su) && bfw_is_waiting(sv)) expected = +1;
      if (bfw_is_waiting(su) && bfw_is_beeping(sv)) expected = -1;
      EXPECT_EQ(flow, expected) << "states (" << su << "," << sv << ")";
      // Antisymmetry under edge reversal.
      EXPECT_EQ(edge_flow(states, 1, 0), -expected);
    }
  }
}

TEST(FlowTest, PathFlowSumsEdges) {
  // Path of 4 vertices: B W B W gives flows +1, -1, +1 -> total +1.
  const std::vector<state_id> states = {BF, WF, BF, WF};
  const vertex_path path = {0, 1, 2, 3};
  EXPECT_EQ(path_flow(states, path), 1);
  const vertex_path reversed = {3, 2, 1, 0};
  EXPECT_EQ(path_flow(states, reversed), -1);
  EXPECT_EQ(path_flow(states, {0}), 0);
  EXPECT_EQ(path_flow(states, {}), 0);
}

TEST(FlowTest, PathFlowBoundedByLength) {
  // |nu_t(omega)| <= k (Eq. 1): check on random configurations.
  support::rng rng(5);
  const auto g = graph::make_grid(5, 5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<state_id> states(25);
    for (auto& s : states) {
      s = static_cast<state_id>(rng.uniform_below(6));
    }
    const auto paths = sample_paths(g, 8, 12, rng);
    for (const auto& path : paths) {
      if (path.size() < 2) continue;
      const int flow = path_flow(states, path);
      EXPECT_LE(static_cast<std::size_t>(std::abs(flow)), path.size() - 1);
    }
  }
}

TEST(FlowTest, PathValidation) {
  const auto g = graph::make_cycle(5);
  EXPECT_TRUE(is_valid_path(g, {0, 1, 2, 3, 4, 0}));
  EXPECT_TRUE(is_valid_path(g, {2, 1, 2, 3, 2}));  // repeats allowed
  EXPECT_TRUE(is_valid_path(g, {3}));
  EXPECT_TRUE(is_valid_path(g, {}));
  EXPECT_FALSE(is_valid_path(g, {0, 2}));   // not an edge
  EXPECT_FALSE(is_valid_path(g, {0, 7}));   // out of range
}

TEST(FlowTest, SampledPathsAreValid) {
  support::rng rng(17);
  for (const auto& gcase : testing::standard_graph_battery()) {
    const auto g = gcase.make(3);
    const auto paths = sample_paths(g, 20, 16, rng);
    EXPECT_EQ(paths.size(), 20U) << gcase.label;
    for (const auto& path : paths) {
      EXPECT_TRUE(is_valid_path(g, path)) << gcase.label;
    }
  }
}

// Lemma 7 (conservation): across one engine step,
// nu_t(omega) = nu_{t-1}(omega) + 1{v1 in B_t} - 1{vk in B_t}.
TEST(FlowTest, Lemma7ConservationAcrossRounds) {
  support::rng path_rng(23);
  for (const auto& gcase : testing::standard_graph_battery()) {
    const auto g = gcase.make(7);
    const bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, 101);
    const auto paths = sample_paths(g, 12, 20, path_rng);

    for (int round = 0; round < 120; ++round) {
      const auto before = proto.states();
      sim.step();
      const auto& after = proto.states();
      for (const auto& path : paths) {
        if (path.size() < 2) continue;
        const int expected = path_flow(before, path) +
                             (bfw_is_beeping(after[path.front()]) ? 1 : 0) -
                             (bfw_is_beeping(after[path.back()]) ? 1 : 0);
        ASSERT_EQ(path_flow(after, path), expected)
            << gcase.label << " round " << round;
      }
    }
  }
}

// Corollary 8 (Ohm's law): nu_t(omega) = N_t(v1) - N_t(vk).
TEST(FlowTest, Corollary8OhmsLaw) {
  support::rng path_rng(29);
  for (const auto& gcase : testing::standard_graph_battery()) {
    const auto g = gcase.make(11);
    const bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, 202);
    beeping::beep_counter counter;
    sim.add_observer(&counter);
    const auto paths = sample_paths(g, 12, 20, path_rng);

    for (int round = 0; round < 150; ++round) {
      const auto& states = proto.states();
      for (const auto& path : paths) {
        if (path.size() < 2) continue;
        const auto n1 = static_cast<std::int64_t>(counter.count(path.front()));
        const auto nk = static_cast<std::int64_t>(counter.count(path.back()));
        ASSERT_EQ(path_flow(states, path), n1 - nk)
            << gcase.label << " round " << round;
      }
      sim.step();
    }
  }
}

// Lemma 11: beep-count spread between two nodes never exceeds their
// distance.
TEST(FlowTest, Lemma11BeepSpreadBoundedByDistance) {
  for (const auto& gcase : testing::standard_graph_battery()) {
    const auto g = gcase.make(13);
    const auto dist = graph::distance_matrix(g);
    const bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, 303);
    beeping::beep_counter counter;
    sim.add_observer(&counter);

    for (int round = 0; round < 200; ++round) {
      sim.step();
      for (graph::node_id u = 0; u < g.node_count(); ++u) {
        for (graph::node_id v = u + 1; v < g.node_count(); ++v) {
          const auto nu = counter.count(u);
          const auto nv = counter.count(v);
          const auto spread = nu > nv ? nu - nv : nv - nu;
          ASSERT_LE(spread, dist[u][v])
              << gcase.label << " round " << round << " pair (" << u << ","
              << v << ")";
        }
      }
    }
  }
}

// Lemma 12: a node strictly behind in beeps must beep within dis(u,v)
// rounds. Tracked exhaustively on a mid-size path.
TEST(FlowTest, Lemma12BeepPropagationDeadline) {
  const auto g = graph::make_path(12);
  const auto dist = graph::distance_matrix(g);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 404);
  beeping::beep_counter counter;
  sim.add_observer(&counter);

  constexpr int horizon = 300;
  // beep_round[u][r] = 1 iff u beeped in round r; filled as we go.
  std::vector<std::vector<std::uint8_t>> beeped(
      g.node_count(), std::vector<std::uint8_t>(horizon + 16, 0));
  std::vector<std::vector<std::uint64_t>> counts_at(
      horizon + 1, std::vector<std::uint64_t>(g.node_count(), 0));

  for (int t = 0; t <= horizon + 12; ++t) {
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      if (t < horizon + 16 && sim.beeping(u)) beeped[u][t] = 1;
      if (t <= horizon) counts_at[t][u] = counter.count(u);
    }
    sim.step();
  }

  for (int t = 0; t <= horizon; ++t) {
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      for (graph::node_id v = 0; v < g.node_count(); ++v) {
        if (counts_at[t][u] > counts_at[t][v]) {
          bool found = false;
          for (std::uint32_t s = t; s <= t + dist[u][v]; ++s) {
            if (beeped[v][s] != 0) {
              found = true;
              break;
            }
          }
          ASSERT_TRUE(found) << "Lemma 12: node " << v
                             << " never beeped in [" << t << ", "
                             << t + dist[u][v] << "] behind " << u;
        }
      }
    }
  }
}

}  // namespace
}  // namespace beepkit::core
