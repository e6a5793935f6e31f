// Boundary-condition sweep across modules: degenerate graphs, minimal
// populations, empty engines, and consistency between independent
// bookkeeping paths (engine beep counts vs series totals, grid/path
// diameter identities, hypercube Hamming distances).
#include <gtest/gtest.h>

#include <bitset>

#include "beeping/engine.hpp"
#include "beeping/trace.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "core/flow.hpp"
#include "core/markov.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace beepkit {
namespace {

TEST(EdgeCaseTest, GridOfWidthOneIsAPath) {
  const auto grid = graph::make_grid(1, 9);
  const auto path = graph::make_path(9);
  EXPECT_EQ(grid.edges(), path.edges());
  EXPECT_EQ(graph::diameter_exact(grid), 8U);
}

TEST(EdgeCaseTest, HypercubeDistancesAreHammingDistances) {
  const auto g = graph::make_hypercube(5);
  const auto dist = graph::bfs_distances(g, 0);
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(dist[v], std::bitset<32>(v).count()) << "node " << v;
  }
}

TEST(EdgeCaseTest, CaterpillarWithNoLegsIsASpine) {
  const auto cat = graph::make_caterpillar(7, 0);
  EXPECT_EQ(cat.node_count(), 7U);
  EXPECT_EQ(cat.edges(), graph::make_path(7).edges());
}

TEST(EdgeCaseTest, BarbellWithZeroBridgeStillConnected) {
  const auto g = graph::make_barbell(4, 0);
  EXPECT_EQ(g.node_count(), 8U);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(graph::diameter_exact(g), 3U);  // hop + bridge edge + hop
}

TEST(EdgeCaseTest, EngineOnEmptyGraph) {
  const graph::graph g;
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 1);
  EXPECT_EQ(sim.leader_count(), 0U);
  sim.step();  // must not crash
  // Zero leaders is not an election: the run stops immediately but
  // reports non-convergence (an empty network cannot elect anyone).
  const auto result = sim.run_until_single_leader(10);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.leaders, 0U);
}

TEST(EdgeCaseTest, EngineBeepAccountingMatchesSeriesTotals) {
  // Two independent bookkeeping paths must agree: a beep counter's
  // cumulative per-node counts vs the series recorder's per-round
  // totals.
  const auto g = graph::make_grid(4, 4);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 31);
  beeping::series_recorder series;
  beeping::beep_counter counter;
  sim.add_observer(&series);
  sim.add_observer(&counter);
  sim.run_rounds(200);

  std::uint64_t from_engine = 0;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    from_engine += counter.count(u);
  }
  std::uint64_t from_series = 0;
  for (std::size_t beeps : series.beep_totals()) {
    from_series += beeps;
  }
  EXPECT_EQ(from_engine, from_series);
}

TEST(EdgeCaseTest, BfwOnTwoIsolatedComponentsElectsPerComponent) {
  // The paper requires connectivity; on a disconnected graph BFW
  // elects one leader per component and never gets below two - a
  // useful sanity check that the engine itself imposes no hidden
  // global coupling.
  const graph::graph g(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 13);
  sim.run_rounds(20000);
  EXPECT_EQ(sim.leader_count(), 2U);
  // One survivor on each side.
  int left = 0;
  int right = 0;
  for (graph::node_id u = 0; u < 3; ++u) left += proto.is_leader(u);
  for (graph::node_id u = 3; u < 6; ++u) right += proto.is_leader(u);
  EXPECT_EQ(left, 1);
  EXPECT_EQ(right, 1);
}

TEST(EdgeCaseTest, ExtremePValuesStillLawful) {
  for (const double p : {1e-6, 1.0 - 1e-6}) {
    const core::bfw_machine machine(p);
    support::rng rng(7);
    // The machine stays total and in-range at the parameter edges.
    for (beeping::state_id s = 0; s < 6; ++s) {
      EXPECT_LT(machine.delta_top(s, rng), 6);
      EXPECT_LT(machine.delta_bot(s, rng), 6);
    }
  }
}

TEST(EdgeCaseTest, PathFlowOnRepeatedVertexWalk) {
  // Definition 4 allows repeated vertices/edges: a back-and-forth walk
  // over one edge has telescoping flow.
  using beeping::state_id;
  const std::vector<state_id> states = {
      static_cast<state_id>(core::bfw_state::follower_beep),
      static_cast<state_id>(core::bfw_state::follower_wait)};
  const core::vertex_path walk = {0, 1, 0, 1, 0, 1};
  // Each (0,1) edge contributes +1, each (1,0) edge -1: net +1.
  EXPECT_EQ(core::path_flow(states, walk), 1);
}

TEST(EdgeCaseTest, QuantileAndSummarySingletons) {
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(support::quantile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(support::quantile(one, 1.0), 42.0);
  const auto s = support::summarize(one);
  EXPECT_EQ(s.count, 1U);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(EdgeCaseTest, DivergenceTimeThresholdZero) {
  // Threshold 0: diverges at the first round where exactly one chain
  // fires - almost immediately.
  support::rng rng(3);
  const auto t = core::sample_divergence_time(0.5, 0, 100000, rng);
  EXPECT_LT(t, 100U);
}

TEST(EdgeCaseTest, DefaultHorizonMonotoneInDiameter) {
  const auto g = graph::make_path(100);
  EXPECT_LE(core::default_horizon(g, 10), core::default_horizon(g, 50));
  EXPECT_LE(core::default_horizon(g, 50), core::default_horizon(g, 99));
}

TEST(EdgeCaseTest, TraceOnZeroRounds) {
  const auto g = graph::make_path(3);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 1);
  beeping::trace_recorder trace(proto);
  sim.add_observer(&trace);
  // No steps: only the attach-time round-0 snapshot.
  EXPECT_EQ(trace.recorded_rounds(), 1U);
  EXPECT_FALSE(trace.render_ascii().empty());
}

TEST(EdgeCaseTest, RunBfwElectionRespectsZeroHorizon) {
  const auto g = graph::make_path(4);
  const auto outcome =
      core::run_election(g, core::bfw_machine(0.5), 1, {.max_rounds = 0});
  EXPECT_FALSE(outcome.converged);
  EXPECT_EQ(outcome.rounds, 0U);
  EXPECT_EQ(outcome.final_leader_count, 4U);
}

}  // namespace
}  // namespace beepkit
