// The tentpole differential contract of the implicit-topology layer:
// an implicit view and an explicit graph of the same tagged topology
// are indistinguishable - same adjacency, same formula diameter, and
// bit-identical engine trajectories (states, coins, outcomes) for
// every forced kernel, width and noise setting. Degenerate shapes
// (1xm / mx1 grids, rings below 3 nodes, singletons, word-boundary
// sizes) are where the arithmetic neighbor formulas can silently
// diverge from the generators, so they get explicit coverage.
#include <gtest/gtest.h>

#include <vector>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"

namespace beepkit {
namespace {

using graph::node_id;
using graph::topology;
using graph::topology_view;

std::vector<node_id> implicit_adjacency(const topology_view& view,
                                        node_id u) {
  std::vector<node_id> out;
  view.for_each_neighbor(u, [&](node_id v) { out.push_back(v); });
  return out;
}

std::vector<node_id> explicit_adjacency(const graph::graph& g, node_id u) {
  const auto nbrs = g.neighbors(u);
  return {nbrs.begin(), nbrs.end()};
}

void expect_same_adjacency(const topology_view& view, const graph::graph& g,
                           const std::string& label) {
  ASSERT_EQ(view.node_count(), g.node_count()) << label;
  for (node_id u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(implicit_adjacency(view, u), explicit_adjacency(g, u))
        << label << " node " << u;
  }
}

// --- adjacency: implicit formulas == generator graphs -----------------

TEST(TopologyView, PathAdjacencyMatchesGeneratorIncludingWordBoundaries) {
  for (const std::size_t n : {1UL, 2UL, 3UL, 63UL, 64UL, 65UL, 128UL}) {
    const auto view =
        topology_view::implicit({topology::kind::path, 1, n});
    expect_same_adjacency(view, graph::make_path(n),
                          "path n=" + std::to_string(n));
  }
}

TEST(TopologyView, RingAdjacencyMatchesGenerator) {
  for (const std::size_t n : {3UL, 4UL, 63UL, 64UL, 65UL, 128UL}) {
    const auto view =
        topology_view::implicit({topology::kind::ring, 1, n});
    expect_same_adjacency(view, graph::make_cycle(n),
                          "ring n=" + std::to_string(n));
  }
}

TEST(TopologyView, DegenerateRingsStaySimpleGraphs) {
  // The generator refuses n < 3; the implicit formulas must still
  // describe the simple graph: a 2-ring is a single edge (u-1 and u+1
  // coincide and must be deduplicated), a 1-ring is an isolated node
  // (the only "neighbor" is u itself and must be dropped).
  const auto ring2 = topology_view::implicit({topology::kind::ring, 1, 2});
  EXPECT_EQ(implicit_adjacency(ring2, 0), (std::vector<node_id>{1}));
  EXPECT_EQ(implicit_adjacency(ring2, 1), (std::vector<node_id>{0}));
  const auto ring1 = topology_view::implicit({topology::kind::ring, 1, 1});
  EXPECT_TRUE(implicit_adjacency(ring1, 0).empty());
}

TEST(TopologyView, DegenerateGridsMatchGenerator) {
  // 1xm and mx1 grids are paths in disguise; 1x1 is a singleton. The
  // grid formulas must not emit out-of-row neighbors for them.
  for (const auto [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 7},
        {7, 1},
        {1, 1},
        {1, 64},
        {64, 1},
        {2, 2},
        {3, 65},
        {65, 3}}) {
    const auto view =
        topology_view::implicit({topology::kind::grid, rows, cols});
    expect_same_adjacency(view, graph::make_grid(rows, cols),
                          "grid " + std::to_string(rows) + "x" +
                              std::to_string(cols));
  }
}

TEST(TopologyView, TorusAdjacencyMatchesGenerator) {
  for (const auto [rows, cols] :
       {std::pair<std::size_t, std::size_t>{3, 3}, {3, 22}, {8, 8}, {4, 16}}) {
    const auto view =
        topology_view::implicit({topology::kind::torus, rows, cols});
    expect_same_adjacency(view, graph::make_torus(rows, cols),
                          "torus " + std::to_string(rows) + "x" +
                              std::to_string(cols));
  }
}

// --- construction, parsing, formula diameter --------------------------

TEST(TopologyView, ImplicitRejectsBadGeometry) {
  EXPECT_THROW(topology_view::implicit({topology::kind::path, 1, 0}),
               std::invalid_argument);
  EXPECT_THROW(topology_view::implicit({topology::kind::grid, 0, 5}),
               std::invalid_argument);
  EXPECT_THROW(topology_view::implicit({topology::kind::path, 2, 5}),
               std::invalid_argument);
  EXPECT_THROW(topology_view::implicit({topology::kind::ring, 3, 3}),
               std::invalid_argument);
}

TEST(TopologyView, ParseRoundTripsAndRejects) {
  const auto grid = topology_view::parse("grid:3x4");
  ASSERT_TRUE(grid.has_value());
  EXPECT_TRUE(grid->is_implicit());
  EXPECT_EQ(grid->node_count(), 12U);
  EXPECT_EQ(grid->name(), "grid(3x4)");

  const auto ring = topology_view::parse("cycle:24");
  ASSERT_TRUE(ring.has_value());
  EXPECT_EQ(ring->node_count(), 24U);

  const auto path = topology_view::parse("path:100");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->formula_diameter(), 99U);

  EXPECT_FALSE(topology_view::parse("grid:3").has_value());
  EXPECT_FALSE(topology_view::parse("blob:3x4").has_value());
  EXPECT_FALSE(topology_view::parse("path").has_value());
  EXPECT_FALSE(topology_view::parse("path:0").has_value());
  EXPECT_FALSE(topology_view::parse("grid:0x4").has_value());
}

TEST(TopologyView, FormulaDiameterMatchesDefinition) {
  EXPECT_EQ(topology_view::implicit({topology::kind::path, 1, 1})
                .formula_diameter(),
            0U);
  EXPECT_EQ(topology_view::implicit({topology::kind::ring, 1, 9})
                .formula_diameter(),
            4U);
  EXPECT_EQ(topology_view::implicit({topology::kind::grid, 5, 7})
                .formula_diameter(),
            10U);
  EXPECT_EQ(topology_view::implicit({topology::kind::torus, 6, 9})
                .formula_diameter(),
            7U);
}

TEST(TopologyView, ExplicitViewBorrowsGraphIdentity) {
  const auto g = graph::make_grid(4, 6);
  const topology_view view = g;  // implicit conversion
  EXPECT_FALSE(view.is_implicit());
  EXPECT_EQ(view.explicit_graph(), &g);
  EXPECT_EQ(view.node_count(), 24U);
  EXPECT_EQ(view.name(), g.name());
  expect_same_adjacency(view, g, "explicit grid view");
}

// --- engine differential: implicit == explicit, draw for draw --------

struct engine_knobs {
  bool fast_path = true;
  bool compiled = true;
  beeping::noise_model noise{};
};

void expect_same_trajectory(const topology_view& implicit_view,
                            const graph::graph& g, const engine_knobs& knobs,
                            const std::string& label) {
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto_a(machine);
  beeping::fsm_protocol proto_b(machine);
  beeping::engine sim_a(implicit_view, proto_a, 99, knobs.noise);
  beeping::engine sim_b(g, proto_b, 99, knobs.noise);
  for (beeping::engine* sim : {&sim_a, &sim_b}) {
    if (!knobs.fast_path) sim->set_fast_path_enabled(false);
    if (!knobs.compiled) sim->set_compiled_kernel_enabled(false);
  }
  for (int round = 0; round < 160; ++round) {
    sim_a.step();
    sim_b.step();
    ASSERT_EQ(sim_a.leader_count(), sim_b.leader_count())
        << label << " round " << round;
  }
  EXPECT_EQ(proto_a.states(), proto_b.states()) << label;
  EXPECT_EQ(sim_a.total_coins_consumed(), sim_b.total_coins_consumed())
      << label;
}

TEST(TopologyViewEngine, ImplicitMatchesExplicitAcrossGears) {
  const auto view = topology_view::implicit({topology::kind::grid, 8, 9});
  const auto g = graph::make_grid(8, 9);
  expect_same_trajectory(view, g, {}, "default gears");
  expect_same_trajectory(view, g, {.compiled = false},
                         "interpreted plane sweep");
  expect_same_trajectory(view, g, {.fast_path = false}, "virtual gear");
}

TEST(TopologyViewEngine, ImplicitMatchesExplicitUnderNoise) {
  const auto view = topology_view::implicit({topology::kind::ring, 1, 65});
  const auto g = graph::make_cycle(65);
  expect_same_trajectory(view, g,
                         {.noise = {.miss = 0.05, .hallucinate = 0.02}},
                         "noisy ring(65)");
}

TEST(TopologyViewEngine, ImplicitMatchesExplicitAtWordBoundaries) {
  for (const std::size_t n : {63UL, 64UL, 65UL, 128UL}) {
    const auto view = topology_view::implicit({topology::kind::path, 1, n});
    const auto g = graph::make_path(n);
    expect_same_trajectory(view, g, {}, "path n=" + std::to_string(n));
  }
}

TEST(TopologyViewEngine, DegenerateShapesElectALeader) {
  // n = 1 and thin grids must run end to end on the implicit path.
  for (const char* spec : {"path:1", "grid:1x6", "grid:6x1", "ring:2"}) {
    const auto view = topology_view::parse(spec);
    ASSERT_TRUE(view.has_value()) << spec;
    const auto outcome = core::run_election(
        *view, core::bfw_machine(0.5), 5, {.max_rounds = 200000});
    EXPECT_TRUE(outcome.converged) << spec;
    EXPECT_EQ(outcome.final_leader_count, 1U) << spec;
  }
}

TEST(TopologyViewEngine, ForcedStencilMatchesForcedLegacyOnImplicit) {
  const auto view = topology_view::implicit({topology::kind::torus, 5, 13});
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto_a(machine);
  beeping::fsm_protocol proto_b(machine);
  beeping::engine sim_a(view, proto_a, 17);
  beeping::engine sim_b(view, proto_b, 17);
  sim_a.set_gather_kernel(graph::gather_kernel::stencil);
  sim_b.set_gather_kernel(graph::gather_kernel::legacy_pull);
  for (int round = 0; round < 120; ++round) {
    sim_a.step();
    sim_b.step();
    ASSERT_EQ(sim_a.leader_count(), sim_b.leader_count()) << round;
  }
  EXPECT_EQ(proto_a.states(), proto_b.states());
  EXPECT_EQ(sim_a.total_coins_consumed(), sim_b.total_coins_consumed());
}

TEST(TopologyViewEngine, AdjacencyKernelsRejectImplicitViews) {
  const auto view = topology_view::implicit({topology::kind::grid, 4, 9});
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(view, proto, 3);
  EXPECT_THROW(sim.set_gather_kernel(graph::gather_kernel::word_csr_push),
               std::invalid_argument);
}

TEST(TopologyViewEngine, RunElectionHorizonDerivesFromFormulaDiameter) {
  // The runner must not fall back to n as the diameter for implicit
  // views - a 64x64 torus has formula diameter 64, so the Theorem-2
  // default horizon stays modest instead of n^2-sized.
  const auto view = topology_view::implicit({topology::kind::grid, 16, 16});
  const auto outcome =
      core::run_election(view, core::bfw_machine(0.5), 11, {});
  EXPECT_TRUE(outcome.converged);
}

}  // namespace
}  // namespace beepkit
