#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"

namespace beepkit::graph {
namespace {

TEST(AlgorithmsTest, BfsDistancesOnPath) {
  const auto g = make_path(6);
  const auto dist = bfs_distances(g, 2);
  const std::vector<std::uint32_t> expected = {2, 1, 0, 1, 2, 3};
  EXPECT_EQ(dist, expected);
}

TEST(AlgorithmsTest, BfsUnreachable) {
  const graph g(4, {{0, 1}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1U);
  EXPECT_EQ(dist[2], unreachable);
  EXPECT_EQ(dist[3], unreachable);
}

TEST(AlgorithmsTest, ConnectivityDetection) {
  EXPECT_TRUE(is_connected(make_cycle(5)));
  EXPECT_TRUE(is_connected(graph(1, {})));
  EXPECT_TRUE(is_connected(graph()));
  EXPECT_FALSE(is_connected(graph(3, {{0, 1}})));
}

TEST(AlgorithmsTest, EccentricityOnStar) {
  const auto g = make_star(7);
  EXPECT_EQ(eccentricity(g, 0), 1U);
  EXPECT_EQ(eccentricity(g, 3), 2U);
}

TEST(AlgorithmsTest, EccentricityDisconnected) {
  const graph g(3, {{0, 1}});
  EXPECT_EQ(eccentricity(g, 0), unreachable);
}

// The per-source reference: one bfs_distances row per node, and the
// diameter as the largest entry (`unreachable`, the largest uint32, if
// any pair is unreachable).
void expect_matches_per_source_bfs(const graph& g) {
  std::vector<std::vector<std::uint32_t>> rows;
  std::uint32_t diameter = 0;
  for (node_id u = 0; u < g.node_count(); ++u) {
    rows.push_back(bfs_distances(g, u));
    for (const std::uint32_t d : rows.back()) diameter = std::max(diameter, d);
  }
  EXPECT_EQ(distance_matrix(g), rows) << g.name();
  EXPECT_EQ(diameter_exact(g), diameter) << g.name();
}

// `a` with `b` beside it: b's nodes take the ids after a's.
graph disjoint_union(const graph& a, const graph& b) {
  auto edges = a.edges();
  const auto shift = static_cast<node_id>(a.node_count());
  for (const edge e : b.edges()) edges.push_back({e.u + shift, e.v + shift});
  return graph(a.node_count() + b.node_count(), std::move(edges));
}

// diameter_exact and distance_matrix search from 64 sources at once.
// The sizes sit on both sides of one and two full batches, so the last
// batch runs 1, 63 or 64 lanes and an isolated node can open a batch.
void expect_all_sources_search_matches_per_source_bfs() {
  support::rng rng(2015);
  expect_matches_per_source_bfs(graph());
  for (const std::size_t n : {1, 2, 63, 64, 65, 127, 128, 129, 200}) {
    std::vector<graph> family = {make_path(n), make_complete(n),
                                 make_complete_binary_tree(n),
                                 make_grid(2, (n + 1) / 2),
                                 make_caterpillar((n + 2) / 3, 2)};
    if (n >= 2) family.push_back(make_star(n));
    if (n >= 3) family.push_back(make_cycle(n));
    if (n >= 4) {
      family.push_back(make_wheel(n));
      family.push_back(make_barbell(n / 4, n - 2 * (n / 4)));
      family.push_back(make_lollipop(n / 2, n - n / 2));
    }
    if (n >= 9) {
      family.push_back(make_torus(3, n / 3));
      family.push_back(make_random_regular(n - n % 2, 3, rng));
      family.push_back(make_random_geometric(n, 0.2, rng));
    }
    for (int seed = 0; seed < 3; ++seed) {
      family.push_back(make_random_tree(n, rng));
      family.push_back(make_erdos_renyi_connected(n, 3.0 / n, rng));
      family.push_back(make_erdos_renyi_connected(n, 0.3, rng));
    }
    for (const graph& g : family) expect_matches_per_source_bfs(g);
    // Disconnected: no edges, an isolated last node, two components.
    if (n >= 2) {
      expect_matches_per_source_bfs(graph(n, {}));
      expect_matches_per_source_bfs(
          disjoint_union(make_path(n - 1), graph(1, {})));
      expect_matches_per_source_bfs(disjoint_union(
          make_random_tree(n / 2, rng), make_cycle(n - n / 2 + 2)));
      EXPECT_EQ(diameter_exact(graph(n, {})), unreachable);
    }
  }
  for (std::size_t d = 1; d <= 7; ++d) {
    expect_matches_per_source_bfs(make_hypercube(d));
  }
  EXPECT_EQ(diameter_exact(graph(1, {})), 0U);
  EXPECT_EQ(diameter_exact(graph()), 0U);
}

TEST(AlgorithmsTest, DiameterExactKnownGraphs) {
  EXPECT_EQ(diameter_exact(make_path(17)), 16U);
  EXPECT_EQ(diameter_exact(make_cycle(12)), 6U);
  EXPECT_EQ(diameter_exact(make_complete(9)), 1U);
  EXPECT_EQ(diameter_exact(make_grid(3, 5)), 6U);
  EXPECT_EQ(diameter_exact(make_hypercube(6)), 6U);
  expect_all_sources_search_matches_per_source_bfs();
}

TEST(AlgorithmsTest, DoubleSweepTightOnTreesAndNeverOver) {
  support::rng rng(44);
  for (int i = 0; i < 10; ++i) {
    const auto tree = make_random_tree(60, rng);
    EXPECT_EQ(diameter_double_sweep(tree), diameter_exact(tree));
  }
  for (int i = 0; i < 5; ++i) {
    const auto g = make_erdos_renyi_connected(40, 0.1, rng);
    const auto lower = diameter_double_sweep(g);
    const auto exact = diameter_exact(g);
    EXPECT_LE(lower, exact);
    EXPECT_GE(lower * 2, exact);  // double sweep is a 2-approximation
  }
}

TEST(AlgorithmsTest, DistanceMatrixSymmetric) {
  const auto g = make_grid(3, 4);
  const auto matrix = distance_matrix(g);
  for (node_id u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(matrix[u][u], 0U);
    for (node_id v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(matrix[u][v], matrix[v][u]);
    }
  }
}

TEST(AlgorithmsTest, ShortestPathValid) {
  const auto g = make_grid(4, 4);
  const auto matrix = distance_matrix(g);
  for (node_id u = 0; u < 16; u += 3) {
    for (node_id v = 0; v < 16; v += 5) {
      const auto path = shortest_path(g, u, v);
      ASSERT_TRUE(path.has_value());
      EXPECT_EQ(path->front(), u);
      EXPECT_EQ(path->back(), v);
      EXPECT_EQ(path->size(), matrix[u][v] + 1);
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        EXPECT_TRUE(g.has_edge((*path)[i], (*path)[i + 1]));
      }
    }
  }
}

TEST(AlgorithmsTest, ShortestPathTrivialAndMissing) {
  const graph g(4, {{0, 1}});
  const auto same = shortest_path(g, 1, 1);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->size(), 1U);
  EXPECT_FALSE(shortest_path(g, 0, 3).has_value());
  EXPECT_FALSE(shortest_path(g, 0, 9).has_value());
}

TEST(AlgorithmsTest, ExactDistanceSetMatchesDefinition) {
  const auto g = make_cycle(8);
  const auto at2 = exact_distance_set(g, 0, 2);
  EXPECT_EQ(at2, (std::vector<node_id>{2, 6}));
  const auto at4 = exact_distance_set(g, 0, 4);
  EXPECT_EQ(at4, (std::vector<node_id>{4}));
  EXPECT_TRUE(exact_distance_set(g, 0, 5).empty());
}

}  // namespace
}  // namespace beepkit::graph
