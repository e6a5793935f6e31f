#include "graph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <queue>

namespace beepkit::graph {

namespace {

// Breadth-first search from every node, 64 sources to a batch (Then et
// al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
// VLDB 2015). Lane i of a batch's masks is the search from source
// first + i: seen[v] holds the lanes that have reached v, frontier[u]
// the lanes that reached u on the last level. A level walks only the
// sparse list of nodes that gained lanes on the level before, so it
// costs their degrees once, however many lanes they carry. Calls
// reach(first, level, v, lanes) for every node v and level at which
// `lanes` of the batch starting at `first` first reach v (level 0: the
// sources themselves).
template <class Reach>
void search_all_sources(const graph& g, Reach&& reach) {
  constexpr std::size_t lanes = 64;
  const std::size_t n = g.node_count();
  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  std::vector<node_id> active, reached;
  for (std::size_t offset = 0; offset < n; offset += lanes) {
    const auto first = static_cast<node_id>(offset);
    std::fill(seen.begin(), seen.end(), 0);
    active.clear();
    for (std::size_t i = 0; i < std::min(lanes, n - offset); ++i) {
      const node_id source = first + static_cast<node_id>(i);
      seen[source] = frontier[source] = std::uint64_t{1} << i;
      active.push_back(source);
      reach(first, 0U, source, frontier[source]);
    }
    for (std::uint32_t level = 1; !active.empty(); ++level) {
      reached.clear();
      for (const node_id u : active) {
        const std::uint64_t carried = frontier[u];
        for (const node_id v : g.neighbors(u)) {
          const std::uint64_t fresh = carried & ~seen[v];
          if (fresh == 0) continue;
          if (next[v] == 0) reached.push_back(v);
          next[v] |= fresh;
          seen[v] |= fresh;
        }
      }
      for (const node_id u : active) frontier[u] = 0;
      for (const node_id v : reached) reach(first, level, v, next[v]);
      std::swap(frontier, next);
      std::swap(active, reached);
    }
  }
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const graph& g, node_id source) {
  std::vector<std::uint32_t> dist(g.node_count(), unreachable);
  if (source >= g.node_count()) return dist;
  std::queue<node_id> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const node_id u = frontier.front();
    frontier.pop();
    for (node_id v : g.neighbors(u)) {
      if (dist[v] == unreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

bool is_connected(const graph& g) {
  if (g.node_count() <= 1) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == unreachable; });
}

std::uint32_t eccentricity(const graph& g, node_id source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d == unreachable) return unreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter_exact(const graph& g) {
  if (!is_connected(g)) return unreachable;
  // A connected graph with n - 1 edges is a tree, where the node
  // farthest from any start ends a longest path: two BFS passes.
  if (g.edge_count() + 1 == g.node_count()) {
    return diameter_double_sweep(g, 2);
  }
  std::uint32_t diameter = 0;
  search_all_sources(g, [&](node_id, std::uint32_t level, node_id,
                            std::uint64_t) {
    diameter = std::max(diameter, level);
  });
  return diameter;
}

std::uint32_t diameter_double_sweep(const graph& g, int sweeps) {
  if (g.node_count() == 0) return 0;
  std::uint32_t best = 0;
  node_id start = 0;
  for (int s = 0; s < sweeps; ++s) {
    const auto dist = bfs_distances(g, start);
    node_id farthest = start;
    std::uint32_t ecc = 0;
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (dist[v] != unreachable && dist[v] > ecc) {
        ecc = dist[v];
        farthest = v;
      }
    }
    best = std::max(best, ecc);
    if (farthest == start) break;
    start = farthest;
  }
  return best;
}

std::vector<std::vector<std::uint32_t>> distance_matrix(const graph& g) {
  std::vector<std::vector<std::uint32_t>> matrix(
      g.node_count(), std::vector<std::uint32_t>(g.node_count(), unreachable));
  search_all_sources(g, [&](node_id first, std::uint32_t level, node_id v,
                            std::uint64_t mask) {
    for (; mask != 0; mask &= mask - 1) {
      matrix[first + static_cast<node_id>(std::countr_zero(mask))][v] = level;
    }
  });
  return matrix;
}

std::optional<std::vector<node_id>> shortest_path(const graph& g, node_id u,
                                                  node_id v) {
  if (u >= g.node_count() || v >= g.node_count()) return std::nullopt;
  if (u == v) return std::vector<node_id>{u};

  // BFS from v so that walking parents from u yields the path in order.
  const auto dist = bfs_distances(g, v);
  if (dist[u] == unreachable) return std::nullopt;

  std::vector<node_id> path;
  path.reserve(dist[u] + 1);
  node_id current = u;
  path.push_back(current);
  while (current != v) {
    for (node_id next : g.neighbors(current)) {
      if (dist[next] + 1 == dist[current]) {
        current = next;
        break;
      }
    }
    path.push_back(current);
  }
  return path;
}

std::vector<node_id> exact_distance_set(const graph& g, node_id u,
                                        std::uint32_t d) {
  const auto dist = bfs_distances(g, u);
  std::vector<node_id> result;
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (dist[v] == d) result.push_back(v);
  }
  return result;
}

}  // namespace beepkit::graph
