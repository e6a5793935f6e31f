// BFS-based graph algorithms: distances, eccentricities, diameter,
// connectivity, and shortest paths. The paper's bounds are stated in
// terms of the diameter D, and the flow machinery (Section 3) operates
// on explicit vertex paths, so both are first-class here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace beepkit::graph {

/// Distance sentinel for unreachable nodes.
inline constexpr std::uint32_t unreachable = 0xffffffffU;

/// Single-source BFS distances (unreachable nodes get `unreachable`);
/// the reference the all-sources searches below are tested against.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const graph& g,
                                                       node_id source);

/// True iff the graph is connected (vacuously true for n <= 1).
[[nodiscard]] bool is_connected(const graph& g);

/// Eccentricity of `source` (max BFS distance); graph must be
/// connected, otherwise returns `unreachable`.
[[nodiscard]] std::uint32_t eccentricity(const graph& g, node_id source);

/// Exact diameter; `unreachable` if the graph is disconnected, 0 for
/// n <= 1. A tree (connected, m = n - 1) takes the double sweep, which
/// is exact there: O(n). Any other graph runs all-sources BFS, 64
/// sources to a search (one bit lane each). A node joins a batch's
/// frontier once per level at which it gains lanes, so a batch costs
/// between one and 64 BFS traversals: O(n(n+m)/64) when the lanes
/// travel together (small diameter), and O(n(n+m)) at worst
/// (grid(64x64): about the time of n passes).
[[nodiscard]] std::uint32_t diameter_exact(const graph& g);

/// Lower bound on the diameter via a handful of double BFS sweeps;
/// equals the diameter on trees and is typically tight in practice.
/// O(k(n+m)).
[[nodiscard]] std::uint32_t diameter_double_sweep(const graph& g,
                                                  int sweeps = 4);

/// Full distance matrix (n x n; `unreachable` for pairs in different
/// components), from the same 64-lane search as diameter_exact plus
/// the n^2 entry writes; O(n^2) memory, so intended for test-sized
/// graphs. Row u equals bfs_distances(g, u).
[[nodiscard]] std::vector<std::vector<std::uint32_t>> distance_matrix(
    const graph& g);

/// One shortest path from u to v as a vertex sequence (u first), or
/// nullopt if v is unreachable. Ties broken toward smaller node ids.
[[nodiscard]] std::optional<std::vector<node_id>> shortest_path(
    const graph& g, node_id u, node_id v);

/// The d-neighborhood N_d(u) of Section 2: nodes at distance exactly d.
[[nodiscard]] std::vector<node_id> exact_distance_set(const graph& g,
                                                      node_id u,
                                                      std::uint32_t d);

}  // namespace beepkit::graph
