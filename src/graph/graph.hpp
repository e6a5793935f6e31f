// Undirected simple graph with CSR (compressed sparse row) adjacency.
//
// The beeping model runs on an arbitrary undirected connected graph
// G = (V, E) (paper Section 1.1). All simulators in this repository
// touch every adjacency list every round, so the representation is a
// flat CSR layout: cache-friendly and immutable after construction.
// The word-granular layouts the heard-gather runs on (graph/word_csr)
// belong to the graph too: derived once, on first use, and shared by
// every engine and every copy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace beepkit::graph {

using node_id = std::uint32_t;

class word_csr;

/// An undirected edge as an unordered pair (stored with u < v).
struct edge {
  node_id u = 0;
  node_id v = 0;

  friend bool operator==(const edge&, const edge&) = default;
};

/// Geometry tag for structured topologies. A tagged graph promises that
/// its node numbering follows the canonical generator layout
/// (id = row * cols + col; path/ring use a single row), which is what
/// lets the engines compute the heard-gather with shifted word
/// operations instead of touching any adjacency ("stencil kernels").
/// The tag is trusted by the engines - generators attach it only to
/// graphs they built themselves, and graph::io validates it against the
/// edge list on load.
struct topology {
  enum class kind : std::uint8_t {
    path,  ///< P_n: rows == 1, cols == n
    ring,  ///< C_n: rows == 1, cols == n (wrap-around)
    grid,  ///< rows x cols lattice, no wrap
    torus  ///< rows x cols lattice with wrap-around (rows, cols >= 3)
  };

  kind shape = kind::path;
  std::size_t rows = 1;
  std::size_t cols = 0;

  friend bool operator==(const topology&, const topology&) = default;
};

/// Immutable undirected simple graph.
///
/// Construction validates the edge list: endpoints in range, no self
/// loops; duplicate edges are merged. Use `builder` or the free
/// generator functions in generators.hpp.
class graph {
 public:
  /// Empty graph (0 nodes).
  graph();

  /// Builds from an edge list; duplicates are deduplicated and each
  /// {u, v} produces both CSR arcs. Throws std::invalid_argument on
  /// out-of-range endpoints or self-loops.
  graph(std::size_t node_count, std::vector<edge> edges);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  [[nodiscard]] std::size_t edge_count() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::size_t degree(node_id u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Neighbors of u, sorted ascending.
  [[nodiscard]] std::span<const node_id> neighbors(node_id u) const {
    return {adjacency_.data() + offsets_[u], degree(u)};
  }

  /// Binary search over the sorted adjacency of u.
  [[nodiscard]] bool has_edge(node_id u, node_id v) const;

  /// All edges, each once, with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<edge> edges() const;

  [[nodiscard]] std::size_t max_degree() const noexcept { return max_degree_; }
  [[nodiscard]] std::size_t min_degree() const noexcept { return min_degree_; }

  /// Human-readable one-line description, e.g. "graph(n=16, m=24)".
  /// Generators attach a richer name like "grid(4x4)".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// The geometry tag, if this graph was built by a structured
  /// generator (or loaded from a tagged file). Untagged graphs always
  /// take the adjacency-based gather kernels.
  [[nodiscard]] const std::optional<topology>& topology_tag() const noexcept {
    return topo_;
  }
  /// Attaches (or strips, with nullopt) the geometry tag. The caller
  /// vouches that the edge set and node numbering actually match the
  /// claimed geometry - the stencil kernels trust the tag blindly.
  void set_topology_tag(std::optional<topology> topo) {
    topo_ = std::move(topo);
  }

  /// The word-granular adjacency layout (graph/word_csr.hpp) the
  /// heard-gather kernels read: the word-CSR, with the packed rows when
  /// word_csr::packed_rows_worthwhile(*this) holds or `with_rows` asks
  /// for them regardless (forced packed-pull debugging). Part of the
  /// immutable graph: built on the first call - concurrent first
  /// callers build it once - then read without a lock, and shared by
  /// every copy of this graph. Engines bound per trial borrow it, so a
  /// graph pays for its layout once, not once per trial.
  [[nodiscard]] const word_csr& word_layout(bool with_rows = false) const;

 private:
  struct layout_cache;

  std::vector<std::size_t> offsets_;   // size node_count+1
  std::vector<node_id> adjacency_;     // size 2*edge_count, sorted per node
  std::size_t max_degree_ = 0;
  std::size_t min_degree_ = 0;
  std::string name_ = "graph";
  std::optional<topology> topo_;
  // Lazily built word layouts; copies share them (the adjacency they
  // derive from is immutable and copied verbatim).
  std::shared_ptr<layout_cache> layouts_;
};

}  // namespace beepkit::graph
