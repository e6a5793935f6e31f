#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "graph/word_csr.hpp"

namespace beepkit::graph {

// Double-checked publication: a built layout is published through an
// acquire/release pointer, so readers after the first build take no
// lock.
struct graph::layout_cache {
  std::mutex build;
  std::atomic<const word_csr*> built{nullptr};
  std::unique_ptr<word_csr> owner;
};

graph::graph() : layout_(std::make_shared<layout_cache>()) {}

const word_csr& graph::word_layout() const {
  layout_cache& cache = *layout_;
  if (const word_csr* built = cache.built.load(std::memory_order_acquire)) {
    return *built;
  }
  const std::lock_guard<std::mutex> lock(cache.build);
  if (const word_csr* built = cache.built.load(std::memory_order_relaxed)) {
    return *built;
  }
  cache.owner = std::make_unique<word_csr>(*this);
  cache.built.store(cache.owner.get(), std::memory_order_release);
  return *cache.owner;
}

graph::graph(std::size_t node_count, std::vector<edge> edges)
    : layout_(std::make_shared<layout_cache>()) {
  // Normalize: u < v, validate endpoints.
  for (auto& e : edges) {
    if (e.u == e.v) {
      throw std::invalid_argument("graph: self-loop at node " +
                                  std::to_string(e.u));
    }
    if (e.u >= node_count || e.v >= node_count) {
      throw std::invalid_argument("graph: edge endpoint out of range");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const edge& a, const edge& b) {
    return std::pair(a.u, a.v) < std::pair(b.u, b.v);
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<std::size_t> degrees(node_count, 0);
  for (const auto& e : edges) {
    ++degrees[e.u];
    ++degrees[e.v];
  }

  offsets_.assign(node_count + 1, 0);
  for (std::size_t u = 0; u < node_count; ++u) {
    offsets_[u + 1] = offsets_[u] + degrees[u];
  }
  adjacency_.resize(2 * edges.size());

  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges) {
    adjacency_[cursor[e.u]++] = e.v;
    adjacency_[cursor[e.v]++] = e.u;
  }
  for (std::size_t u = 0; u < node_count; ++u) {
    std::sort(adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
              adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]));
  }

  if (node_count > 0) {
    max_degree_ = *std::max_element(degrees.begin(), degrees.end());
    min_degree_ = *std::min_element(degrees.begin(), degrees.end());
  }
  name_ = "graph(n=" + std::to_string(node_count) +
          ",m=" + std::to_string(edges.size()) + ")";
}

bool graph::has_edge(node_id u, node_id v) const {
  if (u >= node_count() || v >= node_count()) return false;
  const auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

std::vector<edge> graph::edges() const {
  std::vector<edge> result;
  result.reserve(edge_count());
  for (node_id u = 0; u < node_count(); ++u) {
    for (node_id v : neighbors(u)) {
      if (u < v) result.push_back({u, v});
    }
  }
  return result;
}

}  // namespace beepkit::graph
