#include "graph/word_csr.hpp"

namespace beepkit::graph {

word_csr::word_csr(const graph& g) {
  const std::size_t n = g.node_count();
  offsets_.assign(n + 1, 0);
  // Neighbors are sorted per node, so each node's pairs fall out of one
  // linear scan: a new pair starts whenever the neighbor's word index
  // advances. Two passes (count, fill) keep the arrays exactly sized.
  for (node_id u = 0; u < n; ++u) {
    std::size_t pairs = 0;
    std::uint32_t current = UINT32_MAX;
    for (node_id v : g.neighbors(u)) {
      const auto w = static_cast<std::uint32_t>(v >> 6);
      if (w != current) {
        current = w;
        ++pairs;
      }
    }
    offsets_[u + 1] = offsets_[u] + pairs;
  }
  entry_words_.resize(offsets_[n]);
  entry_masks_.resize(offsets_[n]);
  for (node_id u = 0; u < n; ++u) {
    std::size_t k = offsets_[u];
    std::uint32_t current = UINT32_MAX;
    for (node_id v : g.neighbors(u)) {
      const auto w = static_cast<std::uint32_t>(v >> 6);
      if (w != current) {
        current = w;
        entry_words_[k] = w;
        entry_masks_[k] = 0;
        ++k;
      }
      entry_masks_[k - 1] |= 1ULL << (v & 63);
    }
  }
}

}  // namespace beepkit::graph
