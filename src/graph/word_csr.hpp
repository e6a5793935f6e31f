// Word-granular adjacency layouts for the bit-packed heard-gather.
//
// The engines keep beep/heard sets packed (one std::uint64_t word per
// 64 nodes). The classic CSR push gather ORs one *bit* per arc; the
// layouts here OR one *word* per (node, word) incidence instead:
//
//  * word_csr - per node, the adjacency compressed to (word index,
//    neighbor mask) pairs. A push over node u executes
//    `heard[word[k]] |= mask[k]` for u's few pairs, replacing
//    degree(u) single-bit stores with one store per touched word.
//    For a grid node the 4 neighbors collapse into <= 3 pairs; for a
//    clique row they collapse into n/64 pairs.
//  * packed rows - the full n x ceil(n/64) adjacency bitmap, row-major.
//    The pull gather for dense beep sets is then one AND-with-early-
//    exit word loop per row (no popcounts, no per-bit probing). Memory
//    is n * words * 8 bytes, so rows are only built when the graph is
//    small/dense enough that the bitmap earns its keep (see
//    packed_rows_worthwhile).
//
// Both layouts are derived views of a graph::graph and immutable. The
// engines never build their own: graph::word_layout() builds one per
// graph on first use and every heard_gather bound to that graph (or to
// a copy of it) borrows it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace beepkit::graph {

/// Number of 64-bit words covering `n` packed node bits.
constexpr std::size_t packed_word_count(std::size_t n) noexcept {
  return (n + 63) / 64;
}

class word_csr {
 public:
  word_csr() = default;
  explicit word_csr(const graph& g);

  /// Builds the row-major packed adjacency bitmap as well. Call once,
  /// before the first packed-row pull; idempotent.
  void build_packed_rows(const graph& g);
  [[nodiscard]] bool packed_rows_built() const noexcept {
    return !rows_.empty();
  }

  /// Heuristic gate for building packed rows eagerly: the bitmap must
  /// be dense enough (>= 4 neighbor bits per row word on average, so a
  /// row scan beats probing the CSR) and small enough (<= 32 MiB).
  [[nodiscard]] static bool packed_rows_worthwhile(const graph& g) noexcept {
    const std::size_t n = g.node_count();
    const std::size_t words = packed_word_count(n);
    if (n == 0 || n * words > (std::size_t{1} << 22)) return false;
    return 2 * g.edge_count() >= 4 * n * words;
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_; }

  /// The (word, mask) pairs of node u, parallel spans.
  [[nodiscard]] std::span<const std::uint32_t> entry_words(node_id u) const {
    return {entry_words_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }
  [[nodiscard]] std::span<const std::uint64_t> entry_masks(node_id u) const {
    return {entry_masks_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  /// ORs the premasked neighbor words of `u` into the packed `heard`
  /// set - the word-parallel push step.
  void push_neighbors(node_id u, std::uint64_t* heard) const noexcept {
    const std::size_t begin = offsets_[u];
    const std::size_t end = offsets_[u + 1];
    for (std::size_t k = begin; k < end; ++k) {
      heard[entry_words_[k]] |= entry_masks_[k];
    }
  }

  /// Packed adjacency row of u (only valid after build_packed_rows).
  [[nodiscard]] const std::uint64_t* packed_row(node_id u) const noexcept {
    return rows_.data() + static_cast<std::size_t>(u) * words_;
  }

 private:
  std::vector<std::size_t> offsets_;        // size node_count+1
  std::vector<std::uint32_t> entry_words_;  // word index per pair
  std::vector<std::uint64_t> entry_masks_;  // neighbor mask per pair
  std::vector<std::uint64_t> rows_;         // n * words_, or empty
  std::size_t words_ = 0;
};

}  // namespace beepkit::graph
