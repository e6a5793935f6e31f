// Word-granular adjacency layout for the bit-packed heard-gather.
//
// The engines keep beep/heard sets packed (one std::uint64_t word per
// 64 nodes). The classic CSR gather touches one *bit* per arc; the
// word_csr here stores, per node, the adjacency compressed to
// (word index, neighbor mask) pairs, so both gather directions touch
// one *word* per (node, word) incidence instead:
//
//  * push over node u: `heard[word[k]] |= mask[k]` for u's few pairs,
//    replacing degree(u) single-bit stores with one store per touched
//    word;
//  * pull for node u: `(beep[word[k]] & mask[k]) != 0` for any k, with
//    an early exit on the first hit.
//
// For a grid node the 4 neighbors collapse into <= 3 pairs; for a
// clique row they collapse into n/64 pairs.
//
// The layout is a derived view of a graph::graph and immutable. The
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

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

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

  /// True iff some neighbor of `u` is in the packed `set` - the
  /// word-parallel pull probe, exiting on the first meeting pair.
  [[nodiscard]] bool any_neighbor_in(node_id u,
                                     const std::uint64_t* set) const noexcept {
    const std::size_t begin = offsets_[u];
    const std::size_t end = offsets_[u + 1];
    for (std::size_t k = begin; k < end; ++k) {
      if ((set[entry_words_[k]] & entry_masks_[k]) != 0) return true;
    }
    return false;
  }

 private:
  std::vector<std::size_t> offsets_;        // size node_count+1
  std::vector<std::uint32_t> entry_words_;  // word index per pair
  std::vector<std::uint64_t> entry_masks_;  // neighbor mask per pair
};

}  // namespace beepkit::graph
