#include "graph/gather.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "graph/patch.hpp"
#include "support/parallel.hpp"

namespace beepkit::graph {

namespace {

constexpr bool test_bit(std::span<const std::uint64_t> words,
                        node_id u) noexcept {
  return (words[u >> 6] >> (u & 63)) & 1ULL;
}

constexpr void set_bit(std::span<std::uint64_t> words, node_id u) noexcept {
  words[u >> 6] |= 1ULL << (u & 63);
}

// dst |= ((src & smask) << k) & lmask, for destination words in
// [wb, we) of a `words`-word array; bits shifted past the top of the
// array are dropped (the caller masks the valid tail afterwards).
// Null masks mean all-ones. Reads any source word, writes only
// [wb, we) - the tile contract of the stencil kernels.
void shl_or(const std::uint64_t* src, const std::uint64_t* smask,
            const std::uint64_t* lmask, std::uint64_t* dst,
            std::size_t words, std::size_t k, std::size_t wb,
            std::size_t we) noexcept {
  const std::size_t ws = k >> 6;
  const unsigned bs = static_cast<unsigned>(k & 63);
  const auto at = [&](std::size_t i) {
    return smask != nullptr ? (src[i] & smask[i]) : src[i];
  };
  (void)words;
  for (std::size_t w = std::max(wb, ws); w < we; ++w) {
    const std::size_t s = w - ws;
    std::uint64_t v = at(s);
    if (bs != 0) {
      v <<= bs;
      if (s > 0) v |= at(s - 1) >> (64 - bs);
    }
    if (lmask != nullptr) v &= lmask[w];
    dst[w] |= v;
  }
}

// dst |= ((src & smask) >> k) & lmask over [wb, we); bits shifted
// below zero drop.
void shr_or(const std::uint64_t* src, const std::uint64_t* smask,
            const std::uint64_t* lmask, std::uint64_t* dst,
            std::size_t words, std::size_t k, std::size_t wb,
            std::size_t we) noexcept {
  const std::size_t ws = k >> 6;
  const unsigned bs = static_cast<unsigned>(k & 63);
  const auto at = [&](std::size_t i) {
    return smask != nullptr ? (src[i] & smask[i]) : src[i];
  };
  const std::size_t hi = ws < words ? std::min(we, words - ws) : wb;
  for (std::size_t w = wb; w < hi; ++w) {
    const std::size_t s = w + ws;
    std::uint64_t v = at(s);
    if (bs != 0) {
      v >>= bs;
      if (s + 1 < words) v |= at(s + 1) << (64 - bs);
    }
    if (lmask != nullptr) v &= lmask[w];
    dst[w] |= v;
  }
}

}  // namespace

std::string gather_kernel_name(gather_kernel k) {
  switch (k) {
    case gather_kernel::auto_select:
      return "auto";
    case gather_kernel::stencil:
      return "stencil";
    case gather_kernel::word_csr_push:
      return "word_csr_push";
    case gather_kernel::packed_pull:
      return "packed_pull";
    case gather_kernel::legacy_pull:
      return "legacy_pull";
  }
  return "unknown";
}

heard_gather::heard_gather(topology_view view) : view_(std::move(view)) {
  const std::size_t n = view_.node_count();
  n_ = n;
  words_ = packed_word_count(n);
  tail_mask_ = (n % 64 == 0) ? ~0ULL : ((1ULL << (n % 64)) - 1);
  if (const graph* g = view_.explicit_graph(); g != nullptr) {
    rows_worthwhile_ = word_csr::packed_rows_worthwhile(*g);
  }
  stencil_ = view_.tag();
  if (stencil_.has_value()) {
    // Stencil preconditions. Generators only produce tags that pass
    // them, but hand-tagged or degenerate instances (a torus below
    // 3x3 has doubled/self wrap neighbors the shifts cannot express, a
    // 2-node "ring" is a single edge, a geometry not covering n nodes
    // is nonsense) must fall back to the adjacency-based kernels
    // cleanly instead of computing a wrong heard set.
    const topology& t = *stencil_;
    bool ok = t.rows >= 1 && t.cols >= 1 && t.rows * t.cols == n;
    switch (t.shape) {
      case topology::kind::path:
        ok = ok && t.rows == 1;
        break;
      case topology::kind::ring:
        ok = ok && t.rows == 1 && n >= 3;
        break;
      case topology::kind::grid:
        break;  // any rows x cols lattice shifts correctly
      case topology::kind::torus:
        ok = ok && t.rows >= 3 && t.cols >= 3;
        break;
    }
    if (!ok) stencil_.reset();
  }
  if (stencil_.has_value() && (stencil_->shape == topology::kind::grid ||
                               stencil_->shape == topology::kind::torus)) {
    // Periodic column masks, one bit per flat node index (indices past
    // n follow the same formula; the beep set never has bits there).
    const std::size_t cols = stencil_->cols;
    const std::size_t words = words_;
    not_first_col_.assign(words, 0);
    not_last_col_.assign(words, 0);
    for (std::size_t i = 0; i < words * 64; ++i) {
      const std::uint64_t bit = 1ULL << (i & 63);
      if (i % cols != 0) not_first_col_[i >> 6] |= bit;
      if (i % cols != cols - 1) not_last_col_[i >> 6] |= bit;
    }
    if (stencil_->shape == topology::kind::torus) {
      // Wrap-column source masks (the complements' bits above n are
      // harmless: the beep set never has bits there).
      first_col_.resize(words);
      last_col_.resize(words);
      for (std::size_t w = 0; w < words; ++w) {
        first_col_[w] = ~not_first_col_[w];
        last_col_[w] = ~not_last_col_[w];
      }
    }
  }
}

// The adjacency layouts are borrowed lazily: a topology-tagged graph
// auto-selects the stencil kernel forever and never needs them. The
// graph builds them once (O(n + m)) and shares them, so engines
// constructed per trial pay nothing after the graph's first gather.
void heard_gather::ensure_adjacency_layouts() {
  if (csr_ != nullptr) return;
  const graph* g = view_.explicit_graph();
  if (g == nullptr) {
    throw std::logic_error(
        "heard_gather: adjacency layouts need an explicit graph");
  }
  csr_ = &g->word_layout();
}

void heard_gather::force_kernel(gather_kernel k) {
  if (k == gather_kernel::stencil && !stencil_.has_value()) {
    throw std::invalid_argument(
        "heard_gather: stencil kernel requires a topology-tagged graph");
  }
  if ((k == gather_kernel::word_csr_push ||
       k == gather_kernel::packed_pull) &&
      view_.is_implicit()) {
    throw std::invalid_argument(
        "heard_gather: " + gather_kernel_name(k) +
        " needs adjacency; implicit views have none");
  }
  if (k == gather_kernel::word_csr_push) ensure_adjacency_layouts();
  if (k == gather_kernel::packed_pull) {
    // Debug/test override of the worthwhile heuristic: a layout with
    // rows (the graph's own when they are worthwhile anyway).
    csr_ = &view_.explicit_graph()->word_layout(/*with_rows=*/true);
  }
  forced_ = k;
}

void heard_gather::operator()(std::span<const std::uint64_t> beep,
                              std::span<std::uint64_t> heard) {
  gather_kernel k = forced_;
  if (k == gather_kernel::auto_select) {
    if (stencil_.has_value()) {
      k = gather_kernel::stencil;
    } else if (view_.is_implicit()) {
      // Degenerate implicit shapes (ring below 3, n == 1, sub-3x3
      // torus) have no stencil and no adjacency to refine: the
      // arithmetic-neighbor reference kernel is exact and these views
      // are tiny by construction.
      k = gather_kernel::legacy_pull;
    } else {
      ensure_adjacency_layouts();
      // Push costs ~beeper word-pairs, pull ~one early-exit row scan
      // per node; the crossover is around 2|B| = n as for the legacy
      // kernels, held with hysteresis so rounds hovering at the
      // threshold do not flap between kernels.
      std::size_t beepers = 0;
      for (const std::uint64_t word : beep) {
        beepers += static_cast<std::size_t>(std::popcount(word));
      }
      const std::size_t n = n_;
      if (2 * beepers > n) {
        dense_mode_ = true;
      } else if (4 * beepers <= n) {
        dense_mode_ = false;
      }
      if (dense_mode_) {
        k = rows_worthwhile_ ? gather_kernel::packed_pull
                             : gather_kernel::legacy_pull;
      } else {
        k = gather_kernel::word_csr_push;
      }
    }
  }
  switch (k) {
    case gather_kernel::stencil:
      if (exec_ != nullptr) {
        exec_->run_tiles(heard.size(), tile_words_,
                         [&](std::size_t, std::size_t wb, std::size_t we) {
                           gather_stencil_range(beep, heard, wb, we);
                         });
      } else {
        gather_stencil(beep, heard);
      }
      break;
    case gather_kernel::word_csr_push:
      if (exec_ != nullptr) {
        gather_word_csr_push_tiled(beep, heard);
      } else {
        gather_word_csr_push(beep, heard);
      }
      break;
    case gather_kernel::packed_pull:
      if (exec_ != nullptr) {
        exec_->run_tiles(heard.size(), tile_words_,
                         [&](std::size_t, std::size_t wb, std::size_t we) {
                           gather_packed_pull(beep, heard, wb, we);
                         });
      } else {
        gather_packed_pull(beep, heard, 0, heard.size());
      }
      break;
    case gather_kernel::legacy_pull:
      gather_legacy_pull(beep, heard);
      break;
    case gather_kernel::auto_select:
      break;  // unreachable: resolved above
  }
  if (patch_ != nullptr && !patch_->empty()) patch_->fix_heard(beep, heard);
  last_ = k;
}

// Structured topologies: the heard set is B shifted every which way the
// geometry allows - no adjacency is touched. All shift helpers drop
// bits past the array; the final tail mask kills in-range bits >= n
// (e.g. a left row-stride shift pushing the second row past the end).
void heard_gather::gather_stencil(std::span<const std::uint64_t> beep,
                                  std::span<std::uint64_t> heard) const {
  gather_stencil_range(beep, heard, 0, heard.size());
}

// The tile body: destination words [wb, we) only. Source reads are
// unrestricted (beep is read-only input), so the seam exchange between
// tiles is simply each tile reading across its boundary - no carry
// needs to travel.
void heard_gather::gather_stencil_range(std::span<const std::uint64_t> beep,
                                        std::span<std::uint64_t> heard,
                                        std::size_t wb, std::size_t we) const {
  const std::size_t words = heard.size();
  if (words == 0 || wb >= we) return;
  const topology& topo = *stencil_;
  const std::uint64_t* const b = beep.data();
  std::uint64_t* const h = heard.data();
  switch (topo.shape) {
    case topology::kind::path:
    case topology::kind::ring: {
      // Fused pass: heard[w] = B | (B << 1) | (B >> 1) with the
      // cross-word carries read off the rolling neighbors (the tile's
      // entry carry comes from the word before the range).
      std::uint64_t prev = wb > 0 ? b[wb - 1] : 0;
      std::uint64_t cur = b[wb];
      for (std::size_t w = wb; w < we; ++w) {
        const std::uint64_t next = (w + 1 < words) ? b[w + 1] : 0;
        h[w] |= (cur << 1) | (prev >> 63) | (cur >> 1) | (next << 63);
        prev = cur;
        cur = next;
      }
      if (topo.shape == topology::kind::ring) {
        // Wrap bits belong to the tiles owning the first/last word.
        const std::size_t n = n_;
        const auto end = static_cast<node_id>(n - 1);
        if (wb == 0 && test_bit(beep, end)) h[0] |= 1ULL;
        const std::size_t end_word = static_cast<std::size_t>(end) >> 6;
        if (end_word >= wb && end_word < we && (b[0] & 1ULL) != 0) {
          set_bit(heard, end);
        }
      }
      break;
    }
    case topology::kind::grid: {
      shl_or(b, nullptr, not_first_col_.data(), h, words, 1, wb, we);
      shr_or(b, nullptr, not_last_col_.data(), h, words, 1, wb, we);
      shl_or(b, nullptr, nullptr, h, words, topo.cols, wb, we);
      shr_or(b, nullptr, nullptr, h, words, topo.cols, wb, we);
      break;
    }
    case topology::kind::torus: {
      shl_or(b, nullptr, not_first_col_.data(), h, words, 1, wb, we);
      shr_or(b, nullptr, not_last_col_.data(), h, words, 1, wb, we);
      shl_or(b, nullptr, nullptr, h, words, topo.cols, wb, we);
      shr_or(b, nullptr, nullptr, h, words, topo.cols, wb, we);
      // Horizontal wrap: column cols-1 sources land on column 0 of the
      // same row and vice versa (source masks select the wrap column,
      // so no landing mask is needed). Vertical wrap: a full-array
      // row-stride shift by (rows-1)*cols maps the last row onto the
      // first (and only those rows survive the shift).
      if (topo.cols > 1) {
        const std::size_t wrap = topo.cols - 1;
        shr_or(b, last_col_.data(), nullptr, h, words, wrap, wb, we);
        shl_or(b, first_col_.data(), nullptr, h, words, wrap, wb, we);
      }
      const std::size_t stride = (topo.rows - 1) * topo.cols;
      shr_or(b, nullptr, nullptr, h, words, stride, wb, we);
      shl_or(b, nullptr, nullptr, h, words, stride, wb, we);
      break;
    }
  }
  if (we == words) h[words - 1] &= tail_mask_;
}

void heard_gather::gather_word_csr_push(std::span<const std::uint64_t> beep,
                                        std::span<std::uint64_t> heard) const {
  std::uint64_t* const h = heard.data();
  for (std::size_t w = 0; w < beep.size(); ++w) {
    std::uint64_t bits = beep[w];
    while (bits != 0) {
      const auto u = static_cast<node_id>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      csr_->push_neighbors(u, h);
    }
  }
}

// Tiled push: a push scatters into arbitrary destination words, so
// workers OR beeper neighborhoods into private scratch arrays (tiled
// over the *source* words) and a second tiled pass (over the
// *destination* words) folds the scratches into the heard set. Both
// folds are pure ORs, so the tile-to-worker assignment can never
// change the result. Scratch words are zeroed as they are folded,
// keeping the all-zero invariant without an O(threads * words) clear.
void heard_gather::gather_word_csr_push_tiled(
    std::span<const std::uint64_t> beep, std::span<std::uint64_t> heard) {
  const std::size_t slots = exec_->thread_count();
  // Sparse gate: the fold pass streams slots * words scratch words no
  // matter how few bits it finds, while the serial push costs only
  // O(beeper word-pairs) - and push is the kernel the density rule
  // selects precisely when beeps are sparse. Only tile when the push
  // work plausibly dominates the fold (roughly one beeper per scratch
  // word per slot); near-silent rounds keep the serial push.
  std::size_t beepers = 0;
  for (const std::uint64_t word : beep) {
    beepers += static_cast<std::size_t>(std::popcount(word));
  }
  if (beepers < slots * heard.size()) {
    gather_word_csr_push(beep, heard);
    return;
  }
  if (push_scratch_.size() < slots) {
    push_scratch_.resize(slots);
  }
  for (auto& scratch : push_scratch_) {
    if (scratch.size() != words_) scratch.assign(words_, 0);
  }
  exec_->run_tiles(beep.size(), tile_words_,
                   [&](std::size_t slot, std::size_t wb, std::size_t we) {
                     std::uint64_t* const dst = push_scratch_[slot].data();
                     for (std::size_t w = wb; w < we; ++w) {
                       std::uint64_t bits = beep[w];
                       while (bits != 0) {
                         const auto u = static_cast<node_id>(
                             (w << 6) +
                             static_cast<std::size_t>(std::countr_zero(bits)));
                         bits &= bits - 1;
                         csr_->push_neighbors(u, dst);
                       }
                     }
                   });
  std::uint64_t* const h = heard.data();
  exec_->run_tiles(heard.size(), tile_words_,
                   [&](std::size_t, std::size_t wb, std::size_t we) {
                     for (std::size_t w = wb; w < we; ++w) {
                       std::uint64_t acc = h[w];
                       for (std::size_t s = 0; s < slots; ++s) {
                         const std::uint64_t v = push_scratch_[s][w];
                         if (v != 0) {
                           acc |= v;
                           push_scratch_[s][w] = 0;
                         }
                       }
                       h[w] = acc;
                     }
                   });
}

void heard_gather::gather_packed_pull(std::span<const std::uint64_t> beep,
                                      std::span<std::uint64_t> heard,
                                      std::size_t wb, std::size_t we) const {
  const std::size_t n = n_;
  const std::size_t words = heard.size();
  const std::uint64_t* const b = beep.data();
  const node_id lo = static_cast<node_id>(wb << 6);
  const node_id hi = static_cast<node_id>(std::min(n, we << 6));
  for (node_id u = lo; u < hi; ++u) {
    if (test_bit(heard, u)) continue;  // beeps itself
    const std::uint64_t* const row = csr_->packed_row(u);
    for (std::size_t w = 0; w < words; ++w) {
      if ((row[w] & b[w]) != 0) {
        set_bit(heard, u);
        break;
      }
    }
  }
}

void heard_gather::gather_legacy_pull(std::span<const std::uint64_t> beep,
                                      std::span<std::uint64_t> heard) const {
  const std::size_t n = n_;
  if (const graph* g = view_.explicit_graph(); g != nullptr) {
    for (node_id u = 0; u < n; ++u) {
      if (test_bit(heard, u)) continue;  // beeps itself
      for (node_id v : g->neighbors(u)) {
        if (test_bit(beep, v)) {
          set_bit(heard, u);
          break;
        }
      }
    }
    return;
  }
  for (node_id u = 0; u < n; ++u) {
    if (test_bit(heard, u)) continue;  // beeps itself
    node_id nb[4];
    const std::size_t count = view_.implicit_neighbors(u, nb);
    for (std::size_t i = 0; i < count; ++i) {
      if (test_bit(beep, nb[i])) {
        set_bit(heard, u);
        break;
      }
    }
  }
}

}  // namespace beepkit::graph
