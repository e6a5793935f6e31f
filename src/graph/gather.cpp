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
    case gather_kernel::word_csr_pull:
      return "word_csr_pull";
  }
  return "unknown";
}

heard_gather::heard_gather(topology_view view) : view_(std::move(view)) {
  const std::size_t n = view_.node_count();
  n_ = n;
  words_ = packed_word_count(n);
  tail_mask_ = (n % 64 == 0) ? ~0ULL : ((1ULL << (n % 64)) - 1);
  stencil_ = view_.tag();
  if (stencil_.has_value()) {
    // Geometry checks. Generators and topology_view::implicit only
    // produce tags that pass them, but a hand-tagged explicit graph
    // whose geometry does not cover n nodes (or a multi-row path or
    // ring) must fall back to the word-CSR kernels cleanly instead of
    // computing a wrong heard set. Degenerate shapes need no check:
    // in a ring of 1 or 2 or a torus with a side of 1 or 2, the extra
    // shifts only OR in a beeper's own bit, a bit another shift
    // already set, or a bit outside [0, n) that is dropped or masked.
    const topology& t = *stencil_;
    bool ok = t.rows >= 1 && t.cols >= 1 && t.rows * t.cols == n;
    if (t.shape == topology::kind::path || t.shape == topology::kind::ring) {
      ok = ok && t.rows == 1;
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

// The word-CSR is borrowed lazily: a topology-tagged graph
// auto-selects the stencil kernel forever and never needs it. The
// graph builds it once (O(n + m)) and shares it, so engines
// constructed per trial pay nothing after the graph's first gather.
void heard_gather::ensure_word_csr() {
  if (csr_ != nullptr) return;
  const graph* g = view_.explicit_graph();
  if (g == nullptr) {
    throw std::logic_error(
        "heard_gather: the word-CSR needs an explicit graph");
  }
  csr_ = &g->word_layout();
}

void heard_gather::force_kernel(gather_kernel k) {
  if (k == gather_kernel::stencil && !stencil_.has_value()) {
    throw std::invalid_argument(
        "heard_gather: stencil kernel requires a topology-tagged graph");
  }
  if (k == gather_kernel::word_csr_push || k == gather_kernel::word_csr_pull) {
    if (view_.is_implicit()) {
      throw std::invalid_argument(
          "heard_gather: " + gather_kernel_name(k) +
          " needs adjacency; implicit views have none");
    }
    ensure_word_csr();
  }
  forced_ = k;
}

void heard_gather::operator()(std::span<const std::uint64_t> beep,
                              std::span<std::uint64_t> heard) {
  gather_kernel k = forced_;
  if (k == gather_kernel::auto_select) {
    if (stencil_.has_value()) {
      k = gather_kernel::stencil;
    } else {
      ensure_word_csr();
      // Push costs ~beeper word-pairs, pull ~one early-exit pair scan
      // per silent node; the crossover is around 2|B| = n, held with
      // hysteresis so rounds hovering at the threshold do not flap
      // between kernels.
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
      k = dense_mode_ ? gather_kernel::word_csr_pull
                      : gather_kernel::word_csr_push;
    }
  }
  switch (k) {
    case gather_kernel::stencil:
      if (exec_ != nullptr) {
        exec_->run_tiles(heard.size(), tile_words_,
                         [&](std::size_t, std::size_t wb, std::size_t we) {
                           gather_stencil(beep, heard, wb, we);
                         });
      } else {
        gather_stencil(beep, heard, 0, heard.size());
      }
      break;
    case gather_kernel::word_csr_push:
      gather_word_csr_push(beep, heard);
      break;
    case gather_kernel::word_csr_pull:
      gather_word_csr_pull(beep, heard);
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
// Writes destination words [wb, we) only, so it is also the tile body.
// Source reads are unrestricted (beep is read-only input), so the seam
// exchange between tiles is simply each tile reading across its
// boundary - no carry needs to travel.
void heard_gather::gather_stencil(std::span<const std::uint64_t> beep,
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

// Dense beep sets: only the silent lanes need a probe, so each word
// walks ~heard & valid (beepers are already set, lanes past n are
// never probed) and ORs its hits in once after the walk - the probes
// read beep only, so the order of words and lanes is free.
void heard_gather::gather_word_csr_pull(std::span<const std::uint64_t> beep,
                                        std::span<std::uint64_t> heard) const {
  const std::uint64_t* const b = beep.data();
  std::uint64_t* const h = heard.data();
  const std::size_t words = heard.size();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t valid = w + 1 == words ? tail_mask_ : ~0ULL;
    std::uint64_t silent = ~h[w] & valid;
    std::uint64_t hits = 0;
    while (silent != 0) {
      const auto lane = static_cast<unsigned>(std::countr_zero(silent));
      silent &= silent - 1;
      if (csr_->any_neighbor_in(static_cast<node_id>((w << 6) + lane), b)) {
        hits |= 1ULL << lane;
      }
    }
    h[w] |= hits;
  }
}

}  // namespace beepkit::graph
