#include "graph/gather.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
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

// A shift by k = 64*ws + bs bits.
struct shift {
  std::ptrdiff_t ws = 0;
  unsigned bs = 0;
  explicit shift(std::size_t k) noexcept
      : ws(static_cast<std::ptrdiff_t>(k >> 6)),
        bs(static_cast<unsigned>(k & 63)) {}
};

// Word w of (B << k), read through a word loader `ld` that returns 0
// outside the array (so bits shifted in from below word 0 are zero).
// The carry term shifts in two steps so bs == 0 needs no branch.
template <class Load>
std::uint64_t shl_word(Load ld, std::ptrdiff_t w, shift k) noexcept {
  return (ld(w - k.ws) << k.bs) | ((ld(w - k.ws - 1) >> 1) >> (63 - k.bs));
}

// Word w of (B >> k): bits shifted below bit 0 drop.
template <class Load>
std::uint64_t shr_word(Load ld, std::ptrdiff_t w, shift k) noexcept {
  return (ld(w + k.ws) >> k.bs) | ((ld(w + k.ws + 1) << 1) << (63 - k.bs));
}

// The shifts of a grid/torus stencil: by one row, and the torus wraps.
struct grid_shifts {
  shift row;
  shift wrap;    // cols - 1: column cols-1 onto column 0 of its row
  shift stride;  // (rows - 1) * cols: the last row onto the first
};

// Writes heard words [w, to) of a grid (Torus: torus) stencil from the
// beep words `ld` reads; m is w's index into the column tables f and
// l of `table` words. Returns the index of word `to`. Each inner loop
// ends where the table does, so it carries no wrap test.
template <bool Torus, class Load>
std::size_t grid_words(Load ld, std::uint64_t* h, const std::uint64_t* f,
                       const std::uint64_t* l, std::size_t table,
                       grid_shifts k, std::size_t w, std::size_t m,
                       std::size_t to) noexcept {
  while (w < to) {
    const std::size_t end = std::min(to, w + (table - m));
    for (; w < end; ++w, ++m) {
      const auto i = static_cast<std::ptrdiff_t>(w);
      const std::uint64_t c = ld(i);
      const std::uint64_t left = (c << 1) | (ld(i - 1) >> 63);
      const std::uint64_t right = (c >> 1) | (ld(i + 1) << 63);
      std::uint64_t v = c | (left & ~f[m]) | (right & ~l[m]) |
                        shl_word(ld, i, k.row) | shr_word(ld, i, k.row);
      if constexpr (Torus) {
        v |= (shr_word(ld, i, k.wrap) & f[m]) |
             (shl_word(ld, i, k.wrap) & l[m]) | shr_word(ld, i, k.stride) |
             shl_word(ld, i, k.stride);
      }
      h[w] = v;
    }
    if (m == table) m = 0;
  }
  return m;
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
    // Column masks, one bit per flat node index (indices past n follow
    // the same formula; the beep set never has bits there). Word w's
    // bits start at column 64w mod cols, so the masks repeat every
    // cols / gcd(cols, 64) words: one period is all a round reads.
    // The table holds whole periods, at least 64 words where the array
    // has them, so the stencil's inner loop runs long between wraps.
    const std::size_t cols = stencil_->cols;
    const std::size_t period = cols / std::gcd(cols, std::size_t{64});
    mask_words_ = std::min(period * ((period + 63) / period), words_);
    first_col_.assign(mask_words_, 0);
    last_col_.assign(mask_words_, 0);
    const std::size_t bits = mask_words_ * 64;
    for (std::size_t i = 0; i < bits; i += cols) {
      first_col_[i >> 6] |= 1ULL << (i & 63);
    }
    for (std::size_t i = cols - 1; i < bits; i += cols) {
      last_col_[i >> 6] |= 1ULL << (i & 63);
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
// geometry allows - no adjacency is touched. Each destination word is
// written once, as B | its shifted neighbour terms; bits shifted past
// the array drop, and the final tail mask kills in-range bits >= n
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
  if (topo.shape == topology::kind::path ||
      topo.shape == topology::kind::ring) {
    // Fused pass: heard[w] = B | (B << 1) | (B >> 1) with the
    // cross-word carries read off the rolling neighbors (the tile's
    // entry carry comes from the word before the range).
    std::uint64_t prev = wb > 0 ? b[wb - 1] : 0;
    std::uint64_t cur = b[wb];
    for (std::size_t w = wb; w < we; ++w) {
      const std::uint64_t next = (w + 1 < words) ? b[w + 1] : 0;
      h[w] = cur | (cur << 1) | (prev >> 63) | (cur >> 1) | (next << 63);
      prev = cur;
      cur = next;
    }
    if (topo.shape == topology::kind::ring) {
      // Wrap bits belong to the tiles owning the first/last word.
      const auto end = static_cast<node_id>(n_ - 1);
      if (wb == 0 && test_bit(beep, end)) h[0] |= 1ULL;
      const std::size_t end_word = static_cast<std::size_t>(end) >> 6;
      if (end_word >= wb && end_word < we && (b[0] & 1ULL) != 0) {
        set_bit(heard, end);
      }
    }
  } else {
    // Grid/torus: horizontal neighbours are the 1-bit shifts with the
    // carries that would wrap a row masked off at their landing column,
    // vertical ones the row-stride shifts. Torus adds the wrap terms:
    // a shift by cols-1 lands column cols-1 on column 0 of its own row
    // (and back), and a shift by (rows-1)*cols maps the last row onto
    // the first (only those rows survive it).
    const bool torus = topo.shape == topology::kind::torus;
    const grid_shifts k{shift(topo.cols), shift(topo.cols - 1),
                        shift((topo.rows - 1) * topo.cols)};
    const auto words_signed = static_cast<std::ptrdiff_t>(words);
    const auto checked = [b, words_signed](std::ptrdiff_t i) {
      return i >= 0 && i < words_signed ? b[i] : std::uint64_t{0};
    };
    const auto raw = [b](std::ptrdiff_t i) { return b[i]; };
    // Words whose every source word lies in the array skip the bounds
    // checks: [reach, words - reach).
    const auto reach = static_cast<std::size_t>(
        (torus ? std::max(k.row.ws, k.stride.ws) : k.row.ws) + 1);
    const std::size_t inner_hi = words > reach ? words - reach : 0;
    std::size_t w = wb;
    std::size_t m = wb % mask_words_;
    const auto run = [&](auto ld, std::size_t to) {
      if (w >= to) return;
      m = torus ? grid_words<true>(ld, h, first_col_.data(),
                                   last_col_.data(), mask_words_, k, w, m, to)
                : grid_words<false>(ld, h, first_col_.data(),
                                    last_col_.data(), mask_words_, k, w, m,
                                    to);
      w = to;
    };
    run(checked, std::min(we, reach));
    run(raw, std::min(we, inner_hi));
    run(checked, we);
  }
  if (we == words) h[words - 1] &= tail_mask_;
}

void heard_gather::gather_word_csr_push(std::span<const std::uint64_t> beep,
                                        std::span<std::uint64_t> heard) const {
  std::copy(beep.begin(), beep.end(), heard.begin());
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
// walks ~beep & valid (beepers hear themselves, lanes past n are never
// probed) and writes beep | hits once after the walk - the probes read
// beep only, so the order of words and lanes is free.
void heard_gather::gather_word_csr_pull(std::span<const std::uint64_t> beep,
                                        std::span<std::uint64_t> heard) const {
  const std::uint64_t* const b = beep.data();
  std::uint64_t* const h = heard.data();
  const std::size_t words = heard.size();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t valid = w + 1 == words ? tail_mask_ : ~0ULL;
    std::uint64_t silent = ~b[w] & valid;
    std::uint64_t hits = 0;
    while (silent != 0) {
      const auto lane = static_cast<unsigned>(std::countr_zero(silent));
      silent &= silent - 1;
      if (csr_->any_neighbor_in(static_cast<node_id>((w << 6) + lane), b)) {
        hits |= 1ULL << lane;
      }
    }
    h[w] = b[w] | hits;
  }
}

}  // namespace beepkit::graph
