// The heard-gather: given the packed beep set B_t, compute the packed
// heard set {u : u in B_t or N(u) ∩ B_t != ∅}. This is the one
// neighborhood operation every beeping-style engine performs per round,
// and on sparse graphs it dominates the round cost once transitions are
// word-parallel - so it gets a family of word-parallel kernels behind a
// single dispatch point:
//
//  * stencil    - structured topologies only (graph::topology tag).
//    path/ring: heard = B | (B << 1) | (B >> 1) with cross-word carry
//    (+ the two wrap bits for rings); grid/torus: the same, with
//    periodic column masks killing the carries that would wrap a row,
//    plus row-stride shifts (<< cols, >> cols) for the vertical
//    neighbors and corner shifts for torus wrap-around. Touches no
//    adjacency at all: O(words) per round regardless of degree.
//  * word_csr_push - enumerate beepers, OR their premasked neighbor
//    words (word_csr). Cost ~ sum over beepers of word-pairs, the
//    word-parallel refinement of the classic push.
//  * packed_pull - for dense beep sets on small/dense graphs: one
//    AND-with-early-exit word loop per silent row over the packed
//    adjacency bitmap.
//  * legacy_pull - the original single-bit pull: the fallback when no
//    adjacency layout applies (implicit views), and forceable as a
//    differential-testing cross-check.
//
// Every kernel computes exactly the same heard set, so selection is
// free to be heuristic: the topology tag wins outright, and otherwise
// a sticky beep-density rule (with hysteresis, so alternating rounds
// near the threshold do not flap) picks push vs pull. `force_kernel`
// pins one kernel for debugging and differential tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "graph/word_csr.hpp"

namespace beepkit::support {
class tile_executor;
}  // namespace beepkit::support

namespace beepkit::graph {

class patch_overlay;

enum class gather_kernel : std::uint8_t {
  auto_select,    ///< topology tag, else density hysteresis (default)
  stencil,        ///< shifted word ops (tagged graphs only)
  word_csr_push,  ///< premasked word OR per beeper
  packed_pull,    ///< packed-row AND scan per silent node
  legacy_pull,    ///< per-bit probe with early exit (fallback)
};

/// Stable lowercase kernel name for logs, JSONL records and bench
/// labels ("stencil", "word_csr_push", ...).
[[nodiscard]] std::string gather_kernel_name(gather_kernel k);

class heard_gather {
 public:
  /// Binds a topology view (explicit graphs convert implicitly, so
  /// `heard_gather(g)` keeps working). Derives the stencil masks for
  /// tagged views; the adjacency layouts (word-CSR, plus packed rows
  /// when word_csr::packed_rows_worthwhile says the bitmap earns its
  /// keep) are graph-owned (graph::word_layout): the first gather that
  /// needs them borrows them, and only the first gather on a graph ever
  /// builds them - every later gather, in any engine or thread, reuses
  /// that one build. A tagged view always takes the stencil kernel and
  /// never asks for them, and an implicit view *cannot* (no adjacency
  /// exists; that absence is the whole point of giant trials).
  /// A tag whose stencil preconditions fail (torus smaller than 3x3,
  /// ring below 3 nodes, rows*cols not matching the node count) is
  /// dropped here: explicit graphs fall back to the CSR kernels,
  /// implicit views to the arithmetic-neighbor legacy pull - both
  /// compute the same heard set as always. An explicit view's graph
  /// must outlive the gather.
  explicit heard_gather(topology_view view);

  /// heard := beep ∪ N(beep), both packed over word_count() words.
  /// `heard` must enter EQUAL to `beep` (a beeper always hears; the
  /// pull kernels additionally use the seeded bits to skip beepers);
  /// on return it holds the full heard set with no bits above
  /// node_count().
  void operator()(std::span<const std::uint64_t> beep,
                  std::span<std::uint64_t> heard);

  /// Enables tiled multi-threaded execution of the word-parallel
  /// kernels (stencil, word-CSR push, packed pull) on `exec`
  /// (nullptr = serial). Tiles are `tile_words` words (0 = one even
  /// tile per worker). Every (executor, tile size) point computes the
  /// same heard set: stencil and pull tiles write only their own
  /// destination words, and the push merges per-worker scratch with
  /// OR folds. The executor must outlive this gather (engines own
  /// both).
  void set_executor(support::tile_executor* exec,
                    std::size_t tile_words) noexcept {
    exec_ = exec;
    tile_words_ = tile_words;
  }

  /// Attaches a dynamic-topology patch overlay (nullptr detaches). The
  /// base kernel keeps running against the original topology; after it
  /// returns, the overlay's fix_heard recomputes every touched node's
  /// heard bit exactly (see graph/patch.hpp), serially - so the result
  /// is identical under every kernel, tile size and thread count. An
  /// empty overlay costs one branch per gather. The overlay must
  /// outlive this gather (fault sessions own both lifetimes).
  void set_patch(const patch_overlay* patch) noexcept { patch_ = patch; }
  [[nodiscard]] const patch_overlay* patch() const noexcept { return patch_; }

  /// Pins one kernel (auto_select restores the default dispatch).
  /// Throws std::invalid_argument when the kernel is unavailable for
  /// this view (stencil without a usable topology tag; word_csr_push /
  /// packed_pull on an implicit view, which has no adjacency to build
  /// them from). Forcing packed_pull borrows rows regardless of the
  /// worthwhile heuristic; auto-selection keeps asking the heuristic,
  /// so a forced kernel on one gather never changes another gather's
  /// choice on the same graph.
  void force_kernel(gather_kernel k);
  [[nodiscard]] gather_kernel forced_kernel() const noexcept {
    return forced_;
  }
  /// The kernel the most recent call actually ran.
  [[nodiscard]] gather_kernel last_used() const noexcept { return last_; }
  /// Forgets the last-used kernel (back to auto_select) — called on
  /// engine restarts so a fresh run never reports the previous run's
  /// kernel before its first gather.
  void reset_last_used() noexcept { last_ = gather_kernel::auto_select; }

  [[nodiscard]] bool stencil_available() const noexcept {
    return stencil_.has_value();
  }
  [[nodiscard]] bool packed_rows_available() const noexcept {
    return csr_ != nullptr && csr_->packed_rows_built();
  }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_; }

 private:
  void ensure_adjacency_layouts();
  void gather_stencil(std::span<const std::uint64_t> beep,
                      std::span<std::uint64_t> heard) const;
  /// Stencil restricted to destination words [wb, we): reads any beep
  /// word, writes only its own range - the tile body.
  void gather_stencil_range(std::span<const std::uint64_t> beep,
                            std::span<std::uint64_t> heard, std::size_t wb,
                            std::size_t we) const;
  void gather_word_csr_push(std::span<const std::uint64_t> beep,
                            std::span<std::uint64_t> heard) const;
  void gather_word_csr_push_tiled(std::span<const std::uint64_t> beep,
                                  std::span<std::uint64_t> heard);
  void gather_packed_pull(std::span<const std::uint64_t> beep,
                          std::span<std::uint64_t> heard, std::size_t wb,
                          std::size_t we) const;
  void gather_legacy_pull(std::span<const std::uint64_t> beep,
                          std::span<std::uint64_t> heard) const;

  topology_view view_;
  std::size_t n_ = 0;
  // Borrowed from the graph (graph::word_layout); null until
  // ensure_adjacency_layouts().
  const word_csr* csr_ = nullptr;
  // word_csr::packed_rows_worthwhile of the bound graph: dense rounds
  // auto-select packed_pull iff this holds.
  bool rows_worthwhile_ = false;
  std::size_t words_ = 0;
  std::optional<topology> stencil_;
  // Periodic column masks for grid/torus stencils: bit i set iff node
  // i's column is not 0 (resp. not cols-1). Empty for path/ring.
  std::vector<std::uint64_t> not_first_col_;
  std::vector<std::uint64_t> not_last_col_;
  // Torus only: the complements, selecting the wrap columns.
  std::vector<std::uint64_t> first_col_;
  std::vector<std::uint64_t> last_col_;
  std::uint64_t tail_mask_ = ~0ULL;
  gather_kernel forced_ = gather_kernel::auto_select;
  gather_kernel last_ = gather_kernel::auto_select;
  // Density hysteresis: pull while beeps stay dense (2|B| > n enters,
  // 4|B| <= n leaves), push otherwise.
  bool dense_mode_ = false;
  // Tiled execution (set_executor): per-worker scratch heard arrays
  // for the push kernel (a push scatters into arbitrary destination
  // words, so workers OR into private arrays that a second tiled pass
  // folds - OR is order-free, hence bit-identical). Invariant: all
  // scratch words are zero between gathers.
  support::tile_executor* exec_ = nullptr;
  std::size_t tile_words_ = 0;
  std::vector<std::vector<std::uint64_t>> push_scratch_;
  // Dynamic-topology post-pass (set_patch); null = no churn.
  const patch_overlay* patch_ = nullptr;
};

}  // namespace beepkit::graph
