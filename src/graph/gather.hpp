// The heard-gather: given the packed beep set B_t, compute the packed
// heard set {u : u in B_t or N(u) ∩ B_t != ∅}. This is the one
// neighborhood operation every beeping-style engine performs per round,
// and on sparse graphs it dominates the round cost once transitions are
// word-parallel - so it gets three word-parallel kernels behind a
// single dispatch point:
//
//  * stencil    - structured topologies (graph::topology tag; every
//    implicit view has one). path/ring: heard = B | (B << 1) | (B >> 1)
//    with cross-word carry (+ the two wrap bits for rings); grid/torus:
//    the same, with periodic column masks killing the carries that
//    would wrap a row, plus row-stride shifts (<< cols, >> cols) for
//    the vertical neighbors and corner shifts for torus wrap-around.
//    Touches no adjacency at all: O(words) per round regardless of
//    degree.
//  * word_csr_push - enumerate beepers, OR their premasked neighbor
//    words (word_csr). Cost ~ sum over beepers of word-pairs, the
//    word-parallel refinement of the classic push.
//  * word_csr_pull - for dense beep sets: per word, walk the silent
//    lanes and mark a lane heard when any of its word_csr pairs meets
//    the beep set (early exit), ORing the word's hits in once.
//
// Push and pull read the same word_csr, as direction-optimizing BFS
// pushes and pulls over one CSR. Every kernel computes exactly the
// same heard set, so selection is free to be heuristic: the topology
// tag wins outright, and otherwise a sticky beep-density rule (with
// hysteresis, so alternating rounds near the threshold do not flap)
// picks push vs pull. `force_kernel` pins one kernel for debugging and
// differential tests.
//
// Under an engine's tile executor only the stencil tiles: it is the
// kernel of the implicit giant grids, the one workload wide enough to
// split. The push and the pull run serially inside a tiled engine - no
// explicit untagged graph the benchmarks run reaches the default
// 8192-word tile.
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
  word_csr_pull,  ///< premasked word probe per silent node
};

/// Stable lowercase kernel name for logs, JSONL records and bench
/// labels ("stencil", "word_csr_push", ...).
[[nodiscard]] std::string gather_kernel_name(gather_kernel k);

class heard_gather {
 public:
  /// Binds a topology view (explicit graphs convert implicitly, so
  /// `heard_gather(g)` keeps working). Derives the stencil masks for
  /// tagged views; the word-CSR is graph-owned (graph::word_layout):
  /// the first gather that needs it borrows it, and only the first
  /// gather on a graph ever builds it - every later gather, in any
  /// engine or thread, reuses that one build. A tagged view always
  /// takes the stencil kernel and never asks for it, and an implicit
  /// view *cannot* (no adjacency exists; that absence is the whole
  /// point of giant trials). Every implicit view takes the stencil,
  /// degenerate shapes (ring of 1 or 2, tori with a side of 1 or 2)
  /// included: their self and doubled wrap shifts add no wrong bit. A
  /// hand-tagged explicit graph whose tag fails the geometry checks
  /// (rows*cols not matching the node count, a path or ring with
  /// rows != 1) drops the tag here and takes the word-CSR kernels. An
  /// explicit view's graph must outlive the gather.
  explicit heard_gather(topology_view view);

  /// heard := beep ∪ N(beep), both packed over word_count() words.
  /// `heard` must enter EQUAL to `beep` (a beeper always hears; the
  /// pull kernel additionally uses the seeded bits to skip beepers);
  /// on return it holds the full heard set with no bits above
  /// node_count().
  void operator()(std::span<const std::uint64_t> beep,
                  std::span<std::uint64_t> heard);

  /// Enables tiled multi-threaded execution of the stencil kernel on
  /// `exec` (nullptr = serial), in tiles of `tile_words` words (0 = one
  /// even tile per worker). Stencil tiles write only their own
  /// destination words, so every (executor, tile size) point computes
  /// the same heard set. The word-CSR push and pull stay serial:
  /// they serve explicit untagged graphs, which are far smaller than
  /// one engine tile in every benchmarked workload. The executor must
  /// outlive this gather (engines own both).
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
  /// word_csr_pull on an implicit view, which has no adjacency to
  /// build them from).
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
  [[nodiscard]] std::size_t word_count() const noexcept { return words_; }

 private:
  void ensure_word_csr();
  /// Stencil restricted to destination words [wb, we): reads any beep
  /// word, writes only its own range - the tile body.
  void gather_stencil(std::span<const std::uint64_t> beep,
                      std::span<std::uint64_t> heard, std::size_t wb,
                      std::size_t we) const;
  void gather_word_csr_push(std::span<const std::uint64_t> beep,
                            std::span<std::uint64_t> heard) const;
  void gather_word_csr_pull(std::span<const std::uint64_t> beep,
                            std::span<std::uint64_t> heard) const;

  topology_view view_;
  std::size_t n_ = 0;
  // Borrowed from the graph (graph::word_layout); null until
  // ensure_word_csr().
  const word_csr* csr_ = nullptr;
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
  // Tiled stencil execution (set_executor); null = serial.
  support::tile_executor* exec_ = nullptr;
  std::size_t tile_words_ = 0;
  // Dynamic-topology post-pass (set_patch); null = no churn.
  const patch_overlay* patch_ = nullptr;
};

}  // namespace beepkit::graph
