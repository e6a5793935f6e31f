// Dynamic-topology patch overlay: edge add/remove deltas on top of a
// topology_view, applied to the packed heard set as a word-masked
// post-pass - no adjacency rebuild, no new CSR, no stencil rederivation.
//
// The base gather kernels (stencil, word-CSR push, word-CSR pull)
// keep running unchanged against the *original* topology; afterwards
// fix_heard() recomputes the heard bit of every node whose neighborhood
// the overlay touches, exactly:
//
//   heard(u) = beep(u) | OR over current neighbors v of beep(v)
//
// where "current neighbors" = base(u) - removed(u) + added(u). An exact
// recompute (rather than OR-ing in additions and trying to subtract
// removals) is the only correct form: a removal cannot be un-OR'd out
// of a kernel's result, because other neighbors may still justify the
// bit. Each touched node's current neighborhood is held as premasked
// (word, mask) entries - the word-CSR entry layout - so the post-pass
// is a handful of word ANDs per touched node, serial and therefore
// identical under every kernel, tile size and thread count.
//
// Determinism contract: an overlay with no deltas changes nothing (the
// gather skips the post-pass entirely), and the post-pass itself never
// draws randomness - churn randomness lives in core::fault_plan's
// dedicated stream, upstream of this layer.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "graph/view.hpp"

namespace beepkit::graph {

class patch_overlay {
 public:
  /// Binds the base topology. Explicit graphs convert implicitly; an
  /// explicit view's graph must outlive the overlay. Implicit views
  /// work too - base neighborhoods come from the geometry formulas, so
  /// churn on a 10^8-node implicit grid touches only the patched nodes.
  explicit patch_overlay(topology_view view);

  /// Adds/removes the undirected edge {u, v}. Idempotent against the
  /// *effective* topology: adding a present edge or removing an absent
  /// one is a no-op. Self-loops and out-of-range endpoints throw
  /// std::invalid_argument.
  void add_edge(node_id u, node_id v);
  void remove_edge(node_id u, node_id v);
  /// Flips the edge: present -> removed, absent -> added. Returns true
  /// iff the edge exists after the toggle.
  bool toggle_edge(node_id u, node_id v);

  /// Drops every delta (back to the base topology).
  void clear();

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  /// Whether {u, v} exists in the effective (patched) topology.
  [[nodiscard]] bool has_edge(node_id u, node_id v) const;
  /// Whether u's neighborhood differs from the base topology.
  [[nodiscard]] bool touched(node_id u) const {
    return nodes_.find(u) != nodes_.end();
  }
  /// Total premasked (word, mask) entries across touched nodes - the
  /// per-round word cost of the post-pass (telemetry: patched words).
  [[nodiscard]] std::uint64_t patched_words() const noexcept {
    return patched_words_;
  }
  /// Bumped on every effective mutation (tests pin replay invariance).
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// Recomputes the heard bit of every touched node from `beep`,
  /// writing into `heard` (both packed over the view's word count).
  /// Called by heard_gather after the base kernel; also usable
  /// standalone. Serial by design - the touched set is small.
  void fix_heard(std::span<const std::uint64_t> beep,
                 std::span<std::uint64_t> heard) const;

  /// Visits u's current (patched) neighbors in ascending order -
  /// the scalar counterpart of fix_heard, used by
  /// engine::step_reference and the differential tests.
  template <typename Fn>
  void for_each_neighbor(node_id u, Fn&& fn) const {
    const auto it = nodes_.find(u);
    if (it == nodes_.end()) {
      view_.for_each_neighbor(u, fn);
      return;
    }
    for (const node_id v : it->second.neighbors) fn(v);
  }

  [[nodiscard]] const topology_view& view() const noexcept { return view_; }

 private:
  struct node_patch {
    std::vector<node_id> added;    ///< sorted, disjoint from base
    std::vector<node_id> removed;  ///< sorted, subset of base
    /// Current effective neighbor list (base - removed + added), sorted.
    std::vector<node_id> neighbors;
    /// The same neighborhood premasked: heard iff any beep[words[k]] &
    /// masks[k] is nonzero. Parallel arrays, one entry per touched
    /// 64-node word.
    std::vector<std::uint32_t> words;
    std::vector<std::uint64_t> masks;
  };

  [[nodiscard]] bool base_has_edge(node_id u, node_id v) const;
  /// Rebuilds `neighbors` and the (word, mask) entries of one endpoint
  /// after a delta mutation; erases the node when its deltas vanish.
  void rebuild(node_id u);
  void apply_delta(node_id u, node_id v, bool add);

  topology_view view_;
  std::size_t n_ = 0;
  // Ordered map: fix_heard iterates touched nodes in ascending id order
  // (order actually cannot matter - each node's bit is recomputed
  // independently - but determinism should be visible, not argued).
  std::map<node_id, node_patch> nodes_;
  std::uint64_t patched_words_ = 0;
  std::uint64_t revision_ = 0;
};

}  // namespace beepkit::graph
