#include "analysis/wave_tracker.hpp"

#include <bit>
#include <stdexcept>

#include "graph/view.hpp"

namespace beepkit::analysis {

namespace {

// Bit u of the result holds bit u-1 of `x` (the left neighbour's lane).
std::uint64_t from_left(const std::uint64_t* x, std::size_t w) {
  return (x[w] << 1) | (w > 0 ? x[w - 1] >> 63 : 0);
}

// Bit u of the result holds bit u+1 of `x` (the right neighbour's lane).
std::uint64_t from_right(const std::uint64_t* x, std::size_t w,
                         std::size_t words) {
  return (x[w] >> 1) | (w + 1 < words ? x[w + 1] << 63 : 0);
}

// True iff the topology is the path 0 - 1 - ... - n-1: a path tag, or
// an explicit graph whose edges are exactly {u, u+1}.
bool is_line_ordered_path(const graph::topology_view& topo) {
  const auto& tag = topo.tag();
  if (tag.has_value() && tag->shape == graph::topology::kind::path) return true;
  const graph::graph* const g = topo.explicit_graph();
  if (g == nullptr) return false;
  const std::size_t n = g->node_count();
  if (n == 0) return true;
  if (g->edge_count() != n - 1) return false;
  for (graph::node_id u = 0; u + 1 < n; ++u) {
    if (!g->has_edge(u, u + 1)) return false;
  }
  return true;
}

// Appends one crash per set bit of `bits`, in node order.
void emit(std::span<const std::uint64_t> bits, std::uint64_t round,
          double offset, std::vector<wave_crash>& out) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      const std::size_t u =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(b));
      out.push_back({round, static_cast<double>(u) + offset});
    }
  }
}

}  // namespace

void wave_crash_tracker::start(const beeping::round_view& view) {
  if (view.topology == nullptr || !is_line_ordered_path(*view.topology)) {
    throw std::invalid_argument(
        "analysis::wave_crash_tracker: the topology must be a path in line "
        "order (nodes 0..n-1, edges {u, u+1})");
  }
  const std::size_t n = view.topology->node_count();
  const std::size_t words = view.beep_words.size();
  left_side_.assign(words, 0);
  for (std::size_t u = 0; 2 * u < n; ++u) {
    left_side_[u >> 6] |= 1ULL << (u & 63);
  }
  for (colour_sets* sets : {&prev_, &cur_}) {
    sets->left.assign(words, 0);
    sets->right.assign(words, 0);
    sets->merged.assign(words, 0);
  }
  crash_bits_.assign(words, 0);
}

// Colour rules, per beeping node u:
//  * a source - a leader's beep, or any beep of the first round - takes
//    the colour of its half of the path;
//  * a relay takes the colour its left neighbour held last round, else
//    its right neighbour's, else (nobody beeped next to it: a fresh
//    source such as an eliminated leader's last beep) its half's;
//  * a relay whose two neighbours held two different colours is where
//    fronts meet head-on through one waiting node (B W B): it is a
//    crash at u and turns merged.
// Then adjacent opposite fronts (B B, one left and one right colour)
// crash at u + 0.5: they freeze next round with frozen tails behind
// them. Crashes are emitted relay first, then adjacent, each in node
// order.
void wave_crash_tracker::on_round(const beeping::round_view& view) {
  if (!have_prev_) start(view);
  const std::size_t words = view.beep_words.size();
  const std::uint64_t* const p_left = prev_.left.data();
  const std::uint64_t* const p_right = prev_.right.data();
  const std::uint64_t* const p_merged = prev_.merged.data();
  std::uint64_t any_crash = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t beep = view.beep_words[w];
    const std::uint64_t source =
        have_prev_ ? beep & view.leader_words[w] : beep;
    const std::uint64_t relay = beep & ~source;
    const std::uint64_t l_left = from_left(p_left, w);
    const std::uint64_t l_right = from_left(p_right, w);
    const std::uint64_t l_merged = from_left(p_merged, w);
    const std::uint64_t r_left = from_right(p_left, w, words);
    const std::uint64_t r_right = from_right(p_right, w, words);
    const std::uint64_t r_merged = from_right(p_merged, w, words);
    const std::uint64_t l_any = l_left | l_right | l_merged;
    const std::uint64_t r_any = r_left | r_right | r_merged;
    const std::uint64_t crash = relay & ((l_left & (r_right | r_merged)) |
                                         (l_right & (r_left | r_merged)) |
                                         (l_merged & (r_left | r_right)));
    const std::uint64_t rest = relay & ~crash;
    const std::uint64_t by_left = rest & l_any;
    const std::uint64_t by_right = rest & ~l_any & r_any;
    const std::uint64_t by_side = source | (rest & ~l_any & ~r_any);
    const std::uint64_t side = left_side_[w];
    cur_.left[w] =
        (by_side & side) | (by_left & l_left) | (by_right & r_left);
    cur_.right[w] =
        (by_side & ~side) | (by_left & l_right) | (by_right & r_right);
    cur_.merged[w] = crash | (by_left & l_merged) | (by_right & r_merged);
    crash_bits_[w] = crash;
    any_crash |= crash;
  }
  if (any_crash != 0) emit(crash_bits_, view.round, 0.0, crashes_);
  const std::uint64_t* const c_left = cur_.left.data();
  const std::uint64_t* const c_right = cur_.right.data();
  any_crash = 0;
  for (std::size_t w = 0; w < words; ++w) {
    crash_bits_[w] = (c_left[w] & from_right(c_right, w, words)) |
                     (c_right[w] & from_right(c_left, w, words));
    any_crash |= crash_bits_[w];
  }
  if (any_crash != 0) emit(crash_bits_, view.round, 0.5, crashes_);
  prev_.left.swap(cur_.left);
  prev_.right.swap(cur_.right);
  prev_.merged.swap(cur_.merged);
  have_prev_ = true;
}

std::vector<double> mean_squared_displacement(
    std::span<const wave_crash> crashes, std::size_t max_lag) {
  std::vector<double> msd(max_lag + 1, 0.0);
  for (std::size_t lag = 1; lag <= max_lag; ++lag) {
    if (crashes.size() <= lag) break;
    double sum = 0.0;
    const std::size_t pairs = crashes.size() - lag;
    for (std::size_t i = 0; i < pairs; ++i) {
      const double d = crashes[i + lag].position - crashes[i].position;
      sum += d * d;
    }
    msd[lag] = sum / static_cast<double>(pairs);
  }
  return msd;
}

}  // namespace beepkit::analysis
