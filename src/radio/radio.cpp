#include "radio/radio.hpp"

#include <algorithm>
#include <bit>

namespace beepkit::radio {

engine::engine(const graph::graph& g, beeping::protocol& proto,
               std::uint64_t seed, bool collision_detection)
    : g_(&g), proto_(&proto), cd_(collision_detection) {
  const std::size_t n = g.node_count();
  rngs_ = support::make_node_streams(seed, n + 1);
  proto_->reset(n, rngs_[n]);
  const std::size_t words = (n + 63) / 64;
  transmit_words_.assign(words, 0);
  leader_words_.assign(words, 0);
  heard_words_.assign(words, 0);
  receptions_.assign(n, reception::silence);
  refresh_round_state();
}

void engine::refresh_round_state() {
  leader_count_ = proto_->round_sets(g_->node_count(), transmit_words_,
                                     leader_words_);
}

void engine::step() {
  const std::size_t n = g_->node_count();
  std::fill(heard_words_.begin(), heard_words_.end(), 0);
  for (graph::node_id u = 0; u < n; ++u) {
    unsigned transmitters = 0;
    for (graph::node_id v : g_->neighbors(u)) {
      if (transmitting(v) && ++transmitters == 2) break;
    }
    receptions_[u] = transmitters == 0
                         ? reception::silence
                         : (transmitters == 1 ? reception::single
                                              : reception::collision);
    // The delta_top condition of the driven protocol: own transmission
    // always counts; a reception counts when it is a clean message, or
    // any energy on the channel when the receiver has CD.
    const bool heard =
        transmitting(u) || receptions_[u] == reception::single ||
        (cd_ && receptions_[u] == reception::collision);
    if (heard) heard_words_[u >> 6] |= 1ULL << (u & 63);
  }
  proto_->step_round(n, heard_words_,
                     support::rng_source{rngs_.data(), nullptr, 0});
  ++round_;
  refresh_round_state();
}

void engine::run_rounds(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) step();
}

engine::run_result engine::run_until_single_leader(std::uint64_t max_rounds) {
  while (round_ < max_rounds) {
    if (leader_count_ <= 1) break;
    step();
  }
  return {round_, leader_count_ == 1, leader_count_};
}

graph::node_id engine::sole_leader() const {
  if (leader_count_ != 1) {
    return static_cast<graph::node_id>(g_->node_count());
  }
  for (std::size_t w = 0; w < leader_words_.size(); ++w) {
    if (leader_words_[w] != 0) {
      return static_cast<graph::node_id>(
          (w << 6) +
          static_cast<std::size_t>(std::countr_zero(leader_words_[w])));
    }
  }
  return static_cast<graph::node_id>(g_->node_count());
}

}  // namespace beepkit::radio
