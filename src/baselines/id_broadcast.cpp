#include "baselines/id_broadcast.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace beepkit::baselines {

id_broadcast_election::id_broadcast_election(std::uint32_t diameter_bound)
    : diameter_bound_(diameter_bound) {}

void id_broadcast_election::reset(std::size_t node_count,
                                  support::rng& init_rng) {
  // Distinct identifiers: a random permutation of {0, ..., n-1}. The
  // baseline class assumes IDs are given; drawing them from a
  // permutation keeps runs seed-deterministic while exercising
  // arbitrary ID placement.
  total_bits_ = 1;
  while ((std::size_t{1} << total_bits_) < node_count) ++total_bits_;

  const auto perm = init_rng.permutation(node_count);
  const std::size_t words = (node_count + 63) / 64;
  tail_mask_ = (node_count % 64 == 0) ? ~0ULL
                                      : ((1ULL << (node_count % 64)) - 1);
  candidate_.assign(words, ~0ULL);
  if (words != 0) candidate_.back() = tail_mask_;
  heard_this_phase_.assign(words, 0);
  relay_pending_.assign(words, 0);
  id_planes_.assign(static_cast<std::size_t>(total_bits_) * words, 0);
  for (std::size_t u = 0; u < node_count; ++u) {
    for (std::uint32_t j = 0; j < total_bits_; ++j) {
      id_planes_[j * words + (u >> 6)] |= ((perm[u] >> j) & 1ULL) << (u & 63);
    }
  }
  bit_index_ = total_bits_ - 1;
  round_in_phase_ = 0;
  finished_ = false;
}

std::uint64_t id_broadcast_election::beep_word(std::size_t w) const noexcept {
  const bool initiating = !finished_ && round_in_phase_ == 0;
  return relay_pending_[w] | (initiating ? candidate_[w] & id_bit_word(w) : 0);
}

bool id_broadcast_election::beeping(graph::node_id node) const {
  return ((beep_word(node >> 6) >> (node & 63)) & 1ULL) != 0;
}

bool id_broadcast_election::is_leader(graph::node_id node) const {
  return ((candidate_[node >> 6] >> (node & 63)) & 1ULL) != 0;
}

std::uint64_t id_broadcast_election::id_of(graph::node_id node) const {
  const std::size_t words = candidate_.size();
  std::uint64_t id = 0;
  for (std::uint32_t j = 0; j < total_bits_; ++j) {
    id |= ((id_planes_[j * words + (node >> 6)] >> (node & 63)) & 1ULL) << j;
  }
  return id;
}

void id_broadcast_election::step_round(std::size_t /*node_count*/,
                                       std::span<const std::uint64_t> heard,
                                       support::rng_source /*rngs*/) {
  if (finished_) return;
  const std::size_t words = candidate_.size();
  const bool phase_end = round_in_phase_ == diameter_bound_;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t h = w + 1 == words ? heard[w] & tail_mask_ : heard[w];
    const std::uint64_t beeped = beep_word(w);
    // First contact with this phase's wave: relay once, unless the node
    // is its initiator (it beeped before hearing anything) or the phase
    // is about to end.
    const std::uint64_t first = h & ~heard_this_phase_[w];
    heard_this_phase_[w] |= h;
    if (phase_end) {
      // Phase verdict: a candidate holding bit 0 that heard a wave knows
      // a larger ID survives.
      candidate_[w] &= id_bit_word(w) | ~heard_this_phase_[w];
      heard_this_phase_[w] = 0;
      relay_pending_[w] = 0;
    } else {
      relay_pending_[w] = first & ~beeped;
    }
  }
  if (phase_end) {
    round_in_phase_ = 0;
    if (bit_index_ == 0) {
      finished_ = true;
    } else {
      --bit_index_;
    }
  } else {
    ++round_in_phase_;
  }
}

std::size_t id_broadcast_election::round_sets(
    std::size_t /*node_count*/, std::span<std::uint64_t> beep,
    std::span<std::uint64_t> leader) const {
  std::size_t leaders = 0;
  for (std::size_t w = 0; w < candidate_.size(); ++w) {
    beep[w] = beep_word(w);
    leader[w] = candidate_[w];
    leaders += static_cast<std::size_t>(std::popcount(candidate_[w]));
  }
  return leaders;
}

std::string id_broadcast_election::describe(graph::node_id node) const {
  std::ostringstream out;
  out << (is_leader(node) ? "C" : ".") << "(id=" << id_of(node)
      << ",bit=" << bit_index_ << ",r=" << round_in_phase_ << ")";
  return out.str();
}

std::string id_broadcast_election::name() const {
  std::ostringstream out;
  out << "IdBroadcast(D<=" << diameter_bound_ << ")";
  return out.str();
}

}  // namespace beepkit::baselines
