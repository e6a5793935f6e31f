#include "baselines/clique_lottery.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace beepkit::baselines {

clique_lottery::clique_lottery(double epsilon) : epsilon_(epsilon) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("clique_lottery: epsilon must be in (0, 1)");
  }
}

void clique_lottery::reset(std::size_t node_count,
                           support::rng& /*init_rng*/) {
  const double n = std::max<double>(2.0, static_cast<double>(node_count));
  // P(some pair survives round k) <= n^2 (3/4)^k, so
  // T = (2 log2 n + log2(1/eps)) / log2(4/3) drives it below eps.
  const double t = (2.0 * std::log2(n) + std::log2(1.0 / epsilon_)) /
                   std::log2(4.0 / 3.0);
  budget_ = static_cast<std::uint64_t>(std::ceil(t));
  round_ = 0;
  const std::size_t words = (node_count + 63) / 64;
  candidate_.assign(words, ~0ULL);
  if (node_count % 64 != 0) {
    candidate_.back() = (1ULL << (node_count % 64)) - 1;
  }
  beep_now_.assign(words, 0);
}

bool clique_lottery::beeping(graph::node_id node) const {
  return ((beep_now_[node >> 6] >> (node & 63)) & 1ULL) != 0;
}

bool clique_lottery::is_leader(graph::node_id node) const {
  return ((candidate_[node >> 6] >> (node & 63)) & 1ULL) != 0;
}

void clique_lottery::step_round(std::size_t /*node_count*/,
                                std::span<const std::uint64_t> heard,
                                support::rng_source rngs) {
  ++round_;
  // Coins for the next round; quiescent after the budget (termination
  // by round counting - this is where knowledge of n is consumed).
  const bool drawing = round_ <= budget_;
  for (std::size_t w = 0; w < candidate_.size(); ++w) {
    // Withdrawal: a listening candidate that heard a competitor loses.
    candidate_[w] &= ~(~beep_now_[w] & heard[w]);
    std::uint64_t beep = 0;
    if (drawing) {
      for (std::uint64_t bits = candidate_[w]; bits != 0; bits &= bits - 1) {
        const auto i = static_cast<std::size_t>(std::countr_zero(bits));
        if (rngs[(w << 6) + i].coin()) beep |= 1ULL << i;
      }
    }
    beep_now_[w] = beep;
  }
}

std::size_t clique_lottery::round_sets(std::size_t /*node_count*/,
                                       std::span<std::uint64_t> beep,
                                       std::span<std::uint64_t> leader) const {
  std::size_t leaders = 0;
  for (std::size_t w = 0; w < candidate_.size(); ++w) {
    beep[w] = beep_now_[w];
    leader[w] = candidate_[w];
    leaders += static_cast<std::size_t>(std::popcount(candidate_[w]));
  }
  return leaders;
}

std::string clique_lottery::describe(graph::node_id node) const {
  std::ostringstream out;
  out << (is_leader(node) ? "C" : ".") << (beeping(node) ? "!" : " ");
  return out.str();
}

std::string clique_lottery::name() const {
  std::ostringstream out;
  out << "CliqueLottery(eps=" << epsilon_ << ")";
  return out.str();
}

}  // namespace beepkit::baselines
