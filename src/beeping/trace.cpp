#include "beeping/trace.hpp"

#include <bit>
#include <sstream>

namespace beepkit::beeping {

void trace_recorder::on_round(const round_view& view) {
  if (max_rounds_ != 0 && history_.size() >= max_rounds_) return;
  history_.push_back(view.states());
}

std::string trace_recorder::render_ascii() const {
  const state_machine& machine = proto_->machine();
  std::ostringstream out;
  for (std::size_t r = 0; r < history_.size(); ++r) {
    out << (r < 10 ? "   " : (r < 100 ? "  " : (r < 1000 ? " " : ""))) << r
        << " | ";
    for (state_id s : history_[r]) {
      const std::string label = machine.state_name(s);
      char ch;
      if (!label.empty() && (label[0] == 'W' || label[0] == 'B' ||
                             label[0] == 'F')) {
        ch = machine.is_leader(s) ? label[0]
                                  : static_cast<char>(label[0] - 'A' + 'a');
      } else {
        ch = static_cast<char>('0' + (s % 10));
      }
      out << ch;
    }
    out << '\n';
  }
  return out.str();
}

void series_recorder::on_round(const round_view& view) {
  leaders_.push_back(view.leader_count);
  std::size_t beeps = 0;
  for (const std::uint64_t word : view.beep_words) {
    beeps += static_cast<std::size_t>(std::popcount(word));
  }
  beeps_.push_back(beeps);
}

std::size_t series_recorder::first_single_leader_round() const noexcept {
  for (std::size_t r = 0; r < leaders_.size(); ++r) {
    if (leaders_[r] <= 1) return r;
  }
  return npos;
}

}  // namespace beepkit::beeping
