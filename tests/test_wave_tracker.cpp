// Wave-crash tracker tests: deterministic annihilation geometry (both
// parities), absence of false positives for single waves, provenance
// through live two-leader runs, the word-level tracker against the
// per-node reference it replaced, the path-only guard, and the MSD
// helper.
#include "analysis/wave_tracker.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>

#include "beeping/engine.hpp"
#include "beeping/trace.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"
#include "support/rng.hpp"

namespace beepkit::analysis {
namespace {

using beeping::state_id;

constexpr state_id WF =
    static_cast<state_id>(core::bfw_state::follower_wait);
constexpr state_id BF =
    static_cast<state_id>(core::bfw_state::follower_beep);

std::vector<state_id> two_follower_waves(std::size_t n) {
  std::vector<state_id> states(n, WF);
  states[0] = BF;
  states[n - 1] = BF;
  return states;
}

TEST(WaveTrackerTest, HeadOnCrashEvenGap) {
  // n = 8: fronts at 0 and 7 -> ... -> 3 and 4 adjacent in round 3:
  // crash recorded at 3.5.
  const auto g = graph::make_path(8);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 1);
  proto.set_states(two_follower_waves(8));
  sim.restart_from_protocol();
  wave_crash_tracker tracker(proto);
  sim.add_observer(&tracker);
  sim.run_rounds(10);

  ASSERT_EQ(tracker.crashes().size(), 1U);
  EXPECT_EQ(tracker.crashes()[0].round, 3U);
  EXPECT_DOUBLE_EQ(tracker.crashes()[0].position, 3.5);
}

TEST(WaveTrackerTest, HeadOnCrashOddGap) {
  // n = 9: fronts meet across node 4 (B W B in round 3); the merged
  // relay at node 4 in round 4 is the crash.
  const auto g = graph::make_path(9);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 2);
  proto.set_states(two_follower_waves(9));
  sim.restart_from_protocol();
  wave_crash_tracker tracker(proto);
  sim.add_observer(&tracker);
  sim.run_rounds(10);

  ASSERT_EQ(tracker.crashes().size(), 1U);
  EXPECT_EQ(tracker.crashes()[0].round, 4U);
  EXPECT_DOUBLE_EQ(tracker.crashes()[0].position, 4.0);
}

TEST(WaveTrackerTest, SingleWaveNeverCrashes) {
  const auto g = graph::make_path(12);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 3);
  std::vector<state_id> states(12, WF);
  states[0] = BF;
  proto.set_states(states);
  sim.restart_from_protocol();
  wave_crash_tracker tracker(proto);
  sim.add_observer(&tracker);
  sim.run_rounds(20);
  EXPECT_TRUE(tracker.crashes().empty());
}

TEST(WaveTrackerTest, TwoLeaderRunProducesInteriorCrashes) {
  const std::size_t n = 33;
  const auto g = graph::make_path(n);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 4);
  proto.set_states(core::two_leaders_at_path_ends(n));
  sim.restart_from_protocol();
  wave_crash_tracker tracker(proto);
  sim.add_observer(&tracker);

  // Run until one leader dies (guaranteed well within this horizon for
  // this fixed seed).
  const auto result = sim.run_until_single_leader(200000);
  ASSERT_TRUE(result.converged);

  ASSERT_GT(tracker.crashes().size(), 3U)
      << "rival waves must have crashed repeatedly before elimination";
  for (const auto& crash : tracker.crashes()) {
    EXPECT_GT(crash.position, 0.0);
    EXPECT_LT(crash.position, static_cast<double>(n - 1));
  }
  // Crash rounds are non-decreasing.
  for (std::size_t i = 1; i < tracker.crashes().size(); ++i) {
    EXPECT_GE(tracker.crashes()[i].round, tracker.crashes()[i - 1].round);
  }
}

// The per-node tracker the word-level one replaced, kept verbatim as
// the reference: byte colours per node, relay crashes in the node
// sweep, then adjacent crashes.
class byte_tracker final : public beeping::observer {
 public:
  explicit byte_tracker(const beeping::fsm_protocol& proto) : proto_(&proto) {}

  void on_round(const beeping::round_view& view) override {
    const auto& states = proto_->states();
    const std::size_t n = states.size();
    colors_.assign(n, no_color);

    for (std::size_t u = 0; u < n; ++u) {
      if (!core::bfw_is_beeping(states[u])) continue;
      const bool is_leader_beep = core::bfw_is_leader_state(states[u]);
      if (is_leader_beep || !have_prev_) {
        colors_[u] = (2 * u < n) ? 0 : 1;
        continue;
      }
      const std::int8_t left = u > 0 ? prev_colors_[u - 1] : no_color;
      const std::int8_t right = u + 1 < n ? prev_colors_[u + 1] : no_color;
      if (left != no_color && right != no_color && left != right) {
        crashes_.push_back({view.round, static_cast<double>(u)});
        colors_[u] = merged;
      } else if (left != no_color) {
        colors_[u] = left;
      } else if (right != no_color) {
        colors_[u] = right;
      } else {
        colors_[u] = (2 * u < n) ? 0 : 1;
      }
    }

    for (std::size_t u = 0; u + 1 < n; ++u) {
      const auto a = colors_[u];
      const auto b = colors_[u + 1];
      if ((a == 0 && b == 1) || (a == 1 && b == 0)) {
        crashes_.push_back({view.round, static_cast<double>(u) + 0.5});
      }
    }

    prev_colors_ = colors_;
    have_prev_ = true;
  }

  [[nodiscard]] const std::vector<wave_crash>& crashes() const noexcept {
    return crashes_;
  }

 private:
  static constexpr std::int8_t no_color = -1;
  static constexpr std::int8_t merged = 2;

  const beeping::fsm_protocol* proto_;
  std::vector<std::int8_t> colors_;
  std::vector<std::int8_t> prev_colors_;
  bool have_prev_ = false;
  std::vector<wave_crash> crashes_;
};

// Counts the beepers of every round one node at a time.
struct scalar_beep_counter final : beeping::observer {
  explicit scalar_beep_counter(const beeping::fsm_protocol& proto)
      : proto(&proto) {}
  void on_round(const beeping::round_view& /*view*/) override {
    std::size_t beeps = 0;
    for (const state_id s : proto->states()) {
      beeps += proto->machine().beeps(s) ? 1 : 0;
    }
    totals.push_back(beeps);
  }
  const beeping::fsm_protocol* proto;
  std::vector<std::size_t> totals;
};

TEST(WaveTrackerTest, MatchesByteTracker) {
  const core::bfw_machine machine(0.5);
  std::size_t runs_with_crashes = 0;
  for (const std::size_t n : {2, 3, 63, 64, 65, 97, 128, 129}) {
    const auto g = graph::make_path(n);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const bool random_start : {false, true}) {
        beeping::fsm_protocol proto(machine);
        beeping::engine sim(g, proto, seed * 1009 + n);
        if (random_start) {
          support::rng init(seed * 31 + n);
          std::vector<state_id> states(n);
          for (auto& s : states) {
            s = static_cast<state_id>(
                init.uniform_below(core::bfw_state_count));
          }
          proto.set_states(states);
        } else {
          proto.set_states(core::two_leaders_at_path_ends(n));
        }
        sim.restart_from_protocol();
        wave_crash_tracker tracker(proto);
        byte_tracker reference(proto);
        beeping::series_recorder series;
        scalar_beep_counter counter(proto);
        sim.add_observer(&tracker);
        sim.add_observer(&reference);
        sim.add_observer(&series);
        sim.add_observer(&counter);
        sim.run_rounds(4 * n + 200);

        const auto& got = tracker.crashes();
        const auto& want = reference.crashes();
        ASSERT_EQ(got.size(), want.size())
            << "n=" << n << " seed=" << seed << " random=" << random_start;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].round, want[i].round) << "n=" << n << " crash " << i;
          ASSERT_EQ(got[i].position, want[i].position)
              << "n=" << n << " crash " << i;
        }
        runs_with_crashes += want.empty() ? 0 : 1;
        EXPECT_EQ(series.beep_totals(), counter.totals) << "n=" << n;
      }
    }
  }
  EXPECT_GT(runs_with_crashes, 40U);  // the comparison is not vacuous
}

TEST(WaveTrackerTest, RejectsNonPathTopologies) {
  const core::bfw_machine machine(0.5);
  const auto attach = [&](const graph::topology_view& view) {
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(view, proto, 1);
    wave_crash_tracker tracker(proto);
    sim.add_observer(&tracker);
  };
  EXPECT_THROW(attach(graph::make_cycle(16)), std::invalid_argument);
  EXPECT_THROW(attach(graph::make_grid(4, 4)), std::invalid_argument);
  EXPECT_THROW(attach(*graph::topology_view::parse("ring:16")),
               std::invalid_argument);
  // A path whose ids do not run in line order (0 - 2 - 1).
  EXPECT_THROW(attach(graph::graph(3, {{0, 2}, {2, 1}})),
               std::invalid_argument);
  EXPECT_NO_THROW(attach(graph::make_path(16)));
  EXPECT_NO_THROW(attach(*graph::topology_view::parse("path:16")));
  EXPECT_NO_THROW(attach(graph::graph(3, {{0, 1}, {1, 2}})));  // untagged
}

TEST(WaveTrackerTest, MeanSquaredDisplacementHelper) {
  // Deterministic walk +1 each crash: msd[k] = k^2.
  std::vector<wave_crash> crashes;
  for (int i = 0; i < 20; ++i) {
    crashes.push_back({static_cast<std::uint64_t>(i),
                       static_cast<double>(i)});
  }
  const auto msd = mean_squared_displacement(crashes, 4);
  ASSERT_EQ(msd.size(), 5U);
  EXPECT_DOUBLE_EQ(msd[1], 1.0);
  EXPECT_DOUBLE_EQ(msd[2], 4.0);
  EXPECT_DOUBLE_EQ(msd[4], 16.0);
}

TEST(WaveTrackerTest, MsdShortSequences) {
  const std::vector<wave_crash> one = {{0, 5.0}};
  const auto msd = mean_squared_displacement(one, 3);
  EXPECT_DOUBLE_EQ(msd[1], 0.0);
  EXPECT_DOUBLE_EQ(msd[2], 0.0);
}

}  // namespace
}  // namespace beepkit::analysis
