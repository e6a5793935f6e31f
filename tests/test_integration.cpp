// Cross-module integration tests: closed-loop flow conservation (the
// invariant that explains both Lemma 9 and the Section-5 phantom
// wave), multi-observer pipelines, and cross-substrate comparisons.
#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "analysis/wave_tracker.hpp"
#include "beeping/engine.hpp"
#include "beeping/trace.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "core/flow.hpp"
#include "core/invariants.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/generators.hpp"
#include "popproto/popproto.hpp"

namespace beepkit {
namespace {

using beeping::state_id;

// The loop-flow invariant: for a closed path (v1 = vk), Lemma 7 gives
// nu_t = nu_{t-1} every round - the circulating wave count is a
// conserved quantity. From an Eq. 2 start it is 0 (Ohm's law); a
// phantom wave pins it to +1 forever, for plain BFW *and* for the
// timeout variant (same W/B/F skeleton).
core::vertex_path cycle_loop(std::size_t n) {
  core::vertex_path loop;
  for (std::size_t i = 0; i <= n; ++i) {
    loop.push_back(static_cast<graph::node_id>(i % n));
  }
  return loop;
}

TEST(LoopFlowTest, ZeroOnLegitimateRuns) {
  const std::size_t n = 15;
  const auto g = graph::make_cycle(n);
  const auto loop = cycle_loop(n);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 3);
  for (int round = 0; round < 400; ++round) {
    ASSERT_EQ(core::path_flow(proto.states(), loop), 0) << round;
    sim.step();
  }
}

TEST(LoopFlowTest, PhantomWavePinsLoopFlowToOne) {
  const std::size_t n = 15;
  const auto g = graph::make_cycle(n);
  const auto loop = cycle_loop(n);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 5);
  proto.set_states(core::leaderless_wave_on_cycle(n));
  sim.restart_from_protocol();
  for (int round = 0; round < 400; ++round) {
    ASSERT_EQ(core::path_flow(proto.states(), loop), 1) << round;
    sim.step();
  }
}

TEST(LoopFlowTest, ConservedUnderTimeoutVariantToo) {
  // Even with reboots, the W/B/F skeleton preserves the circulating
  // flow: the phantom wave is indestructible - timeout-BFW escapes the
  // counterexample by out-voting it with real leaders, not by killing
  // it.
  const std::size_t n = 18;
  const auto g = graph::make_cycle(n);
  const auto loop = cycle_loop(n);
  const core::timeout_bfw_machine machine(0.5, 12);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 7);
  auto states = machine.dead_configuration(n);
  states[0] = core::timeout_bfw_machine::follower_beep;
  states[n - 1] = core::timeout_bfw_machine::follower_frozen;
  proto.set_states(states);
  sim.restart_from_protocol();

  // Flow classification must treat all Wo(k) as waiting; reuse the
  // generic classifier by mapping through the machine's beep/leader
  // predicates: build a BFW-id view of the configuration.
  auto bfw_view = [&]() {
    std::vector<state_id> view(n);
    for (std::size_t u = 0; u < n; ++u) {
      const auto s = proto.state_of(static_cast<graph::node_id>(u));
      if (machine.beeps(s)) {
        view[u] = static_cast<state_id>(core::bfw_state::follower_beep);
      } else if (s == core::timeout_bfw_machine::leader_frozen ||
                 s == core::timeout_bfw_machine::follower_frozen) {
        view[u] = static_cast<state_id>(core::bfw_state::follower_frozen);
      } else {
        view[u] = static_cast<state_id>(core::bfw_state::follower_wait);
      }
    }
    return view;
  };

  for (int round = 0; round < 600; ++round) {
    ASSERT_EQ(core::path_flow(bfw_view(), loop), 1) << round;
    sim.step();
  }
}

TEST(IntegrationTest, FullObserverPipeline) {
  // Invariant checker + trace + series + crash tracker riding one run.
  const std::size_t n = 25;
  const auto g = graph::make_path(n);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 11);
  proto.set_states(core::two_leaders_at_path_ends(n));
  sim.restart_from_protocol();

  core::invariant_options options;
  options.check_lemma11 = true;
  options.check_lemma12 = true;
  core::invariant_checker checker(g, proto, options);
  beeping::trace_recorder trace(proto, 64);
  beeping::series_recorder series;
  analysis::wave_crash_tracker tracker(proto);
  sim.add_observer(&checker);
  sim.add_observer(&trace);
  sim.add_observer(&series);
  sim.add_observer(&tracker);

  const auto result = sim.run_until_single_leader(200000);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_EQ(trace.recorded_rounds(), 64U);
  EXPECT_EQ(series.leader_counts().front(), 2U);
  EXPECT_EQ(series.leader_counts().back(), 1U);
  EXPECT_FALSE(tracker.crashes().empty());
}

TEST(IntegrationTest, ParallelTimeGapBetweenModels) {
  // Section 1.4's cross-model comparison, quantified on the clique:
  // the fight protocol needs ~n interactions per node (Theta(n^2)
  // total) while BFW elects in O(log n) rounds - orders of magnitude
  // apart in parallel time.
  const std::size_t n = 256;
  const auto g = graph::make_complete(n);

  const popproto::fight_protocol fight;
  popproto::scheduler sched(g, fight, 3);
  const auto pp = sched.run_until_single_leader(100000000);
  ASSERT_TRUE(pp.converged);
  const double pp_parallel_time =
      static_cast<double>(pp.interactions) / static_cast<double>(n);

  const auto bfw =
      core::run_election(g, core::bfw_machine(0.5), 3, {.max_rounds = 100000});
  ASSERT_TRUE(bfw.converged);

  // fight needs ~2 C(n,2)/n ~ n parallel time; BFW ~ O(log n) rounds.
  EXPECT_GT(pp_parallel_time, 2.0 * static_cast<double>(bfw.rounds))
      << "pairwise interaction should be far slower than broadcast";
}

TEST(IntegrationTest, NoisyTrialsThroughConvergenceRunner) {
  // Noise composes with the high-level runners via a local lambda -
  // exercise the pattern the robustness bench uses.
  const auto g = graph::make_grid(4, 4);
  const core::bfw_machine machine(0.5);
  std::size_t converged = 0;
  support::rng seeder(17);
  for (int trial = 0; trial < 10; ++trial) {
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seeder.next_u64(),
                        beeping::noise_model{0.05, 0.0});
    if (sim.run_until_single_leader(100000).converged) ++converged;
  }
  EXPECT_EQ(converged, 10U);
}

TEST(IntegrationTest, InstanceAndTrialsOverEveryAlgorithm) {
  const auto inst = analysis::make_instance(graph::make_cycle(24));
  const std::vector<analysis::algorithm> algos = {
      analysis::make_bfw(0.5),
      analysis::make_bfw_known_diameter(inst.diameter),
      analysis::make_id_broadcast(inst.diameter),
  };
  for (const auto& algo : algos) {
    const auto stats = analysis::run_trials(
        inst.g, inst.diameter, algo, 6, 23,
        8 * core::default_horizon(inst.g, inst.diameter));
    EXPECT_EQ(stats.converged, 6U) << algo.name;
    EXPECT_EQ(stats.rounds.count, 6U);
  }
}

}  // namespace
}  // namespace beepkit
