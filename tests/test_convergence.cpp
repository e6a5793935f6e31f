// Election behaviour: Theorem 2 (BFW always elects a single leader,
// within the O(D^2 log n) regime), Theorem 3 (known-D variant), and
// the convergence runners' mechanics.
#include "core/convergence.hpp"

#include <gtest/gtest.h>

#include "core/adversarial.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "support/stats.hpp"

namespace beepkit::core {
namespace {

class ConvergenceBatteryTest
    : public ::testing::TestWithParam<testing::graph_case> {};

TEST_P(ConvergenceBatteryTest, BfwElectsExactlyOneLeader) {
  const auto& gcase = GetParam();
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL}) {
    const auto g = gcase.make(seed);
    const auto diameter = graph::diameter_exact(g);
    const auto horizon = default_horizon(g, diameter);
    const auto outcome =
        run_election(g, bfw_machine(0.5), seed, {.max_rounds = horizon});
    EXPECT_TRUE(outcome.converged)
        << gcase.label << " seed " << seed << " did not converge within "
        << horizon << " rounds";
    EXPECT_EQ(outcome.final_leader_count, 1U) << gcase.label;
    EXPECT_LT(outcome.leader, g.node_count()) << gcase.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StandardBattery, ConvergenceBatteryTest,
    ::testing::ValuesIn(testing::standard_graph_battery()),
    [](const ::testing::TestParamInfo<testing::graph_case>& info) {
      return info.param.label;
    });

class PSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(PSweepTest, AnyConstantPElects) {
  // Theorem 2 holds for every constant p in (0, 1).
  const double p = GetParam();
  const auto g = graph::make_grid(5, 5);
  const auto horizon = default_horizon(g, 8);
  const auto outcome =
      run_election(g, bfw_machine(p), 7, {.max_rounds = horizon});
  EXPECT_TRUE(outcome.converged) << "p=" << p;
  EXPECT_EQ(outcome.final_leader_count, 1U);
}

INSTANTIATE_TEST_SUITE_P(PGrid, PSweepTest,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.95));

TEST(ConvergenceTest, SingleNodeGraphIsImmediatelyElected) {
  const auto g = graph::make_path(1);
  const auto outcome = run_election(g, bfw_machine(0.5), 1, {.max_rounds = 100});
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.rounds, 0U);
  EXPECT_EQ(outcome.leader, 0U);
}

TEST(ConvergenceTest, TwoNodesElect) {
  const auto g = graph::make_path(2);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto outcome =
        run_election(g, bfw_machine(0.5), seed, {.max_rounds = 4096});
    EXPECT_TRUE(outcome.converged) << "seed " << seed;
  }
}

TEST(ConvergenceTest, KnownDiameterVariantElects) {
  const auto g = graph::make_path(40);
  const auto machine = make_known_diameter_bfw(39);
  const auto horizon = default_horizon(g, 39);
  const auto outcome = run_election(g, machine, 3, {.max_rounds = horizon});
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.final_leader_count, 1U);
}

TEST(ConvergenceTest, KnownDiameterFasterOnLongPaths) {
  // Theorem 3 vs Theorem 2: on a long path, p = 1/(D+1) converges
  // roughly a factor D faster than p = 1/2. We assert a generous
  // factor-2 median separation on fixed seeds.
  const auto g = graph::make_path(64);
  const std::uint32_t d = 63;
  const auto horizon = default_horizon(g, d);

  const bfw_machine uniform(0.5);
  const auto uniform_rounds = convergence_rounds(g, uniform, 12, 5, horizon);
  const auto known = make_known_diameter_bfw(d);
  const auto known_rounds = convergence_rounds(g, known, 12, 5, horizon);

  const double uniform_median =
      support::summarize(uniform_rounds).median;
  const double known_median = support::summarize(known_rounds).median;
  EXPECT_GT(uniform_median, 2.0 * known_median)
      << "uniform median " << uniform_median << " vs known-D median "
      << known_median;
}

TEST(ConvergenceTest, ApproximateDiameterKnowledgeSuffices) {
  // Theorem 3's remark: a constant-factor approximation of D works.
  const auto g = graph::make_path(48);
  for (const std::uint32_t d_estimate : {24U, 47U, 94U}) {
    const auto machine = make_known_diameter_bfw(d_estimate);
    const auto outcome =
        run_election(g, machine, 9, {.max_rounds = default_horizon(g, 47)});
    EXPECT_TRUE(outcome.converged) << "D estimate " << d_estimate;
  }
}

TEST(ConvergenceTest, ExplicitInitialConfigurationRunner) {
  const auto g = graph::make_path(24);
  const auto initial = two_leaders_at_path_ends(24);
  const auto outcome =
      run_election(g, bfw_machine(0.5), 13,
                   {.max_rounds = default_horizon(g, 23), .initial = initial});
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.final_leader_count, 1U);
  // The survivor must be one of the two initial leaders: followers
  // can never become leaders.
  EXPECT_TRUE(outcome.leader == 0 || outcome.leader == 23)
      << "leader " << outcome.leader;
}

TEST(ConvergenceTest, SingleInitialLeaderConvergesImmediately) {
  const auto g = graph::make_grid(4, 4);
  const auto initial = configuration_with_leaders(16, {5});
  const auto outcome =
      run_election(g, bfw_machine(0.5), 1,
                   {.max_rounds = 100, .initial = initial});
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.rounds, 0U);
  EXPECT_EQ(outcome.leader, 5U);
}

TEST(ConvergenceTest, ConvergenceRoundsVectorShape) {
  const auto g = graph::make_complete(6);
  const bfw_machine machine(0.5);
  const auto rounds = convergence_rounds(g, machine, 20, 77, 10000);
  ASSERT_EQ(rounds.size(), 20U);
  for (double r : rounds) {
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 10000.0);  // cliques converge long before the horizon
  }
}

TEST(ConvergenceTest, DeterministicInSeed) {
  const auto g = graph::make_grid(4, 5);
  const bfw_machine machine(0.5);
  const auto a = run_election(g, machine, 4242, {.max_rounds = 100000});
  const auto b = run_election(g, machine, 4242, {.max_rounds = 100000});
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.total_coins, b.total_coins);
}

TEST(ConvergenceTest, DefaultHorizonScales) {
  const auto small = graph::make_path(4);
  const auto large = graph::make_path(400);
  EXPECT_LT(default_horizon(small, 3), default_horizon(large, 399));
  EXPECT_GE(default_horizon(small, 3), 4096U);
}

}  // namespace
}  // namespace beepkit::core
