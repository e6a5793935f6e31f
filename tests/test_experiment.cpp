// Analysis facade tests: the algorithm wrappers, the multi-trial
// runner's statistics, and instance construction.
#include "analysis/experiment.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace beepkit::analysis {
namespace {

TEST(ExperimentTest, MakeInstanceComputesDiameter) {
  const auto inst = make_instance(graph::make_path(20));
  EXPECT_EQ(inst.diameter, 19U);
  EXPECT_EQ(inst.g.node_count(), 20U);
  static_assert(exact_diameter_limit < 6000);
  const auto big = make_instance(graph::make_path(6000));
  EXPECT_EQ(big.diameter, 5999U);  // double sweep is exact on paths
}

TEST(ExperimentTest, AlgorithmNamesAreDescriptive) {
  EXPECT_NE(make_bfw(0.5).name.find("BFW"), std::string::npos);
  EXPECT_NE(make_bfw_known_diameter(7).name.find("1/(D+1)"),
            std::string::npos);
  EXPECT_NE(make_id_broadcast(7).name.find("IdBroadcast"),
            std::string::npos);
  EXPECT_NE(make_clique_lottery(0.1).name.find("Lottery"),
            std::string::npos);
}

TEST(ExperimentTest, RunTrialsAggregates) {
  const auto inst = make_instance(graph::make_complete(12));
  const auto algo = make_bfw(0.5);
  const auto stats = run_trials(inst.g, inst.diameter, algo, 25, 42, 100000);

  EXPECT_EQ(stats.trials, 25U);
  EXPECT_EQ(stats.converged, 25U);
  EXPECT_EQ(stats.node_count, 12U);
  EXPECT_EQ(stats.diameter, 1U);
  EXPECT_EQ(stats.rounds.count, 25U);
  EXPECT_GT(stats.rounds.mean, 0.0);
  EXPECT_LE(stats.rounds.min, stats.rounds.median);
  EXPECT_LE(stats.rounds.median, stats.rounds.max);
  // p = 1/2 runs use the fair-coin path: the coin rate is positive and
  // at most one bit per node-round (Section 1.3).
  EXPECT_GT(stats.mean_coins_per_node_round, 0.0);
  EXPECT_LE(stats.mean_coins_per_node_round, 1.0);
}

TEST(ExperimentTest, RunTrialsDeterministicInSeed) {
  const auto inst = make_instance(graph::make_grid(4, 4));
  const auto algo = make_bfw(0.5);
  const auto a = run_trials(inst.g, inst.diameter, algo, 10, 7, 100000);
  const auto b = run_trials(inst.g, inst.diameter, algo, 10, 7, 100000);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
}

TEST(ExperimentTest, AllFourAlgorithmsRunOnAClique) {
  const auto inst = make_instance(graph::make_complete(16));
  const std::vector<algorithm> algos = {
      make_bfw(0.5),
      make_bfw_known_diameter(inst.diameter),
      make_id_broadcast(inst.diameter),
      make_clique_lottery(0.01),
  };
  for (const auto& algo : algos) {
    const auto stats = run_trials(inst.g, inst.diameter, algo, 5, 3, 100000);
    EXPECT_EQ(stats.converged, 5U) << algo.name;
  }
}

TEST(ExperimentTest, NonConvergenceIsCounted) {
  // Clique lottery on a path: most trials end with several leaders.
  const auto inst = make_instance(graph::make_path(32));
  const auto algo = make_clique_lottery(0.01);
  const auto stats = run_trials(inst.g, inst.diameter, algo, 8, 11, 2000);
  EXPECT_LT(stats.converged, stats.trials);
}

TEST(ExperimentTest, IdBroadcastBeatsUniformBfwOnLongPaths) {
  // The Table 1 ordering on a high-diameter instance: the ID-based
  // baseline (O(D log n)) converges well before uniform BFW
  // (O(D^2 log n)) on a 64-path, in median over fixed seeds.
  const auto inst = make_instance(graph::make_path(64));
  const auto bfw_stats = run_trials(inst.g, inst.diameter, make_bfw(0.5), 10,
                                    5, 10000000);
  const auto id_stats = run_trials(
      inst.g, inst.diameter, make_id_broadcast(inst.diameter), 10, 5,
      10000000);
  EXPECT_LT(id_stats.rounds.median, bfw_stats.rounds.median);
}

}  // namespace
}  // namespace beepkit::analysis
