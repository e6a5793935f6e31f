// The parallel experiment subsystem's reproducibility contract:
// (a) run_trials under any thread count is bit-identical to the serial
//     path, (b) results are invariant across 1/2/8 workers, (c) the
//     bit-packed engine step matches the scalar reference trace for
//     trace, plus the worker pool (tile_executor) and parallel_for
//     themselves.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "support/cli.hpp"

namespace beepkit {
namespace {

// ---- tile_executor / parallel_for -----------------------------------------

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  // 300 > count and 0 = one per hardware thread: parallel_for caps the
  // pool at one worker per index.
  for (const std::size_t threads : {1UL, 2UL, 8UL, 300UL, 0UL}) {
    std::vector<std::atomic<int>> visits(257);
    support::parallel_for(visits.size(), threads, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& v : visits) {
      EXPECT_EQ(v.load(), 1);
    }
  }
}

TEST(ParallelForTest, ZeroCountIsANoop) {
  bool called = false;
  support::parallel_for(0, 8, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, PropagatesExceptions) {
  for (const std::size_t threads : {1UL, 4UL}) {
    EXPECT_THROW(
        support::parallel_for(64, threads,
                              [](std::size_t i) {
                                if (i == 13) {
                                  throw std::runtime_error("boom");
                                }
                              }),
        std::runtime_error);
  }
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  // The one pool: one-index tiles, each run exactly once.
  support::tile_executor pool(3);
  EXPECT_EQ(pool.thread_count(), 3U);
  std::vector<std::atomic<int>> runs(10);
  std::atomic<int> sum{0};
  pool.run_tiles(runs.size(), 1,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     runs[i].fetch_add(1, std::memory_order_relaxed);
                     sum.fetch_add(static_cast<int>(i) + 1,
                                   std::memory_order_relaxed);
                   }
                 });
  EXPECT_EQ(sum.load(), 55);
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleRethrowsTaskError) {
  support::tile_executor pool(2);
  EXPECT_THROW(pool.run_tiles(8, 1,
                              [](std::size_t, std::size_t begin,
                                 std::size_t) {
                                if (begin == 3) {
                                  throw std::logic_error("task failed");
                                }
                              }),
               std::logic_error);
  // The pool stays usable after the error is consumed: every tile of
  // the next call runs.
  std::atomic<int> ran{0};
  pool.run_tiles(8, 1, [&](std::size_t, std::size_t, std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ResolveThreadsTest, ZeroAndNegativeMeanHardware) {
  EXPECT_GE(support::resolve_threads(0), 1U);
  EXPECT_GE(support::resolve_threads(-3), 1U);
  EXPECT_EQ(support::resolve_threads(5), 5U);
}

TEST(CliTest, ThreadsFlag) {
  const char* argv[] = {"bench", "--threads", "7"};
  const support::cli args(3, argv, "bench", {{"threads", ""}});
  EXPECT_EQ(args.get_threads(), 7U);
  const char* bare[] = {"bench"};
  const support::cli none(1, bare, "bench", {{"threads", ""}});
  EXPECT_GE(none.get_threads(), 1U);   // 0 -> hardware
  EXPECT_EQ(none.get_threads(1), 1U);  // explicit serial fallback
}

// ---- run_trials determinism ----------------------------------------------

void expect_same_stats(const analysis::trial_stats& a,
                       const analysis::trial_stats& b) {
  EXPECT_EQ(a.algorithm_name, b.algorithm_name);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  // Bit-identical, not approximately equal: aggregation order is part
  // of the contract.
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.stddev, b.rounds.stddev);
  EXPECT_EQ(a.rounds.median, b.rounds.median);
  EXPECT_EQ(a.rounds.min, b.rounds.min);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
  EXPECT_EQ(a.rounds.q95, b.rounds.q95);
  EXPECT_EQ(a.mean_coins_per_node_round, b.mean_coins_per_node_round);
}

TEST(RunTrialsParallelTest, BitIdenticalToSerialPath) {
  const auto inst = analysis::make_instance(graph::make_grid(5, 5));
  const auto algo = analysis::make_bfw(0.5);
  const auto horizon = 8 * core::default_horizon(inst.g, inst.diameter);
  const auto serial = analysis::run_trials(inst.g, inst.diameter, algo, 12,
                                           99, horizon,
                                           analysis::run_options{1});
  const auto parallel = analysis::run_trials(inst.g, inst.diameter, algo, 12,
                                             99, horizon,
                                             analysis::run_options{4});
  expect_same_stats(serial, parallel);
}

TEST(RunTrialsParallelTest, InvariantAcrossOneTwoEightThreads) {
  const auto inst = analysis::make_instance(graph::make_cycle(24));
  const auto algo = analysis::make_bfw_known_diameter(inst.diameter);
  const auto horizon = 8 * core::default_horizon(inst.g, inst.diameter);
  const auto baseline = analysis::run_trials(inst.g, inst.diameter, algo, 10,
                                             7, horizon,
                                             analysis::run_options{1});
  for (const std::size_t threads : {2UL, 8UL}) {
    const auto stats =
        analysis::run_trials(inst.g, inst.diameter, algo, 10, 7, horizon,
                             analysis::run_options{threads});
    expect_same_stats(baseline, stats);
  }
}

TEST(MapTrialsTest, SeedsMatchTheSerialSeederAndOrderIsStable) {
  support::rng seeder(42);
  std::vector<std::uint64_t> expected(9);
  for (auto& s : expected) s = seeder.next_u64();
  for (const std::size_t threads : {1UL, 4UL}) {
    const auto seeds = analysis::map_trials(
        expected.size(), 42, threads,
        [](std::size_t, std::uint64_t trial_seed) { return trial_seed; });
    EXPECT_EQ(seeds, expected);
  }
}

// ---- bit-packed engine vs scalar reference -------------------------------

// Steps two engines over the same (graph, seed) - one through the
// packed step(), one through step_reference() - and requires identical
// beep flags, beep words, leader counts and coin accounts every round.
void expect_packed_matches_reference(const graph::graph& g,
                                     std::uint64_t seed,
                                     const beeping::noise_model& noise,
                                     std::uint64_t rounds) {
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol packed_proto(machine);
  beeping::fsm_protocol reference_proto(machine);
  beeping::engine packed(g, packed_proto, seed, noise);
  beeping::engine reference(g, reference_proto, seed, noise);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    packed.step();
    reference.step_reference();
    ASSERT_EQ(packed_proto.states(), reference_proto.states())
        << g.name() << " diverged at round " << r;
    const auto packed_words = packed.beep_words();
    const auto reference_words = reference.beep_words();
    ASSERT_TRUE(std::equal(packed_words.begin(), packed_words.end(),
                           reference_words.begin(), reference_words.end()));
    ASSERT_EQ(packed.leader_count(), reference.leader_count());
    ASSERT_EQ(packed.total_coins_consumed(),
              reference.total_coins_consumed());
    const auto packed_leaders = packed.leader_words();
    const auto reference_leaders = reference.leader_words();
    ASSERT_TRUE(std::equal(packed_leaders.begin(), packed_leaders.end(),
                           reference_leaders.begin(), reference_leaders.end()));
    // The packed sets must agree with the scalar states bit for bit.
    const auto& states = reference_proto.states();
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      ASSERT_EQ((packed_words[u >> 6] >> (u & 63)) & 1ULL,
                machine.beeps(states[u]) ? 1ULL : 0ULL);
      ASSERT_EQ((packed_leaders[u >> 6] >> (u & 63)) & 1ULL,
                machine.is_leader(states[u]) ? 1ULL : 0ULL);
    }
  }
}

class PackedEngineTest
    : public ::testing::TestWithParam<testing::graph_case> {};

TEST_P(PackedEngineTest, MatchesScalarReferenceTrace) {
  const auto g = GetParam().make(5);
  expect_packed_matches_reference(g, 1234, beeping::noise_model{}, 200);
}

TEST_P(PackedEngineTest, MatchesScalarReferenceTraceUnderNoise) {
  const auto g = GetParam().make(5);
  expect_packed_matches_reference(g, 4321,
                                  beeping::noise_model{0.1, 0.01}, 200);
}

INSTANTIATE_TEST_SUITE_P(
    StandardBattery, PackedEngineTest,
    ::testing::ValuesIn(testing::standard_graph_battery()),
    [](const ::testing::TestParamInfo<testing::graph_case>& info) {
      return info.param.label;
    });

TEST(PackedEngineTest, MatchesReferenceOnRandomGraphs) {
  support::rng rng(77);
  for (int i = 0; i < 6; ++i) {
    auto g = graph::make_erdos_renyi_connected(
        40 + 10 * static_cast<std::size_t>(i), 0.1 + 0.1 * i, rng);
    expect_packed_matches_reference(g, 1000 + static_cast<std::uint64_t>(i),
                                    beeping::noise_model{}, 120);
  }
}

TEST(PackedEngineTest, WordBoundaryGraphSizes) {
  // Exercise n = 63, 64, 65, 128, 129: the packed-word edge cases.
  for (const std::size_t n : {63UL, 64UL, 65UL, 128UL, 129UL}) {
    expect_packed_matches_reference(graph::make_path(n), 9 + n,
                                    beeping::noise_model{}, 150);
    expect_packed_matches_reference(graph::make_cycle(n), 9 + n,
                                    beeping::noise_model{0.05, 0.0}, 80);
  }
}

}  // namespace
}  // namespace beepkit
