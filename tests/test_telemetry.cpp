// beeptel telemetry:
//
//  * the bit-exactness contract — engines with probes fully hot
//    (runtime-enabled, every round sampled, tracing on) must be
//    draw-for-draw identical to probes-off engines across every
//    (gear x kernel x tile x thread) point of the tiled acceptance
//    grid: per-round states, leader counts, coin totals, next raw
//    generator draws;
//  * counter invariants — gear counters partition the round count,
//    plane counters agree with the engine's own plane/compiled round
//    introspection, tile claims cover the word range exactly;
//  * restart_from_protocol resets the per-run introspection counters
//    (the stale gather_kernel_used()/plane_rounds() fix);
//  * registry/histogram/exposition sanity: percentiles, snapshot
//    shape, Prometheus text, Chrome trace JSON.
//
// Tests that touch the global knobs (enable, stride, tracing) or the
// global registry save/restore/reset them, so suite order never
// matters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/convergence.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/gather.hpp"
#include "graph/generators.hpp"
#include "stoneage/stoneage.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "sweep/sweep.hpp"

namespace beepkit {
namespace {

namespace tel = support::telemetry;

using beeping::engine;
using beeping::fsm_protocol;
using beeping::noise_model;

/// Saves and restores the global telemetry knobs, and starts each test
/// from a clean registry/trace buffer.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_enabled_ = tel::enabled();
    saved_stride_ = tel::round_sample_stride();
    saved_trace_ = tel::trace_enabled();
    tel::registry::global().reset();
    tel::reset_trace();
  }
  void TearDown() override {
    tel::set_enabled(saved_enabled_);
    tel::set_round_sample_stride(saved_stride_);
    tel::set_trace_enabled(saved_trace_);
    tel::registry::global().reset();
    tel::reset_trace();
  }

 private:
  bool saved_enabled_ = true;
  std::uint64_t saved_stride_ = 64;
  bool saved_trace_ = false;
};

struct tile_config {
  std::size_t threads;
  std::size_t tile_words;
};

/// The tiled acceptance grid from tests/test_tiled.cpp.
std::vector<tile_config> tile_configs() {
  std::vector<tile_config> configs;
  for (const std::size_t threads : {1U, 2U, 8U}) {
    for (const std::size_t tile : {1U, 64U, 0U}) {
      configs.push_back({threads, tile});
    }
  }
  return configs;
}

struct graph_case {
  std::string label;
  graph::graph g;
};

/// Configures one engine of a differential pair (gear forcing, kernel
/// forcing); applied identically to the probes-on and probes-off side.
using engine_setup = void (*)(engine&);

void setup_default(engine&) {}
void setup_interpreted(engine& e) { e.set_compiled_kernel_enabled(false); }
void setup_virtual(engine& e) { e.set_fast_path_enabled(false); }
void setup_word_csr(engine& e) {
  e.set_gather_kernel(graph::gather_kernel::word_csr_push);
}
void setup_word_csr_pull(engine& e) {
  e.set_gather_kernel(graph::gather_kernel::word_csr_pull);
}

/// Probes fully hot vs probes off, same seed, same configuration: the
/// full observable trace must match draw for draw.
void expect_probes_invisible(const graph::graph& g,
                             const beeping::state_machine& machine,
                             const tile_config& cfg, engine_setup setup,
                             int rounds, const noise_model& noise,
                             const std::string& label) {
  tel::set_enabled(true);
  tel::set_round_sample_stride(1);  // every expensive probe, every round
  tel::set_trace_enabled(true);
  fsm_protocol on_proto(machine);
  fsm_protocol off_proto(machine);
  engine on(g, on_proto, 7, noise);
  engine off(g, off_proto, 7, noise);
  off.set_telemetry_enabled(false);
  setup(on);
  setup(off);
  if (cfg.threads != 1 || cfg.tile_words != 0) {
    on.set_parallelism(cfg.threads, cfg.tile_words);
    off.set_parallelism(cfg.threads, cfg.tile_words);
  }
  for (int round = 0; round < rounds; ++round) {
    on.step();
    off.step();
    ASSERT_EQ(on_proto.states(), off_proto.states())
        << label << " diverged at round " << round;
    ASSERT_EQ(on.leader_count(), off.leader_count()) << label;
  }
  EXPECT_EQ(on.total_coins_consumed(), off.total_coins_consumed()) << label;
  EXPECT_EQ(on.plane_rounds(), off.plane_rounds()) << label;
  EXPECT_EQ(on.compiled_rounds(), off.compiled_rounds()) << label;
  EXPECT_EQ(on.gather_kernel_used(), off.gather_kernel_used()) << label;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(on.node_rng(u).next_u64(), off.node_rng(u).next_u64())
        << label << " generator diverged at node " << u;
  }
}

TEST_F(TelemetryTest, ProbesInvisibleAcrossGearsAndTilings) {
  const core::bfw_machine machine(0.5);
  const std::vector<std::pair<std::string, engine_setup>> gears = {
      {"compiled", &setup_default},
      {"interpreted", &setup_interpreted},
      {"virtual", &setup_virtual},
  };
  for (const auto& shape :
       {graph_case{"path65", graph::make_path(65)},
        graph_case{"grid8x16", graph::make_grid(8, 16)}}) {
    for (const auto& [gear, setup] : gears) {
      for (const tile_config& cfg : tile_configs()) {
        expect_probes_invisible(
            shape.g, machine, cfg, setup, 40, noise_model{},
            shape.label + " gear=" + gear +
                " threads=" + std::to_string(cfg.threads) +
                " tile=" + std::to_string(cfg.tile_words));
      }
    }
  }
}

TEST_F(TelemetryTest, ProbesInvisibleWithForcedKernelsAndNoise) {
  const core::bfw_machine machine(0.5);
  for (const auto& [kernel, setup] :
       std::vector<std::pair<std::string, engine_setup>>{
           {"word_csr_push", &setup_word_csr},
           {"word_csr_pull", &setup_word_csr_pull}}) {
    for (const tile_config& cfg : tile_configs()) {
      expect_probes_invisible(
          graph::make_complete(128), machine, cfg, setup, 25, noise_model{},
          "complete128 kernel=" + kernel +
              " threads=" + std::to_string(cfg.threads) +
              " tile=" + std::to_string(cfg.tile_words));
    }
  }
  // Reception noise draws extra randomness per round — the probes must
  // not perturb those streams either.
  expect_probes_invisible(graph::make_grid(8, 16), machine, {8, 1},
                          &setup_default, 30, noise_model{0.1, 0.05},
                          "noisy grid8x16");
}

TEST_F(TelemetryTest, ProbesInvisibleWithHysteresisTransitions) {
  // Timeout-BFW T = 9 through the wave-saturated rounds and the quiet
  // phase after the wave dies down, with probes hot; the plane gear
  // runs both (no gear transitions remain, despite the test's name).
  const core::timeout_bfw_machine machine(0.5, 9);
  for (const tile_config& cfg : {tile_config{1, 0}, tile_config{8, 1}}) {
    expect_probes_invisible(graph::make_path(65), machine, cfg,
                            &setup_default, 60, noise_model{},
                            "timeout path65 threads=" +
                                std::to_string(cfg.threads));
  }
}

TEST_F(TelemetryTest, StoneAgeProbesInvisible) {
  const core::bfw_stone_automaton automaton(0.5);
  tel::set_enabled(true);
  tel::set_round_sample_stride(1);
  tel::set_trace_enabled(true);
  const auto g = graph::make_grid(8, 8);
  for (const tile_config& cfg : tile_configs()) {
    stoneage::engine on(g, automaton, 1, 5);
    stoneage::engine off(g, automaton, 1, 5);
    off.set_telemetry_enabled(false);
    on.set_parallelism(cfg.threads, cfg.tile_words);
    off.set_parallelism(cfg.threads, cfg.tile_words);
    for (int round = 0; round < 40; ++round) {
      on.step();
      off.step();
      ASSERT_EQ(on.states(), off.states())
          << "threads=" << cfg.threads << " tile=" << cfg.tile_words
          << " round " << round;
      ASSERT_EQ(on.leader_count(), off.leader_count());
    }
  }
}

// The 4-thread concurrent-scratch smoke CI runs under TSan: per-slot
// claim counters written inside worker slots, engine metrics folded
// (claim_counts() read) between rounds, with tracing on.
TEST_F(TelemetryTest, FourThreadConcurrentFoldSmoke) {
  tel::set_enabled(true);
  tel::set_round_sample_stride(1);
  tel::set_trace_enabled(true);
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol proto(machine);
  engine sim(g, proto, 7);
  sim.set_parallelism(4, 1);
  for (int round = 0; round < 30; ++round) {
    sim.step();
    // Mid-run fold: reads the per-slot scratch after the round barrier.
    const tel::engine_metrics m = sim.telemetry_metrics();
    ASSERT_EQ(m.rounds_total(),
              tel::compiled_in ? sim.round() : 0U);
  }
  EXPECT_EQ(sim.round(), 30U);
}

TEST_F(TelemetryTest, GearCountersPartitionTheRoundCount) {
  if (!tel::compiled_in) GTEST_SKIP() << "built with BEEPKIT_TELEMETRY=OFF";
  tel::set_enabled(true);
  tel::set_round_sample_stride(4);
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol proto(machine);
  engine sim(g, proto, 7);
  sim.set_parallelism(4, 1);
  sim.run_rounds(50);
  const tel::engine_metrics m = sim.telemetry_metrics();
  EXPECT_EQ(m.rounds_total(), 50U);
  EXPECT_EQ(m.rounds_plane_interpreted + m.rounds_plane_compiled,
            sim.plane_rounds());
  EXPECT_EQ(m.rounds_plane_compiled, sim.compiled_rounds());
  EXPECT_EQ(sim.plane_rounds(), 50U);
  EXPECT_LE(m.quiet_words, m.scanned_words);
  EXPECT_EQ(m.round_ns.count(), m.sampled_rounds);
  EXPECT_LE(m.sampled_rounds, 50U);
  // 4 workers over 2 words of grid8x16: claims were counted and cover
  // at least one full sweep of the word range per round.
  EXPECT_GT(m.tile_claims, 0U);
  EXPECT_GT(m.tile_claimed_words, 0U);
  EXPECT_GE(m.tile_imbalance, 1.0);
}

TEST_F(TelemetryTest, TileExecutorClaimsCoverTheWordRangeExactly) {
  if (!tel::compiled_in) GTEST_SKIP() << "built with BEEPKIT_TELEMETRY=OFF";
  support::tile_executor exec(4);
  for (const std::size_t words : {1U, 63U, 64U, 137U}) {
    exec.reset_claim_counts();
    for (int call = 0; call < 3; ++call) {
      exec.run_tiles(words, 5, [](std::size_t, std::size_t, std::size_t) {});
    }
    std::uint64_t claimed_words = 0;
    std::uint64_t claimed_tiles = 0;
    for (const support::tile_executor::slot_claims& c : exec.claim_counts()) {
      claimed_words += c.words;
      claimed_tiles += c.tiles;
    }
    EXPECT_EQ(claimed_words, 3 * words) << "words=" << words;
    EXPECT_GE(claimed_tiles, 3U) << "words=" << words;
  }
}

TEST_F(TelemetryTest, RestartFromProtocolResetsRunIntrospection) {
  // The pinned fix: plane_rounds()/compiled_rounds()/gather_kernel_used()
  // and the telemetry scratch describe one run; restart_from_protocol
  // starts a new one.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  engine sim(g, proto, 21);
  sim.run_rounds(50);
  ASSERT_GT(sim.plane_rounds(), 0U);
  ASSERT_NE(sim.gather_kernel_used(), graph::gather_kernel::auto_select);
  std::vector<beeping::state_id> injected(g.node_count(),
                                          machine.initial_state());
  proto.set_states(injected);
  sim.restart_from_protocol();
  EXPECT_EQ(sim.round(), 0U);
  EXPECT_EQ(sim.plane_rounds(), 0U);
  EXPECT_EQ(sim.compiled_rounds(), 0U);
  EXPECT_EQ(sim.gather_kernel_used(), graph::gather_kernel::auto_select);
  EXPECT_EQ(sim.telemetry_metrics().rounds_total(), 0U);
}

TEST_F(TelemetryTest, ElectionOptionsToggleAndRegistryFold) {
  if (!tel::compiled_in) GTEST_SKIP() << "built with BEEPKIT_TELEMETRY=OFF";
  tel::set_enabled(true);
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(6, 6);
  const auto with = core::run_election(g, machine, 42, {});
  EXPECT_EQ(tel::registry::global().counter("engine_trials_total"), 1U);
  EXPECT_EQ(tel::registry::global().histogram("engine_trial_rounds").count(),
            1U);
  // telemetry = false: identical outcome, no registry fold.
  tel::registry::global().reset();
  const auto without =
      core::run_election(g, machine, 42, {.telemetry = false});
  EXPECT_EQ(with.rounds, without.rounds);
  EXPECT_EQ(with.leader, without.leader);
  EXPECT_EQ(with.total_coins, without.total_coins);
  EXPECT_EQ(tel::registry::global().counter("engine_trials_total"), 0U);
}

// Four sweep workers fold their trials into the registry concurrently
// (CI runs this under TSan): no trial may be lost or double-counted.
TEST_F(TelemetryTest, SweepFoldCountsExactUnderFourWorkers) {
  if (!tel::compiled_in) GTEST_SKIP() << "built with BEEPKIT_TELEMETRY=OFF";
  tel::set_enabled(true);
  const analysis::instance path = analysis::make_instance(graph::make_path(40));
  const analysis::instance grid =
      analysis::make_instance(graph::make_grid(8, 8));
  const sweep::spec spec{
      "fold",
      {{&path, analysis::make_bfw(0.5), 60, 3,
        core::default_horizon(path.g, path.diameter)},
       {&grid, analysis::make_bfw(0.5), 60, 4,
        core::default_horizon(grid.g, grid.diameter)}}};
  std::uint64_t rounds = 0;
  sweep::options opts;
  opts.threads = 4;
  opts.on_trial = [&rounds](const sweep::unit&,
                            const core::election_outcome& outcome) {
    rounds += outcome.rounds;
  };
  const auto result = sweep::run(spec, opts);
  ASSERT_EQ(result.units_run, 120U);
  const tel::registry& reg = tel::registry::global();
  EXPECT_EQ(reg.counter("engine_trials_total"), 120U);
  const tel::log2_histogram trial_rounds = reg.histogram("engine_trial_rounds");
  EXPECT_EQ(trial_rounds.count(), 120U);
  EXPECT_EQ(trial_rounds.sum(), rounds);
  EXPECT_EQ(reg.counter("engine_rounds_virtual_total") +
                reg.counter("engine_rounds_plane_interpreted_total") +
                reg.counter("engine_rounds_plane_compiled_total"),
            rounds);
}

// ---- histogram / registry / exposition ------------------------------

TEST_F(TelemetryTest, HistogramStatisticsAndPercentiles) {
  tel::log2_histogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  for (int i = 0; i < 10; ++i) h.record(42);
  EXPECT_EQ(h.count(), 10U);
  EXPECT_EQ(h.sum(), 420U);
  EXPECT_EQ(h.min(), 42U);
  EXPECT_EQ(h.max(), 42U);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  // A single-valued distribution pins every percentile exactly (the
  // min/max clamp of the in-bucket interpolation).
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 42.0);

  tel::log2_histogram wide;
  for (std::uint64_t v = 1; v <= 1000; ++v) wide.record(v);
  EXPECT_EQ(wide.count(), 1000U);
  EXPECT_EQ(wide.min(), 1U);
  EXPECT_EQ(wide.max(), 1000U);
  const double p50 = wide.percentile(0.50);
  const double p90 = wide.percentile(0.90);
  const double p99 = wide.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000.0);
  // p50 of uniform 1..1000 must land in the 2x-wide bucket around 500.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);

  tel::log2_histogram merged;
  merged.merge(h);
  merged.merge(wide);
  EXPECT_EQ(merged.count(), 1010U);
  EXPECT_EQ(merged.min(), 1U);
  EXPECT_EQ(merged.max(), 1000U);
  merged.reset();
  EXPECT_EQ(merged.count(), 0U);
  EXPECT_EQ(merged.min(), 0U);
}

TEST_F(TelemetryTest, RegistrySnapshotAndPrometheus) {
  tel::registry& reg = tel::registry::global();
  reg.add("test_rounds_total", 5);
  reg.add("test_rounds_total", 2);
  reg.set_gauge("test_imbalance", 1.25);
  reg.set_info("test_kernel", "bfw_w4");
  reg.record("test_latency_ns", 100);
  reg.record("test_latency_ns", 200);
  EXPECT_EQ(reg.counter("test_rounds_total"), 7U);
  EXPECT_DOUBLE_EQ(reg.gauge("test_imbalance"), 1.25);
  EXPECT_EQ(reg.info("test_kernel"), "bfw_w4");
  EXPECT_EQ(reg.histogram("test_latency_ns").count(), 2U);
  EXPECT_EQ(reg.counter("never_touched"), 0U);

  const support::json snap = tel::snapshot();
  ASSERT_TRUE(snap.is_object());
  ASSERT_NE(snap.find("build"), nullptr);
  const support::json* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  const support::json* c = counters->find("test_rounds_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_u64(), 7U);
  const support::json* hists = snap.find("histograms");
  ASSERT_NE(hists, nullptr);
  const support::json* lat = hists->find("test_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_u64(), 2U);
  // The snapshot is parseable back from its own dump (what --telemetry
  // writes and telem_report reads).
  EXPECT_TRUE(support::json::parse(snap.dump()).has_value());

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE test_rounds_total counter"), std::string::npos);
  EXPECT_NE(prom.find("test_rounds_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_imbalance gauge"), std::string::npos);
  EXPECT_NE(prom.find("test_kernel_info{value=\"bfw_w4\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_count 2"), std::string::npos);

  reg.reset();
  EXPECT_EQ(reg.counter("test_rounds_total"), 0U);
}

TEST_F(TelemetryTest, ChromeTraceWritesPerfettoLoadableJson) {
  if (!tel::compiled_in) GTEST_SKIP() << "built with BEEPKIT_TELEMETRY=OFF";
  tel::set_trace_enabled(true);
  { tel::scoped_span span("unit-test-span", "test"); }
  tel::trace_complete("explicit-span", "test", 100, 50);
  tel::set_trace_enabled(false);
  ASSERT_GE(tel::trace_event_count(), 2U);
  EXPECT_EQ(tel::trace_dropped(), 0U);

  const std::string path = "telemetry_test_trace.json";
  ASSERT_TRUE(tel::write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = support::json::parse(buffer.str());
  ASSERT_TRUE(doc.has_value());
  const support::json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->as_array().size(), 2U);
  const support::json& first = events->as_array().front();
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  EXPECT_NE(first.find("ts"), nullptr);
  EXPECT_NE(first.find("dur"), nullptr);
  EXPECT_NE(first.find("tid"), nullptr);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, SamplingStrideAndKnobs) {
  tel::set_round_sample_stride(0);
  EXPECT_FALSE(tel::round_sampled(0));
  EXPECT_FALSE(tel::round_sampled(64));
  tel::set_round_sample_stride(1);
  EXPECT_TRUE(tel::round_sampled(0));
  EXPECT_TRUE(tel::round_sampled(17));
  tel::set_round_sample_stride(64);
  EXPECT_TRUE(tel::round_sampled(0));
  EXPECT_FALSE(tel::round_sampled(63));
  EXPECT_TRUE(tel::round_sampled(128));
  if (tel::compiled_in) {
    tel::set_enabled(false);
    EXPECT_FALSE(tel::enabled());
    tel::set_enabled(true);
    EXPECT_TRUE(tel::enabled());
  } else {
    EXPECT_FALSE(tel::enabled());
  }
}

TEST_F(TelemetryTest, BuildInfoIsStamped) {
  const support::build_info& info = support::build_info::current();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.isa.empty());
  EXPECT_EQ(info.telemetry, tel::compiled_in);
  EXPECT_EQ(info.hw_threads, std::thread::hardware_concurrency());
  const std::string line = info.one_line();
  EXPECT_NE(line.find(info.git_sha), std::string::npos);
  EXPECT_NE(line.find(info.compiler), std::string::npos);
  EXPECT_NE(line.find(" hw=" + std::to_string(info.hw_threads)),
            std::string::npos);
  const support::json j = info.to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.find("git_sha")->as_string(), info.git_sha);
  ASSERT_NE(j.find("hw_threads"), nullptr);
  EXPECT_EQ(j.find("hw_threads")->as_u64(), info.hw_threads);
}

}  // namespace
}  // namespace beepkit
