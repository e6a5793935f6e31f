// Tiled intra-trial parallelism + the plane-authoritative lazy state
// model:
//
//  * support::tile_executor must cover the word range as an exact
//    partition and propagate body exceptions;
//  * engines running under set_parallelism must be draw-for-draw
//    bit-identical to the serial engine for tile sizes
//    {1 word, 64 words, default} x threads {1, 2, 8} on
//    path/ring/grid/torus/complete at word-boundary sizes
//    {63, 64, 65, 128} - states, leader counts, beep counts, generator
//    draws (the acceptance matrix of the tiled round pipeline);
//  * plane-gear rounds must perform zero eager state write-backs:
//    fsm_protocol::materialization_count() stays 0 while nobody reads,
//    and the first read unpacks exactly once and sees the exact
//    configuration (the lazy states() contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/gather.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"
#include "stoneage/stoneage.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace beepkit {
namespace {

using beeping::engine;
using beeping::fsm_protocol;
using beeping::noise_model;

struct tile_config {
  std::size_t threads;
  std::size_t tile_words;
};

/// The acceptance grid: {1 word, 64 words, default} tiles x
/// {1, 2, 8} threads. The default (tile_words = 0) is
/// support::kL2TileWords; the test graphs span at most 2 words, so its
/// cells run one tile inline on the caller and check that the default
/// resolves to the serial path (64-word tiles are one tile here too).
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

/// path/ring/grid/torus/complete at word-boundary node counts.
std::vector<graph_case> boundary_graphs() {
  std::vector<graph_case> cases;
  for (const std::size_t n : {63U, 64U, 65U, 128U}) {
    cases.push_back({"path" + std::to_string(n), graph::make_path(n)});
    cases.push_back({"ring" + std::to_string(n), graph::make_cycle(n)});
    cases.push_back({"complete" + std::to_string(n), graph::make_complete(n)});
  }
  cases.push_back({"grid7x9", graph::make_grid(7, 9)});      // 63
  cases.push_back({"grid8x8", graph::make_grid(8, 8)});      // 64
  cases.push_back({"grid5x13", graph::make_grid(5, 13)});    // 65
  cases.push_back({"grid8x16", graph::make_grid(8, 16)});    // 128
  cases.push_back({"torus3x21", graph::make_torus(3, 21)});  // 63
  cases.push_back({"torus8x8", graph::make_torus(8, 8)});    // 64
  cases.push_back({"torus5x13", graph::make_torus(5, 13)});  // 65
  cases.push_back({"torus8x16", graph::make_torus(8, 16)});  // 128
  return cases;
}

TEST(ParallelForWordsTest, TilesPartitionTheRangeExactly) {
  for (const std::size_t words : {1U, 63U, 64U, 137U}) {
    for (const std::size_t tile : {1U, 5U, 64U, 0U}) {
      for (const std::size_t threads : {1U, 2U, 4U}) {
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        support::tile_executor exec(threads);
        exec.run_tiles(
            words, tile,
            [&](std::size_t slot, std::size_t begin, std::size_t end) {
              ASSERT_LT(slot, threads);
              ASSERT_LT(begin, end);
              std::lock_guard<std::mutex> lock(mu);
              ranges.emplace_back(begin, end);
            });
        std::sort(ranges.begin(), ranges.end());
        ASSERT_FALSE(ranges.empty());
        EXPECT_EQ(ranges.front().first, 0U);
        EXPECT_EQ(ranges.back().second, words);
        for (std::size_t i = 1; i < ranges.size(); ++i) {
          EXPECT_EQ(ranges[i - 1].second, ranges[i].first)
              << "gap/overlap at tile " << i << " (words=" << words
              << " tile=" << tile << " threads=" << threads << ")";
        }
      }
    }
  }
}

TEST(ParallelForWordsTest, ZeroWordsRunsNoTiles) {
  bool called = false;
  support::tile_executor exec(4);
  exec.run_tiles(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelForWordsTest, BodyExceptionsPropagate) {
  support::tile_executor exec(4);
  EXPECT_THROW(exec.run_tiles(100, 8,
                              [](std::size_t, std::size_t begin, std::size_t) {
                                if (begin >= 48) {
                                  throw std::runtime_error("tile failure");
                                }
                              }),
               std::runtime_error);
}

TEST(TileExecutorTest, ReusableAcrossCallsWithSlotScratch) {
  support::tile_executor exec(4);
  EXPECT_EQ(exec.thread_count(), 4U);
  std::vector<std::uint64_t> input(1000);
  std::iota(input.begin(), input.end(), 1);
  const std::uint64_t expected = 1000ULL * 1001ULL / 2ULL;
  for (int call = 0; call < 50; ++call) {
    std::vector<std::uint64_t> partial(exec.thread_count(), 0);
    exec.run_tiles(input.size(), 7,
                   [&](std::size_t slot, std::size_t begin, std::size_t end) {
                     std::uint64_t sum = 0;
                     for (std::size_t i = begin; i < end; ++i) {
                       sum += input[i];
                     }
                     partial[slot] += sum;
                   });
    std::uint64_t total = 0;
    for (const std::uint64_t part : partial) total += part;
    ASSERT_EQ(total, expected) << "call " << call;
  }
}

/// Runs `rounds` rounds on two engines - serial reference vs tiled -
/// and requires the full observable trace to match: states after every
/// round, leader counts, cumulative beep counts, coin totals and the
/// next raw draw of every per-node stream.
void expect_tiled_matches_serial(const graph::graph& g,
                                 const beeping::state_machine& machine,
                                 const tile_config& cfg, int rounds,
                                 const noise_model& noise,
                                 const std::string& label) {
  fsm_protocol serial_proto(machine);
  fsm_protocol tiled_proto(machine);
  engine serial(g, serial_proto, 7, noise);
  engine tiled(g, tiled_proto, 7, noise);
  beeping::beep_counter serial_counts;
  beeping::beep_counter tiled_counts;
  serial.add_observer(&serial_counts);
  tiled.add_observer(&tiled_counts);
  tiled.set_parallelism(cfg.threads, cfg.tile_words);
  for (int round = 0; round < rounds; ++round) {
    serial.step();
    tiled.step();
    ASSERT_EQ(tiled_proto.states(), serial_proto.states())
        << label << " diverged at round " << round;
    ASSERT_EQ(tiled.leader_count(), serial.leader_count()) << label;
  }
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(tiled_counts.count(u), serial_counts.count(u))
        << label << " beep count mismatch at node " << u;
  }
  EXPECT_EQ(tiled.total_coins_consumed(), serial.total_coins_consumed())
      << label;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(tiled.node_rng(u).next_u64(), serial.node_rng(u).next_u64())
        << label << " generator diverged at node " << u;
  }
}

// Grid and torus stencils read their column masks from a table of
// whole periods (cols / gcd(cols, 64) words each; at least 64 and at
// most 129 words for the widths here). Tiles of 1, 3 and 7 words start
// at every offset into that table, so each of these shapes - about 300
// words, more than two tables - checks every word's mask lookup:
// the gather against a scalar neighbour scan (with `heard` entering
// as garbage, which every kernel overwrites), and the tiled implicit
// and explicit engines against the scalar step_reference, round by
// round.
void expect_column_tables_match_reference() {
  using graph::topology;
  const core::bfw_machine machine(0.5);
  constexpr int kRounds = 6;
  for (const auto shape : {topology::kind::grid, topology::kind::torus}) {
    for (const std::size_t cols : {1U, 2U, 3U, 63U, 64U, 65U, 100U, 129U}) {
      const std::size_t rows = 300 * 64 / cols + 3;
      const auto view = graph::topology_view::implicit({shape, rows, cols});
      const std::size_t n = view.node_count();
      const std::size_t words = (n + 63) / 64;
      // make_torus needs both sides >= 3.
      const bool has_explicit = shape == topology::kind::grid || cols >= 3;
      std::optional<graph::graph> g;
      if (has_explicit) {
        g = shape == topology::kind::grid ? graph::make_grid(rows, cols)
                                          : graph::make_torus(rows, cols);
      }
      const std::string label = view.name();

      support::rng picker(cols * 2 + (shape == topology::kind::torus));
      std::vector<std::vector<std::uint64_t>> beeps;
      for (const int density : {1, 2, 8}) {
        std::vector<std::uint64_t> beep(words);
        for (std::uint64_t& w : beep) {
          w = ~0ULL;
          for (int k = 1; k < density; ++k) w &= picker.next_u64();
        }
        if (n % 64 != 0) beep.back() &= (1ULL << (n % 64)) - 1;
        beeps.push_back(std::move(beep));
      }
      std::vector<std::vector<std::uint64_t>> expected;
      for (const auto& beep : beeps) {
        std::vector<std::uint64_t> heard(words);
        for (graph::node_id u = 0; u < n; ++u) {
          bool hit = ((beep[u >> 6] >> (u & 63)) & 1ULL) != 0;
          view.for_each_neighbor(u, [&](graph::node_id v) {
            hit = hit || ((beep[v >> 6] >> (v & 63)) & 1ULL) != 0;
          });
          if (hit) heard[u >> 6] |= 1ULL << (u & 63);
        }
        expected.push_back(std::move(heard));
      }

      fsm_protocol ref_proto(machine);
      engine ref(view, ref_proto, 5);
      std::vector<std::vector<std::uint64_t>> ref_beeps;
      std::vector<std::size_t> ref_leaders;
      for (int round = 0; round < kRounds; ++round) {
        ref.step_reference();
        const auto b = ref.beep_words();
        ref_beeps.emplace_back(b.begin(), b.end());
        ref_leaders.push_back(ref.leader_count());
      }

      for (const std::size_t threads : {1U, 2U, 4U}) {
        support::tile_executor exec(threads);
        for (const std::size_t tile : {1U, 3U, 7U, 0U}) {
          const std::string where = label + " threads=" +
                                    std::to_string(threads) +
                                    " tile=" + std::to_string(tile);
          graph::heard_gather gather(view);
          ASSERT_TRUE(gather.stencil_available()) << where;
          gather.set_executor(&exec, tile);
          for (std::size_t i = 0; i < beeps.size(); ++i) {
            std::vector<std::uint64_t> heard(words, 0x5a5a5a5a5a5a5a5aULL);
            gather(beeps[i], heard);
            ASSERT_EQ(heard, expected[i]) << where << " beep set " << i;
          }
          for (const bool use_explicit : {false, true}) {
            if (use_explicit && !has_explicit) continue;
            fsm_protocol proto(machine);
            engine sim(use_explicit ? graph::topology_view(*g) : view, proto,
                       5);
            sim.set_parallelism(threads, tile);
            for (int round = 0; round < kRounds; ++round) {
              sim.step();
              const auto b = sim.beep_words();
              ASSERT_TRUE(std::equal(b.begin(), b.end(),
                                     ref_beeps[round].begin()))
                  << where << (use_explicit ? " explicit" : " implicit")
                  << " round " << round;
              ASSERT_EQ(sim.leader_count(), ref_leaders[round]) << where;
            }
            ASSERT_EQ(proto.states(), ref_proto.states()) << where;
          }
        }
      }
    }
  }
}

TEST(TiledEngineBitIdentityTest, AllConfigsMatchSerialOnAllTopologies) {
  const core::bfw_machine machine(0.5);
  for (const auto& c : boundary_graphs()) {
    for (const tile_config& cfg : tile_configs()) {
      expect_tiled_matches_serial(
          c.g, machine, cfg, 40, noise_model{},
          c.label + " threads=" + std::to_string(cfg.threads) +
              " tile=" + std::to_string(cfg.tile_words));
    }
  }
  expect_column_tables_match_reference();
}

TEST(TiledEngineBitIdentityTest, TimeoutBfwRippleCarryTiledMatchesSerial) {
  // The bit-sliced patience counters advance via ripple-carry adds -
  // the seam-sensitive kernel. T = 9 runs the compiled chain kernel;
  // T = 7 (12 states), T = 60 (65 states, 7 planes) and T = 251 (256
  // states, 8 planes) have none, so they drive the interpreted sweep
  // through the same tiled plane driver. Every round must run in the
  // plane gear.
  for (const std::uint32_t timeout : {9U, 7U, 60U, 251U}) {
    const core::timeout_bfw_machine machine(0.5, timeout);
    for (const auto& shape :
         {graph_case{"path65", graph::make_path(65)},
          graph_case{"grid8x16", graph::make_grid(8, 16)},
          graph_case{"torus8x8", graph::make_torus(8, 8)}}) {
      for (const tile_config& cfg : tile_configs()) {
        const std::string label =
            shape.label + " T=" + std::to_string(timeout) +
            " threads=" + std::to_string(cfg.threads) +
            " tile=" + std::to_string(cfg.tile_words);
        fsm_protocol serial_proto(machine);
        fsm_protocol tiled_proto(machine);
        engine serial(shape.g, serial_proto, 11);
        engine tiled(shape.g, tiled_proto, 11);
        if (timeout != 9) {
          ASSERT_FALSE(tiled.compiled_kernel_active()) << label;
        }
        tiled.set_parallelism(cfg.threads, cfg.tile_words);
        serial.run_rounds(60);
        tiled.run_rounds(60);
        ASSERT_EQ(tiled.plane_rounds(), 60U) << label;
        ASSERT_EQ(tiled.plane_rounds(), serial.plane_rounds()) << label;
        ASSERT_EQ(tiled_proto.states(), serial_proto.states()) << label;
        ASSERT_EQ(tiled.total_coins_consumed(), serial.total_coins_consumed())
            << label;
      }
    }
  }
}

TEST(TiledEngineBitIdentityTest, ReceptionNoiseTiledMatchesSerial) {
  // The tiled noise pass over the full acceptance matrix: every
  // word-boundary topology x {1, 2, 8} threads x {1 word, 64 words,
  // default} tiles, draws included (each node owns a dedicated
  // noise stream, so the tiled pass must replay the serial draw
  // sequence exactly).
  const core::bfw_machine machine(0.5);
  const noise_model noise{0.1, 0.05};
  for (const auto& c : boundary_graphs()) {
    for (const tile_config& cfg : tile_configs()) {
      expect_tiled_matches_serial(
          c.g, machine, cfg, 30, noise,
          "noisy " + c.label + " threads=" + std::to_string(cfg.threads) +
              " tile=" + std::to_string(cfg.tile_words));
    }
  }
}

TEST(TiledEngineBitIdentityTest, ReceptionNoiseTiledUnderForcedKernels) {
  // Noise stacked on the forced gather kernels: the noise pass runs
  // between the gather and the sweep, so every kernel x tile x thread
  // point must still be draw-for-draw serial-identical.
  const core::bfw_machine machine(0.5);
  const noise_model noise{0.08, 0.03};
  for (const graph::gather_kernel kernel :
       {graph::gather_kernel::word_csr_push,
        graph::gather_kernel::word_csr_pull}) {
    for (const tile_config& cfg : tile_configs()) {
      fsm_protocol serial_proto(machine);
      fsm_protocol tiled_proto(machine);
      const auto g = graph::make_complete_binary_tree(127);
      engine serial(g, serial_proto, 19, noise);
      engine tiled(g, tiled_proto, 19, noise);
      serial.set_gather_kernel(kernel);
      tiled.set_gather_kernel(kernel);
      tiled.set_parallelism(cfg.threads, cfg.tile_words);
      serial.run_rounds(25);
      tiled.run_rounds(25);
      ASSERT_EQ(tiled_proto.states(), serial_proto.states())
          << graph::gather_kernel_name(kernel) << " threads=" << cfg.threads
          << " tile=" << cfg.tile_words;
      ASSERT_EQ(tiled.total_coins_consumed(), serial.total_coins_consumed());
    }
  }
}

TEST(TiledEngineBitIdentityTest, NoisePassReportsTiledExecution) {
  // Acceptance: with an executor attached the noise pass goes through
  // the tile executor every round - zero serial per-node remnants.
  const core::bfw_machine machine(0.5);
  const noise_model noise{0.1, 0.05};
  fsm_protocol proto(machine);
  engine sim(graph::make_path(128), proto, 7, noise);
  sim.set_parallelism(2, 1);
  sim.run_rounds(20);
  if (support::telemetry::compiled_in) {
    const auto& metrics = sim.telemetry_metrics();
    EXPECT_EQ(metrics.noise_passes_tiled, 20U);
    EXPECT_EQ(metrics.noise_passes_serial, 0U);
  }
}

TEST(TiledEngineConfigTest, AutotunedTileWordsIsStableAndValid) {
  // The tile size is the constant kL2TileWords: no probe runs, so the
  // executor has claimed no tiles.
  support::tile_executor exec(2);
  EXPECT_EQ(support::autotuned_tile_words(exec), support::kL2TileWords);
  for (const auto& claims : exec.claim_counts()) {
    EXPECT_EQ(claims.tiles, 0U);
    EXPECT_EQ(claims.words, 0U);
  }
}

TEST(TiledEngineConfigTest, TileSizeSurvivesRestartFromProtocol) {
  // set_parallelism(t, 0) resolves to kL2TileWords; a protocol
  // restart and a re-resolve must keep that exact tile size.
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(graph::make_grid(8, 16), proto, 5);
  sim.set_parallelism(2, 0);
  const std::size_t resolved = sim.tile_words();
  EXPECT_EQ(resolved, support::kL2TileWords);
  sim.run_rounds(10);
  sim.restart_from_protocol();
  EXPECT_EQ(sim.tile_words(), resolved);
  sim.set_parallelism(2, 0);
  EXPECT_EQ(sim.tile_words(), resolved);
  sim.run_rounds(5);
  EXPECT_EQ(sim.round(), 5U);
}

TEST(TiledEngineBitIdentityTest, ForcedKernelsMatchUnderTiling) {
  // The word-CSR push and pull run serially inside a tiled engine,
  // next to its tiled plane sweep: with either forced, the tiled
  // engine must match the serial engine.
  const core::bfw_machine machine(0.5);
  for (const graph::gather_kernel kernel :
       {graph::gather_kernel::word_csr_push,
        graph::gather_kernel::word_csr_pull}) {
    for (const auto& shape :
         {graph_case{"complete128", graph::make_complete(128)},
          graph_case{"tree127", graph::make_complete_binary_tree(127)}}) {
      for (const tile_config& cfg : tile_configs()) {
        fsm_protocol serial_proto(machine);
        fsm_protocol tiled_proto(machine);
        engine serial(shape.g, serial_proto, 3);
        engine tiled(shape.g, tiled_proto, 3);
        serial.set_gather_kernel(kernel);
        tiled.set_gather_kernel(kernel);
        tiled.set_parallelism(cfg.threads, cfg.tile_words);
        serial.run_rounds(25);
        tiled.run_rounds(25);
        ASSERT_EQ(tiled_proto.states(), serial_proto.states())
            << shape.label << " kernel "
            << graph::gather_kernel_name(kernel)
            << " threads=" << cfg.threads << " tile=" << cfg.tile_words;
        ASSERT_EQ(tiled.gather_kernel_used(), kernel);
      }
    }
  }
}

// The 4-thread intra-trial differential smoke CI runs under TSan: one
// wave-saturated run per topology family at 4 workers, 1-word tiles
// (the maximal-seam configuration).
TEST(TiledEngineBitIdentityTest, FourThreadSmoke) {
  const core::bfw_machine machine(0.5);
  for (const auto& shape :
       {graph_case{"path128", graph::make_path(128)},
        graph_case{"ring128", graph::make_cycle(128)},
        graph_case{"grid8x16", graph::make_grid(8, 16)},
        graph_case{"torus8x16", graph::make_torus(8, 16)},
        graph_case{"complete128", graph::make_complete(128)}}) {
    expect_tiled_matches_serial(shape.g, machine, {4, 1}, 30, noise_model{},
                                shape.label + " 4-thread smoke");
  }
}

TEST(TiledStoneAgeTest, TiledMatchesSerialOnAllConfigs) {
  const core::bfw_stone_automaton automaton(0.5);
  for (const auto& shape :
       {graph_case{"grid8x8", graph::make_grid(8, 8)},
        graph_case{"path65", graph::make_path(65)},
        graph_case{"ring64", graph::make_cycle(64)}}) {
    for (const tile_config& cfg : tile_configs()) {
      stoneage::engine serial(shape.g, automaton, 1, 5);
      stoneage::engine tiled(shape.g, automaton, 1, 5);
      tiled.set_parallelism(cfg.threads, cfg.tile_words);
      for (int round = 0; round < 40; ++round) {
        serial.step();
        tiled.step();
        ASSERT_EQ(tiled.states(), serial.states())
            << shape.label << " threads=" << cfg.threads
            << " tile=" << cfg.tile_words << " round " << round;
        ASSERT_EQ(tiled.leader_count(), serial.leader_count());
      }
    }
  }
}

TEST(TiledStoneAgeTest, PlaneRoundMatchesVirtualCensusPath) {
  // The bit-sliced stone-age round (planes + maintained beep word)
  // against the generic display/census/transition path.
  const core::bfw_stone_automaton automaton(0.5);
  for (const auto& shape :
       {graph_case{"grid8x8", graph::make_grid(8, 8)},
        graph_case{"grid5x13", graph::make_grid(5, 13)}}) {
    stoneage::engine fast(shape.g, automaton, 1, 9);
    stoneage::engine virt(shape.g, automaton, 1, 9);
    virt.set_fast_path_enabled(false);
    ASSERT_TRUE(fast.fast_path_active());
    ASSERT_FALSE(virt.fast_path_active());
    for (int round = 0; round < 40; ++round) {
      fast.step();
      virt.step();
      ASSERT_EQ(fast.states(), virt.states()) << shape.label << " round "
                                              << round;
      ASSERT_EQ(fast.leader_count(), virt.leader_count());
    }
  }
}

// ---- plane-authoritative lazy states --------------------------------

TEST(LazyStateTest, PlaneRoundsPerformZeroEagerWriteBacks) {
  // The acceptance counter: while nobody reads the protocol's state
  // vector, plane rounds must not materialize it at all.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  engine sim(g, proto, 21);
  sim.run_rounds(50);
  ASSERT_GT(sim.plane_rounds(), 0U);
  EXPECT_EQ(proto.materialization_count(), 0U)
      << "plane rounds wrote the state vector eagerly";
  // The first read unpacks exactly once ...
  const std::vector<beeping::state_id> lazy = proto.states();
  EXPECT_EQ(proto.materialization_count(), 1U);
  // ... and a repeated read costs nothing further.
  (void)proto.states();
  EXPECT_EQ(proto.materialization_count(), 1U);
  // The unpacked configuration is the exact one the scalar reference
  // reaches.
  fsm_protocol ref_proto(machine);
  engine ref(g, ref_proto, 21);
  for (int round = 0; round < 50; ++round) ref.step_reference();
  EXPECT_EQ(lazy, ref_proto.states());
}

TEST(LazyStateTest, PerRoundReadsStayExact) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol proto(machine);
  fsm_protocol ref_proto(machine);
  engine sim(g, proto, 33);
  engine ref(g, ref_proto, 33);
  for (int round = 0; round < 40; ++round) {
    sim.step();
    ref.step_reference();
    ASSERT_EQ(proto.states(), ref_proto.states()) << "round " << round;
    ASSERT_EQ(proto.state_of(0), ref_proto.state_of(0));
  }
  EXPECT_GT(sim.plane_rounds(), 0U);
}

TEST(LazyStateTest, EngineDestructionMaterializesPendingState) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  {
    engine sim(g, proto, 21);
    sim.run_rounds(50);
    ASSERT_GT(sim.plane_rounds(), 0U);
    EXPECT_EQ(proto.materialization_count(), 0U);
  }  // engine dies with the vector stale: the dtor must unpack
  fsm_protocol ref_proto(machine);
  engine ref(g, ref_proto, 21);
  for (int round = 0; round < 50; ++round) ref.step_reference();
  EXPECT_EQ(proto.states(), ref_proto.states());
}

TEST(LazyStateTest, DisablingFastPathHandsAuthorityBack) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  fsm_protocol ref_proto(machine);
  engine sim(g, proto, 13);
  engine ref(g, ref_proto, 13);
  sim.run_rounds(20);
  ref.run_rounds(20);
  sim.set_fast_path_enabled(false);
  sim.run_rounds(20);
  ref.run_rounds(20);
  EXPECT_EQ(proto.states(), ref_proto.states());
  sim.set_fast_path_enabled(true);
  sim.run_rounds(10);
  ref.run_rounds(10);
  EXPECT_EQ(proto.states(), ref_proto.states());
}

TEST(LazyStateTest, SetStatesWhileStaleOverridesCleanly) {
  // set_states after unobserved plane rounds: the injected
  // configuration must win (no pending unpack may clobber it).
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  engine sim(g, proto, 17);
  sim.run_rounds(30);
  ASSERT_GT(sim.plane_rounds(), 0U);
  std::vector<beeping::state_id> injected(g.node_count(),
                                          machine.initial_state());
  injected[0] = 1;
  proto.set_states(injected);
  sim.restart_from_protocol();
  EXPECT_EQ(proto.states(), injected);
  sim.run_rounds(5);  // must not throw and must stay consistent
  EXPECT_EQ(sim.round(), 5U);
}

TEST(LazyStateTest, TiledPlaneRoundsAlsoSkipWriteBacks) {
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  engine sim(g, proto, 21);
  sim.set_parallelism(8, 1);
  sim.run_rounds(50);
  ASSERT_GT(sim.plane_rounds(), 0U);
  EXPECT_EQ(proto.materialization_count(), 0U);
}

/// A beeping machine with more than 256 states embedded in the
/// stone-age model (Timeout-BFW T = 252 has 257 states): the bit-sliced
/// plane fast path cannot serve it, so the engine must fall back to
/// the generic census path instead of refusing to construct.
class wide_stone_automaton final : public stoneage::automaton {
 public:
  wide_stone_automaton() : machine_(0.5, 252) {}

  [[nodiscard]] std::size_t state_count() const override {
    return machine_.state_count();
  }
  [[nodiscard]] std::size_t alphabet_size() const override { return 2; }
  [[nodiscard]] stoneage::state_id initial_state() const override {
    return machine_.initial_state();
  }
  [[nodiscard]] stoneage::symbol display(
      stoneage::state_id state) const override {
    return machine_.beeps(state) ? 1 : 0;
  }
  [[nodiscard]] bool is_leader(stoneage::state_id state) const override {
    return machine_.is_leader(state);
  }
  [[nodiscard]] stoneage::state_id transition(
      stoneage::state_id state, std::span<const std::uint32_t> counts,
      support::rng& rng) const override {
    const bool heard = machine_.beeps(state) || counts[1] > 0;
    return heard ? machine_.delta_top(state, rng)
                 : machine_.delta_bot(state, rng);
  }
  [[nodiscard]] std::string state_name(
      stoneage::state_id state) const override {
    return machine_.state_name(state);
  }
  [[nodiscard]] std::string name() const override { return "wide-stone"; }
  [[nodiscard]] const beeping::state_machine* beep_machine() const override {
    return &machine_;
  }

 private:
  core::timeout_bfw_machine machine_;
};

TEST(TiledStoneAgeTest, Over64StateMachineFallsBackToCensusPath) {
  const wide_stone_automaton automaton;
  ASSERT_GT(automaton.state_count(), 256U);
  const auto g = graph::make_grid(4, 4);
  stoneage::engine sim(g, automaton, 1, 3);  // must not throw
  EXPECT_FALSE(sim.fast_path_active());
  sim.run_rounds(20);
  EXPECT_EQ(sim.round(), 20U);
}

TEST(LazyStateTest, StoneAgeFastRoundsAreLazyToo) {
  const core::bfw_stone_automaton automaton(0.5);
  const auto g = graph::make_grid(8, 8);
  stoneage::engine sim(g, automaton, 1, 25);
  ASSERT_TRUE(sim.fast_path_active());
  sim.run_rounds(40);
  EXPECT_EQ(sim.state_materializations(), 0U)
      << "stone-age plane rounds wrote the state vector eagerly";
  stoneage::engine ref(g, automaton, 1, 25);
  ref.set_fast_path_enabled(false);
  ref.run_rounds(40);
  EXPECT_EQ(sim.states(), ref.states());
  EXPECT_EQ(sim.state_materializations(), 1U);
}

}  // namespace
}  // namespace beepkit
