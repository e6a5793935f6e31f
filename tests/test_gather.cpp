// Differential tests for the word-parallel heard-gather kernels and
// the generalized plane gear:
//
//  * every gather kernel (stencil, word-CSR push, packed-row pull, and
//    the legacy single-bit pull) must produce bit-identical runs -
//    same state trajectories, same ledgers, same generator draws - on
//    path/ring/grid/torus/complete at word-boundary sizes
//    {63, 64, 65, 128}, with reception noise and under Section-5
//    adversarial injections;
//  * Timeout-BFW with T > 3 must run in the word-parallel plane gear
//    (bit-sliced patience counters) instead of falling back to the
//    O(n) sparse sweep, and stay draw-for-draw identical to the
//    virtual path;
//  * the word-CSR layout itself must agree with the adjacency, must be
//    built once per graph however many engines and threads bind to it,
//    and the topology tags that arm the stencil kernels must round-trip
//    through graph::io (with lying tags rejected).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/convergence.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/gather.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/word_csr.hpp"
#include "stoneage/stoneage.hpp"

namespace beepkit {
namespace {

using beeping::engine;
using beeping::fsm_protocol;
using beeping::noise_model;
using beeping::state_id;
using graph::gather_kernel;

struct graph_case {
  std::string label;
  graph::graph g;
};

/// path/ring/grid/torus/complete at word-boundary node counts
/// {63, 64, 65, 128} (grid/torus via factorizations of those counts).
std::vector<graph_case> stencil_boundary_graphs() {
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

/// Kernels applicable to `g` (stencil only on tagged graphs; the
/// packed pull is force-buildable everywhere).
std::vector<gather_kernel> applicable_kernels(const graph::graph& g) {
  std::vector<gather_kernel> kernels = {
      gather_kernel::word_csr_push, gather_kernel::packed_pull,
      gather_kernel::legacy_pull};
  if (g.topology_tag().has_value()) {
    kernels.insert(kernels.begin(), gather_kernel::stencil);
  }
  return kernels;
}

/// Runs `rounds` rounds of `machine` on `g` under the forced `kernel`
/// and compares the full trace against a reference engine running the
/// scalar byte-array step: states after every round, leader counts,
/// cumulative beep counts, and the next raw draw of every stream.
void expect_kernel_matches_reference(const graph::graph& g,
                                     const beeping::state_machine& machine,
                                     gather_kernel kernel, std::uint64_t seed,
                                     int rounds, const noise_model& noise,
                                     const std::string& label) {
  fsm_protocol proto(machine);
  fsm_protocol ref_proto(machine);
  engine sim(g, proto, seed, noise);
  engine ref(g, ref_proto, seed, noise);
  sim.set_gather_kernel(kernel);
  for (int round = 0; round < rounds; ++round) {
    sim.step();
    ref.step_reference();
    ASSERT_EQ(proto.states(), ref_proto.states())
        << label << " diverged at round " << round;
    ASSERT_EQ(sim.leader_count(), ref.leader_count()) << label;
  }
  if (g.topology_tag().has_value() || kernel != gather_kernel::stencil) {
    EXPECT_EQ(sim.gather_kernel_used(), kernel) << label;
  }
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(sim.beep_count(u), ref.beep_count(u))
        << label << " ledger mismatch at node " << u;
  }
  EXPECT_EQ(sim.total_coins_consumed(), ref.total_coins_consumed()) << label;
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(sim.node_rng(u).next_u64(), ref.node_rng(u).next_u64())
        << label << " generator diverged at node " << u;
  }
}

TEST(GatherKernelDifferentialTest, AllKernelsMatchReferenceOnAllTopologies) {
  const core::bfw_machine machine(0.5);
  for (const auto& c : stencil_boundary_graphs()) {
    for (const gather_kernel kernel : applicable_kernels(c.g)) {
      expect_kernel_matches_reference(
          c.g, machine, kernel, 321, 160, {},
          c.label + "/kernel" + std::to_string(static_cast<int>(kernel)));
    }
  }
}

TEST(GatherKernelDifferentialTest, KernelsMatchUnderReceptionNoise) {
  const core::bfw_machine machine(0.5);
  const noise_model noise{0.1, 0.05};
  for (const auto& c : stencil_boundary_graphs()) {
    for (const gather_kernel kernel : applicable_kernels(c.g)) {
      expect_kernel_matches_reference(
          c.g, machine, kernel, 77, 120, noise,
          c.label + "/noisy" + std::to_string(static_cast<int>(kernel)));
    }
  }
}

TEST(GatherKernelDifferentialTest, KernelsMatchUnderAdversarialInjections) {
  // Section-5 configurations injected mid-run via set_states +
  // restart_from_protocol, then compared kernel vs reference.
  const core::bfw_machine machine(0.5);
  struct injection {
    std::string label;
    graph::graph g;
    std::vector<state_id> states;
  };
  std::vector<injection> cases;
  cases.push_back({"two-leaders-path128", graph::make_path(128),
                   core::two_leaders_at_path_ends(128)});
  cases.push_back({"leaderless-wave-cycle64", graph::make_cycle(64),
                   core::leaderless_wave_on_cycle(64)});
  support::rng seeder(3);
  cases.push_back({"random-leaders-grid8x8", graph::make_grid(8, 8),
                   core::random_leader_configuration(64, 5, seeder)});
  for (auto& c : cases) {
    for (const gather_kernel kernel : applicable_kernels(c.g)) {
      fsm_protocol proto(machine);
      fsm_protocol ref_proto(machine);
      engine sim(c.g, proto, 11);
      engine ref(c.g, ref_proto, 11);
      sim.set_gather_kernel(kernel);
      sim.run_rounds(40);
      ref.run_rounds(40);
      proto.set_states(c.states);
      ref_proto.set_states(c.states);
      sim.restart_from_protocol();
      ref.restart_from_protocol();
      for (int round = 0; round < 160; ++round) {
        sim.step();
        ref.step_reference();
        ASSERT_EQ(proto.states(), ref_proto.states())
            << c.label << "/kernel" << static_cast<int>(kernel)
            << " diverged at round " << round;
      }
      for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
        ASSERT_EQ(sim.beep_count(u), ref.beep_count(u)) << c.label;
      }
    }
  }
}

TEST(GatherKernelTest, StencilRequiresTopologyTag) {
  const core::bfw_machine machine(0.5);
  const auto untagged = graph::make_complete_binary_tree(16);
  ASSERT_FALSE(untagged.topology_tag().has_value());
  fsm_protocol proto(machine);
  engine sim(untagged, proto, 1);
  EXPECT_THROW(sim.set_gather_kernel(gather_kernel::stencil),
               std::invalid_argument);
  // auto_select and the adjacency kernels still work.
  sim.set_gather_kernel(gather_kernel::word_csr_push);
  sim.step();
  sim.set_gather_kernel(gather_kernel::auto_select);
  sim.step();
}

// --- degenerate stencil shapes (word-boundary + geometry corners) ---

TEST(DegenerateStencilTest, OneRowAndOneColumnGridsMatchReference) {
  // 1xm and mx1 grids are paths in disguise (the generator retags
  // them); the stencil must agree with the scalar reference at and
  // across word boundaries.
  const core::bfw_machine machine(0.5);
  struct shape {
    std::size_t rows, cols;
  };
  for (const shape s : {shape{1, 7}, shape{1, 64}, shape{1, 65},
                        shape{9, 1}, shape{64, 1}, shape{127, 1}}) {
    const auto g = graph::make_grid(s.rows, s.cols);
    ASSERT_TRUE(g.topology_tag().has_value()) << g.name();
    EXPECT_EQ(g.topology_tag()->shape, graph::topology::kind::path)
        << g.name();
    expect_kernel_matches_reference(g, machine, gather_kernel::stencil, 91,
                                    100, {}, g.name());
  }
}

TEST(DegenerateStencilTest, SmallRingsAndToriMatchReference) {
  // n < 64: the whole topology lives in one word, so every wrap shift
  // folds back into the word it came from.
  const core::bfw_machine machine(0.5);
  std::vector<graph_case> cases;
  for (const std::size_t n : {3U, 4U, 5U, 63U}) {
    cases.push_back({"ring" + std::to_string(n), graph::make_cycle(n)});
  }
  cases.push_back({"torus3x3", graph::make_torus(3, 3)});
  cases.push_back({"torus3x4", graph::make_torus(3, 4)});
  cases.push_back({"torus4x3", graph::make_torus(4, 3)});
  cases.push_back({"torus3x7", graph::make_torus(3, 7)});
  for (const auto& c : cases) {
    for (const gather_kernel kernel : applicable_kernels(c.g)) {
      expect_kernel_matches_reference(
          c.g, machine, kernel, 17, 120, {},
          c.label + "/kernel" + std::to_string(static_cast<int>(kernel)));
    }
  }
}

TEST(DegenerateStencilTest, SingleNodeAndTinyPaths) {
  const core::bfw_machine machine(0.5);
  for (const std::size_t n : {1U, 2U, 3U}) {
    const auto g = graph::make_path(n);
    for (const gather_kernel kernel : applicable_kernels(g)) {
      expect_kernel_matches_reference(
          g, machine, kernel, 5, 60, {},
          g.name() + "/kernel" + std::to_string(static_cast<int>(kernel)));
    }
  }
}

TEST(DegenerateStencilTest, FailedPreconditionsFallBackToCsrCleanly) {
  // Hand-tagged geometries the stencil cannot express must degrade to
  // the adjacency kernels - not compute a wrong heard set, not throw
  // on auto-selection.
  struct bad_tag {
    std::string label;
    graph::graph g;
    graph::topology tag;
  };
  std::vector<bad_tag> cases;
  cases.push_back({"torus2x4", graph::make_grid(2, 4),
                   {graph::topology::kind::torus, 2, 4}});
  cases.push_back({"ring2", graph::make_path(2),
                   {graph::topology::kind::ring, 1, 2}});
  cases.push_back({"grid-wrong-size", graph::make_path(6),
                   {graph::topology::kind::grid, 2, 4}});
  cases.push_back({"path-multirow", graph::make_path(6),
                   {graph::topology::kind::path, 2, 3}});
  const core::bfw_machine machine(0.5);
  for (auto& c : cases) {
    c.g.set_topology_tag(c.tag);
    graph::heard_gather gather(c.g);
    EXPECT_FALSE(gather.stencil_available()) << c.label;
    fsm_protocol proto(machine);
    engine sim(c.g, proto, 9);
    EXPECT_THROW(sim.set_gather_kernel(gather_kernel::stencil),
                 std::invalid_argument)
        << c.label;
    // Auto-selection ignores the unusable tag and must stay exact
    // (the CSR kernels read the true adjacency, not the tag).
    fsm_protocol ref_proto(machine);
    engine ref(c.g, ref_proto, 9);
    for (int round = 0; round < 40; ++round) {
      sim.step();
      ref.step_reference();
      ASSERT_EQ(proto.states(), ref_proto.states()) << c.label;
    }
    EXPECT_NE(sim.gather_kernel_used(), gather_kernel::stencil) << c.label;
  }
}

TEST(GatherKernelTest, TaggedTopologiesAutoSelectStencil) {
  const core::bfw_machine machine(0.5);
  for (auto make :
       {+[] { return graph::make_path(65); },
        +[] { return graph::make_cycle(65); },
        +[] { return graph::make_grid(5, 13); },
        +[] { return graph::make_torus(5, 13); }}) {
    const auto g = make();
    fsm_protocol proto(machine);
    engine sim(g, proto, 5);
    sim.run_rounds(3);
    EXPECT_EQ(sim.gather_kernel_used(), gather_kernel::stencil) << g.name();
  }
}

// --- Timeout-BFW in the plane gear (bit-sliced patience counters) ---

TEST(TimeoutBfwPlaneGearTest, LargeTimeoutRunsWordParallel) {
  // T in {5, 9} gives 10 and 14 states - beyond the old 8-state plane
  // cap. The bit-sliced counters must keep all rounds after the first
  // in the plane gear (every waiting follower is "active", so the
  // engine must never fall back to the O(n) sparse sweep), and the run
  // must stay draw-for-draw identical to the virtual dispatch path.
  for (const std::uint32_t timeout : {5U, 9U}) {
    const core::timeout_bfw_machine machine(0.5, timeout);
    for (const auto& c :
         {graph_case{"path65", graph::make_path(65)},
          graph_case{"grid8x16", graph::make_grid(8, 16)},
          graph_case{"ring63", graph::make_cycle(63)},
          graph_case{"torus8x8", graph::make_torus(8, 8)}}) {
      fsm_protocol fast_proto(machine);
      fsm_protocol ref_proto(machine);
      engine fast(c.g, fast_proto, 17);
      engine ref(c.g, ref_proto, 17);
      ref.set_fast_path_enabled(false);
      ASSERT_TRUE(fast.plane_capable()) << c.label;
      constexpr int rounds = 300;
      for (int round = 0; round < rounds; ++round) {
        fast.step();
        ref.step();
        ASSERT_EQ(fast_proto.states(), ref_proto.states())
            << c.label << " T=" << timeout << " diverged at round " << round;
        ASSERT_EQ(fast.leader_count(), ref.leader_count()) << c.label;
      }
      // Every round past the first must have run word-parallel (the
      // hysteresis needs one round to observe the dense active set).
      EXPECT_GE(fast.plane_rounds(), static_cast<std::uint64_t>(rounds - 1))
          << c.label << " T=" << timeout;
      for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
        ASSERT_EQ(fast.beep_count(u), ref.beep_count(u)) << c.label;
      }
      EXPECT_EQ(fast.total_coins_consumed(), ref.total_coins_consumed());
      for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
        ASSERT_EQ(fast.node_rng(u).next_u64(), ref.node_rng(u).next_u64())
            << c.label << " generator diverged at node " << u;
      }
    }
  }
}

TEST(TimeoutBfwPlaneGearTest, DeadConfigurationRecoveryIdentical) {
  // The all-followers dead network exercises the patience counters
  // from every phase simultaneously (the Section-5 recovery scenario).
  const core::timeout_bfw_machine machine(0.5, 9);
  const auto g = graph::make_cycle(65);
  fsm_protocol fast_proto(machine);
  fsm_protocol ref_proto(machine);
  engine fast(g, fast_proto, 23);
  engine ref(g, ref_proto, 23);
  ref.set_fast_path_enabled(false);
  fast_proto.set_states(machine.dead_configuration(65));
  ref_proto.set_states(machine.dead_configuration(65));
  fast.restart_from_protocol();
  ref.restart_from_protocol();
  for (int round = 0; round < 400; ++round) {
    fast.step();
    ref.step();
    ASSERT_EQ(fast_proto.states(), ref_proto.states())
        << "diverged at round " << round;
  }
  EXPECT_GT(fast.plane_rounds(), 0U);
  EXPECT_EQ(fast.total_coins_consumed(), ref.total_coins_consumed());
}

// --- Dirty-word observer ledger ---

namespace {
struct count_probe final : beeping::observer {
  std::vector<std::uint64_t> last_counts;
  std::uint64_t rounds_seen = 0;
  void on_round(const beeping::round_view& view) override {
    const auto counts = view.beep_counts();
    last_counts.assign(counts.begin(), counts.end());
    ++rounds_seen;
  }
};
}  // namespace

TEST(DirtyLedgerTest, ObserverCountsExactEveryRoundInPlaneMode) {
  // An attached observer forces the beep-count materialization every
  // round; the dirty-word fold must keep the counts exact while the
  // plane gear banks increments in the bit-sliced sidecar.
  const core::bfw_machine machine(0.5);
  const auto g = graph::make_grid(8, 16);
  fsm_protocol proto(machine);
  fsm_protocol ref_proto(machine);
  engine sim(g, proto, 99);
  engine ref(g, ref_proto, 99);
  ref.set_fast_path_enabled(false);
  count_probe probe;
  count_probe ref_probe;
  sim.add_observer(&probe);
  ref.add_observer(&ref_probe);
  for (int round = 0; round < 250; ++round) {
    sim.step();
    ref.step();
    ASSERT_EQ(probe.last_counts, ref_probe.last_counts)
        << "ledger diverged at round " << round;
  }
  EXPECT_GT(sim.plane_rounds(), 0U);  // the plane gear actually ran
}

TEST(DirtyLedgerTest, LateAttachSeesExactCounts) {
  // Counts banked across many plane rounds must fold correctly when
  // the first observer (or a direct beep_counts() call) arrives late.
  const core::timeout_bfw_machine machine(0.5, 5);
  const auto g = graph::make_path(128);
  fsm_protocol proto(machine);
  fsm_protocol ref_proto(machine);
  engine sim(g, proto, 7);
  engine ref(g, ref_proto, 7);
  ref.set_fast_path_enabled(false);
  sim.run_rounds(300);
  ref.run_rounds(300);
  const auto counts = sim.beep_counts();
  const auto ref_counts = ref.beep_counts();
  ASSERT_EQ(counts.size(), ref_counts.size());
  for (std::size_t u = 0; u < counts.size(); ++u) {
    ASSERT_EQ(counts[u], ref_counts[u]) << "node " << u;
  }
}

// --- word-CSR layout ---

// The standalone layout and the graph-owned one engines borrow must
// both cover exactly the adjacency. Then engines bound concurrently on
// one untagged graph that was never gathered: every run equals the
// serial run on a separate graph, and every engine borrows the one
// layout the graph built (same address from every thread). CI runs
// this test under TSan.
TEST(WordCsrTest, EntriesCoverExactlyTheAdjacency) {
  support::rng rng(5);
  const auto g = graph::make_erdos_renyi_connected(97, 0.08, rng);
  const auto expect_covers = [&g](const graph::word_csr& csr) {
    ASSERT_EQ(csr.node_count(), g.node_count());
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      const auto words = csr.entry_words(u);
      const auto masks = csr.entry_masks(u);
      ASSERT_EQ(words.size(), masks.size());
      // Reconstruct the neighbor set from the (word, mask) pairs.
      std::vector<graph::node_id> neighbors;
      for (std::size_t k = 0; k < words.size(); ++k) {
        if (k > 0) EXPECT_LT(words[k - 1], words[k]);  // sorted, deduped
        std::uint64_t mask = masks[k];
        EXPECT_NE(mask, 0U);
        while (mask != 0) {
          neighbors.push_back(static_cast<graph::node_id>(
              (static_cast<std::uint64_t>(words[k]) << 6) +
              static_cast<std::size_t>(std::countr_zero(mask))));
          mask &= mask - 1;
        }
      }
      const auto expected = g.neighbors(u);
      ASSERT_EQ(neighbors.size(), expected.size()) << "node " << u;
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        EXPECT_EQ(neighbors[k], expected[k]) << "node " << u;
      }
    }
  };
  expect_covers(graph::word_csr(g));
  expect_covers(g.word_layout());

  const core::bfw_machine machine(0.5);
  constexpr std::uint64_t seeds = 6;
  struct outcome_key {
    std::uint64_t rounds = 0;
    graph::node_id leader = 0;
    std::uint64_t coins = 0;
    gather_kernel kernel = gather_kernel::auto_select;
    bool operator==(const outcome_key&) const = default;
  };
  const auto run = [&](const graph::graph& on, std::uint64_t seed) {
    const auto outcome = core::run_election(on, machine, seed, {});
    return outcome_key{outcome.rounds, outcome.leader, outcome.total_coins,
                       outcome.gather_kernel};
  };
  for (graph::graph (*make)() :
       {+[] { return graph::make_complete(64); },
        +[] { return graph::make_star(1024); }}) {
    const graph::graph serial_graph = make();
    const graph::graph shared = make();
    ASSERT_FALSE(shared.topology_tag().has_value());
    std::vector<outcome_key> serial;
    for (std::uint64_t s = 1; s <= seeds; ++s) {
      serial.push_back(run(serial_graph, s));
    }
    constexpr std::size_t threads = 4;
    std::vector<std::vector<outcome_key>> results(threads);
    std::vector<const graph::word_csr*> seen(threads, nullptr);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::uint64_t s = 1; s <= seeds; ++s) {
          results[t].push_back(run(shared, s));
        }
        seen[t] = &shared.word_layout();
      });
    }
    for (std::thread& worker : pool) worker.join();
    for (std::size_t t = 0; t < threads; ++t) {
      ASSERT_EQ(results[t], serial) << shared.name() << " thread " << t;
      EXPECT_EQ(seen[t], &shared.word_layout()) << shared.name();
    }
    // Copies share the layout too.
    const graph::graph copy = shared;
    EXPECT_EQ(&copy.word_layout(), &shared.word_layout());
  }
}

TEST(WordCsrTest, PackedRowsMatchAdjacency) {
  const auto g = graph::make_complete(65);
  graph::word_csr csr(g);
  EXPECT_TRUE(graph::word_csr::packed_rows_worthwhile(g));
  csr.build_packed_rows(g);
  ASSERT_TRUE(csr.packed_rows_built());
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    const std::uint64_t* row = csr.packed_row(u);
    for (graph::node_id v = 0; v < g.node_count(); ++v) {
      const bool bit = (row[v >> 6] >> (v & 63)) & 1ULL;
      EXPECT_EQ(bit, g.has_edge(u, v)) << u << "," << v;
    }
  }
}

TEST(WordCsrTest, PackedRowsNotWorthwhileOnSparseGraphs) {
  EXPECT_FALSE(
      graph::word_csr::packed_rows_worthwhile(graph::make_path(4096)));
  EXPECT_FALSE(
      graph::word_csr::packed_rows_worthwhile(graph::make_grid(64, 64)));
  EXPECT_TRUE(graph::word_csr::packed_rows_worthwhile(graph::make_complete(64)));

  // The layout is graph-owned, so forcing packed rows through one
  // engine must not change another engine's auto-selected kernel (or
  // its audit field) on the same graph: dense rounds keep asking the
  // heuristic, exactly as on a graph nobody forced.
  const core::bfw_machine machine(0.5);
  const auto tree = graph::make_complete_binary_tree(255);
  const auto untouched = graph::make_complete_binary_tree(255);
  ASSERT_FALSE(graph::word_csr::packed_rows_worthwhile(tree));
  fsm_protocol forced_proto(machine);
  engine forced(tree, forced_proto, 3);
  forced.set_gather_kernel(gather_kernel::packed_pull);
  forced.step();
  EXPECT_EQ(forced.gather_kernel_used(), gather_kernel::packed_pull);
  // Start both from an all-beeping configuration: a dense round the
  // heuristic leaves to the legacy pull on this sparse graph.
  state_id beeping = 0;
  while (!machine.beeps(beeping)) ++beeping;
  const std::vector<state_id> dense(tree.node_count(), beeping);
  fsm_protocol shared_proto(machine);
  fsm_protocol alone_proto(machine);
  engine shared(tree, shared_proto, 3);
  engine alone(untouched, alone_proto, 3);
  shared_proto.set_states(dense);
  alone_proto.set_states(dense);
  shared.restart_from_protocol();
  alone.restart_from_protocol();
  for (int round = 0; round < 20; ++round) {
    shared.step();
    alone.step();
    ASSERT_EQ(shared.gather_kernel_used(), alone.gather_kernel_used())
        << "round " << round;
    if (round == 0) {
      EXPECT_EQ(shared.gather_kernel_used(), gather_kernel::legacy_pull);
    }
  }
}


// --- Topology tags: generators + io round-trip ---

TEST(TopologyTagTest, GeneratorsTagStructuredTopologies) {
  using graph::topology;
  const auto path = graph::make_path(17);
  ASSERT_TRUE(path.topology_tag().has_value());
  EXPECT_EQ(path.topology_tag()->shape, topology::kind::path);
  EXPECT_EQ(path.topology_tag()->cols, 17U);

  const auto ring = graph::make_cycle(9);
  ASSERT_TRUE(ring.topology_tag().has_value());
  EXPECT_EQ(ring.topology_tag()->shape, topology::kind::ring);

  const auto grid = graph::make_grid(4, 6);
  ASSERT_TRUE(grid.topology_tag().has_value());
  EXPECT_EQ(grid.topology_tag()->shape, topology::kind::grid);
  EXPECT_EQ(grid.topology_tag()->rows, 4U);
  EXPECT_EQ(grid.topology_tag()->cols, 6U);

  const auto torus = graph::make_torus(3, 5);
  ASSERT_TRUE(torus.topology_tag().has_value());
  EXPECT_EQ(torus.topology_tag()->shape, topology::kind::torus);

  // Degenerate grids normalize to paths (so the path stencil applies).
  const auto row = graph::make_grid(1, 8);
  ASSERT_TRUE(row.topology_tag().has_value());
  EXPECT_EQ(row.topology_tag()->shape, topology::kind::path);
  const auto col = graph::make_grid(8, 1);
  ASSERT_TRUE(col.topology_tag().has_value());
  EXPECT_EQ(col.topology_tag()->shape, topology::kind::path);

  // Unstructured generators stay untagged.
  EXPECT_FALSE(graph::make_complete(8).topology_tag().has_value());
  EXPECT_FALSE(graph::make_star(8).topology_tag().has_value());
}

TEST(TopologyTagTest, EdgeListRoundTripPreservesTag) {
  for (auto make :
       {+[] { return graph::make_path(9); },
        +[] { return graph::make_cycle(9); },
        +[] { return graph::make_grid(3, 4); },
        +[] { return graph::make_torus(3, 4); }}) {
    const auto g = make();
    const auto reloaded = graph::from_edge_list(graph::to_edge_list(g));
    ASSERT_TRUE(reloaded.topology_tag().has_value()) << g.name();
    EXPECT_EQ(*reloaded.topology_tag(), *g.topology_tag()) << g.name();
    EXPECT_EQ(reloaded.edges(), g.edges()) << g.name();
  }
}

TEST(TopologyTagTest, UntaggedGraphsRoundTripUntagged) {
  const auto g = graph::make_complete(6);
  const std::string text = graph::to_edge_list(g);
  EXPECT_EQ(text.find("topology"), std::string::npos);
  EXPECT_FALSE(graph::from_edge_list(text).topology_tag().has_value());
}

TEST(TopologyTagTest, LyingTagIsRejected) {
  // A grid tag glued onto a star's edge list must not arm the stencil.
  const auto star = graph::make_star(12);
  std::string text = graph::to_edge_list(star);
  const auto header_end = text.find('\n', text.find("n "));
  text.insert(header_end + 1, "topology grid 3 4\n");
  EXPECT_THROW((void)graph::from_edge_list(text), std::invalid_argument);
}

TEST(TopologyTagTest, InvalidTagParametersRejected) {
  EXPECT_THROW((void)graph::from_edge_list("n 2\ntopology ring 1 2\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)graph::from_edge_list("n 4\ntopology blob 2 2\n0 1\n"),
               std::invalid_argument);
}

TEST(TopologyTagTest, StrippedTagLoadsUntaggedButValid) {
  // Explicitly stripping the tag (set_topology_tag(nullopt)) is the
  // sanctioned way to serialize a structured graph without stencil
  // eligibility.
  auto g = graph::make_grid(3, 4);
  g.set_topology_tag(std::nullopt);
  const std::string text = graph::to_edge_list(g);
  EXPECT_EQ(text.find("topology"), std::string::npos);
  const auto reloaded = graph::from_edge_list(text);
  EXPECT_FALSE(reloaded.topology_tag().has_value());
  EXPECT_EQ(reloaded.edges(), g.edges());
}

// --- Stone-age engine on the shared gather ---

TEST(StoneAgeGatherTest, ForcedKernelsMatchVirtualPath) {
  const core::bfw_stone_automaton automaton(0.5);
  const auto g = graph::make_grid(8, 8);
  for (const gather_kernel kernel :
       {gather_kernel::stencil, gather_kernel::word_csr_push,
        gather_kernel::packed_pull, gather_kernel::legacy_pull}) {
    stoneage::engine fast(g, automaton, 1, 21);
    stoneage::engine ref(g, automaton, 1, 21);
    fast.set_gather_kernel(kernel);
    ref.set_fast_path_enabled(false);
    for (int round = 0; round < 200; ++round) {
      fast.step();
      ref.step();
      ASSERT_EQ(fast.states(), ref.states())
          << "kernel " << static_cast<int>(kernel) << " diverged at round "
          << round;
      ASSERT_EQ(fast.leader_count(), ref.leader_count());
    }
  }
}

TEST(StoneAgeGatherTest, GenericAutomatonRejectsKernelForcing) {
  // Without a beep_machine() hook there is no packed gather to force.
  class plain_automaton final : public stoneage::automaton {
   public:
    [[nodiscard]] std::size_t state_count() const override { return 1; }
    [[nodiscard]] std::size_t alphabet_size() const override { return 2; }
    [[nodiscard]] stoneage::state_id initial_state() const override {
      return 0;
    }
    [[nodiscard]] stoneage::symbol display(stoneage::state_id) const override {
      return 0;
    }
    [[nodiscard]] bool is_leader(stoneage::state_id) const override {
      return false;
    }
    [[nodiscard]] stoneage::state_id transition(
        stoneage::state_id state, std::span<const std::uint32_t>,
        support::rng&) const override {
      return state;
    }
    [[nodiscard]] std::string state_name(stoneage::state_id) const override {
      return "s";
    }
    [[nodiscard]] std::string name() const override { return "plain"; }
  };
  const plain_automaton automaton;
  stoneage::engine sim(graph::make_path(8), automaton, 1, 3);
  EXPECT_THROW(sim.set_gather_kernel(gather_kernel::word_csr_push),
               std::logic_error);
}

}  // namespace
}  // namespace beepkit
