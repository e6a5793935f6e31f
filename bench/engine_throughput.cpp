// E11 - engine throughput (google-benchmark): node-rounds per second
// of the synchronous beeping engine across topology shapes and sizes,
// plus the stone-age engine and the invariant-checker overhead. This
// is the "laptop-scale pure-algorithm build" sanity check: all paper
// experiments run in seconds.
//
// Four columns per topology measure the dispatch tiers:
//   * plain suites (BM_BfwOnPath, ...) - the default engine behaviour,
//     which now dispatches plane rounds to the beepc-compiled kernel
//     (the label's kernel= component names it, with batch width and
//     SIMD ISA);
//   * *Interpreted suites - the interpreted plane gear
//     (engine::set_compiled_kernel_enabled(false)), so the
//     compiled/interpreted ratio is read straight off the report;
//   * *Virtual suites - the packed sweeps with per-node virtual
//     dispatch (engine::set_fast_path_enabled(false)), i.e. the
//     pre-fast-path engine;
//   * *Reference suites - the original scalar byte-array step (kept as
//     engine::step_reference).
// BM_BfwOnGridCompiledWidth sweeps the kernel batch width (1/2/4/8
// words per vector op) on one fixed instance.
// The RunTrials suite measures the parallel Monte-Carlo runner's
// trials-per-second scaling across worker counts. The observer rows
// price round views: BM_NoopObserverOnGrid attaches an observer that
// reads nothing, BM_WaveTrackerOnPath the Section-5 wave tracker on its
// two-leader path, and BM_BfwWithInvariantChecker the Section-3
// checker. BM_IdBroadcastOn* and BM_CliqueLotteryOnComplete price the
// Table 1 baselines' rounds.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "analysis/experiment.hpp"
#include "analysis/wave_tracker.hpp"
#include "baselines/clique_lottery.hpp"
#include "baselines/id_broadcast.hpp"
#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "core/invariants.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"
#include "stoneage/stoneage.hpp"
#include "support/build_info.hpp"
#include "support/simd.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace beepkit;

// Audit label: which round kernel (beepc-compiled name, batch width and
// SIMD ISA, or "interpreted") and gather kernel the run actually used,
// plus the tile/thread configuration, so a perf report line is
// self-describing (Satellite: auditable perf runs).
std::string round_kernel_label(bool compiled_active,
                               const std::string& compiled_name,
                               std::size_t width) {
  if (!compiled_active) return "interpreted";
  return compiled_name + ":w" + std::to_string(width) + ":" +
         support::simd::isa_name();
}

void set_exec_label(benchmark::State& state, const beeping::engine& sim) {
  state.SetLabel(
      "kernel=" + round_kernel_label(sim.compiled_kernel_active(),
                                     sim.compiled_kernel_name(),
                                     sim.compiled_width()) +
      " gather=" + graph::gather_kernel_name(sim.gather_kernel_used()) +
      " threads=" + std::to_string(sim.parallel_threads()) +
      " tile=" + std::to_string(sim.tile_words()));
}

void run_bfw_rounds(benchmark::State& state, const graph::graph& g,
                    std::size_t threads = 1, std::size_t tile_words = 0,
                    bool compiled = true, std::size_t width = 0) {
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  if (threads != 1 || tile_words != 0) {
    sim.set_parallelism(threads, tile_words);
  }
  if (!compiled) sim.set_compiled_kernel_enabled(false);
  if (width != 0) sim.set_compiled_width(width);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
  set_exec_label(state, sim);
}

// XL rows additionally report per-round latency percentiles alongside
// the throughput rate: stride-1 sampling into the engine's round_ns
// histogram, surfaced as round_ns_p50 / round_ns_p99 counters so a
// report line shows tail latency (tile scheduling jitter) and not just
// the mean. The probes are restored afterwards, so no other suite
// pays the sampling cost.
void run_bfw_rounds_latency(benchmark::State& state, const graph::graph& g,
                            std::size_t threads = 1,
                            std::size_t tile_words = 0) {
  namespace tel = support::telemetry;
  const bool was_enabled = tel::enabled();
  const std::uint64_t was_stride = tel::round_sample_stride();
  tel::set_enabled(true);
  tel::set_round_sample_stride(1);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  if (threads != 1 || tile_words != 0) {
    sim.set_parallelism(threads, tile_words);
  }
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
  if (tel::compiled_in) {
    const support::telemetry::log2_histogram& round_ns =
        sim.telemetry_metrics().round_ns;
    state.counters["round_ns_p50"] = round_ns.percentile(0.5);
    state.counters["round_ns_p99"] = round_ns.percentile(0.99);
  }
  tel::set_round_sample_stride(was_stride);
  tel::set_enabled(was_enabled);
  set_exec_label(state, sim);
}

// The packed engine with the table-driven fast path disabled: per-node
// virtual protocol::step/beeping/is_leader dispatch, exactly the
// pre-fast-path hot loop.
void run_bfw_rounds_virtual(benchmark::State& state, const graph::graph& g) {
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  sim.set_fast_path_enabled(false);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}

void run_bfw_rounds_reference(benchmark::State& state,
                              const graph::graph& g) {
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  for (auto _ : state) {
    sim.step_reference();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}

void BM_BfwOnPath(benchmark::State& state) {
  const auto g = graph::make_path(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnPath)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BfwOnGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnGrid)->Arg(16)->Arg(64)->Arg(256);

void BM_BfwOnComplete(benchmark::State& state) {
  const auto g =
      graph::make_complete(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnComplete)->Arg(64)->Arg(256)->Arg(1024);

void BM_BfwOnTree(benchmark::State& state) {
  const auto g = graph::make_complete_binary_tree(
      static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnTree)->Arg(256)->Arg(4096);

void BM_BfwOnPathVirtual(benchmark::State& state) {
  const auto g = graph::make_path(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds_virtual(state, g);
}
BENCHMARK(BM_BfwOnPathVirtual)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BfwOnGridVirtual(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_bfw_rounds_virtual(state, g);
}
BENCHMARK(BM_BfwOnGridVirtual)->Arg(16)->Arg(64)->Arg(256);

void BM_BfwOnCompleteVirtual(benchmark::State& state) {
  const auto g =
      graph::make_complete(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds_virtual(state, g);
}
BENCHMARK(BM_BfwOnCompleteVirtual)->Arg(64)->Arg(256)->Arg(1024);

void BM_BfwOnTreeVirtual(benchmark::State& state) {
  const auto g = graph::make_complete_binary_tree(
      static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds_virtual(state, g);
}
BENCHMARK(BM_BfwOnTreeVirtual)->Arg(256)->Arg(4096);

void BM_BfwOnPathReference(benchmark::State& state) {
  const auto g = graph::make_path(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds_reference(state, g);
}
BENCHMARK(BM_BfwOnPathReference)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BfwOnGridReference(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_bfw_rounds_reference(state, g);
}
BENCHMARK(BM_BfwOnGridReference)->Arg(16)->Arg(64)->Arg(256);

void BM_BfwOnCompleteReference(benchmark::State& state) {
  const auto g =
      graph::make_complete(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds_reference(state, g);
}
BENCHMARK(BM_BfwOnCompleteReference)->Arg(64)->Arg(256)->Arg(1024);

// The interpreted plane gear (compiled kernel off): the differential
// reference the compiled rows are measured against.
void BM_BfwOnPathInterpreted(benchmark::State& state) {
  const auto g = graph::make_path(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g, 1, 0, /*compiled=*/false);
}
BENCHMARK(BM_BfwOnPathInterpreted)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BfwOnGridInterpreted(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_bfw_rounds(state, g, 1, 0, /*compiled=*/false);
}
BENCHMARK(BM_BfwOnGridInterpreted)->Arg(16)->Arg(64)->Arg(256);

void BM_BfwOnCompleteInterpreted(benchmark::State& state) {
  const auto g =
      graph::make_complete(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g, 1, 0, /*compiled=*/false);
}
BENCHMARK(BM_BfwOnCompleteInterpreted)->Arg(64)->Arg(256)->Arg(1024);

void BM_BfwOnTreeInterpreted(benchmark::State& state) {
  const auto g = graph::make_complete_binary_tree(
      static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g, 1, 0, /*compiled=*/false);
}
BENCHMARK(BM_BfwOnTreeInterpreted)->Arg(256)->Arg(4096);

// Kernel batch-width sweep on one fixed instance: w words per vector
// op, so the width/ILP sweet spot of this machine is read off the
// report (preferred_width() is what the plain rows use).
void BM_BfwOnGridCompiledWidth(benchmark::State& state) {
  const auto g = graph::make_grid(64, 64);
  run_bfw_rounds(state, g, 1, 0, /*compiled=*/true,
                 static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_BfwOnGridCompiledWidth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BfwOnRandomRegular(benchmark::State& state) {
  support::rng rng(7);
  const auto g = graph::make_random_regular(
      static_cast<std::size_t>(state.range(0)), 4, rng);
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnRandomRegular)->Arg(256)->Arg(4096);

// Ring/torus: the wrap-around stencil kernels (make_cycle/make_torus
// tag their instances; the gather touches no adjacency at all).
void BM_BfwOnRing(benchmark::State& state) {
  const auto g = graph::make_cycle(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnRing)->Arg(256)->Arg(4096);

void BM_BfwOnRingVirtual(benchmark::State& state) {
  const auto g = graph::make_cycle(static_cast<std::size_t>(state.range(0)));
  run_bfw_rounds_virtual(state, g);
}
BENCHMARK(BM_BfwOnRingVirtual)->Arg(256)->Arg(4096);

void BM_BfwOnTorus(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_torus(side, side);
  run_bfw_rounds(state, g);
}
BENCHMARK(BM_BfwOnTorus)->Arg(16)->Arg(64);

void BM_BfwOnTorusVirtual(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_torus(side, side);
  run_bfw_rounds_virtual(state, g);
}
BENCHMARK(BM_BfwOnTorusVirtual)->Arg(16)->Arg(64);

// Table 1 baselines: the unique-ID beep-wave election and the clique
// lottery, which advance whole rounds through protocol::step_round.
// Elections run back to back on one engine: when the protocol's round
// budget is spent it is reset (same identifiers every time) and the
// engine restarts from it, so every timed round is a live one.
void run_baseline_rounds(benchmark::State& state, const graph::graph& g,
                         beeping::protocol& proto,
                         std::uint64_t rounds_per_run) {
  beeping::engine sim(g, proto, 42);
  for (auto _ : state) {
    if (sim.round() == rounds_per_run) {
      support::rng init(7);
      proto.reset(g.node_count(), init);
      sim.restart_from_protocol();
    }
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
  // No round kernel to name: the protocol advances the round itself.
  state.SetLabel("gather=" +
                 graph::gather_kernel_name(sim.gather_kernel_used()));
}

void run_id_broadcast_rounds(benchmark::State& state, const graph::graph& g) {
  baselines::id_broadcast_election proto(graph::diameter_exact(g));
  support::rng init(7);
  proto.reset(g.node_count(), init);
  run_baseline_rounds(state, g, proto, proto.termination_round());
}

void BM_IdBroadcastOnPath(benchmark::State& state) {
  run_id_broadcast_rounds(
      state, graph::make_path(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_IdBroadcastOnPath)->Arg(64);

void BM_IdBroadcastOnComplete(benchmark::State& state) {
  run_id_broadcast_rounds(
      state, graph::make_complete(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_IdBroadcastOnComplete)->Arg(64);

void BM_CliqueLotteryOnComplete(benchmark::State& state) {
  const auto g =
      graph::make_complete(static_cast<std::size_t>(state.range(0)));
  baselines::clique_lottery proto(0.01);
  support::rng init(7);
  proto.reset(g.node_count(), init);
  run_baseline_rounds(state, g, proto, proto.round_budget() + 1);
}
BENCHMARK(BM_CliqueLotteryOnComplete)->Arg(64);

// Timeout-BFW with T = 9 (14 states): every waiting follower ticks its
// patience every silent round, which the plane gear runs word-parallel
// (ripple-carry over the planes). The *Virtual row is the per-node
// dispatch reference.
void run_timeout_bfw_rounds(benchmark::State& state, const graph::graph& g,
                            bool fast, bool compiled = true) {
  const core::timeout_bfw_machine machine(0.5, 9);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  sim.set_fast_path_enabled(fast);
  if (!compiled) sim.set_compiled_kernel_enabled(false);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
  if (fast) set_exec_label(state, sim);
}

void BM_TimeoutBfwT9OnGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_timeout_bfw_rounds(state, g, true);
}
BENCHMARK(BM_TimeoutBfwT9OnGrid)->Arg(16)->Arg(64);

void BM_TimeoutBfwT9OnGridInterpreted(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_timeout_bfw_rounds(state, g, true, /*compiled=*/false);
}
BENCHMARK(BM_TimeoutBfwT9OnGridInterpreted)->Arg(16)->Arg(64);

void BM_TimeoutBfwT9OnGridVirtual(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_timeout_bfw_rounds(state, g, false);
}
BENCHMARK(BM_TimeoutBfwT9OnGridVirtual)->Arg(16)->Arg(64);

// Timeout-BFW with T = 80 (85 states, 7 planes, no compiled kernel)
// from the phantom-wave start of selfstab_timeout part (b): one beeping
// and one frozen follower on an otherwise dead cycle. Prices the
// interpreted plane sweep past 64 states. Not in the CI baseline gate.
void BM_TimeoutBfwWideOnCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_cycle(n);
  const core::timeout_bfw_machine machine(0.5, 80);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  auto initial = machine.dead_configuration(n);
  initial[0] = core::timeout_bfw_machine::follower_beep;
  initial[n - 1] = core::timeout_bfw_machine::follower_frozen;
  proto.set_states(initial);
  sim.restart_from_protocol();
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  set_exec_label(state, sim);
}
BENCHMARK(BM_TimeoutBfwWideOnCycle)->Arg(40)->Arg(1024);

// XL single-trial rows: the intra-trial tiled round pipeline
// (engine::set_parallelism) on instances big enough that one trial can
// use multiple cores - path(2^20) and grid(1024x1024), serial vs
// {2, 8} workers. Excluded from the CI baseline gate (scaling rows are
// hardware-dependent); the delta of interest is Tiled/ serial within
// one run.
void BM_BfwOnPathXL(benchmark::State& state) {
  const auto g = graph::make_path(std::size_t{1} << 20);
  run_bfw_rounds_latency(state, g);
}
BENCHMARK(BM_BfwOnPathXL);

void BM_BfwOnPathXLTiled(benchmark::State& state) {
  const auto g = graph::make_path(std::size_t{1} << 20);
  run_bfw_rounds(state, g, static_cast<std::size_t>(state.range(0)), 0);
}
BENCHMARK(BM_BfwOnPathXLTiled)->Arg(2)->Arg(8)->UseRealTime();

void BM_BfwOnGridXL(benchmark::State& state) {
  const auto g = graph::make_grid(1024, 1024);
  run_bfw_rounds_latency(state, g);
}
BENCHMARK(BM_BfwOnGridXL);

void BM_BfwOnGridXLTiled(benchmark::State& state) {
  const auto g = graph::make_grid(1024, 1024);
  run_bfw_rounds(state, g, static_cast<std::size_t>(state.range(0)), 0);
}
BENCHMARK(BM_BfwOnGridXLTiled)->Arg(2)->Arg(8)->UseRealTime();

// Implicit-view XL rows: the same geometries with no materialized
// adjacency and the giant engine config (lazy RNG cursors, pinned
// planes). The Implicit/materialized delta is the cost of the CSR the
// implicit view never builds; the Giant rows show the checkpointable
// 10^8-node regime at bench scale. Excluded from the CI baseline gate
// like the other XL rows.
void run_bfw_rounds_implicit(benchmark::State& state, graph::topology topo,
                             bool giant_config) {
  const auto view = graph::topology_view::implicit(topo);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(view, proto, 42, beeping::noise_model{},
                      giant_config ? beeping::engine_config::giant()
                                   : beeping::engine_config{});
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.node_count()));
  set_exec_label(state, sim);
}

void BM_BfwOnPathXLImplicit(benchmark::State& state) {
  run_bfw_rounds_implicit(
      state, {graph::topology::kind::path, 1, std::size_t{1} << 20}, false);
}
BENCHMARK(BM_BfwOnPathXLImplicit);

void BM_BfwOnGridXLImplicit(benchmark::State& state) {
  run_bfw_rounds_implicit(state, {graph::topology::kind::grid, 1024, 1024},
                          false);
}
BENCHMARK(BM_BfwOnGridXLImplicit);

void BM_BfwOnGridXLGiant(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  run_bfw_rounds_implicit(state, {graph::topology::kind::grid, side, side},
                          true);
}
BENCHMARK(BM_BfwOnGridXLGiant)->Arg(1024)->Arg(8192);

void run_stoneage_rounds(benchmark::State& state, const graph::graph& g,
                         bool compiled) {
  const core::bfw_stone_automaton automaton(0.5);
  stoneage::engine sim(g, automaton, 1, 42);
  if (!compiled) sim.set_compiled_kernel_enabled(false);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
  state.SetLabel(
      "kernel=" + round_kernel_label(sim.compiled_kernel_active(),
                                     sim.compiled_kernel_name(),
                                     sim.compiled_width()) +
      " gather=" + graph::gather_kernel_name(sim.gather_kernel_used()) +
      " threads=" + std::to_string(sim.parallel_threads()) +
      " tile=" + std::to_string(sim.tile_words()));
}

void BM_StoneAgeOnGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_stoneage_rounds(state, g, /*compiled=*/true);
}
BENCHMARK(BM_StoneAgeOnGrid)->Arg(16)->Arg(64);

void BM_StoneAgeOnGridInterpreted(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  run_stoneage_rounds(state, g, /*compiled=*/false);
}
BENCHMARK(BM_StoneAgeOnGridInterpreted)->Arg(16)->Arg(64);

void BM_StoneAgeOnGridVirtual(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  const core::bfw_stone_automaton automaton(0.5);
  stoneage::engine sim(g, automaton, 1, 42);
  sim.set_fast_path_enabled(false);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}
BENCHMARK(BM_StoneAgeOnGridVirtual)->Arg(16)->Arg(64);

void BM_BfwWithInvariantChecker(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  core::invariant_checker checker(g, proto, core::invariant_options{});
  sim.add_observer(&checker);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(checker.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}
BENCHMARK(BM_BfwWithInvariantChecker)->Arg(16)->Arg(64);

class noop_observer final : public beeping::observer {
 public:
  void on_round(const beeping::round_view& /*view*/) override {}
};

void BM_NoopObserverOnGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  noop_observer obs;
  sim.add_observer(&obs);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}
BENCHMARK(BM_NoopObserverOnGrid)->Arg(64);

// The Section-5 microscope: two leaders at the path ends with the wave
// tracker attached. When one leader dies, the next trial (new seed) is
// bound outside the timed region.
void BM_WaveTrackerOnPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_path(n);
  const core::bfw_machine machine(0.5);
  struct trial {
    beeping::fsm_protocol proto;
    beeping::engine sim;
    analysis::wave_crash_tracker tracker;
    trial(const graph::graph& g, const core::bfw_machine& machine,
          std::uint64_t seed)
        : proto(machine), sim(g, proto, seed), tracker(proto) {
      proto.set_states(core::two_leaders_at_path_ends(g.node_count()));
      sim.restart_from_protocol();
      sim.add_observer(&tracker);
    }
  };
  std::uint64_t seed = 42;
  auto t = std::make_unique<trial>(g, machine, seed);
  for (auto _ : state) {
    if (t->sim.leader_count() <= 1) {
      state.PauseTiming();
      t = std::make_unique<trial>(g, machine, ++seed);
      state.ResumeTiming();
    }
    t->sim.step();
    benchmark::DoNotOptimize(t->tracker.crashes().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WaveTrackerOnPath)->Arg(97);

void BM_FullElection(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_grid(side, side);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed++);
    const auto result = sim.run_until_single_leader(10000000);
    benchmark::DoNotOptimize(result.rounds);
  }
}
BENCHMARK(BM_FullElection)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Per-trial bind at the paper's sizes: each iteration constructs and
// destroys machine, fsm_protocol and engine, as every sweep trial does.
// The threads:4 row binds on four threads at once, so allocator costs
// that hit other cores (munmap TLB shootdowns) show up in its rate.
void BM_EngineBind(benchmark::State& state, graph::graph (*make)()) {
  const graph::graph g = make();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed++);
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EngineBind, grid8x8,
                  +[] { return graph::make_grid(8, 8); });
BENCHMARK_CAPTURE(BM_EngineBind, grid8x8,
                  +[] { return graph::make_grid(8, 8); })
    ->Threads(4)->UseRealTime();
BENCHMARK_CAPTURE(BM_EngineBind, path65, +[] { return graph::make_path(65); });
BENCHMARK_CAPTURE(BM_EngineBind, complete64,
                  +[] { return graph::make_complete(64); });
BENCHMARK_CAPTURE(BM_EngineBind, star1024,
                  +[] { return graph::make_star(1024); });

// The parallel Monte-Carlo runner: trials/sec and rounds/sec of
// analysis::run_trials at 1/2/4/8 workers on a fixed workload. The
// statistical output is bit-identical across rows (tested in
// tests/test_parallel.cpp); only the rate should move.
void BM_RunTrials(benchmark::State& state) {
  const auto inst = analysis::make_instance(graph::make_grid(16, 16));
  const auto algo = analysis::make_bfw(0.5);
  const auto horizon = 8 * core::default_horizon(inst.g, inst.diameter);
  const analysis::run_options opts{
      static_cast<std::size_t>(state.range(0))};
  constexpr std::size_t trials = 32;
  // Round accounting goes through the shared meter rather than a
  // bench-local accumulator, so this row and the CLI benches report
  // rounds/s from the exact same fold.
  analysis::throughput_meter meter;
  for (auto _ : state) {
    const auto stats = analysis::run_trials(inst.g, inst.diameter, algo,
                                            trials, 42, horizon, opts);
    meter.add(stats);
    benchmark::DoNotOptimize(stats.rounds.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trials));
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(meter.rounds()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RunTrials)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Telemetry overhead rows: the identical dense-grid stepping loop with
// probes in their default production configuration (runtime-enabled,
// sampled every 64th round) vs runtime-disabled. The contract is that
// On stays within noise of Off (<2%); tools/throughput_compare renders
// the advisory ratio when both rows are present in a report.
void run_bfw_rounds_telemetry(benchmark::State& state, bool probes_on) {
  namespace tel = support::telemetry;
  const bool saved_enabled = tel::enabled();
  const std::uint64_t saved_stride = tel::round_sample_stride();
  tel::set_enabled(probes_on);
  tel::set_round_sample_stride(64);
  const auto g = graph::make_grid(64, 64);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 42);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.leader_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
  set_exec_label(state, sim);
  tel::set_enabled(saved_enabled);
  tel::set_round_sample_stride(saved_stride);
}

void BM_TelemetryProbesOn(benchmark::State& state) {
  run_bfw_rounds_telemetry(state, true);
}
BENCHMARK(BM_TelemetryProbesOn);

void BM_TelemetryProbesOff(benchmark::State& state) {
  run_bfw_rounds_telemetry(state, false);
}
BENCHMARK(BM_TelemetryProbesOff);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): stamps the build provenance
// into the report context ("context" section of --benchmark_out JSON)
// and onto stdout, so every perf number is traceable to a commit,
// compiler, ISA and telemetry configuration.
int main(int argc, char** argv) {
  const support::build_info& build = support::build_info::current();
  benchmark::AddCustomContext("beepkit_build", build.one_line());
  std::printf("build: %s\n", build.one_line().c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
