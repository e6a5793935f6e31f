// Tests for the fault-injection subsystem (core/faults, graph/patch,
// the engine fault surface and the recovery harness):
//  * an empty fault_plan is draw-for-draw bit-identical to a plain run
//    on every gear (plane/compiled, interpreted, virtual, tiled);
//  * topology patches (churn) match a materialized modified graph
//    under every forced gather kernel and tiling, at word boundaries
//    {63, 64, 65, 128}, on explicit and implicit views;
//  * crash/restart differentials across gears against the scalar
//    reference step, including degenerate shapes (crash every node,
//    crash-then-rejoin in the same round);
//  * fault_plan JSON round-trips; plans validate; faulted runs replay
//    bit-exactly; faulted sweep cells merge bit-identically across
//    shards; the bundled adversaries behave as specified.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/recovery.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "core/faults.hpp"
#include "graph/generators.hpp"
#include "graph/patch.hpp"
#include "graph/view.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace beepkit;
using beeping::beep_counter;
using beeping::engine;
using beeping::fsm_protocol;
using beeping::state_id;
using graph::gather_kernel;
using graph::node_id;

struct gear_config {
  std::string label;
  bool fast = true;
  bool compiled = true;
  std::size_t threads = 1;
  std::size_t tile_words = 0;
};

std::vector<gear_config> all_gears() {
  return {{"plane+compiled"},
          {"interpreted", true, false},
          {"virtual", false, true},
          {"tiled threads=3", true, true, 3, 0},
          {"tiled 1-word", true, true, 2, 1}};
}

void apply_gear(engine& sim, const gear_config& gear) {
  if (!gear.fast) sim.set_fast_path_enabled(false);
  if (!gear.compiled) sim.set_compiled_kernel_enabled(false);
  if (gear.threads != 1 || gear.tile_words != 0) {
    sim.set_parallelism(gear.threads, gear.tile_words);
  }
}

/// One edge toggle of a churn schedule, applied both to an overlay and
/// to a materialized edge list.
struct toggle {
  node_id u;
  node_id v;
};

graph::graph materialize_toggles(const graph::graph& base,
                                 const std::vector<toggle>& toggles) {
  std::vector<graph::edge> edges = base.edges();
  for (const toggle& t : toggles) {
    const graph::edge e{std::min(t.u, t.v), std::max(t.u, t.v)};
    bool removed = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i] == e) {
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
        removed = true;
        break;
      }
    }
    if (!removed) edges.push_back(e);
  }
  return graph::graph(base.node_count(), std::move(edges));
}

// ---- empty-plan bit-identity -----------------------------------------

TEST(FaultSessionTest, EmptyPlanBitIdenticalToPlainRunOnEveryGear) {
  const auto g = graph::make_grid(8, 8);
  const core::bfw_machine machine(0.5);
  for (const gear_config& gear : all_gears()) {
    fsm_protocol proto_a(machine);
    engine plain(g, proto_a, 99);
    apply_gear(plain, gear);
    const auto expected = plain.run_until_single_leader(50'000);

    fsm_protocol proto_b(machine);
    engine faulted(g, proto_b, 99);
    apply_gear(faulted, gear);
    core::fault_plan plan;
    core::fault_session session(plan, faulted, 99);
    const auto got = session.run_until_single_leader(50'000);

    EXPECT_EQ(got.rounds, expected.rounds) << gear.label;
    EXPECT_EQ(got.converged, expected.converged) << gear.label;
    EXPECT_EQ(got.leaders, expected.leaders) << gear.label;
    EXPECT_EQ(faulted.total_coins_consumed(), plain.total_coins_consumed())
        << gear.label;
    EXPECT_EQ(proto_b.states(), proto_a.states()) << gear.label;
    EXPECT_EQ(session.faults_applied(), 0U) << gear.label;
    EXPECT_EQ(session.overlay(), nullptr) << gear.label;
  }
}

TEST(ConvergenceTest, RunElectionWithEmptyPlanMatchesPlainRun) {
  const auto g = graph::make_path(33);
  const core::bfw_machine machine(0.5);
  const auto plain = core::run_election(g, machine, 5, {});
  core::fault_plan plan;
  core::election_options options;
  options.faults = &plan;
  const auto faulted = core::run_election(g, machine, 5, options);
  EXPECT_EQ(faulted.rounds, plain.rounds);
  EXPECT_EQ(faulted.converged, plain.converged);
  EXPECT_EQ(faulted.leader, plain.leader);
  EXPECT_EQ(faulted.total_coins, plain.total_coins);
}

// ---- topology patches vs materialized graphs -------------------------

/// Kernels forceable on a path graph (tagged, so the stencil applies
/// too).
std::vector<gather_kernel> path_kernels() {
  return {gather_kernel::stencil, gather_kernel::word_csr_push,
          gather_kernel::word_csr_pull};
}

TEST(TopologyPatchTest, ChurnMatchesMaterializedGraphAtWordBoundaries) {
  const core::bfw_machine machine(0.5);
  for (const std::size_t n : {63UL, 64UL, 65UL, 128UL}) {
    const auto base = graph::make_path(n);
    const node_id last = static_cast<node_id>(n - 1);
    // Toggles straddling the word boundaries: a long-range chord, a
    // removed path edge right at the 64-bit seam, and a chord whose
    // endpoints land in different words.
    const std::vector<toggle> toggles = {
        {0, last},
        {static_cast<node_id>(n / 2 - 1), static_cast<node_id>(n / 2)},
        {1, static_cast<node_id>(std::min<std::size_t>(62, n - 2))}};
    const auto modified = materialize_toggles(base, toggles);

    for (const gather_kernel kernel : path_kernels()) {
      for (const std::size_t threads : {1UL, 3UL}) {
        fsm_protocol proto(machine);
        engine sim(base, proto, 17);
        sim.set_gather_kernel(kernel);
        if (threads != 1) sim.set_parallelism(threads, 0);
        graph::patch_overlay overlay{graph::topology_view(base)};
        for (const toggle& t : toggles) overlay.toggle_edge(t.u, t.v);
        sim.set_topology_patch(&overlay);

        fsm_protocol ref_proto(machine);
        engine ref(modified, ref_proto, 17);

        const std::string label = "n=" + std::to_string(n) + " kernel=" +
                                  std::to_string(static_cast<int>(kernel)) +
                                  " threads=" + std::to_string(threads);
        for (int round = 0; round < 96; ++round) {
          sim.step();
          ref.step_reference();
          ASSERT_EQ(proto.states(), ref_proto.states())
              << label << " diverged at round " << round;
          ASSERT_EQ(sim.leader_count(), ref.leader_count()) << label;
        }
        EXPECT_EQ(sim.total_coins_consumed(), ref.total_coins_consumed())
            << label;
      }
    }
  }
}

TEST(TopologyPatchTest, PatchWorksOnImplicitViews) {
  const std::size_t n = 65;
  const auto view =
      graph::topology_view::implicit({graph::topology::kind::path, 1, n});
  const auto base = graph::make_path(n);
  const std::vector<toggle> toggles = {{0, 64}, {31, 32}, {2, 63}};
  const auto modified = materialize_toggles(base, toggles);
  const core::bfw_machine machine(0.5);

  fsm_protocol proto(machine);
  engine sim(view, proto, 23);
  graph::patch_overlay overlay{view};
  for (const toggle& t : toggles) overlay.toggle_edge(t.u, t.v);
  sim.set_topology_patch(&overlay);

  fsm_protocol ref_proto(machine);
  engine ref(modified, ref_proto, 23);
  for (int round = 0; round < 96; ++round) {
    sim.step();
    ref.step_reference();
    ASSERT_EQ(proto.states(), ref_proto.states())
        << "implicit view diverged at round " << round;
  }
  EXPECT_EQ(sim.total_coins_consumed(), ref.total_coins_consumed());
}

TEST(TopologyPatchTest, NodeCountMismatchThrows) {
  const auto g = graph::make_path(16);
  const auto other = graph::make_path(17);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  graph::patch_overlay overlay{graph::topology_view(other)};
  EXPECT_THROW(sim.set_topology_patch(&overlay), std::invalid_argument);
}

// ---- crash / restart differentials -----------------------------------

/// A scripted fault: at `round`, crash (or revive) `node`.
struct scripted_fault {
  std::uint64_t round;
  node_id node;
  bool crash;
};

void drive_with_faults(engine& sim, const std::vector<scripted_fault>& script,
                       std::uint64_t rounds, bool reference) {
  for (std::uint64_t r = 0; r <= rounds; ++r) {
    for (const scripted_fault& f : script) {
      if (f.round == r) {
        if (f.crash) {
          sim.fault_crash(f.node);
        } else {
          sim.fault_restart(f.node);
        }
      }
    }
    if (r == rounds) break;
    if (reference) {
      sim.step_reference();
    } else {
      sim.step();
    }
  }
}

TEST(CrashFaultTest, CrashAndRejoinMatchReferenceOnEveryGearAtBoundaries) {
  const core::bfw_machine machine(0.5);
  for (const std::size_t n : {63UL, 64UL, 65UL, 128UL}) {
    const auto g = graph::make_path(n);
    const node_id seam = static_cast<node_id>(std::min<std::size_t>(63, n - 1));
    const std::vector<scripted_fault> script = {
        {8, 0, true},             // crash the word-0 boundary node
        {8, seam, true},          // crash at the 64-bit seam
        {20, static_cast<node_id>(n / 2), true},
        {40, 0, false},           // rejoin in the initial state
        {40, seam, false},
    };
    for (const gear_config& gear : all_gears()) {
      fsm_protocol proto(machine);
      engine sim(g, proto, 7);
      beep_counter sim_counts;
      sim.add_observer(&sim_counts);
      apply_gear(sim, gear);
      drive_with_faults(sim, script, 96, /*reference=*/false);

      fsm_protocol ref_proto(machine);
      engine ref(g, ref_proto, 7);
      beep_counter ref_counts;
      ref.add_observer(&ref_counts);
      drive_with_faults(ref, script, 96, /*reference=*/true);

      const std::string label = "n=" + std::to_string(n) + " " + gear.label;
      EXPECT_EQ(proto.states(), ref_proto.states()) << label;
      EXPECT_EQ(sim.leader_count(), ref.leader_count()) << label;
      EXPECT_EQ(sim.alive_leader_count(), ref.alive_leader_count()) << label;
      EXPECT_EQ(sim.total_coins_consumed(), ref.total_coins_consumed())
          << label;
      for (node_id u = 0; u < n; ++u) {
        ASSERT_EQ(sim_counts.count(u), ref_counts.count(u))
            << label << " beep count mismatch at node " << u;
      }
    }
  }
}

TEST(CrashFaultTest, CrashedNodeFreezesAndSilences) {
  const auto g = graph::make_path(65);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 3);
  beep_counter counter;
  sim.add_observer(&counter);
  for (int r = 0; r < 10; ++r) sim.step();
  const node_id victim = 32;
  sim.fault_crash(victim);
  const state_id frozen = proto.states()[victim];
  const std::uint64_t beeps = counter.count(victim);
  for (int r = 0; r < 40; ++r) {
    sim.step();
    ASSERT_EQ(proto.states()[victim], frozen) << "corpse moved at round " << r;
    ASSERT_EQ(counter.count(victim), beeps) << "corpse beeped at round " << r;
  }
  EXPECT_TRUE(sim.crashed(victim));
  EXPECT_EQ(sim.crashed_count(), 1U);
  // A fault between rounds changes the engine's current beep set, never
  // a count observers were already shown: a beeper crashed after its
  // round was shown keeps that beep, and a rejoin in a beeping state
  // is not counted for the round it rejoins in.
  node_id beeper = 65;
  for (int r = 0; r < 200 && beeper == 65; ++r) {
    sim.step();
    for (node_id u = 0; u < 65 && beeper == 65; ++u) {
      if (sim.beeping(u)) beeper = u;
    }
  }
  ASSERT_LT(beeper, 65U);
  const std::uint64_t shown = counter.count(beeper);
  ASSERT_GT(shown, 0U);
  sim.fault_crash(beeper);
  EXPECT_FALSE(sim.beeping(beeper));
  EXPECT_EQ(counter.count(beeper), shown);
  sim.fault_restart_as(victim,
                       static_cast<state_id>(core::bfw_state::leader_beep));
  EXPECT_TRUE(sim.beeping(victim));
  EXPECT_EQ(counter.count(victim), beeps);
}

TEST(CrashFaultTest, CrashEveryNodeThenRestartRecovers) {
  const auto g = graph::make_grid(8, 8);
  const std::size_t n = g.node_count();
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 13);
  for (int r = 0; r < 5; ++r) sim.step();
  for (node_id u = 0; u < n; ++u) sim.fault_crash(u);
  EXPECT_EQ(sim.crashed_count(), n);
  EXPECT_EQ(sim.alive_leader_count(), 0U);
  const std::vector<state_id> frozen = proto.states();
  for (int r = 0; r < 10; ++r) sim.step();
  EXPECT_EQ(proto.states(), frozen) << "a dead network moved";
  // run_until stops immediately: zero alive leaders is absorbing.
  const auto stalled = sim.run_until_single_leader(1'000'000);
  EXPECT_FALSE(stalled.converged);
  EXPECT_EQ(stalled.leaders, 0U);
  for (node_id u = 0; u < n; ++u) sim.fault_restart(u);
  EXPECT_EQ(sim.crashed_count(), 0U);
  const auto result = sim.run_until_single_leader(1'000'000);
  EXPECT_TRUE(result.converged);
}

TEST(CrashFaultTest, CrashThenRejoinSameRound) {
  const auto g = graph::make_path(64);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 21);
  for (int r = 0; r < 12; ++r) sim.step();
  sim.fault_crash(5);
  sim.fault_restart(5);  // same-round rejoin: alive again, initial state
  EXPECT_FALSE(sim.crashed(5));
  EXPECT_EQ(sim.crashed_count(), 0U);
  sim.fault_crash_as(6, 1);
  sim.fault_restart_as(6, 0);
  EXPECT_FALSE(sim.crashed(6));
  const auto result = sim.run_until_single_leader(1'000'000);
  EXPECT_TRUE(result.converged);
}

TEST(CrashFaultTest, FaultApiPreconditions) {
  const auto g = graph::make_path(16);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 1);
  EXPECT_THROW(sim.fault_crash(16), std::invalid_argument);
  EXPECT_THROW(sim.fault_restart(3), std::logic_error);  // alive node
  sim.fault_crash(3);
  EXPECT_NO_THROW(sim.fault_crash(3));  // idempotent re-crash
  sim.fault_restart(3);
  EXPECT_FALSE(sim.crashed(3));
}

TEST(CrashFaultTest, RestartFromProtocolClearsFaults) {
  const auto g = graph::make_path(32);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 2);
  for (int r = 0; r < 8; ++r) sim.step();
  sim.fault_crash(1);
  sim.fault_crash(30);
  EXPECT_EQ(sim.crashed_count(), 2U);
  proto.set_states(std::vector<state_id>(32, machine.initial_state()));
  sim.restart_from_protocol();
  EXPECT_EQ(sim.crashed_count(), 0U);
  EXPECT_EQ(sim.alive_leader_count(), sim.leader_count());
}

TEST(CrashFaultTest, AliveLeaderCountDrivesTermination) {
  const auto g = graph::make_complete(8);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 31);
  const auto result = sim.run_until_single_leader(100'000);
  ASSERT_TRUE(result.converged);
  const node_id leader = sim.sole_leader();
  sim.fault_crash(leader);
  EXPECT_EQ(sim.alive_leader_count(), 0U);
  EXPECT_EQ(sim.leader_count(), 1U);  // the corpse still holds the flag
  EXPECT_EQ(sim.sole_leader(), g.node_count());

  // A corpse frozen as a leader (never restarted) must not hide the
  // alive winner: the converged run reports the alive leader, not the
  // sentinel.
  const auto path = graph::make_path(16);
  core::fault_plan plan;
  plan.crash(1, 0);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto outcome = core::run_election(path, machine, seed,
                                            {.faults = &plan});
    ASSERT_TRUE(outcome.converged) << "seed " << seed;
    ASSERT_LT(outcome.leader, path.node_count()) << "seed " << seed;
    ASSERT_NE(outcome.leader, 0U) << "seed " << seed;  // the corpse
  }
}

// ---- fault_plan JSON + validation ------------------------------------

core::fault_plan every_kind_plan() {
  core::fault_plan plan;
  plan.name = "every_kind";
  plan.fault_seed = 42;
  plan.crash(3, 1);
  plan.crash_as(4, 2, 1);
  plan.restart(9, 1);
  plan.restart_as(10, 2, 0);
  plan.add_edge(5, 0, 7);
  plan.remove_edge(6, 3, 4);
  plan.churn(12, 2, 4, 24);
  plan.burst(20, 3, 8);
  plan.inject(0, std::vector<state_id>(8, 0));
  plan.corrupt(30, 2);
  return plan;
}

TEST(FaultPlanTest, JsonRoundTripIsExact) {
  const core::fault_plan plan = every_kind_plan();
  const std::string text = plan.to_json().dump();
  const core::fault_plan back = core::fault_plan::from_json_text(text);
  EXPECT_EQ(back.name, plan.name);
  EXPECT_EQ(back.fault_seed, plan.fault_seed);
  ASSERT_EQ(back.events.size(), plan.events.size());
  EXPECT_EQ(back.to_json().dump(), text);
}

TEST(FaultPlanTest, MalformedJsonThrows) {
  EXPECT_THROW(core::fault_plan::from_json_text("not json"),
               std::invalid_argument);
  EXPECT_THROW(core::fault_plan::from_json_text("{\"events\":7}"),
               std::invalid_argument);
  EXPECT_THROW(core::fault_plan::from_json_text(
                   "{\"events\":[{\"kind\":\"warp\",\"round\":1}]}"),
               std::invalid_argument);
  EXPECT_THROW(core::fault_plan::from_json_text(
                   "{\"events\":[{\"kind\":\"crash\"}]}"),
               std::invalid_argument);
}

TEST(FaultPlanTest, ValidationCatchesBadEvents) {
  const std::size_t n = 8;
  const std::size_t q = 7;
  {
    core::fault_plan plan;
    plan.crash(1, 8);  // node out of range
    EXPECT_THROW(plan.validate(n, q), std::invalid_argument);
  }
  {
    core::fault_plan plan;
    plan.crash_as(1, 0, 7);  // state out of range
    EXPECT_THROW(plan.validate(n, q), std::invalid_argument);
  }
  {
    core::fault_plan plan;
    plan.add_edge(1, 3, 3);  // self-loop
    EXPECT_THROW(plan.validate(n, q), std::invalid_argument);
  }
  {
    core::fault_plan plan;
    plan.inject(0, std::vector<state_id>(n - 1, 0));  // wrong size
    EXPECT_THROW(plan.validate(n, q), std::invalid_argument);
  }
  EXPECT_NO_THROW(every_kind_plan().validate(n, q));
}

// ---- faulted replay + sharding ---------------------------------------

TEST(RecoveryHarnessTest, MeasuresBurstEpochsDeterministically) {
  const auto g = graph::make_grid(8, 8);
  const core::bfw_machine machine(0.5);
  core::fault_plan plan;
  plan.name = "burst";
  plan.fault_seed = 3;
  plan.burst(64, 5, 24);
  analysis::recovery_options options;
  options.max_rounds = 50'000;
  const auto first = analysis::measure_recovery(g, machine, plan, 77, options);
  EXPECT_GE(first.epochs(), 1U);
  EXPECT_GE(first.faults_applied, 5U);
  ASSERT_FALSE(first.points.empty());
  EXPECT_EQ(first.points[0].fault_round, 0U);  // initial convergence epoch

  // Bit-exact replay: same (plan, seed) - identical epochs, identical
  // final state, on a different gear and under tiling.
  for (const gear_config& gear : all_gears()) {
    analysis::recovery_options again = options;
    again.fast_path = gear.fast;
    again.compiled_kernel = gear.compiled;
    again.exec = {gear.threads, gear.tile_words};
    const auto replay = analysis::measure_recovery(g, machine, plan, 77, again);
    ASSERT_EQ(replay.points.size(), first.points.size()) << gear.label;
    for (std::size_t i = 0; i < first.points.size(); ++i) {
      EXPECT_EQ(replay.points[i].fault_round, first.points[i].fault_round)
          << gear.label;
      EXPECT_EQ(replay.points[i].recovered, first.points[i].recovered)
          << gear.label;
      EXPECT_EQ(replay.points[i].rounds_to_recover,
                first.points[i].rounds_to_recover)
          << gear.label;
    }
    EXPECT_EQ(replay.outcome.rounds, first.outcome.rounds) << gear.label;
    EXPECT_EQ(replay.outcome.total_coins, first.outcome.total_coins)
        << gear.label;
    EXPECT_EQ(replay.faults_applied, first.faults_applied) << gear.label;
  }
}

TEST(FaultedSweepTest, ShardedFaultedSweepMergesBitIdentical) {
  core::fault_plan plan;
  plan.name = "burst";
  plan.fault_seed = 9;
  plan.burst(32, 4, 16);
  const auto inst = analysis::make_instance(graph::make_path(33));
  std::vector<analysis::matrix_cell> cells;
  cells.push_back({&inst, analysis::make_faulted_bfw(0.5, plan), 6, 51,
                   200'000});
  const sweep::spec spec{"faulted_sweep_test", std::move(cells)};

  const auto reference = sweep::run(spec, {});
  ASSERT_EQ(reference.cells.size(), 1U);

  std::vector<std::string> paths;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::string path = ::testing::TempDir() + "beepkit_faulted_shard_" +
                             std::to_string(i) + ".jsonl";
    std::remove(path.c_str());
    sweep::options opts;
    opts.shard = {i, 3};
    opts.jsonl_path = path;
    (void)sweep::run(spec, opts);
    paths.push_back(path);
  }
  const auto merged = sweep::merge_shards(paths);
  ASSERT_EQ(merged.cells.size(), 1U);
  const auto& a = merged.cells[0].stats;
  const auto& b = reference.cells[0];
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds.mean, b.rounds.mean);
  EXPECT_EQ(a.rounds.median, b.rounds.median);
  EXPECT_EQ(a.mean_coins_per_node_round, b.mean_coins_per_node_round);
  for (const auto& path : paths) std::remove(path.c_str());
}

// ---- adversaries ------------------------------------------------------

TEST(AdversaryTest, WaveJammerPreventsElimination) {
  const auto g = graph::make_complete(12);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 8);
  core::fault_plan plan;
  core::fault_session session(plan, sim, 8);
  const auto jammer = core::make_wave_jammer();
  session.set_adversary(jammer.get());
  for (int r = 0; r < 256; ++r) session.step();
  // Nobody ever hears a rival, so nobody is ever eliminated.
  EXPECT_EQ(sim.leader_count(), 12U);
}

TEST(AdversaryTest, SpuriousWakerIsDeterministic) {
  const auto g = graph::make_path(48);
  const core::bfw_machine machine(0.5);
  std::vector<std::uint64_t> rounds;
  std::vector<std::uint64_t> coins;
  for (int repeat = 0; repeat < 2; ++repeat) {
    fsm_protocol proto(machine);
    engine sim(g, proto, 12);
    core::fault_plan plan;
    core::fault_session session(plan, sim, 12);
    const auto waker = core::make_spurious_waker(2, 5);
    session.set_adversary(waker.get());
    const auto result = session.run_until_single_leader(500'000);
    rounds.push_back(result.rounds);
    coins.push_back(sim.total_coins_consumed());
  }
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(coins[0], coins[1]);
}

TEST(AdversaryTest, DetachRestoresPlainBehavior) {
  const auto g = graph::make_path(32);
  const core::bfw_machine machine(0.5);
  fsm_protocol plain_proto(machine);
  engine plain(g, plain_proto, 4);
  const auto expected = plain.run_until_single_leader(200'000);

  fsm_protocol proto(machine);
  engine sim(g, proto, 4);
  core::fault_plan plan;
  core::fault_session session(plan, sim, 4);
  const auto jammer = core::make_wave_jammer();
  session.set_adversary(jammer.get());
  session.set_adversary(nullptr);  // detach before any round
  const auto got = session.run_until_single_leader(200'000);
  EXPECT_EQ(got.rounds, expected.rounds);
  EXPECT_EQ(sim.total_coins_consumed(), plain.total_coins_consumed());
}

// ---- telemetry fault counters ----------------------------------------

TEST(FaultTelemetryTest, CountersTrackFaultsAndPatchedWords) {
  namespace tel = support::telemetry;
  if (!tel::compiled_in) GTEST_SKIP() << "telemetry compiled out";
  const auto g = graph::make_path(64);
  const core::bfw_machine machine(0.5);
  fsm_protocol proto(machine);
  engine sim(g, proto, 6);
  const bool was_enabled = tel::enabled();
  tel::set_enabled(true);
  graph::patch_overlay overlay{graph::topology_view(g)};
  overlay.add_edge(0, 63);
  sim.set_topology_patch(&overlay);
  sim.fault_crash(1);
  sim.fault_restart(1);
  for (int r = 0; r < 4; ++r) sim.step();
  const auto metrics = sim.telemetry_metrics();
  EXPECT_EQ(metrics.faults_applied, 2U);
  EXPECT_GT(metrics.fault_patched_words, 0U);
  tel::set_enabled(was_enabled);
}

}  // namespace
