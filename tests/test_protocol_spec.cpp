// protocol_spec: the declarative protocol API. Covers the in-code
// builder, JSON round-tripping, the spec-vs-legacy-machine trace
// identity (the bundled machines are wrappers over the spec factories,
// so their trajectories must match draw for draw), a JSON-only protocol
// running end-to-end through the interpreted gear, and the
// election_options runner consolidation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "core/ablations.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "core/protocol_spec.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/generators.hpp"

namespace beepkit {
namespace {

using beeping::fsm_protocol;
using beeping::transition_rule;
using core::protocol_spec;

// --- builder -----------------------------------------------------------

TEST(ProtocolSpecBuilderTest, HandBuiltBfwMatchesFactory) {
  // Rebuilding BFW by hand through the builder must produce the same
  // compiled table structure as the bundled factory.
  protocol_spec spec;
  spec.name = "hand-built BFW";
  const auto WL = spec.add_state("W*", false, true);
  const auto BL = spec.add_state("B*", true, true);
  const auto FL = spec.add_state("F*", false, true);
  const auto WF = spec.add_state("Wo");
  const auto BF = spec.add_state("Bo", true);
  const auto FF = spec.add_state("Fo");
  spec.initial = WL;
  spec.set_silent(WL, transition_rule::fair_coin(BL, WL));
  spec.set_heard(WL, transition_rule::det(BF));
  spec.set_silent(BL, transition_rule::det(FL));
  spec.set_heard(BL, transition_rule::det(FL));
  spec.set_silent(FL, transition_rule::det(WL));
  spec.set_heard(FL, transition_rule::det(WL));
  spec.set_silent(WF, transition_rule::det(WF));
  spec.set_heard(WF, transition_rule::det(BF));
  spec.set_silent(BF, transition_rule::det(FF));
  spec.set_heard(BF, transition_rule::det(FF));
  spec.set_silent(FF, transition_rule::det(WF));
  spec.set_heard(FF, transition_rule::det(WF));
  spec.validate();
  const auto hand = core::compile_spec_table(spec);
  const auto factory = core::compile_spec_table(core::bfw_spec(0.5));
  EXPECT_EQ(beeping::serialize_table_structure(hand),
            beeping::serialize_table_structure(factory));
}

TEST(ProtocolSpecBuilderTest, PatienceChainLayout) {
  // add_patience_chain appends a silence-incremented run whose last
  // state promotes; timeout_bfw_spec builds its chain through it.
  const auto spec = core::timeout_bfw_spec(0.5, 9);
  EXPECT_EQ(spec.states.size(), 5U + 9U);
  // Chain members: silence -> k+1 (last -> timeout target), beep -> the
  // shared heard target.
  for (std::size_t k = 5; k < 13; ++k) {
    EXPECT_EQ(spec.silent[k].draw, transition_rule::draw_kind::none);
    EXPECT_EQ(spec.silent[k].next, static_cast<beeping::state_id>(k + 1));
    EXPECT_EQ(spec.heard[k].next, spec.heard[5].next);
  }
  EXPECT_EQ(spec.silent[13].next, 0);  // timeout promotes to W*
}

TEST(ProtocolSpecBuilderTest, ValidationRejectsMalformedSpecs) {
  protocol_spec spec;
  const auto a = spec.add_state("A");
  spec.set_silent(a, transition_rule::det(7));  // out of range
  spec.set_heard(a, transition_rule::det(a));
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  protocol_spec dup;
  dup.add_state("A");
  dup.add_state("A");  // duplicate name
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  protocol_spec bad_p;
  const auto s = bad_p.add_state("A");
  bad_p.set_silent(s, transition_rule::bernoulli_draw(1.5, s, s));
  bad_p.set_heard(s, transition_rule::det(s));
  EXPECT_THROW(bad_p.validate(), std::invalid_argument);
}

// --- spec vs legacy machines ------------------------------------------

void expect_same_trajectory(const beeping::state_machine& a,
                            const beeping::state_machine& b,
                            const graph::graph& g, std::uint64_t seed,
                            int rounds, const std::string& label) {
  fsm_protocol proto_a(a);
  fsm_protocol proto_b(b);
  beeping::engine sim_a(g, proto_a, seed);
  beeping::engine sim_b(g, proto_b, seed);
  for (int round = 0; round < rounds; ++round) {
    sim_a.step();
    sim_b.step();
    ASSERT_EQ(proto_a.states(), proto_b.states())
        << label << " diverged at round " << round;
  }
  EXPECT_EQ(sim_a.total_coins_consumed(), sim_b.total_coins_consumed())
      << label;
}

TEST(SpecMachineTest, SpecTrajectoriesMatchLegacyMachines) {
  const auto g = graph::make_grid(8, 8);
  const auto bfw_from_spec = core::make_protocol(core::bfw_spec(0.5));
  expect_same_trajectory(*bfw_from_spec, core::bfw_machine(0.5), g, 42, 300,
                         "bfw");
  const auto timeout_from_spec =
      core::make_protocol(core::timeout_bfw_spec(0.5, 9));
  expect_same_trajectory(*timeout_from_spec, core::timeout_bfw_machine(0.5, 9),
                         g, 42, 300, "timeout_bfw");
  const auto bw_from_spec = core::make_protocol(core::bw_spec(0.5));
  expect_same_trajectory(*bw_from_spec, core::bw_machine(0.5), g, 42, 300,
                         "bw");
}

TEST(SpecMachineTest, ExposesMetadata) {
  const auto machine = core::make_protocol(core::bfw_spec(0.5));
  EXPECT_EQ(machine->state_count(), 6U);
  EXPECT_EQ(machine->initial_state(), 0);
  EXPECT_EQ(machine->state_name(0), "W*");
  EXPECT_TRUE(machine->is_leader(0));
  EXPECT_FALSE(machine->beeps(0));
  EXPECT_TRUE(machine->beeps(1));
  EXPECT_TRUE(machine->compile_table().has_value());
}

// --- JSON form ---------------------------------------------------------

TEST(ProtocolSpecJsonTest, RoundTripIsIdentity) {
  for (const auto& spec :
       {core::bfw_spec(0.5), core::bfw_spec(0.3),
        core::timeout_bfw_spec(0.5, 9), core::bw_spec(0.5)}) {
    const auto text = spec.to_json().dump();
    const auto back = protocol_spec::from_json_text(text);
    EXPECT_EQ(back.to_json().dump(), text) << spec.name;
    // Structural identity, not just textual: same compiled table shape.
    EXPECT_EQ(beeping::serialize_table_structure(core::compile_spec_table(back)),
              beeping::serialize_table_structure(core::compile_spec_table(spec)))
        << spec.name;
  }
}

TEST(ProtocolSpecJsonTest, JsonOnlyProtocolRunsEndToEnd) {
  // A protocol defined purely as JSON - never written as C++ - runs
  // through the interpreted gear with no recompilation. This one is
  // BFW with renamed states, so it elects a leader.
  const std::string text = R"({
    "name": "json-only election",
    "states": [
      {"name": "LeadWait", "leader": true},
      {"name": "LeadBeep", "beep": true, "leader": true},
      {"name": "LeadFrozen", "leader": true},
      {"name": "FollowWait"},
      {"name": "FollowBeep", "beep": true},
      {"name": "FollowFrozen"}
    ],
    "initial": "LeadWait",
    "rules": [
      {"state": "LeadWait",
       "silent": {"coin": true, "then": "LeadBeep", "else": "LeadWait"},
       "heard": {"next": "FollowBeep"}},
      {"state": "LeadBeep",
       "silent": {"next": "LeadFrozen"}, "heard": {"next": "LeadFrozen"}},
      {"state": "LeadFrozen",
       "silent": {"next": "LeadWait"}, "heard": {"next": "LeadWait"}},
      {"state": "FollowWait",
       "silent": {"next": "FollowWait"}, "heard": {"next": "FollowBeep"}},
      {"state": "FollowBeep",
       "silent": {"next": "FollowFrozen"}, "heard": {"next": "FollowFrozen"}},
      {"state": "FollowFrozen",
       "silent": {"next": "FollowWait"}, "heard": {"next": "FollowWait"}}
    ]
  })";
  const auto spec = protocol_spec::from_json_text(text);
  const auto g = graph::make_grid(6, 6);
  const auto outcome = core::run_election(g, spec, 7);
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.final_leader_count, 1U);
  // Structurally BFW, so the registry serves it with the bfw kernel -
  // and the run must equal the interpreted one bit for bit.
  core::election_options interpreted;
  interpreted.compiled_kernel = false;
  const auto ref = core::run_election(g, spec, 7, interpreted);
  EXPECT_EQ(outcome.rounds, ref.rounds);
  EXPECT_EQ(outcome.leader, ref.leader);
  EXPECT_EQ(outcome.total_coins, ref.total_coins);
}

TEST(ProtocolSpecJsonTest, RejectsUnknownStateNames) {
  const std::string text = R"({
    "name": "broken", "states": [{"name": "A"}], "initial": "A",
    "rules": [{"state": "A", "silent": {"next": "Nope"},
               "heard": {"next": "A"}}]
  })";
  EXPECT_THROW(protocol_spec::from_json_text(text), std::invalid_argument);
}

// --- election_options runner ------------------------------------------

TEST(ElectionOptionsTest, LegacyShimsMatchNewRunner) {
  // run_bfw_election_from, the one shim left, from the machine's own
  // initial configuration.
  const auto g = graph::make_complete(32);
  const core::bfw_machine machine(0.5);
  const auto legacy = core::run_bfw_election_from(
      g, 0.5, std::vector<beeping::state_id>(32, machine.initial_state()), 9,
      100000);
  const auto fresh = core::run_election(g, machine, 9, {.max_rounds = 100000});
  EXPECT_EQ(legacy.converged, fresh.converged);
  EXPECT_EQ(legacy.rounds, fresh.rounds);
  EXPECT_EQ(legacy.leader, fresh.leader);
  EXPECT_EQ(legacy.total_coins, fresh.total_coins);
}

TEST(ElectionOptionsTest, DefaultHorizonDerivedWhenUnset) {
  // No max_rounds: the runner derives a generous horizon and the
  // election completes on a small complete graph.
  const auto g = graph::make_complete(16);
  const auto outcome = core::run_election(g, core::bfw_machine(0.5), 3);
  EXPECT_TRUE(outcome.converged);
}

TEST(ElectionOptionsTest, GearSelectionIsBitIdentical) {
  // All three gear selections (compiled plane, interpreted plane,
  // virtual) produce the same election transcript.
  const auto g = graph::make_grid(6, 6);
  const core::bfw_machine machine(0.5);
  core::election_options base;
  base.max_rounds = 100000;
  const auto compiled = core::run_election(g, machine, 12, base);
  auto interpreted = base;
  interpreted.compiled_kernel = false;
  const auto plane = core::run_election(g, machine, 12, interpreted);
  auto virtual_gear = base;
  virtual_gear.fast_path = false;
  const auto reference = core::run_election(g, machine, 12, virtual_gear);
  EXPECT_EQ(compiled.rounds, plane.rounds);
  EXPECT_EQ(compiled.leader, plane.leader);
  EXPECT_EQ(compiled.total_coins, plane.total_coins);
  EXPECT_EQ(compiled.rounds, reference.rounds);
  EXPECT_EQ(compiled.leader, reference.leader);
  EXPECT_EQ(compiled.total_coins, reference.total_coins);
}

TEST(ElectionOptionsTest, InitialConfigurationAndWidth) {
  const auto g = graph::make_path(64);
  const core::bfw_machine machine(0.5);
  core::election_options options;
  options.max_rounds = 100000;
  options.compiled_width = 2;
  options.initial = std::vector<beeping::state_id>(
      64, static_cast<beeping::state_id>(core::bfw_state::follower_wait));
  options.initial[10] = static_cast<beeping::state_id>(0);  // one leader seed
  const auto outcome = core::run_election(g, machine, 4, options);
  // One waiting leader, everyone else a follower: it wins immediately.
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.leader, 10U);
}

}  // namespace
}  // namespace beepkit
