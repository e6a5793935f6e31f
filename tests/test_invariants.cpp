// The invariant_checker must (a) stay silent on faithful BFW runs
// across the whole graph battery with every check enabled, and
// (b) actually fire when confronted with corrupted configurations -
// failure injection guards against a checker that silently checks
// nothing.
#include "core/invariants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace beepkit::core {
namespace {

using beeping::state_id;

constexpr state_id WL = static_cast<state_id>(bfw_state::leader_wait);
constexpr state_id BL = static_cast<state_id>(bfw_state::leader_beep);
constexpr state_id FL = static_cast<state_id>(bfw_state::leader_frozen);
constexpr state_id WF = static_cast<state_id>(bfw_state::follower_wait);
constexpr state_id BF = static_cast<state_id>(bfw_state::follower_beep);
constexpr state_id FF = static_cast<state_id>(bfw_state::follower_frozen);

class InvariantBatteryTest
    : public ::testing::TestWithParam<testing::graph_case> {};

TEST_P(InvariantBatteryTest, CleanRunsProduceNoViolations) {
  const auto& gcase = GetParam();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto g = gcase.make(seed);
    const bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed * 7919);

    invariant_options options;
    options.check_lemma11 = true;
    options.check_lemma12 = true;
    invariant_checker checker(g, proto, options);
    sim.add_observer(&checker);
    sim.run_rounds(250);

    EXPECT_TRUE(checker.ok())
        << gcase.label << " seed " << seed << ": "
        << (checker.violations().empty() ? "" : checker.violations().front());
    EXPECT_EQ(checker.rounds_checked(), 251U);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StandardBattery, InvariantBatteryTest,
    ::testing::ValuesIn(testing::standard_graph_battery()),
    [](const ::testing::TestParamInfo<testing::graph_case>& info) {
      return info.param.label;
    });

TEST(InvariantCheckerTest, CleanRunsWithBiasedP) {
  for (const double p : {0.1, 0.9}) {
    const auto g = graph::make_grid(5, 5);
    const bfw_machine machine(p);
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, 31);
    invariant_options options;
    options.check_lemma11 = true;
    invariant_checker checker(g, proto, options);
    sim.add_observer(&checker);
    sim.run_rounds(300);
    EXPECT_TRUE(checker.ok()) << "p=" << p;
    // Attached late, the checker's counts would miss 300 rounds of beeps
    // and report Ohm's-law and Lemma 11 violations that are not real:
    // its first view throws, so add_observer never attaches it.
    invariant_checker late(g, proto, options);
    EXPECT_THROW(sim.add_observer(&late), std::logic_error) << "p=" << p;
    EXPECT_EQ(late.rounds_checked(), 0U);
    sim.step();
    EXPECT_EQ(late.rounds_checked(), 0U);
  }

  // A restart is a new run: the checker must not confront its round-0
  // configuration with the one it replaced, nor carry the leader count
  // or Lemma 12 obligations across. path(24), 200 rounds, then a
  // restart from the all-leaders start, every check on.
  const auto path = graph::make_path(24);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(path, proto, 31);
  invariant_options options;
  options.check_lemma11 = true;
  options.check_lemma12 = true;
  invariant_checker checker(path, proto, options);
  sim.add_observer(&checker);
  sim.run_rounds(200);
  ASSERT_TRUE(checker.ok()) << checker.violations().front();
  ASSERT_LT(sim.leader_count(), 24U);
  proto.set_states(std::vector<state_id>(24, WL));
  sim.restart_from_protocol();
  sim.run_rounds(50);
  EXPECT_EQ(checker.violations().size(), 0U)
      << (checker.ok() ? "" : checker.violations().front());
  EXPECT_EQ(checker.rounds_checked(), 252U);
}

// --- Failure injection ----------------------------------------------------

TEST(InvariantInjectionTest, LeaderlessConfigurationTriggersLemma9) {
  const auto g = graph::make_cycle(9);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 5);
  proto.set_states(leaderless_wave_on_cycle(9));
  sim.restart_from_protocol();

  invariant_options options;
  options.check_claim6 = false;  // isolate the Lemma 9 check
  options.check_ohms_law = false;
  invariant_checker checker(g, proto, options);
  sim.add_observer(&checker);
  sim.run_rounds(3);

  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("Lemma 9"), std::string::npos);
}

TEST(InvariantInjectionTest, TeleportedFreezeTriggersClaim6) {
  // Freeze a node that never beeped: Eq. (3)/(9) must fire.
  const auto g = graph::make_path(4);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 5);

  invariant_checker checker(g, proto, invariant_options{});
  beeping::beep_counter counter;
  sim.add_observer(&checker);
  sim.add_observer(&counter);
  sim.step();
  // Corrupt: node 1 was waiting (or beeping); force it frozen without
  // the B transition the protocol requires.
  auto states = proto.states();
  std::vector<bool> beeped(4);
  for (graph::node_id u = 0; u < 4; ++u) beeped[u] = sim.beeping(u);
  states[1] = FF;
  states[0] = WF;  // also knock out any coincidental explanation
  proto.set_states(states);
  const std::vector<std::uint64_t> shown(counter.counts().begin(),
                                         counter.counts().end());
  sim.resync_with_protocol();  // adopt the corruption mid-run
  // The resync rewrote the engine's current beep set, but not the
  // count of the round observers were already shown.
  bool rewritten = false;
  for (graph::node_id u = 0; u < 4; ++u) {
    rewritten = rewritten || beeped[u] != sim.beeping(u);
  }
  EXPECT_TRUE(rewritten);
  EXPECT_TRUE(std::ranges::equal(counter.counts(), shown));
  sim.step();
  for (graph::node_id u = 0; u < 4; ++u) {
    EXPECT_EQ(counter.count(u), shown[u] + (sim.beeping(u) ? 1U : 0U))
        << "node " << u;
  }

  EXPECT_FALSE(checker.ok());
}

TEST(InvariantInjectionTest, PhantomFrozenNodeBreaksOhmsLaw) {
  // A frozen node with no beep in the ledger is unreachable for honest
  // runs and breaks Corollary 8: on the path B F W B, the flow from
  // node 0 to node 2 is 0 (the F edge carries nothing) while the
  // beep-count difference is 1.
  const auto g = graph::make_path(4);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 17);

  invariant_options options;
  options.check_claim6 = false;       // isolate the Ohm's-law verdict
  options.check_leader_floor = false;  // (config is leaderless on purpose)
  options.sampled_paths = 64;
  options.sampled_path_length = 6;
  invariant_checker checker(g, proto, options);

  proto.set_states({BL, FF, WF, BL});
  sim.restart_from_protocol();
  sim.add_observer(&checker);  // attach fires the round-0 check

  ASSERT_FALSE(checker.ok());
  for (const auto& v : checker.violations()) {
    EXPECT_NE(v.find("Ohm"), std::string::npos) << v;
  }
}

TEST(InvariantInjectionTest, ResurrectedLeaderTriggersMonotonicity) {
  const auto g = graph::make_path(4);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 23);
  // Start from a single-leader configuration, then resurrect a second
  // leader mid-run.
  proto.set_states({WL, WF, WF, WF});
  sim.restart_from_protocol();

  invariant_options options;
  options.check_claim6 = false;
  options.check_ohms_law = false;
  invariant_checker checker(g, proto, options);
  sim.add_observer(&checker);
  sim.step();

  auto states = proto.states();
  states[2] = WL;
  proto.set_states(states);
  sim.resync_with_protocol();  // adopt the corruption mid-run
  sim.step();

  ASSERT_FALSE(checker.ok());
  bool mentions_increase = false;
  for (const auto& v : checker.violations()) {
    if (v.find("increased") != std::string::npos) mentions_increase = true;
  }
  EXPECT_TRUE(mentions_increase);
}

TEST(InvariantCheckerTest, ViolationListIsBounded) {
  // A pathological run must not allocate unbounded violation storage.
  const auto g = graph::make_cycle(6);
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, 29);
  proto.set_states(leaderless_wave_on_cycle(6));
  sim.restart_from_protocol();

  invariant_options options;
  options.check_ohms_law = false;
  invariant_checker checker(g, proto, options);
  sim.add_observer(&checker);
  sim.run_rounds(500);  // Lemma 9 would fire every round
  EXPECT_FALSE(checker.ok());
  EXPECT_LE(checker.violations().size(), 64U);
}

// Claim 6 injections: one case per equation. The checker is handed an
// exact pair of consecutive configurations through check_pair, and
// must report exactly the scan's messages, in order. Corrupting one equation
// usually breaks a companion too (a W -> F step violates both (3) and
// (9)); the expected lists name every message.
struct claim6_case {
  std::string label;
  graph::graph (*make)();
  std::vector<state_id> before;
  std::vector<state_id> after;
  std::vector<std::string> expected;
};

void PrintTo(const claim6_case& c, std::ostream* os) { *os << c.label; }

const std::string E3 = "round 0: Eq.(3): waiting node froze without beeping";
const std::string E4 = "round 0: Eq.(4): beeping node did not freeze";
const std::string E5 = "round 0: Eq.(5): frozen node did not return to waiting";
const std::string E6 =
    "round 0: Eq.(6): waiting neighbor of a beeper did not beep";
const std::string E7 = "round 0: Eq.(7): waiting node was beeping last round";
const std::string E8 =
    "round 0: Eq.(8): beeping node was not waiting last round";
const std::string E9 =
    "round 0: Eq.(9): frozen node was not beeping last round";
const std::string E10 =
    "round 0: Eq.(10): F/W edge without frozen predecessor";
const std::string E11 =
    "round 0: Eq.(11): relayed beep without a beeping neighbor";

graph::graph path2() { return graph::make_path(2); }
graph::graph path3() { return graph::make_path(3); }
graph::graph star4() { return graph::make_star(4); }

std::vector<claim6_case> claim6_cases() {
  return {
      {"eq3", path2, {WF, WF}, {FF, FF}, {E3, E9, E3, E9}},
      {"eq4", path2, {BF, BF}, {BL, BL}, {E4, E8, E4, E8}},
      {"eq5", path2, {FF, FF}, {FF, FF}, {E5, E9, E5, E9}},
      {"eq6", star4, {BF, WF, WF, WF}, {FF, BL, BL, BL}, {E6, E6, E6}},
      {"eq7", path2, {BF, BF}, {WF, WL}, {E4, E7, E4, E7}},
      {"eq8", path2, {FF, FL}, {BL, BL}, {E5, E8, E5, E8}},
      {"eq9", path3, {FF, FF, FF}, {FF, WF, WF}, {E5, E9}},
      {"eq10", path3, {WF, BF, WF}, {WF, FF, WF}, {E6, E10, E6, E10}},
      {"eq11", path3, {WF, WF, WF}, {BF, WF, BF}, {E11, E11}},
  };
}

class Claim6InjectionTest : public ::testing::TestWithParam<claim6_case> {};

TEST_P(Claim6InjectionTest, ReportsExactViolations) {
  const claim6_case& c = GetParam();
  const auto g = c.make();
  const bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);

  invariant_options options;
  options.check_ohms_law = false;  // isolate Claim 6
  invariant_checker checker(g, proto, options);
  checker.check_pair(c.before, c.after, 0);

  EXPECT_EQ(checker.violations(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Claim6, Claim6InjectionTest, ::testing::ValuesIn(claim6_cases()),
    [](const ::testing::TestParamInfo<claim6_case>& info) {
      return info.param.label;
    });

// The Claim-6 scan over state vectors, as the checker ran it before its
// word-level identities: the reference they must agree with.
std::vector<std::string> claim6_reference_scan(
    const graph::graph& g, const std::vector<state_id>& previous,
    const std::vector<state_id>& current) {
  std::vector<std::string> out;
  const auto report = [&](const char* message) {
    if (out.size() < 64) out.push_back(std::string("round 0: ") + message);
  };
  const auto relay = static_cast<state_id>(bfw_state::follower_beep);
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    const auto prev = previous[u];
    const auto curr = current[u];
    if (bfw_is_waiting(prev) && bfw_is_frozen(curr)) {
      report("Eq.(3): waiting node froze without beeping");
    }
    if (bfw_is_beeping(prev) && !bfw_is_frozen(curr)) {
      report("Eq.(4): beeping node did not freeze");
    }
    if (bfw_is_frozen(prev) && !bfw_is_waiting(curr)) {
      report("Eq.(5): frozen node did not return to waiting");
    }
    if (bfw_is_waiting(curr) && bfw_is_beeping(prev)) {
      report("Eq.(7): waiting node was beeping last round");
    }
    if (bfw_is_beeping(curr) && !bfw_is_waiting(prev)) {
      report("Eq.(8): beeping node was not waiting last round");
    }
    if (bfw_is_frozen(curr) && !bfw_is_beeping(prev)) {
      report("Eq.(9): frozen node was not beeping last round");
    }
    if (curr == relay) {
      bool neighbor_beeped = false;
      for (graph::node_id v : g.neighbors(u)) {
        if (bfw_is_beeping(previous[v])) neighbor_beeped = true;
      }
      if (!neighbor_beeped) {
        report("Eq.(11): relayed beep without a beeping neighbor");
      }
    }
  }
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    for (graph::node_id v : g.neighbors(u)) {
      if (bfw_is_beeping(previous[u]) && bfw_is_waiting(previous[v]) &&
          current[v] != relay) {
        report("Eq.(6): waiting neighbor of a beeper did not beep");
      }
      if (bfw_is_frozen(current[u]) && bfw_is_waiting(current[v]) &&
          !bfw_is_frozen(previous[v])) {
        report("Eq.(10): F/W edge without frozen predecessor");
      }
    }
  }
  return out;
}

TEST(InvariantInjectionTest, Claim6MatchesScan) {
  // Consecutive configurations of real runs with one to three nodes of
  // the later one overwritten: the word identities must flag exactly
  // the rounds the scan flags, and the reports must be the scan's. The
  // graphs cover the stencil (path, grid) and the CSR neighbour-ORs.
  support::rng rng(0xc1a6);
  const bfw_machine machine(0.5);
  const std::vector<graph::graph> graphs = {
      graph::make_path(70), graph::make_grid(9, 15),
      graph::make_erdos_renyi_connected(90, 0.05, rng)};
  std::size_t flagged = 0;
  std::size_t clean = 0;
  for (const auto& g : graphs) {
    beeping::fsm_protocol run_proto(machine);
    beeping::engine run(g, run_proto, 77);
    for (int trial = 0; trial < 60; ++trial) {
      run.run_rounds(1 + rng.uniform_below(5));
      const std::vector<state_id> before = run_proto.states();
      run.step();
      std::vector<state_id> after = run_proto.states();
      const std::size_t edits = rng.uniform_below(4);  // 0 keeps it valid
      for (std::size_t e = 0; e < edits; ++e) {
        after[rng.uniform_below(g.node_count())] =
            static_cast<state_id>(rng.uniform_below(bfw_state_count));
      }
      beeping::fsm_protocol proto(machine);
      invariant_options options;
      options.check_ohms_law = false;
      invariant_checker checker(g, proto, options);
      checker.check_pair(before, after, 0);
      const auto expected = claim6_reference_scan(g, before, after);
      ASSERT_EQ(checker.violations(), expected)
          << g.name() << " trial " << trial;
      (expected.empty() ? clean : flagged) += 1;
    }
  }
  EXPECT_GT(flagged, 60U);
  EXPECT_GT(clean, 20U);
}

}  // namespace
}  // namespace beepkit::core
