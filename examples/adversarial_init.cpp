// The Section-5 obstruction, live: why BFW needs its initial
// configuration (Eq. 2), i.e. why it is not self-stabilizing.
//
//   ./build/examples/adversarial_init [--n 24] [--rounds 120]
//
// We inject a leaderless beep wave on a cycle. Locally, every node
// sees exactly what it would see downstream of a legitimate leader -
// a beep arriving, a relay, a frozen round - yet there is no leader
// and never will be: followers cannot become leaders. The same wave
// started on a path dies at the boundary, showing the phenomenon is a
// cycle artifact.
#include <cstdio>

#include "beeping/engine.hpp"
#include "beeping/trace.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "adversarial_init [flags]",
      {{"n", "path length (default 24)"},
       {"rounds", "rounds per run (default 120)"}});
  const auto n = static_cast<std::size_t>(args.get_int("n", 24));
  const auto rounds = static_cast<std::uint64_t>(args.get_int("rounds", 120));

  const auto g = graph::make_cycle(n);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol protocol(machine);
  beeping::engine sim(g, protocol, 1);
  protocol.set_states(core::leaderless_wave_on_cycle(n));
  sim.restart_from_protocol();

  beeping::trace_recorder trace(protocol, 40);
  sim.add_observer(&trace);

  std::printf("leaderless wave on %s - first 40 rounds:\n", g.name().c_str());
  sim.run_rounds(rounds);
  std::printf("%s\n", trace.render_ascii().c_str());

  std::printf("after %llu rounds: %zu leaders, wave still alive "
              "(node 0 beeped %llu times)\n",
              static_cast<unsigned long long>(rounds), sim.leader_count(),
              static_cast<unsigned long long>(sim.beep_count(0)));
  std::printf("-> an arbitrary initial configuration can defeat eventual "
              "leader election forever.\n\n");

  // Worse: a quiet legitimate leader dropped into this configuration
  // is eventually assassinated - the phantom front catches it
  // un-frozen and eliminates it, after which the wave rules a
  // leaderless ring forever. (A chatty p = 1/2 leader shields itself
  // by intercepting the phantom with its own waves - see
  // bench/adversarial_waves for both regimes.) Lemma 9 only protects
  // configurations satisfying Eq. (2).
  const core::bfw_machine quiet(0.05);
  beeping::fsm_protocol protocol2(quiet);
  beeping::engine sim2(g, protocol2, 2);
  auto states = core::leaderless_wave_on_cycle(n);
  states[n / 2] = static_cast<beeping::state_id>(core::bfw_state::leader_wait);
  protocol2.set_states(states);
  sim2.restart_from_protocol();

  std::uint64_t extinction_round = 0;
  for (std::uint64_t r = 0; r < 1000000 && sim2.leader_count() > 0; ++r) {
    sim2.step();
    extinction_round = sim2.round();
  }
  if (sim2.leader_count() == 0) {
    std::printf("a leader re-inserted at node %zu was assassinated by the "
                "phantom wave in round %llu\n",
                n / 2, static_cast<unsigned long long>(extinction_round));
  } else {
    std::printf("the re-inserted leader survived 10^6 rounds (rare; rerun "
                "with another seed)\n");
  }
  std::printf("-> relaxing the initial-configuration assumption without more "
              "states is the paper's open question.\n");
  return 0;
}
