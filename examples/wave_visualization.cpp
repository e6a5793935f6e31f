// Beep-wave visualization: watch BFW run on a path, round by round.
//
//   ./build/examples/wave_visualization [--n 40] [--rounds 80]
//                                       [--p 0.1] [--seed 4]
//
// Output: one text row per round, one character per node.
//   W / B / F  : leader waiting / beeping / frozen
//   w / b / f  : non-leader (follower) waiting / beeping / frozen
//
// Waves expand away from leaders at one hop per round; when a wave
// crosses a waiting leader it eliminates it (a capital letter turns
// lower-case and never comes back); opposing waves crash and vanish.
#include <cstdio>

#include "beeping/engine.hpp"
#include "beeping/trace.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "wave_visualization [flags]",
      {{"n", "path length (default 40)"},
       {"rounds", "rounds per run (default 80)"},
       {"p", "beep probability (default 0.1)"},
       {"seed", "base seed (default 4)"}});
  const auto n = static_cast<std::size_t>(args.get_int("n", 40));
  const auto rounds = static_cast<std::uint64_t>(args.get_int("rounds", 80));
  const double p = args.get_double("p", 0.1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4));

  const auto g = graph::make_path(n);
  const core::bfw_machine machine(p);
  beeping::fsm_protocol protocol(machine);
  beeping::engine sim(g, protocol, seed);
  beeping::trace_recorder trace(protocol);
  beeping::series_recorder series;
  sim.add_observer(&trace);
  sim.add_observer(&series);

  sim.run_rounds(rounds);

  std::printf("BFW on %s, p=%.3g, seed %llu\n", g.name().c_str(), p,
              static_cast<unsigned long long>(seed));
  std::printf("legend: UPPER = leader, lower = follower; W/B/F = "
              "waiting/beeping/frozen\n\n");
  std::printf("%s", trace.render_ascii().c_str());

  std::printf("\nleader count by round: %zu -> %zu over %llu rounds\n",
              series.leader_counts().front(), series.leader_counts().back(),
              static_cast<unsigned long long>(rounds));
  const auto first = series.first_single_leader_round();
  if (first != beeping::series_recorder::npos) {
    std::printf("single leader reached in round %zu\n", first);
  } else {
    std::printf("still %zu leaders - rerun with more --rounds\n",
                sim.leader_count());
  }
  return 0;
}
