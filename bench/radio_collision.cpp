// EX4 (extension) - what collision detection is worth (Section 1.4).
// The paper notes that radio networks and the stone-age model, unlike
// the beeping model without CD, "accurately detect the situation where
// a single neighbor emits a signal, which significantly impacts
// algorithm design". Running the identical six-state BFW machine on
// three reception semantics makes the impact concrete:
//
//   beeping ("at least one")   - the paper's model; Lemma 9 holds;
//   radio + CD                 - provably the same predicate;
//                                bit-identical runs (tested);
//   radio without CD           - collisions mask beeps: an erasure
//                                channel in disguise. Elections still
//                                usually complete (a masked
//                                elimination is retried), but the
//                                Lemma 9 floor is gone and elected
//                                leaders can later self-destruct via
//                                desynchronized echoes.
//
//   ./build/bench/radio_collision [--trials 25] [--seed 14] [--threads 0]
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "radio/radio.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace beepkit;

struct mode_outcome {
  std::size_t elected = 0;
  std::size_t extinct = 0;
  std::vector<double> rounds;
};

template <typename MakeEngine>
mode_outcome run_mode(std::size_t trials, std::uint64_t seed,
                      std::uint64_t horizon, std::size_t threads,
                      analysis::throughput_meter& meter,
                      MakeEngine make_engine) {
  struct mode_trial {
    bool elected = false;
    bool extinct = false;
    std::uint64_t round = 0;
  };
  const auto runs = analysis::map_trials(
      trials, seed, threads,
      [&](std::size_t /*trial*/, std::uint64_t trial_seed) {
        const core::bfw_machine machine(0.5);
        beeping::fsm_protocol proto(machine);
        auto sim = make_engine(proto, trial_seed);
        mode_trial result;
        while (sim->round() < horizon) {
          if (sim->leader_count() == 1) {
            result.elected = true;
            break;
          }
          if (sim->leader_count() == 0) {
            result.extinct = true;
            break;
          }
          sim->step();
        }
        result.round = sim->round();
        return result;
      });
  mode_outcome out;
  for (const mode_trial& run : runs) {
    meter.add_run(run.round);
    if (run.elected) {
      ++out.elected;
      out.rounds.push_back(static_cast<double>(run.round));
    } else if (run.extinct) {
      ++out.extinct;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const support::cli args(
      argc, argv, "radio_collision [flags]",
      {{"trials", "trials per cell (default 25)"},
       {"seed", "base seed (default 14)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 14));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== EX4: BFW across reception semantics (Section 1.4) "
              "===\n\n");

  support::table table({"graph", "semantics", "elected", "median rounds",
                        "extinct"});
  table.set_title("First single-leader vs extinction, horizon 100k, " +
                  std::to_string(trials) + " trials");
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::make_path(32));
  graphs.push_back(graph::make_grid(6, 6));
  graphs.push_back(graph::make_complete(32));

  constexpr std::uint64_t horizon = 100000;
  for (const auto& g : graphs) {
    struct mode {
      const char* label;
      bool cd;
    };
    // The beeping model IS the radio+CD row: the predicates coincide
    // and the engines replay each other bit for bit (tested in
    // tests/test_radio.cpp), so one engine serves both rows honestly.
    for (const mode m :
         {mode{"beeping == radio+CD", true}, mode{"radio, no CD", false}}) {
      const auto out = run_mode(
          trials, seed, horizon, threads, meter,
          [&](beeping::fsm_protocol& proto, std::uint64_t s)
              -> std::unique_ptr<radio::engine> {
            return std::make_unique<radio::engine>(g, proto, s, m.cd);
          });
      table.add_row(
          {g.name(), m.label,
           std::to_string(out.elected) + "/" + std::to_string(trials),
           out.elected
               ? support::table::num(support::quantile(out.rounds, 0.5), 0)
               : "-",
           std::to_string(out.extinct) + "/" + std::to_string(trials)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("radio+CD rows equal the beeping rows (same predicate, same\n"
              "seeds). Without CD, elimination beeps masked by collisions\n"
              "slow high-degree graphs down and void the Lemma 9 floor -\n"
              "the \"significant impact\" of Section 1.4, quantified.\n");
  std::printf("\n%s\n", meter.summary(threads).c_str());
  return 0;
}
