// giant_trial: run one checkpointable giant-topology election trial
// from the command line (the operational face of core/giant.hpp).
//
//   giant_trial --topology grid:8192x8192 --p 0.5 --seed 7 \
//       --checkpoint trial.jsonl --checkpoint-every 64
//
//   # later, after a kill:
//   giant_trial --topology grid:8192x8192 --p 0.5 --seed 7 \
//       --checkpoint trial.jsonl --resume
//
// Prints one GIANT_RESULT JSON line (machine-readable, stable field
// order) plus the peak RSS from /proc/self/status, which is what the
// CI memory-budget job asserts against.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/bfw.hpp"
#include "core/giant.hpp"
#include "graph/view.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace {

/// Peak resident set in KiB from /proc/self/status (0 when absent,
/// e.g. non-Linux).
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "giant_trial --topology SPEC [flags]",
      {{"topology", "path:N | ring:N | grid:RxC | torus:RxC"},
       {"p", "BFW beep probability (default 0.5)"},
       {"seed", "trial seed (default 1)"},
       {"max-rounds", "horizon (default: Theorem-2 bound)"},
       {"checkpoint", "checkpoint journal (JSONL, appendable)"},
       {"checkpoint-every", "rounds between snapshots (default 0)"},
       {"resume", "resume from the journal's last snapshot", true},
       {"stop-after-round", "stop early with a forced snapshot"},
       {"threads", "tiled round workers (1 = serial, the default; 0 = all "
                   "cores); any count is bit-identical"},
       {"tile-words",
        "tile size in words (default 0: 8192; a smaller engine runs "
        "one serial tile)"}});

  const std::string spec = args.get_string("topology", "");
  const auto view = graph::topology_view::parse(spec);
  if (!view.has_value()) {
    std::fprintf(stderr,
                 "giant_trial: bad or missing --topology '%s' "
                 "(path:N | ring:N | grid:RxC | torus:RxC)\n",
                 spec.c_str());
    return 2;
  }

  core::giant_options options;
  options.max_rounds =
      static_cast<std::uint64_t>(args.get_int("max-rounds", 0));
  options.checkpoint_path = args.get_string("checkpoint", "");
  options.checkpoint_every =
      static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
  options.resume = args.has("resume");
  options.stop_after_round =
      static_cast<std::uint64_t>(args.get_int("stop-after-round", 0));
  options.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  options.tile_words =
      static_cast<std::size_t>(args.get_int("tile-words", 0));
  const double p = args.get_double("p", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  try {
    const core::bfw_machine machine(p);
    const auto result = core::run_giant_trial(*view, machine, seed, options);

    using support::json;
    const json summary(json::object{
        {"topology", json(view->name())},
        {"n", json(static_cast<std::uint64_t>(view->node_count()))},
        {"seed", json(seed)},
        {"converged", json(result.converged)},
        {"rounds", json(result.rounds)},
        {"leaders", json(static_cast<std::uint64_t>(result.leaders))},
        {"leader", json(static_cast<std::uint64_t>(result.leader))},
        {"draws", json(result.draws)},
        {"start_round", json(result.start_round)},
        {"checkpoints", json(result.checkpoints_written)},
        {"stopped_early", json(result.stopped_early)},
        {"arena_bytes", json(static_cast<std::uint64_t>(result.arena_bytes))},
        {"peak_rss_kib", json(peak_rss_kib())},
        {"exec_threads",
         json(static_cast<std::uint64_t>(result.exec_threads))},
        {"exec_tile_words",
         json(static_cast<std::uint64_t>(result.exec_tile_words))},
        {"cursor_bytes", json(static_cast<std::uint64_t>(result.cursor_bytes))},
    });
    std::printf("GIANT_RESULT %s\n", summary.dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "giant_trial: %s\n", e.what());
    return 1;
  }
  return 0;
}
