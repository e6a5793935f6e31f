// E5 - the Section 3 deterministic theory, enforced at runtime: Claim 6
// (local transition facts), Lemma 9 (leader floor), Corollary 8 (Ohm's
// law on sampled paths), Lemma 11 (beep-spread vs distance) and
// Lemma 12 (propagation deadlines) are all checked on every round of
// live BFW runs across a topology battery. The paper proves these hold
// always; the table reports zero violations over hundreds of thousands
// of node-rounds, plus the checker's overhead. Exits 1 when any
// violation count is nonzero.
//
//   ./build/bench/flow_invariants [--rounds 400] [--seed 6] [--threads 0]
#include <chrono>
#include <cstdio>

#include "analysis/experiment.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/invariants.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "flow_invariants [flags]",
      {{"rounds", "rounds per run (default 400)"},
       {"seed", "base seed (default 6)"},
       {"threads", "worker threads (default 0: all cores)"}});
  const auto rounds = static_cast<std::uint64_t>(args.get_int("rounds", 400));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 6));
  const std::size_t threads = args.get_threads();
  analysis::throughput_meter meter;

  std::printf("=== E5: Section 3 flow invariants, checked live ===\n\n");

  support::rng graph_rng(seed);
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::make_path(48));
  graphs.push_back(graph::make_cycle(40));
  graphs.push_back(graph::make_grid(7, 7));
  graphs.push_back(graph::make_complete_binary_tree(63));
  graphs.push_back(graph::make_erdos_renyi_connected(48, 0.1, graph_rng));
  graphs.push_back(graph::make_barbell(10, 8));

  support::table table({"graph", "rounds", "node-rounds", "Claim6", "Lemma9",
                        "Ohm(Cor8)", "Lemma11", "Lemma12", "violations",
                        "overhead"});
  table.set_title("All checks enabled, p = 1/2, one run per graph");

  // One checked run per graph, fanned out across the pool (timing
  // ratios per graph are measured inside each work item, so contention
  // can only add noise, never change a violation count).
  struct graph_result {
    std::size_t violations = 0;
    double plain_time = 0.0;
    double checked_time = 0.0;
  };
  std::vector<graph_result> results(graphs.size());
  support::parallel_for(graphs.size(), threads, [&](std::size_t i) {
    const auto& g = graphs[i];
    // Plain run for the timing baseline.
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol plain_proto(machine);
    beeping::engine plain(g, plain_proto, seed);
    const auto t0 = std::chrono::steady_clock::now();
    plain.run_rounds(rounds);
    results[i].plain_time = seconds_since(t0);

    // Checked run.
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(g, proto, seed);
    core::invariant_options options;
    options.check_lemma11 = true;
    options.check_lemma12 = true;
    core::invariant_checker checker(g, proto, options);
    sim.add_observer(&checker);
    const auto t1 = std::chrono::steady_clock::now();
    sim.run_rounds(rounds);
    results[i].checked_time = seconds_since(t1);
    results[i].violations = checker.violations().size();
  });
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& g = graphs[i];
    const graph_result& r = results[i];
    meter.add_run(2 * rounds);
    table.add_row(
        {g.name(),
         support::table::num(static_cast<long long>(rounds)),
         support::table::num(
             static_cast<long long>(rounds * g.node_count())),
         "on", "on", "on", "on", "on",
         support::table::num(static_cast<long long>(r.violations)),
         support::table::num(
             r.plain_time > 0 ? r.checked_time / r.plain_time : 0.0, 1) +
             "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("every violation count must read 0: the Section 3 lemmas are "
              "theorems,\nnot statistics - one counterexample would falsify "
              "the implementation\n(see tests/test_invariants.cpp for the "
              "injected-failure positives).\n");
  std::printf("\n%s\n", meter.summary(threads).c_str());
  int status = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (results[i].violations == 0) continue;
    std::fprintf(stderr, "flow_invariants: %zu violation(s) on %s\n",
                 results[i].violations, graphs[i].name().c_str());
    status = 1;
  }
  return status;
}
