// perfbench: one program for beepkit's end-to-end and per-layer numbers.
//
//   perfbench --workload NAME --seed S --seconds T --run-dir DIR
//             [--trace 0|1] [--pins FILE] [--scale full|tiny]
//             [--setup-only]
//
// Set-up (autotune probes, graph generation, instances, giant arena)
// is timed first; then passes of the workload repeat until T seconds
// have elapsed. Every sweep pass is checked against an independent
// recomputation of its output digest (JSONL merge vs in-process); pass
// 0 also against the digest pinned for seed S in FILE, or a serial rerun
// when S has no pin; repeated giant passes against pass 0. The last stdout line is
// one JSON object with "correct", "attempted", "failed", "metrics" and
// "stamp".
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "workloads.hpp"

namespace {

namespace bk = beepkit;
using bk::support::json;
using namespace perfbench;

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;
  std::string pins;
  scale size = scale::full;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value().c_str(), nullptr);
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--run-dir") a.run_dir = value();
    else if (flag == "--pins") a.pins = value();
    else if (flag == "--scale") a.size = value() == "tiny" ? scale::tiny : scale::full;
    else if (flag == "--setup-only") a.setup_only = true;
    else usage("unknown flag " + flag);
  }
  if (a.run_dir.empty()) usage("--run-dir is required");
  return a;
}

/// The digest pinned for (workload, seed) at full scale, or "".
std::string pinned_digest(const args& a) {
  if (a.pins.empty() || a.size != scale::full) return {};
  std::ifstream in(a.pins);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = json::parse(text.str());
  if (!doc) usage("unreadable pins file " + a.pins);
  const json* per_workload = doc->find(a.workload);
  if (per_workload == nullptr) return {};
  const json* pin = per_workload->find(std::to_string(a.seed));
  return pin != nullptr ? pin->as_string() : std::string{};
}

/// Runs a correctness check; what it throws is its failure reason.
template <typename Check>
std::string guarded(Check&& check) {
  try {
    return check();
  } catch (const std::exception& error) {
    return error.what();
  }
}

json metrics_json(const metric_map& metrics) {
  json out(json::object{});
  for (const auto& [name, m] : metrics) {
    out.set(name, json(json::object{{"value", json(m.value)},
                                    {"unit", json(m.unit)}}));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = clock_type::now();
  const args a = parse(argc, argv);

  // ---- set-up: autotune probes, instances, giant arena ---------------
  const auto autotune_start = clock_type::now();
  const std::size_t width = bk::support::simd::autotuned_width();
  std::size_t tile_words = 0;
  {
    bk::support::tile_executor exec(worker_count());
    tile_words = bk::support::autotuned_tile_words(exec);
  }
  const double autotune_ms = seconds_since(autotune_start) * 1e3;
  auto w = make_workload(a.workload, a.seed, a.size, a.run_dir);
  if (!w) usage("unknown workload '" + a.workload + "'");
  const double instance_build_s = w->setup();
  const double setup_s = seconds_since(process_start);
  if (a.setup_only) {
    std::printf("%s\n", json(json::object{{"setup_s", json(setup_s)}}).dump().c_str());
    return 0;
  }

  // ---- timed phase: whole passes until the budget is spent -----------
  // Each sweep pass is checked right after it ran, outside its timer.
  // Peak RSS is read after pass 0: later passes only grow the latency
  // log, which would tie the reading to how many passes fit. Trial
  // latency percentiles are taken per pass, so one disturbed pass moves
  // only its own sample of the median over passes.
  std::vector<pass_stats> passes;
  std::vector<std::string> checks;
  std::vector<double> pass_p50_ms, pass_p99_ms;
  std::size_t trial_samples = 0;
  double rss_mb = 0.0;
  const auto timed_start = clock_type::now();
  do {
    const std::size_t logged = w->log().size();
    passes.push_back(w->run_pass(passes.size()));
    const pass_stats& p = passes.back();
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    checks.push_back(p.error.empty() ? guarded([&] { return w->check_pass(p); })
                                     : std::string{});
    if (p.error.empty()) {
      const std::vector<double> trial_s = w->log().seconds(logged);
      trial_samples += trial_s.size();
      pass_p50_ms.push_back(quantile(trial_s, 0.5) * 1e3);
      pass_p99_ms.push_back(quantile(trial_s, 0.99) * 1e3);
    }
  } while (seconds_since(timed_start) < a.seconds);

  // ---- correctness ----------------------------------------------------
  // A pass fails when it throws or misses its check. Pass 0 must match
  // the pin for this seed, or for a seed without one survive the serial
  // recomputation; repeated passes must match pass 0.
  const pass_stats& first = passes.front();
  std::string expected = pinned_digest(a);
  const bool pinned = !expected.empty();
  if (!pinned) expected = first.digest;
  std::vector<std::string> errors;
  if (!pinned && first.error.empty()) {
    const std::string why = guarded([&] { return w->final_check(first); });
    if (!why.empty()) errors.push_back(why), expected = "final check failed";
  }
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const pass_stats& p = passes[k];
    attempted += p.trials;
    std::string why = !p.error.empty() ? p.error : checks[k];
    if (why.empty() && k == 0 && p.digest != expected) {
      why = "pass 0 digest " + p.digest + " misses the expected " + expected;
    }
    if (why.empty() && k > 0 && w->passes_repeat() && p.digest != first.digest) {
      why = "pass " + std::to_string(k) + " digest " + p.digest +
            " differs from pass 0";
    }
    if (!why.empty()) {
      failed += p.trials;
      if (errors.size() < 8) errors.push_back(why);
    }
  }

  // ---- end-to-end metrics (always from the untraced passes) ----------
  std::vector<double> walls, trial_rates, node_round_rates;
  for (const pass_stats& p : passes) {
    if (!p.error.empty()) continue;  // failed above; no timing to report
    walls.push_back(p.wall_s);
    trial_rates.push_back(static_cast<double>(p.trials) / p.wall_s);
    node_round_rates.push_back(p.node_rounds / p.wall_s);
  }
  const double wall_s = median(walls);
  metric_map metrics;
  metrics["setup_s"] = {setup_s, "s"};
  metrics["wall_s"] = {wall_s, "s"};
  metrics["trials_per_s"] = {median(trial_rates), "1/s"};
  metrics["node_rounds_per_s"] = {median(node_round_rates), "1/s"};
  metrics["trial_ms_p50"] = {median(pass_p50_ms), "ms"};
  metrics["trial_ms_p99"] = {median(pass_p99_ms), "ms"};
  metrics["peak_rss_mb"] = {rss_mb, "MB"};

  json stamp(json::object{
      {"workload", json(a.workload)},
      {"seed", json(a.seed)},
      {"scale", json(a.size == scale::full ? "full" : "tiny")},
      {"build", bk::support::build_info::current().to_json()},
      {"nproc", json(static_cast<std::uint64_t>(std::thread::hardware_concurrency()))},
      {"workers", json(static_cast<std::uint64_t>(worker_count()))},
      {"llc_bytes", json(static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)))},
      {"autotune", json(json::object{
                       {"width", json(static_cast<std::uint64_t>(width))},
                       {"tile_words", json(static_cast<std::uint64_t>(tile_words))},
                       {"ms", json(autotune_ms)}})},
      {"passes", json(static_cast<std::uint64_t>(passes.size()))},
      {"pass_wall_s", [&] {
         json::array list;
         for (const double s : walls) list.push_back(json(s));
         return json(list);
       }()},
      {"trial_samples", json(static_cast<std::uint64_t>(trial_samples))},
      {"digest", json(first.digest)},
      {"pinned", json(pinned)},
  });
  if (auto* giant = dynamic_cast<giant_workload*>(w.get())) {
    stamp.set("giant_working_set_bytes",
              json(static_cast<std::uint64_t>(giant->working_set_bytes())));
  }

  // ---- traced run: per-layer numbers ---------------------------------
  if (a.trace) {
    const layer_report layers = measure_layers(
        {*w, passes, autotune_ms, instance_build_s, a.run_dir});
    if (!layers.error.empty()) {
      errors.push_back(layers.error);
      failed = attempted;
    }
    stamp.set("end_to_end", metrics_json(metrics));
    metrics = layers.metrics;
    stamp.set("layer_sources", layers.sources);
    stamp.set("gather_kernels", layers.kernels);
    stamp.set("write_stall_s", json(layers.write_stall_s));
  }

  json::array error_list;
  for (const auto& e : errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    error_list.push_back(json(e));
  }
  stamp.set("errors", json(error_list));

  const json result(json::object{
      {"correct", json(errors.empty() && failed == 0)},
      {"attempted", json(attempted)},
      {"failed", json(failed)},
      {"metrics", metrics_json(metrics)},
      {"stamp", stamp},
  });
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
