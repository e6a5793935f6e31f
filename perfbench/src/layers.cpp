#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/convergence.hpp"
#include "graph/gather.hpp"
#include "support/codec.hpp"
#include "sweep/jsonl.hpp"

namespace perfbench {

namespace bk = beepkit;
using bk::support::json;

namespace {

/// A fresh engine bound per `pi` (giant ones plane-pinned and tiled).
struct bound_engine {
  bk::core::bfw_machine machine;
  bk::beeping::fsm_protocol proto;
  bk::beeping::engine sim;

  bound_engine(const probe_instance& pi, std::uint64_t seed,
               std::size_t giant_threads)
      : machine(pi.recipe.machine()),
        proto(machine),
        sim(pi.view, proto, seed, {},
            pi.giant ? bk::beeping::engine_config::giant()
                     : bk::beeping::engine_config{}) {
    if (pi.giant) sim.set_parallelism(giant_threads, 0);
    if (pi.recipe.two_leaders) {
      proto.set_states(bk::core::two_leaders_at_path_ends(pi.view.node_count()));
      sim.restart_from_protocol();
    }
  }
};

/// Interleaves `reps` timings of a and b (alternating which goes
/// first) and returns median(a) / median(b) - 1.
template <typename A, typename B>
double paired_overhead(std::size_t reps, A&& a, B&& b) {
  std::vector<double> ta, tb;
  for (std::size_t r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      ta.push_back(a());
      tb.push_back(b());
    } else {
      tb.push_back(b());
      ta.push_back(a());
    }
  }
  return median(ta) / median(tb) - 1.0;
}

class prober {
 public:
  explicit prober(const layer_inputs& in) : in_(in) {}

  layer_report run();

 private:
  /// The workload a layer is measured on: the traced one when `own`,
  /// else a tiny build of `home_name` (built once, cached).
  workload& source(const std::string& metric_prefix, bool own,
                   const std::string& home_name);
  void put(const std::string& name, double value, const char* unit) {
    report_.metrics[name] = {value, unit};
  }

  void trace_overhead();
  void gather();
  void bind();
  void rounds();
  void telemetry_overhead();
  void observer_overhead();
  void giant_layers();
  void fault_layers();
  void sweep_layers();

  const layer_inputs& in_;
  layer_report report_;
  std::map<std::string, std::unique_ptr<workload>> homes_;
};

workload& prober::source(const std::string& metric_prefix, bool own,
                         const std::string& home_name) {
  report_.sources.set(metric_prefix, json(own ? std::string("own")
                                               : home_name + " (tiny)"));
  if (own) return in_.traced;
  auto& slot = homes_[home_name];
  if (!slot) {
    slot = make_workload(home_name, in_.traced.seed(), scale::tiny,
                         in_.run_dir);
    (void)slot->setup();
  }
  return *slot;
}

void prober::trace_overhead() {
  // Pass 0 again, after every probe has run in this process.
  std::vector<double> walls;
  for (const pass_stats& p : in_.untraced) walls.push_back(p.wall_s);
  const std::string& untraced_digest = in_.untraced.front().digest;
  const pass_stats traced_pass = in_.traced.run_pass(0);
  if (traced_pass.digest != untraced_digest) {
    report_.error = "traced pass digest " + traced_pass.digest +
                    " differs from the untraced " + untraced_digest;
  }
  report_.sources.set("trace", json("own"));
  put("trace.overhead_frac", traced_pass.wall_s / median(walls) - 1.0, "frac");
}

void prober::gather() {
  // Stencil: topologies with a usable tag. CSR: explicit untagged ones.
  struct bucket {
    double ns = 0.0;
    double words = 0.0;
  };
  const auto measure = [&](workload& w, bool stencil, bucket& out) {
    for (const probe_instance& pi : w.probe_instances()) {
      bk::graph::heard_gather kernel(pi.view);
      if (kernel.stencil_available() != stencil) continue;
      if (!stencil && pi.view.is_implicit()) continue;
      if (!stencil) kernel.force_kernel(bk::graph::gather_kernel::word_csr_push);
      // Beep sets sampled mid-run, after rounds 4, 8 and 12.
      std::vector<std::vector<std::uint64_t>> samples;
      {
        bound_engine e(pi, w.seed(), worker_count());
        for (int r = 1; r <= 12 && e.sim.leader_count() > 1; ++r) {
          e.sim.step();
          if (r % 4 == 0) {
            const auto beep = e.sim.beep_words();
            samples.emplace_back(beep.begin(), beep.end());
          }
        }
        if (samples.empty()) {
          const auto beep = e.sim.beep_words();
          samples.emplace_back(beep.begin(), beep.end());
        }
      }
      const std::size_t words = samples.front().size();
      std::vector<std::uint64_t> heard(words);
      const std::size_t reps =
          std::max<std::size_t>(3, (std::size_t{1} << 22) / (words * samples.size()));
      std::vector<double> copy_s, total_s;
      for (int round = 0; round < 5; ++round) {
        auto start = clock_type::now();
        for (std::size_t r = 0; r < reps; ++r) {
          for (const auto& beep : samples) {
            std::copy(beep.begin(), beep.end(), heard.begin());
          }
        }
        copy_s.push_back(seconds_since(start));
        start = clock_type::now();
        for (std::size_t r = 0; r < reps; ++r) {
          for (const auto& beep : samples) {
            std::copy(beep.begin(), beep.end(), heard.begin());
            kernel(beep, heard);
          }
        }
        total_s.push_back(seconds_since(start));
      }
      out.ns += std::max(0.0, median(total_s) - median(copy_s)) * 1e9;
      out.words += static_cast<double>(reps * samples.size() * words);
      report_.kernels.set(pi.view.name(),
                          json(bk::graph::gather_kernel_name(kernel.last_used())));
    }
  };
  const auto has = [](workload& w, bool stencil) {
    for (const probe_instance& pi : w.probe_instances()) {
      if (bk::graph::heard_gather(pi.view).stencil_available() == stencil &&
          (stencil || !pi.view.is_implicit())) {
        return true;
      }
    }
    return false;
  };
  bucket stencil_b, csr_b;
  measure(source("graph.gather_ns_per_word.stencil", has(in_.traced, true),
                 "giant_grid"),
          true, stencil_b);
  measure(source("graph.gather_ns_per_word.csr", has(in_.traced, false),
                 "paper_sweep"),
          false, csr_b);
  put("graph.gather_ns_per_word.stencil", stencil_b.ns / stencil_b.words, "ns");
  put("graph.gather_ns_per_word.csr", csr_b.ns / csr_b.words, "ns");
}

void prober::bind() {
  // Each probe instance bound afresh, as each trial's algorithm::run
  // binds: machine, protocol and engine, plus the restart from a
  // two-leader start (giant engines also start their tile threads).
  std::vector<double> bind_s;
  for (const probe_instance& pi : in_.traced.probe_instances()) {
    const std::uint64_t reps = pi.giant ? 3 : 100;
    for (std::uint64_t r = 0; r < reps; ++r) {
      const auto start = clock_type::now();
      const bound_engine e(pi, in_.traced.seed() + r, worker_count());
      bind_s.push_back(seconds_since(start));
    }
  }
  report_.sources.set("beeping.bind", json("own"));
  put("beeping.bind_us_p50", quantile(bind_s, 0.5) * 1e6, "us");
  put("beeping.bind_us_p99", quantile(bind_s, 0.99) * 1e6, "us");
}

void prober::rounds() {
  std::vector<double> round_ns;
  std::uint64_t compiled = 0, total = 0;
  double arena_bytes = 0.0, nodes = 0.0;
  for (const probe_instance& pi : in_.traced.probe_instances()) {
    bound_engine e(pi, in_.traced.seed(), worker_count());
    arena_bytes += static_cast<double>(e.sim.arena_bytes_reserved());
    nodes += static_cast<double>(pi.view.node_count());
    const std::size_t words = (pi.view.node_count() + 63) / 64;
    const std::uint64_t batch = pi.giant ? 1 : std::max<std::size_t>(1, 4096 / words);
    const auto budget_start = clock_type::now();
    while (e.sim.leader_count() > 1 && e.sim.round() < pi.max_rounds &&
           seconds_since(budget_start) < 2.0) {
      const std::uint64_t before = e.sim.round();
      const auto start = clock_type::now();
      for (std::uint64_t i = 0; i < batch && e.sim.leader_count() > 1; ++i) {
        e.sim.step();
      }
      const double s = seconds_since(start);
      round_ns.push_back(s * 1e9 / static_cast<double>(e.sim.round() - before));
    }
    const auto m = e.sim.telemetry_metrics();
    if (m.rounds_total() > 0) {
      compiled += m.rounds_plane_compiled;
      total += m.rounds_total();
    } else {  // telemetry compiled out: the engine's own counters
      compiled += e.sim.compiled_rounds();
      total += e.sim.round();
    }
  }
  report_.sources.set("beeping.round", json("own"));
  put("beeping.round_ns_p50", quantile(round_ns, 0.5), "ns");
  put("beeping.round_ns_p99", quantile(round_ns, 0.99), "ns");
  put("beeping.compiled_round_share",
      total == 0 ? 0.0 : static_cast<double>(compiled) / static_cast<double>(total),
      "frac");
  put("beeping.arena_bytes_per_node", arena_bytes / nodes, "B");
}

void prober::telemetry_overhead() {
  const auto small = [](workload& w) {
    std::vector<probe_instance> out;
    for (const probe_instance& pi : w.probe_instances()) {
      if (!pi.giant && pi.view.node_count() <= 64) out.push_back(pi);
    }
    return out;
  };
  const bool own = !small(in_.traced).empty();
  workload& w = source("beeping.telemetry_overhead_frac", own, "paper_sweep");
  const auto instances = small(w);
  const auto run_all = [&](bool telemetry) {
    const auto start = clock_type::now();
    for (const probe_instance& pi : instances) {
      const auto machine = pi.recipe.machine();
      bk::core::election_options options;
      options.max_rounds = pi.max_rounds;
      options.telemetry = telemetry;
      if (pi.recipe.two_leaders) {
        options.initial = bk::core::two_leaders_at_path_ends(pi.view.node_count());
      }
      if (pi.faults.has_value()) options.faults = &*pi.faults;
      for (std::uint64_t s = 0; s < 40; ++s) {
        (void)bk::core::run_election(pi.view, machine, w.seed() * 1000 + s,
                                     options);
      }
    }
    return seconds_since(start);
  };
  put("beeping.telemetry_overhead_frac",
      paired_overhead(7, [&] { return run_all(true); },
                      [&] { return run_all(false); }),
      "frac");
}

void prober::observer_overhead() {
  auto* own = dynamic_cast<sweep_workload*>(&in_.traced);
  const bool is_own = own != nullptr && own->has_microscope();
  auto& w = dynamic_cast<sweep_workload&>(
      source("beeping.observer_overhead_frac", is_own, "tightness"));
  const std::size_t trials = is_own ? 40 : 8;
  put("beeping.observer_overhead_frac",
      paired_overhead(5, [&] { return w.run_microscope(true, trials, nullptr); },
                      [&] { return w.run_microscope(false, trials, nullptr); }),
      "frac");
}

void prober::giant_layers() {
  auto* own = dynamic_cast<giant_workload*>(&in_.traced);
  auto& g = dynamic_cast<giant_workload&>(
      source("support.tile_speedup_4t+support.codec_MBps+core.giant",
             own != nullptr, "giant_grid"));
  const probe_instance pi = g.probe_instances().front();

  // Tile speedup: the pass's rounds on 1 thread versus `threads`.
  const auto time_rounds = [&](std::size_t threads, std::optional<bound_engine>& keep) {
    keep.emplace(pi, g.trial_seed(), threads);
    const auto start = clock_type::now();
    keep->sim.run_rounds(g.rounds());
    return seconds_since(start);
  };
  std::optional<bound_engine> engine;
  const double serial_s = time_rounds(1, engine);
  const double tiled_s = time_rounds(g.threads(), engine);
  put("support.tile_speedup_4t", serial_s / tiled_s, "x");

  // Codec: the checkpoint encoders over the live snapshot and cursors.
  {
    const auto state = engine->sim.plane_snapshot();
    std::vector<std::span<const std::uint64_t>> sections;
    for (std::size_t i = 0; i < state.plane_count; ++i) sections.push_back(state.planes[i]);
    sections.push_back(state.beep);
    sections.push_back(state.active);
    sections.push_back(state.leader);
    for (const auto& ledger : state.ledger) sections.push_back(ledger);
    sections.push_back(state.dirty);
    const auto cursors = engine->sim.rng_streams().cursors();
    double bytes = 0.0;
    std::size_t encoded = 0;
    const auto start = clock_type::now();
    for (const auto& section : sections) {
      encoded += bk::support::codec::encode_words(section).size();
      bytes += 8.0 * static_cast<double>(section.size());
    }
    encoded += bk::support::codec::encode_cursors(cursors).size();
    bytes += 4.0 * static_cast<double>(cursors.size());
    const double s = seconds_since(start);
    put("support.codec_MBps", encoded > 0 ? bytes / 1e6 / s : 0.0, "MB/s");
  }
  engine.reset();

  // Checkpoint cost: the pass with its journal versus without.
  std::vector<double> with, without;
  if (own != nullptr) {
    for (const pass_stats& p : in_.untraced) with.push_back(p.wall_s);
    without.push_back(g.run_trial(g.pass_options(false)));
  } else {
    for (int r = 0; r < 3; ++r) {
      with.push_back(g.run_trial(g.pass_options(true)));
      without.push_back(g.run_trial(g.pass_options(false)));
    }
  }
  put("core.giant_checkpoint_s", median(with) - median(without), "s");
  put("core.giant_journal_mb", static_cast<double>(g.last_journal_bytes()) / 1e6,
      "MB");
}

void prober::fault_layers() {
  const auto faulted = [](workload& w) {
    std::vector<probe_instance> out;
    for (const probe_instance& pi : w.probe_instances()) {
      if (pi.faults.has_value()) out.push_back(pi);
    }
    return out;
  };
  const bool own = !faulted(in_.traced).empty();
  workload& w = source("core.fault", own, "faulted_sweep");
  // Per trial: mean step() time per round; apply_pending() timed on the
  // rounds where it fired an event (step() then finds nothing pending).
  std::vector<double> round_ns, apply_us;
  for (const probe_instance& pi : faulted(w)) {
    for (std::uint64_t s = 0; s < 20; ++s) {
      bound_engine e(pi, w.seed() * 1000 + s, 1);
      bk::core::fault_session session(*pi.faults, e.sim, w.seed() * 1000 + s);
      double step_s = 0.0;
      while ((e.sim.alive_leader_count() > 1 || !session.exhausted()) &&
             e.sim.round() < pi.max_rounds) {
        const std::uint64_t applied = session.faults_applied();
        const auto t0 = clock_type::now();
        session.apply_pending();
        const auto t1 = clock_type::now();
        session.step();
        step_s += seconds_since(t1);
        if (session.faults_applied() != applied) {
          apply_us.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e6);
        }
      }
      if (e.sim.round() > 0) {
        round_ns.push_back(step_s * 1e9 / static_cast<double>(e.sim.round()));
      }
    }
  }
  double apply_mean = 0.0;
  for (const double v : apply_us) apply_mean += v;
  put("core.fault_round_ns_p50", median(round_ns), "ns");
  put("core.fault_apply_us",
      apply_us.empty() ? 0.0 : apply_mean / static_cast<double>(apply_us.size()),
      "us");
}

void prober::sweep_layers() {
  auto* own = dynamic_cast<sweep_workload*>(&in_.traced);

  // Worker use and per-trial busy inflation versus one worker.
  {
    auto& w = dynamic_cast<sweep_workload&>(
        source("sweep.workers", own != nullptr, "paper_sweep"));
    std::vector<pass_stats> passes;
    if (own != nullptr) {
      passes = in_.untraced;
    } else {
      for (int r = 0; r < 3; ++r) passes.push_back(w.run_pass(0));
    }
    double busy = 0.0, wall = 0.0;
    std::vector<double> busy_4;
    for (const pass_stats& p : passes) {
      busy += p.busy_s;
      wall += p.wall_s;
      busy_4.push_back(p.busy_s);
    }
    put("sweep.worker_util",
        busy / (wall * static_cast<double>(w.workers)), "frac");
    const std::size_t saved = w.workers;
    w.workers = 1;
    std::vector<double> busy_1;
    for (int r = 0; r < 2; ++r) busy_1.push_back(w.run_pass(0).busy_s);
    w.workers = saved;
    put("sweep.busy_inflation", median(busy_4) / median(busy_1), "x");

    put("sweep.jsonl_overhead_frac",
        paired_overhead(6, [&] { return w.run_pass(0).wall_s; },
                        [&] {
                          w.write_jsonl = false;
                          const double s = w.run_pass(0).wall_s;
                          w.write_jsonl = true;
                          return s;
                        }),
        "frac");
  }

  // Record writing and the two-pass merge over this workload's shards.
  {
    auto& w = dynamic_cast<sweep_workload&>(
        source("sweep.records", own != nullptr, "faulted_sweep"));
    (void)w.run_pass(0);  // leaves its shard files in the run dir
    const auto paths = w.shard_paths();
    std::vector<json> records;
    double bytes = 0.0;
    for (const auto& path : paths) {
      bytes += static_cast<double>(std::filesystem::file_size(path));
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) {
        if (auto rec = json::parse(line)) records.push_back(std::move(*rec));
      }
    }
    const std::string replay = in_.run_dir + "/replay.jsonl";
    bk::sweep::record_writer writer;
    if (!writer.open(replay)) throw std::runtime_error("cannot open " + replay);
    const auto start = clock_type::now();
    for (const json& rec : records) writer.write_record(rec);
    if (!writer.close()) throw std::runtime_error("replay write failed");
    const double write_s = seconds_since(start);
    std::filesystem::remove(replay);
    put("sweep.write_ns_per_record",
        write_s * 1e9 / static_cast<double>(records.size()), "ns");
    // The stall stays 0 unless the queue reaches its 65536-line bound,
    // which these record counts never do; a constant-zero time is no
    // metric, so it goes to the stamp and the depth is reported instead.
    put("sweep.write_queue_depth_max",
        static_cast<double>(writer.max_queue_depth()), "count");
    report_.write_stall_s = writer.stall_seconds();

    std::vector<double> merge_s;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = clock_type::now();
      (void)bk::sweep::merge_shards(paths);
      merge_s.push_back(seconds_since(t0));
    }
    put("sweep.merge_s", median(merge_s), "s");
    put("sweep.merge_mbps", bytes / 1e6 / median(merge_s), "MB/s");
  }
}

layer_report prober::run() {
  report_.sources = json(json::object{});
  report_.kernels = json(json::object{});
  put("support.autotune_ms", in_.autotune_ms, "ms");
  put("graph.instance_build_s", in_.instance_build_s, "s");
  report_.sources.set("support.autotune_ms", json("own"));
  report_.sources.set("graph.instance_build_s", json("own"));
  bind();
  gather();
  rounds();
  telemetry_overhead();
  observer_overhead();
  giant_layers();
  fault_layers();
  sweep_layers();
  trace_overhead();
  return std::move(report_);
}

}  // namespace

layer_report measure_layers(const layer_inputs& in) { return prober(in).run(); }

}  // namespace perfbench
