#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/gather.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "sweep/jsonl.hpp"

namespace beepkit::sweep {

namespace {

/// Number of x in [base, base + span) with x % count == index.
std::uint64_t owned_in_range(std::uint64_t base, std::uint64_t span,
                             support::shard_spec shard) {
  if (span == 0) return 0;
  const std::uint64_t r = base % shard.count;
  const std::uint64_t first =
      base + (shard.index + shard.count - r) % shard.count;
  if (first >= base + span) return 0;
  return 1 + (base + span - 1 - first) / shard.count;
}

cell_record make_cell_record(std::size_t index,
                             const analysis::matrix_cell& cell) {
  cell_record record;
  record.cell = index;
  record.algorithm = cell.algo.name;
  record.graph = cell.inst->name();
  record.n = cell.inst->node_count();
  record.diameter = cell.inst->diameter;
  record.trials = cell.trials;
  record.seed = cell.seed;
  record.max_rounds = cell.max_rounds;
  return record;
}

/// One unit in the reorder window.
struct window_slot {
  unit u;
  bool resumed = false;
  bool done = false;  ///< Outcome (or error) ready to fold.
  core::election_outcome outcome;
  double seconds = 0.0;
  std::exception_ptr error;  ///< The trial threw; rethrown when folded.
};

/// Units a worker may run ahead of the oldest unfolded one: room for
/// the other workers to keep going behind a trial that runs to its
/// horizon (~0.6 MB of slots at 4 threads).
constexpr std::size_t kWindowUnitsPerThread = 1024;

/// Barrier-free in-order executor (an in-order-commit reorder window,
/// Smith & Pleszkun, ISCA 1985). `threads` workers - the caller is one
/// of them - each pull the next unit into a bounded ring and run it
/// outside the lock. Whichever worker finds the window head complete
/// folds every ready head unit, strictly in global order, while the
/// others keep running trials (flat combining, Hendler et al., SPAA
/// 2010); only one thread folds at a time.
///
/// `pull(slot)` fills the next unit and returns false when the source
/// is exhausted; it may mark the slot done (a resumed unit). `run(slot)`
/// computes a fresh unit. `fold(slot)` commits one unit. A trial's
/// exception stops new pulls and is rethrown when the fold reaches its
/// unit, so every earlier unit is committed first; a pull or fold
/// exception stops the workers at once. Either way every worker is
/// joined before the exception reaches the caller.
template <typename Pull, typename Run, typename Fold>
void stream_in_order(std::size_t threads, std::size_t window, Pull& pull,
                     Run& run, Fold& fold) {
  std::mutex mutex;
  std::condition_variable wake;
  std::vector<window_slot> ring(window);
  std::uint64_t head = 0;  // oldest unfolded unit, in pull order
  std::uint64_t tail = 0;  // next unit to pull
  bool exhausted = false;  // pull() returned false
  bool trial_failed = false;
  bool folding = false;
  std::size_t waiting = 0;
  std::exception_ptr error;

  const auto fail = [&](std::exception_ptr e) {  // under the lock
    if (!error) error = std::move(e);
    wake.notify_all();
  };

  // All three read state guarded by `mutex`.
  const auto head_ready = [&] {
    return !folding && head < tail && ring[head % window].done;
  };
  const auto can_pull = [&] {
    return !exhausted && !trial_failed && tail - head < window;
  };
  const auto finished = [&] { return exhausted && head == tail; };

  const auto work = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (!error && !finished()) {
      if (head_ready()) {
        // [head, end) is complete and stays put: no pull reuses a slot
        // until head moves past it.
        std::uint64_t end = head + 1;
        while (end < tail && ring[end % window].done) ++end;
        folding = true;
        lock.unlock();
        std::exception_ptr failure;
        try {
          for (std::uint64_t i = head; i < end; ++i) {
            const window_slot& p = ring[i % window];
            if (p.error) std::rethrow_exception(p.error);
            fold(p);
          }
        } catch (...) {
          failure = std::current_exception();
        }
        lock.lock();
        folding = false;
        head = end;
        if (failure) {
          fail(failure);
        } else if (waiting != 0) {
          wake.notify_all();  // window space, or the end of the stream
        }
      } else if (can_pull()) {
        window_slot& p = ring[tail % window];
        p = window_slot{};
        try {
          exhausted = !pull(p);
        } catch (...) {
          fail(std::current_exception());
          break;
        }
        if (exhausted) {
          if (waiting != 0) wake.notify_all();
          continue;
        }
        ++tail;
        if (p.done) continue;
        lock.unlock();
        try {
          run(p);
        } catch (...) {
          p.error = std::current_exception();
        }
        lock.lock();
        p.done = true;
        trial_failed = trial_failed || p.error != nullptr;
      } else {
        // Window full behind a running head, another thread folding, or
        // the last units still running.
        ++waiting;
        wake.wait(lock, [&] {
          return error || finished() || head_ready() || can_pull();
        });
        --waiting;
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  try {
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex);
    fail(std::current_exception());
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::uint64_t spec::total_units() const noexcept {
  std::uint64_t total = 0;
  for (const auto& cell : cells) {
    total += cell.trials;
  }
  return total;
}

work_source::work_source(const spec& s, support::shard_spec shard)
    : spec_(&s), shard_(shard) {
  std::uint64_t base = 0;
  for (const auto& cell : s.cells) {
    owned_ += owned_in_range(base, cell.trials, shard_);
    base += cell.trials;
  }
  total_ = base;
  if (!s.cells.empty()) {
    seeder_ = support::rng(s.cells.front().seed);
  }
}

std::optional<unit> work_source::next() {
  const auto& cells = spec_->cells;
  while (cell_ < cells.size()) {
    const std::uint64_t trials = cells[cell_].trials;
    std::uint64_t t = next_trial_;
    if (t < trials) {
      // Jump to the next trial this shard owns: global index congruent
      // to shard.index modulo shard.count.
      const std::uint64_t r = (cell_base_ + t) % shard_.count;
      t += (shard_.index + shard_.count - r) % shard_.count;
    }
    if (t >= trials) {
      cell_base_ += trials;
      ++cell_;
      next_trial_ = 0;
      drawn_ = 0;
      if (cell_ < cells.size()) {
        seeder_ = support::rng(cells[cell_].seed);
      }
      continue;
    }
    // Advance the cell's seed stream to trial t - drawing and
    // discarding the seeds of units other shards own, which is what
    // keeps the derivation identical to the serial run_trials loop.
    std::uint64_t seed = 0;
    while (drawn_ <= t) {
      seed = seeder_.next_u64();
      ++drawn_;
    }
    next_trial_ = t + 1;
    return unit{cell_, t, cell_base_ + t, seed};
  }
  return std::nullopt;
}

shard_result run(const spec& s, const options& opts) {
  // Sweep-layer telemetry: per-trial latency histogram, checkpoint
  // latency, writer backpressure, resume/salvage events. Probes live
  // outside the trial computations (the in-order fold and the
  // already-measured per-trial clocks), so they cannot perturb any
  // number. Local scratch; folded into the registry once at the end.
  namespace tel = support::telemetry;
  const bool tel_on = tel::compiled_in && tel::enabled();
  if (tel_on && !opts.trace_path.empty()) tel::set_trace_enabled(true);
  const auto sweep_start = std::chrono::steady_clock::now();
  tel::log2_histogram trial_us_hist;
  tel::log2_histogram checkpoint_us_hist;

  work_source source(s, opts.shard);
  shard_result result;
  result.units_total = source.total_units();

  std::vector<cell_record> meta;
  meta.reserve(s.cells.size());
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    meta.push_back(make_cell_record(c, s.cells[c]));
  }

  // Resume: salvage the trials already recorded in the existing file
  // (and in a ".tmp" left by a crashed earlier resume), validate that
  // the file belongs to THIS sweep, then rewrite everything through a
  // temp file that replaces the original only on a clean finish - the
  // salvaged records on disk are never destroyed before the rewritten
  // file is complete, so repeated crashes lose at most the units run
  // since the last finish.
  std::map<std::uint64_t, trial_record> recorded;
  const std::string tmp_path =
      opts.jsonl_path.empty() ? std::string() : opts.jsonl_path + ".tmp";
  bool salvaging = false;
  if (!opts.jsonl_path.empty() && opts.resume &&
      std::ifstream(opts.jsonl_path).good()) {
    salvaging = true;
    recorded = scan_trials(opts.jsonl_path);
    for (auto& [global, rec] : scan_trials(tmp_path)) {
      recorded.emplace(global, rec);
    }
    bool header_ok = false;
    shard_file existing;
    try {
      existing = read_shard_file(opts.jsonl_path);
      header_ok = true;
    } catch (const std::runtime_error&) {
      // Headerless but salvageable files proceed on the strength of
      // the per-record bounds and per-unit seed checks below; a
      // non-empty file that is neither is not ours to overwrite.
      if (recorded.empty()) {
        std::ifstream probe(opts.jsonl_path,
                            std::ios::binary | std::ios::ate);
        if (probe.is_open() && probe.tellg() > std::streamoff{0}) {
          throw std::runtime_error(opts.jsonl_path +
                                   ": not a sweep shard file; refusing "
                                   "to overwrite it");
        }
      }
    }
    if (header_ok) {
      if (existing.sweep_name != s.name) {
        throw std::runtime_error(
            opts.jsonl_path + ": resume file belongs to sweep '" +
            existing.sweep_name + "', not '" + s.name + "'");
      }
      if (existing.shard.index != opts.shard.index ||
          existing.shard.count != opts.shard.count) {
        throw std::runtime_error(
            opts.jsonl_path + ": resume file was written by shard " +
            std::to_string(existing.shard.index) + "/" +
            std::to_string(existing.shard.count) +
            "; rerun with that --shard (sweep_merge handles overlap "
            "across files)");
      }
      // A crash can tear the cell block mid-write, so accept a prefix
      // of the current block; a file that already holds trials must
      // have written the whole block first.
      const bool cells_ok =
          existing.cells.size() <= meta.size() &&
          (existing.trials.empty() ||
           existing.cells.size() == meta.size()) &&
          std::equal(existing.cells.begin(), existing.cells.end(),
                     meta.begin());
      if (!cells_ok) {
        throw std::runtime_error(
            opts.jsonl_path + ": resume file records a different sweep "
                              "spec (graphs, trial counts, seeds or "
                              "horizons changed)");
      }
    }
    for (const auto& [global, rec] : recorded) {
      if (rec.cell >= meta.size() ||
          rec.trial >= meta[rec.cell].trials) {
        throw std::runtime_error(
            opts.jsonl_path +
            ": recorded trial outside the sweep's cell/trial bounds");
      }
    }
  }

  record_writer writer;
  const std::string write_path = salvaging ? tmp_path : opts.jsonl_path;
  if (!opts.jsonl_path.empty()) {
    if (!writer.open(write_path)) {
      throw std::runtime_error(write_path + ": cannot open for writing");
    }
    writer.write_header(s.name, opts.shard, meta.size(),
                        source.total_units());
    for (const cell_record& cell : meta) {
      writer.write_cell(cell);
    }
    // Salvaged records are re-emitted up front (global order - the
    // map is keyed by global index) so the rewritten file fully
    // supersedes the crashed one.
    for (const auto& [global, rec] : recorded) {
      writer.write_trial(rec, meta[rec.cell]);
    }
    writer.flush();
    if (!writer.healthy()) {
      throw std::runtime_error(write_path + ": write failure");
    }
  }

  std::vector<std::vector<analysis::trial_point>> points(s.cells.size());
  std::vector<double> busy(s.cells.size(), 0.0);
  std::uint64_t done_units = 0;
  // Read once here: fold() runs while another worker's pull() advances
  // `source`.
  const std::uint64_t owned = source.shard_units();

  // Next owned unit into `p`; a unit already recorded in the resume file
  // comes back complete, its outcome rebuilt from the record.
  const auto pull = [&](window_slot& p) {
    const auto u = source.next();
    if (!u) return false;
    p.u = *u;
    if (!recorded.empty()) {
      const auto it = recorded.find(u->global);
      if (it != recorded.end()) {
        const trial_record& rec = it->second;
        if (rec.cell != u->cell || rec.trial != u->trial ||
            rec.seed != u->seed) {
          throw std::runtime_error(
              opts.jsonl_path + ": resume record for unit " +
              std::to_string(u->global) +
              " does not match this sweep (different spec or seed?)");
        }
        p.resumed = true;
        p.done = true;
        p.outcome.converged = rec.converged;
        p.outcome.rounds = rec.rounds;
        p.outcome.total_coins = rec.coins;
        p.outcome.leader = static_cast<graph::node_id>(rec.leader);
        p.outcome.final_leader_count = rec.converged ? 1 : 0;
      }
    }
    return true;
  };

  const auto run_trial = [&](window_slot& p) {
    const analysis::matrix_cell& cell = s.cells[p.u.cell];
    const auto start = std::chrono::steady_clock::now();
    p.outcome = cell.algo.run(cell.inst->view(), p.u.seed, cell.max_rounds);
    p.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (tel_on && tel::trace_enabled()) {
      // Span from the already-measured trial clock: one extra read
      // pins the end on the telemetry epoch, the duration is reused.
      const auto dur_ns = static_cast<std::uint64_t>(p.seconds * 1e9);
      const std::uint64_t end_ns = tel::now_ns();
      tel::trace_complete("trial", "sweep",
                          end_ns > dur_ns ? end_ns - dur_ns : 0, dur_ns);
    }
  };

  // Stream + fold in global unit order (the aggregation order is part
  // of the bit-identity contract).
  const auto fold = [&](const window_slot& p) {
    points[p.u.cell].push_back(
        {p.outcome.rounds, p.outcome.converged, p.outcome.total_coins});
    busy[p.u.cell] += p.seconds;
    if (tel_on && !p.resumed) {
      trial_us_hist.record(static_cast<std::uint64_t>(p.seconds * 1e6));
    }
    if (p.resumed) {
      ++result.units_resumed;
    } else {
      ++result.units_run;
      if (writer.is_open()) {
        // Fresh trials carry the execution audit fields (gather
        // kernel + tile/thread config); salvaged records predate the
        // run and are re-emitted without them.
        writer.write_trial({p.u.cell, p.u.trial, p.u.global, p.u.seed,
                            p.outcome.rounds, p.outcome.converged,
                            p.outcome.total_coins, p.outcome.leader},
                           meta[p.u.cell],
                           {graph::gather_kernel_name(p.outcome.gather_kernel),
                            p.outcome.engine_threads,
                            p.outcome.engine_tile_words});
      }
    }
    if (opts.on_trial) opts.on_trial(p.u, p.outcome);
    ++done_units;
    if (writer.is_open() && opts.checkpoint_every > 0 &&
        done_units % opts.checkpoint_every == 0) {
      const std::uint64_t cp_start = tel_on ? tel::now_ns() : 0;
      writer.write_checkpoint(done_units, owned);
      if (tel_on) {
        const std::uint64_t cp_ns = tel::now_ns() - cp_start;
        checkpoint_us_hist.record(cp_ns / 1000);
        if (tel::trace_enabled()) {
          tel::trace_complete("checkpoint", "sweep", cp_start, cp_ns);
        }
      }
      if (!writer.healthy()) {  // fail fast, not after hours of trials
        throw std::runtime_error(write_path + ": write failure");
      }
    }
  };

  // threads == 0 means one worker per hardware thread; never more
  // workers or window slots than the shard has units.
  const std::uint64_t units = std::max<std::uint64_t>(1, owned);
  const auto threads = static_cast<std::size_t>(std::min<std::uint64_t>(
      opts.threads != 0 ? opts.threads
                        : std::max(1U, std::thread::hardware_concurrency()),
      units));
  const auto window = static_cast<std::size_t>(
      std::min<std::uint64_t>(threads * kWindowUnitsPerThread, units));
  stream_in_order(threads, window, pull, run_trial, fold);

  result.cells.reserve(s.cells.size());
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    analysis::trial_stats stats = analysis::aggregate_trial_points(
        {meta[c].algorithm, meta[c].graph,
         static_cast<std::size_t>(meta[c].n), meta[c].diameter},
        points[c], meta[c].max_rounds);
    stats.busy_seconds = busy[c];
    if (writer.is_open()) {
      writer.write_cell_summary(stats, c);
    }
    result.cells.push_back(std::move(stats));
  }
  if (writer.is_open()) {
    writer.write_done(result.units_run, result.units_resumed);
    if (!writer.close()) {
      throw std::runtime_error(write_path + ": write failure");
    }
    if (salvaging) {
      // Atomically replace the crashed file with the rewritten one.
      if (std::rename(tmp_path.c_str(), opts.jsonl_path.c_str()) != 0) {
        throw std::runtime_error(tmp_path + ": cannot rename over " +
                                 opts.jsonl_path);
      }
    } else {
      std::remove(tmp_path.c_str());  // stale leftover, if any
    }
  }

  if (tel_on) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - sweep_start)
                            .count();
    tel::registry& reg = tel::registry::global();
    reg.add("sweep_units_run_total", result.units_run);
    reg.add("sweep_units_resumed_total", result.units_resumed);
    if (salvaging) reg.add("sweep_salvage_total");
    reg.merge_histogram("sweep_trial_us", trial_us_hist);
    reg.merge_histogram("sweep_checkpoint_us", checkpoint_us_hist);
    if (wall > 0.0) {
      reg.set_gauge("sweep_trials_per_sec",
                    static_cast<double>(result.units_run) / wall);
    }
    reg.set_gauge("sweep_wall_seconds", wall);
    if (!opts.jsonl_path.empty()) {
      reg.set_gauge("sweep_writer_stall_seconds", writer.stall_seconds());
      reg.set_gauge("sweep_writer_max_queue_depth",
                    static_cast<double>(writer.max_queue_depth()));
    }
    if (!opts.telemetry_path.empty()) {
      if (!support::write_text_file(opts.telemetry_path,
                                    tel::snapshot().dump() + "\n") ||
          !support::write_text_file(opts.telemetry_path + ".prom",
                                    reg.to_prometheus())) {
        throw std::runtime_error(opts.telemetry_path +
                                 ": cannot write telemetry snapshot");
      }
    }
    if (!opts.trace_path.empty()) {
      if (!tel::write_chrome_trace(opts.trace_path)) {
        throw std::runtime_error(opts.trace_path + ": cannot write trace");
      }
    }
  }
  return result;
}

options options_from_cli(const support::cli& args) {
  options opts;
  opts.threads = args.get_threads();
  opts.shard = args.get_shard();
  opts.jsonl_path = args.get_string("jsonl", "");
  opts.resume = args.get_bool("resume", false);
  opts.telemetry_path = args.get_string("telemetry", "");
  opts.trace_path = args.get_string("trace", "");
  return opts;
}

std::vector<support::flag> cli_flags(std::vector<support::flag> own) {
  own.insert(
      own.end(),
      {{"threads", "worker threads (default 0: one per hardware thread)"},
       {"shard", "i/N: run only shard i of N (default: the whole sweep)"},
       {"jsonl", "file to stream one JSON record per trial to"},
       {"resume", "skip the units the --jsonl file already holds", true},
       {"telemetry", "file to write the telemetry snapshot to"},
       {"trace", "file to write a Chrome trace to"}});
  return own;
}

std::string describe_result(const shard_result& result,
                            const options& opts) {
  std::ostringstream out;
  if (!opts.shard.whole()) {
    out << "shard " << opts.shard.index << "/" << opts.shard.count
        << " ran " << (result.units_run + result.units_resumed) << " of "
        << result.units_total
        << " units - the statistics above are shard-local;\nmerge the "
           "per-shard --jsonl files with sweep_merge for the exact sweep "
           "statistics.\n";
  }
  if (!opts.jsonl_path.empty()) {
    out << "jsonl trial records written to " << opts.jsonl_path << " ("
        << result.units_run << " run, " << result.units_resumed
        << " resumed)\n";
  }
  return out.str();
}

}  // namespace beepkit::sweep
