// Tests for the sharded streaming sweep subsystem: lazy work-source
// enumeration, the (start, stride) shard convention, JSONL record
// round-trips, the record reader against a hostile-input corpus (every
// record type the writers emit with keys reordered, duplicated and
// escaped; every prefix and byte flip of a trial and a chunk line;
// nesting past the depth cap; odd number literals), crash-resume, and
// the headline contract - merging any
// shard partition's JSONL outputs is bit-identical to the
// result of a serial run_trials per cell (coin accounting included,
// at word-boundary graph sizes).
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/bfw.hpp"
#include "core/giant.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "sweep/jsonl.hpp"

namespace beepkit {
namespace {

using support::json;

/// Word-boundary graph sizes (64, 65) plus an odd one, with trial
/// counts that do not divide evenly by any tested shard count.
class sweep_fixture {
 public:
  sweep_fixture() {
    instances_.push_back(analysis::make_instance(graph::make_path(64)));
    instances_.push_back(analysis::make_instance(graph::make_complete(65)));
    instances_.push_back(analysis::make_instance(graph::make_star(33)));
    auto horizon = [](const analysis::instance& inst) {
      return 4 * core::default_horizon(inst.g, inst.diameter);
    };
    spec_.name = "test_sweep";
    spec_.cells.push_back({&instances_[0], analysis::make_bfw(0.5), 7, 101,
                           horizon(instances_[0])});
    spec_.cells.push_back({&instances_[1],
                           analysis::make_bfw_known_diameter(
                               instances_[1].diameter),
                           5, 202, horizon(instances_[1])});
    spec_.cells.push_back({&instances_[2],
                           analysis::make_id_broadcast(
                               instances_[2].diameter),
                           6, 303, horizon(instances_[2])});
  }

  [[nodiscard]] const sweep::spec& spec() const { return spec_; }

  /// Serial run_trials per cell: the same seeds and the same fold.
  [[nodiscard]] std::vector<analysis::trial_stats> reference() const {
    std::vector<analysis::trial_stats> stats;
    for (const auto& cell : spec_.cells) {
      stats.push_back(analysis::run_trials(
          cell.inst->view(), cell.inst->diameter, cell.algo, cell.trials,
          cell.seed, cell.max_rounds));
    }
    return stats;
  }

 private:
  std::vector<analysis::instance> instances_;
  sweep::spec spec_;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "beepkit_sweep_" + name;
}

/// Every statistical field, compared exactly - EXPECT_EQ on doubles is
/// deliberate: the contract is bit-identity, not closeness.
void expect_stats_bit_identical(const analysis::trial_stats& a,
                                const analysis::trial_stats& b,
                                const std::string& label) {
  EXPECT_EQ(a.algorithm_name, b.algorithm_name) << label;
  EXPECT_EQ(a.graph_name, b.graph_name) << label;
  EXPECT_EQ(a.node_count, b.node_count) << label;
  EXPECT_EQ(a.diameter, b.diameter) << label;
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.total_rounds, b.total_rounds) << label;
  EXPECT_EQ(a.rounds.count, b.rounds.count) << label;
  EXPECT_EQ(a.rounds.mean, b.rounds.mean) << label;
  EXPECT_EQ(a.rounds.stddev, b.rounds.stddev) << label;
  EXPECT_EQ(a.rounds.min, b.rounds.min) << label;
  EXPECT_EQ(a.rounds.max, b.rounds.max) << label;
  EXPECT_EQ(a.rounds.median, b.rounds.median) << label;
  EXPECT_EQ(a.rounds.q25, b.rounds.q25) << label;
  EXPECT_EQ(a.rounds.q75, b.rounds.q75) << label;
  EXPECT_EQ(a.rounds.q95, b.rounds.q95) << label;
  EXPECT_EQ(a.mean_coins_per_node_round, b.mean_coins_per_node_round)
      << label;
}

TEST(WorkSourceTest, ShardsPartitionUnitsExactly) {
  const sweep_fixture fixture;
  const std::uint64_t total = fixture.spec().total_units();
  ASSERT_EQ(total, 18U);
  for (const std::uint64_t shards : {1U, 2U, 3U, 8U}) {
    std::vector<int> covered(total, 0);
    std::uint64_t owned_sum = 0;
    for (std::uint64_t i = 0; i < shards; ++i) {
      sweep::work_source source(fixture.spec(),
                                support::shard_spec{i, shards});
      EXPECT_EQ(source.total_units(), total);
      owned_sum += source.shard_units();
      std::uint64_t last_global = 0;
      bool first = true;
      while (const auto u = source.next()) {
        ASSERT_LT(u->global, total);
        ++covered[u->global];
        EXPECT_EQ(u->global % shards, i) << "stride violated";
        if (!first) EXPECT_GT(u->global, last_global) << "not in order";
        last_global = u->global;
        first = false;
      }
    }
    EXPECT_EQ(owned_sum, total);
    for (std::uint64_t g = 0; g < total; ++g) {
      EXPECT_EQ(covered[g], 1) << "unit " << g << " with " << shards
                               << " shards";
    }
  }
}

TEST(WorkSourceTest, SeedsMatchSerialDerivationOnEveryShard) {
  const sweep_fixture fixture;
  // Reference: the exact run_trials/map_trials derivation.
  std::vector<std::vector<std::uint64_t>> expected;
  for (const auto& cell : fixture.spec().cells) {
    support::rng seeder(cell.seed);
    std::vector<std::uint64_t> seeds(cell.trials);
    for (auto& s : seeds) s = seeder.next_u64();
    expected.push_back(std::move(seeds));
  }
  for (const std::uint64_t shards : {1U, 3U, 8U}) {
    for (std::uint64_t i = 0; i < shards; ++i) {
      sweep::work_source source(fixture.spec(),
                                support::shard_spec{i, shards});
      while (const auto u = source.next()) {
        EXPECT_EQ(u->seed, expected[u->cell][u->trial])
            << "cell " << u->cell << " trial " << u->trial << " shard "
            << i << "/" << shards;
      }
    }
  }
}

TEST(SweepRunTest, UnshardedMatchesRunMatrixBitForBit) {
  const sweep_fixture fixture;
  const auto reference = fixture.reference();
  for (const std::size_t threads : {1U, 2U, 8U}) {
    sweep::options opts;
    opts.threads = threads;
    const auto result = sweep::run(fixture.spec(), opts);
    ASSERT_EQ(result.cells.size(), reference.size());
    EXPECT_EQ(result.units_run, fixture.spec().total_units());
    for (std::size_t c = 0; c < reference.size(); ++c) {
      expect_stats_bit_identical(
          result.cells[c], reference[c],
          "threads=" + std::to_string(threads) + " cell " +
              std::to_string(c));
    }
  }
}

TEST(SweepRunTest, TrialHookSeesEveryUnitInGlobalOrder) {
  const sweep_fixture fixture;
  sweep::options opts;
  opts.threads = 4;
  std::vector<std::uint64_t> globals;
  opts.on_trial = [&globals](const sweep::unit& u,
                             const core::election_outcome& outcome) {
    globals.push_back(u.global);
    EXPECT_GT(outcome.rounds + 1, 0U);  // outcome populated
  };
  (void)sweep::run(fixture.spec(), opts);
  ASSERT_EQ(globals.size(), fixture.spec().total_units());
  for (std::size_t i = 0; i < globals.size(); ++i) {
    EXPECT_EQ(globals[i], i);
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(SweepRunTest, ShardFileBytesIndependentOfThreads) {
  // Checkpoints land after exactly every checkpoint_every folded units,
  // so nothing in the file depends on the worker count.
  const analysis::instance inst =
      analysis::make_instance(graph::make_path(16));
  const sweep::spec spec{"bytes",
                         {{&inst, analysis::make_bfw(0.5), 200, 7,
                           core::default_horizon(inst.g, inst.diameter)}}};
  std::string first;
  for (const std::size_t threads : {1U, 3U, 4U}) {
    const std::string path =
        temp_path("bytes_" + std::to_string(threads) + ".jsonl");
    sweep::options opts;
    opts.threads = threads;
    opts.jsonl_path = path;
    opts.checkpoint_every = 50;
    (void)sweep::run(spec, opts);
    const std::string bytes = read_bytes(path);
    std::remove(path.c_str());
    if (first.empty()) {
      first = bytes;
      for (const int done : {50, 100, 150, 200}) {
        EXPECT_NE(first.find("{\"type\":\"checkpoint\",\"units_done\":" +
                             std::to_string(done) + ","),
                  std::string::npos)
            << "no checkpoint after unit " << done;
      }
    } else {
      EXPECT_EQ(bytes, first) << "threads=" << threads;
    }
  }
}

TEST(SweepRunTest, TrialExceptionPropagatesAndResumes) {
  const analysis::instance inst =
      analysis::make_instance(graph::make_grid(4, 4));
  const std::uint64_t horizon = core::default_horizon(inst.g, inst.diameter);
  constexpr std::uint64_t kFailingTrial = 37;
  std::vector<std::uint64_t> seeds(100);
  support::rng seeder(11);
  for (auto& seed : seeds) seed = seeder.next_u64();
  // Same name with and without the fault, so the resume sees one spec.
  std::atomic<bool> armed{true};
  analysis::algorithm faulty = analysis::make_bfw(0.5);
  faulty.run = [&armed, inner = faulty.run, bad = seeds[kFailingTrial]](
                   const graph::topology_view& view, std::uint64_t seed,
                   std::uint64_t max_rounds) {
    if (armed.load() && seed == bad) {
      throw std::runtime_error("injected trial failure");
    }
    return inner(view, seed, max_rounds);
  };
  const sweep::spec spec{"faulty", {{&inst, faulty, 100, 11, horizon}}};
  const std::string path = temp_path("faulty.jsonl");
  const std::string clean = temp_path("faulty_clean.jsonl");
  sweep::options opts;
  opts.threads = 4;
  opts.jsonl_path = path;
  opts.checkpoint_every = 10;
  try {
    (void)sweep::run(spec, opts);
    ADD_FAILURE() << "the trial's exception was swallowed";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "injected trial failure");
  }
  // Every unit before the failing one was committed, none after it.
  const sweep::shard_file partial = sweep::read_shard_file(path);
  EXPECT_FALSE(partial.done);
  ASSERT_EQ(partial.trials.size(), kFailingTrial);
  for (std::uint64_t t = 0; t < kFailingTrial; ++t) {
    EXPECT_EQ(partial.trials[t].global, t);
  }

  armed = false;
  opts.resume = true;
  const auto resumed = sweep::run(spec, opts);
  EXPECT_EQ(resumed.units_resumed, kFailingTrial);
  EXPECT_EQ(resumed.units_run, 100 - kFailingTrial);
  opts.resume = false;
  opts.jsonl_path = clean;
  (void)sweep::run(spec, opts);
  const std::vector<std::string> resumed_paths = {path};
  const std::vector<std::string> clean_paths = {clean};
  EXPECT_EQ(sweep::merge_summary(sweep::merge_shards(resumed_paths)).dump(),
            sweep::merge_summary(sweep::merge_shards(clean_paths)).dump());
  std::remove(path.c_str());
  std::remove(clean.c_str());
}

TEST(SweepRunTest, HookExceptionPropagatesWithoutHanging) {
  // A fold-side failure (here the trial hook) stops all four workers at
  // once; the unit whose hook threw was already recorded.
  const sweep_fixture fixture;
  const std::string path = temp_path("hook_throws.jsonl");
  sweep::options opts;
  opts.threads = 4;
  opts.jsonl_path = path;
  opts.on_trial = [](const sweep::unit& u, const core::election_outcome&) {
    if (u.global == 5) throw std::runtime_error("hook failure");
  };
  try {
    (void)sweep::run(fixture.spec(), opts);
    ADD_FAILURE() << "the hook's exception was swallowed";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "hook failure");
  }
  const sweep::shard_file partial = sweep::read_shard_file(path);
  EXPECT_FALSE(partial.done);
  EXPECT_EQ(partial.trials.size(), 6U);
  std::remove(path.c_str());
}

TEST(SweepRunTest, ResumeRecordMismatchUnderFourWorkersIsReported) {
  // A recorded seed that disagrees with the spec fails the pull of its
  // unit; the message names the unit, and no worker is left behind.
  const sweep_fixture fixture;
  const std::string path = temp_path("seed_mismatch.jsonl");
  sweep::options opts;
  opts.threads = 4;
  opts.jsonl_path = path;
  (void)sweep::run(fixture.spec(), opts);
  std::string bytes = read_bytes(path);
  const std::size_t record = bytes.find("\"global\":9,");
  ASSERT_NE(record, std::string::npos);
  const std::size_t seed = bytes.find("\"seed\":", record) + 7;
  bytes.replace(seed, bytes.find(',', seed) - seed, "12345");
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  opts.resume = true;
  try {
    (void)sweep::run(fixture.spec(), opts);
    ADD_FAILURE() << "the mismatched record was folded";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              path + ": resume record for unit 9 does not match this sweep "
                     "(different spec or seed?)");
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SweepRunTest, EmptyShardWritesCompleteFile) {
  // A shard that owns no unit (and a sweep with no cell) still runs the
  // executor to a clean finish.
  const sweep_fixture fixture;
  const std::string path = temp_path("empty_shard.jsonl");
  sweep::options opts;
  opts.threads = 4;
  opts.shard = {20, 40};  // the fixture has 18 units
  opts.jsonl_path = path;
  const auto result = sweep::run(fixture.spec(), opts);
  EXPECT_EQ(result.units_run, 0U);
  EXPECT_EQ(result.cells.size(), fixture.spec().cells.size());
  const sweep::shard_file file = sweep::read_shard_file(path);
  EXPECT_TRUE(file.done);
  EXPECT_TRUE(file.trials.empty());
  std::remove(path.c_str());
  opts.shard = {};
  opts.jsonl_path.clear();
  EXPECT_TRUE(sweep::run(sweep::spec{"no_cells", {}}, opts).cells.empty());
}

TEST(SweepMergeTest, AnyShardCountBitIdenticalToRunMatrix) {
  const sweep_fixture fixture;
  const auto reference = fixture.reference();
  for (const std::uint64_t shards : {1U, 2U, 3U, 8U}) {
    std::vector<std::string> paths;
    for (std::uint64_t i = 0; i < shards; ++i) {
      const std::string path =
          temp_path("merge_" + std::to_string(shards) + "_" +
                    std::to_string(i) + ".jsonl");
      sweep::options opts;
      opts.threads = 2;
      opts.shard = {i, shards};
      opts.jsonl_path = path;
      opts.checkpoint_every = 3;  // exercise checkpoint records too
      (void)sweep::run(fixture.spec(), opts);
      paths.push_back(path);
    }
    const auto merged = sweep::merge_shards(paths);
    EXPECT_EQ(merged.sweep_name, "test_sweep");
    EXPECT_EQ(merged.units, fixture.spec().total_units());
    EXPECT_EQ(merged.duplicate_records, 0U);
    ASSERT_EQ(merged.cells.size(), reference.size());
    for (std::size_t c = 0; c < reference.size(); ++c) {
      expect_stats_bit_identical(
          merged.cells[c].stats, reference[c],
          std::to_string(shards) + " shards, cell " + std::to_string(c));
    }
    for (const auto& path : paths) std::remove(path.c_str());
  }
}

// ---- hostile-input corpus for the record reader ----------------------
//
// The oracle is the DOM: a non-empty line is a record exactly when
// json::parse yields an object for it, and every field read returns
// what the DOM holds for that key or throws the `path:line` message a
// DOM-backed reader would.

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Every record type the writers emit: a shard file's (header, cell,
/// trial with and without the audit fields, checkpoint, cell summary,
/// done) and a giant journal's (header, ckpt_begin, word and cursor
/// chunks, ckpt_end, giant_done).
std::vector<std::string> writer_lines() {
  const std::string shard = temp_path("corpus_writers.jsonl");
  {
    sweep::record_writer writer;
    EXPECT_TRUE(writer.open(shard));
    writer.write_header("corpus \"sweep\"\n", {1, 3}, 2, 40);
    const sweep::cell_record cell{1, "BFW(p=0.5)", "path(8)", 8, 7, 20,
                                  18446744073709551615ULL, 4096};
    writer.write_cell(cell);
    writer.write_trial({1, 3, 23, 99, 41, true, 300, 5}, cell);
    writer.write_trial({1, 4, 24, 7, 4096, false, 0, 8}, cell,
                       {"stencil", 4, 8192});
    writer.write_checkpoint(2, 13);
    const std::vector<analysis::trial_point> points = {
        {41, true, 300}, {4096, false, 0}};
    writer.write_cell_summary(
        analysis::aggregate_trial_points({"BFW", "path(8)", 8, 7}, points,
                                         4096),
        1);
    writer.write_done(2, 0);
    EXPECT_TRUE(writer.close());
  }
  std::vector<std::string> lines = read_lines(shard);
  std::remove(shard.c_str());

  const std::string journal = temp_path("corpus_writers_giant.jsonl");
  std::remove(journal.c_str());
  core::giant_options options;
  options.max_rounds = 500000;
  options.checkpoint_path = journal;
  options.stop_after_round = 3;
  (void)core::run_giant_trial(
      graph::topology_view::implicit({graph::topology::kind::grid, 9, 11}),
      core::bfw_machine(0.5), 4, options);
  for (std::string& line : read_lines(journal)) lines.push_back(line);
  std::remove(journal.c_str());
  return lines;
}

/// The line among `lines` whose "type" is `type`.
std::string line_of_type(const std::vector<std::string>& lines,
                         std::string_view type) {
  for (const std::string& line : lines) {
    const auto record = json::parse(line);
    if (record && record->find("type") != nullptr &&
        record->find("type")->as_string() == type) {
      return line;
    }
  }
  ADD_FAILURE() << "no " << type << " line";
  return "{}";
}

/// Keys with the first character written as a \u escape; string values
/// with their first character escaped the same way.
std::string escape_first(std::string_view text) {
  if (text.empty()) return "\"\"";
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04x",
                static_cast<unsigned char>(text[0]));
  std::string out = "\"";
  out += buf;
  const std::string rest = json(std::string(text.substr(1))).dump();
  out.append(rest, 1, std::string::npos);  // drop the opening quote
  return out;
}

/// Each writer line, rewritten: members reversed; every member
/// duplicated with a null after it (the first occurrence wins) or a
/// string before it; every key and string value escaped.
std::vector<std::string> shuffled_variants(const std::string& line) {
  const auto record = json::parse(line);
  if (!record || !record->is_object()) return {};
  const json::object& members = record->as_object();
  std::vector<std::string> out;

  json::object reversed(members.rbegin(), members.rend());
  out.push_back(json(std::move(reversed)).dump());

  std::string dup_after = "{";
  std::string dup_before = "{";
  std::string escaped = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string key = json(members[i].first).dump();
    const std::string value = members[i].second.dump();
    const std::string sep = i == 0 ? "" : ",";
    dup_after += sep + key + ":" + value + "," + key + ":null";
    dup_before += sep + key + ":\"shadow\"," + key + ":" + value;
    escaped += sep + escape_first(members[i].first) + " : " +
               (members[i].second.is_string()
                    ? escape_first(members[i].second.as_string())
                    : value);
  }
  out.push_back(dup_after + "}");
  out.push_back(dup_before + "}");
  out.push_back(escaped + "}");
  return out;
}

/// What a field read does, by the DOM: its value, or the message.
struct read_outcome {
  std::string value;  // the value, printed; empty when it threw
  std::string error;  // the exception text; empty when it returned

  friend bool operator==(const read_outcome&, const read_outcome&) = default;
};

template <class Read>
read_outcome outcome_of(const Read& read) {
  try {
    return {read(), ""};
  } catch (const std::runtime_error& e) {
    return {"", e.what()};
  }
}

/// The reads a DOM-backed reader would make of `record`, at `where`
/// ("path:line").
struct dom_oracle {
  const json& record;
  std::string where;

  [[nodiscard]] std::string fail(const std::string& message) const {
    return where + ": " + message;
  }
  [[nodiscard]] read_outcome missing(const char* key) const {
    return {"", fail(std::string("missing field '") + key + "'")};
  }
  [[nodiscard]] read_outcome u64(const char* key, std::uint64_t max) const {
    const json* value = record.find(key);
    if (value == nullptr) return missing(key);
    const auto v = value->as_uint();
    if (!v || *v > max) {
      return {"", fail(std::string("field '") + key +
                       "' is not a non-negative integer in range")};
    }
    return {std::to_string(*v), ""};
  }
  [[nodiscard]] read_outcome boolean(const char* key) const {
    const json* value = record.find(key);
    if (value == nullptr) return missing(key);
    if (!value->is_bool()) {
      return {"", fail(std::string("field '") + key + "' is not a boolean")};
    }
    return {value->as_bool() ? "true" : "false", ""};
  }
  [[nodiscard]] read_outcome string(const char* key) const {
    const json* value = record.find(key);
    if (value == nullptr) return missing(key);
    if (!value->is_string()) {
      return {"", fail(std::string("field '") + key + "' is not a string")};
    }
    return {"s:" + value->as_string(), ""};
  }
};

/// Every key a writer emits or a reader asks for, plus one nobody does.
std::vector<std::string> all_record_keys() {
  return {
    "type", "name", "shard_index", "shard_count", "cells", "total_units",
    "format_version", "cell", "algorithm", "graph", "n", "diameter",
    "trials", "seed", "max_rounds", "trial", "global", "rounds",
    "converged", "coins", "leader", "gather_kernel", "exec_threads",
    "exec_tile_words", "units_done", "units_owned", "units_run",
    "units_resumed", "topology", "machine", "round", "leaders",
    "plane_count", "section", "offset", "count", "digest", "data", "words",
    "cursors", "stopped_early", "draws", "absent"};
}

/// The keys of one record line, plus "type" and one nobody writes.
std::vector<std::string> keys_of(const std::string& line) {
  std::vector<std::string> keys = {"type", "absent"};
  const json record = *json::parse(line);
  for (const auto& [key, value] : record.as_object()) {
    keys.push_back(key);
  }
  return keys;
}

/// Writes `lines` to one file and reads it back: the reader must keep
/// exactly the lines the DOM reads as objects, count the rest (empty
/// lines aside) as torn, and read every field of every record as the
/// DOM would.
void check_corpus(const std::vector<std::string>& lines,
                  const std::string& name,
                  const std::vector<std::string>& keys) {
  const std::string path = temp_path("corpus_" + name + ".jsonl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }
  std::vector<std::size_t> kept;
  std::vector<json> records;
  std::uint64_t torn = 0;
  json::object_scan scan;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    auto record = json::parse(lines[i]);
    const bool is_record = record.has_value() && record->is_object();
    ASSERT_EQ(scan.scan(lines[i]), is_record) << name << ": " << lines[i];
    if (is_record) {
      kept.push_back(i + 1);
      records.push_back(std::move(*record));
    } else {
      ++torn;
    }
  }

  sweep::record_reader reader(path);
  for (std::size_t r = 0; r < records.size(); ++r) {
    ASSERT_TRUE(reader.next()) << name;
    const json& record = records[r];
    const dom_oracle dom{record, path + ":" + std::to_string(kept[r])};
    const json* type = record.find("type");
    ASSERT_EQ(reader.type(), type != nullptr ? type->as_string() : "")
        << dom.where;
    for (const std::string& name_of_key : keys) {
      const char* key = name_of_key.c_str();
      ASSERT_EQ(reader.find(key).has_value(), record.find(key) != nullptr)
          << dom.where << " " << key;
      for (const std::uint64_t max : {std::uint64_t{UINT32_MAX}, UINT64_MAX}) {
        ASSERT_EQ(outcome_of([&] {
                    return std::to_string(reader.u64(key, max));
                  }),
                  dom.u64(key, max))
            << dom.where << " u64 " << key;
      }
      ASSERT_EQ(outcome_of([&] {
                  return std::string(reader.boolean(key) ? "true" : "false");
                }),
                dom.boolean(key))
          << dom.where << " boolean " << key;
      ASSERT_EQ(outcome_of([&] {
                  return "s:" + std::string(reader.string(key));
                }),
                dom.string(key))
          << dom.where << " string " << key;
    }
  }
  EXPECT_FALSE(reader.next()) << name;
  EXPECT_EQ(reader.torn_lines(), torn) << name;
  std::remove(path.c_str());
}

/// Every record type the writers emit, as written and rewritten.
void corpus_writer_records() {
  const std::vector<std::string> lines = writer_lines();
  std::vector<std::string> corpus = lines;
  for (const std::string& line : lines) {
    for (std::string& variant : shuffled_variants(line)) {
      corpus.push_back(std::move(variant));
    }
  }
  // Every giant and shard record type made it in.
  for (const char* type : {"sweep", "cell", "trial", "checkpoint",
                           "cell_summary", "done", "giant_header",
                           "ckpt_begin", "ckpt_words", "ckpt_cursors",
                           "ckpt_end", "giant_done"}) {
    EXPECT_NE(line_of_type(lines, type), "{}") << type;
  }
  check_corpus(corpus, "writers", all_record_keys());
}

/// Every prefix of, and a byte flip at every position of, a trial line
/// and a checkpoint chunk line.
void corpus_prefixes_and_flips() {
  const std::vector<std::string> lines = writer_lines();
  for (const char* type : {"trial", "ckpt_words"}) {
    const std::string line = line_of_type(lines, type);
    std::vector<std::string> corpus;
    for (std::size_t n = 0; n <= line.size(); ++n) {
      corpus.push_back(line.substr(0, n));
    }
    for (std::size_t i = 0; i < line.size(); ++i) {
      for (const unsigned char flip : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20,
                                       0x40, 0x80}) {
        std::string bad = line;
        bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ flip);
        if (bad.find('\n') != std::string::npos) continue;  // two lines
        corpus.push_back(std::move(bad));
      }
    }
    check_corpus(corpus, type, keys_of(line));
  }
}

/// Nesting at and past the depth cap.
void corpus_nesting() {
  // A member value nested `depth` levels below the record, in arrays
  // and in objects: 64 levels is the cap json::parse accepts.
  std::vector<std::string> corpus;
  for (const int depth : {63, 64, 65, 200}) {
    std::string arrays = R"({"type":"trial","deep":)";
    std::string objects = arrays;
    for (int i = 0; i < depth; ++i) {
      arrays += '[';
      objects += R"({"a":)";
    }
    objects += "0";
    for (int i = 0; i < depth; ++i) {
      arrays += ']';
      objects += '}';
    }
    corpus.push_back(arrays + R"(,"rounds":5})");
    corpus.push_back(objects + R"(,"rounds":5})");
  }
  check_corpus(corpus, "nesting", {"type", "rounds", "deep"});
  EXPECT_TRUE(json::object_scan().scan(corpus[2]));   // 64 levels
  EXPECT_FALSE(json::object_scan().scan(corpus[4]));  // 65 levels
}

/// The number literals a hand edit is likely to leave, and every short
/// token over the number alphabet.
void corpus_numbers() {
  std::vector<std::string> corpus;
  for (const char* number :
       {"-0", "007", "1e3", "1E3", "2.5", "18446744073709551616",
        "18446744073709551615", "-1", "-9223372036854775809", "1.", ".5",
        "-.5", "1.e3", "1e", "1e+", "-", "+1", "0x10", "1_0", "1.5.1",
        "--1", "Infinity", "NaN", "nul", "tru", "\"3\"", "[3]", "{}"}) {
    corpus.push_back(std::string(R"({"type":"trial","rounds":)") + number +
                     R"(,"seed":)" + number + "}");
  }
  // Every token of up to four characters over the number alphabet, as
  // a value: the number grammar the scan shares with json::parse must
  // accept no token the DOM's from_chars/strtod conversion does not
  // read whole.
  const std::string alphabet = "-+.eE019";
  std::vector<std::string> tokens = {""};
  for (int length = 1; length <= 4; ++length) {
    std::vector<std::string> longer;
    for (const std::string& token : tokens) {
      if (static_cast<int>(token.size()) != length - 1) continue;
      for (const char c : alphabet) longer.push_back(token + c);
    }
    for (std::string& token : longer) {
      corpus.push_back(R"({"rounds":)" + token + "}");
      tokens.push_back(std::move(token));
    }
  }
  check_corpus(corpus, "numbers", {"type", "rounds", "seed"});
}

TEST(SweepMergeTest, ShardFilesRoundTripThroughReader) {
  // What the writer writes reads back field for field; what it could
  // not have written is refused (the hand-written shard below).
  const sweep_fixture fixture;
  const std::string path = temp_path("roundtrip.jsonl");
  sweep::options opts;
  opts.jsonl_path = path;
  const auto result = sweep::run(fixture.spec(), opts);
  const auto file = sweep::read_shard_file(path);
  EXPECT_EQ(file.sweep_name, "test_sweep");
  EXPECT_TRUE(file.done);
  EXPECT_EQ(file.torn_lines, 0U);
  EXPECT_EQ(file.cells.size(), fixture.spec().cells.size());
  EXPECT_EQ(file.trials.size(), result.units_run);
  for (std::size_t c = 0; c < file.cells.size(); ++c) {
    const auto& cell = fixture.spec().cells[c];
    EXPECT_EQ(file.cells[c].algorithm, cell.algo.name);
    EXPECT_EQ(file.cells[c].graph, cell.inst->g.name());
    EXPECT_EQ(file.cells[c].trials, cell.trials);
    EXPECT_EQ(file.cells[c].seed, cell.seed);
    EXPECT_EQ(file.cells[c].max_rounds, cell.max_rounds);
  }
  std::remove(path.c_str());

  // A hand-written one-cell shard. Integer fields must be non-negative
  // integer literals that fit 64 bits: the largest one round-trips,
  // anything else is refused by the reader and the merge alike, naming
  // the bad record's path:line instead of reading it as 0.
  const std::string strict = temp_path("strict.jsonl");
  const std::string header =
      R"({"type":"sweep","name":"strict","shard_index":0,"shard_count":1,)"
      R"("cells":1,"total_units":2,"format_version":1})"
      "\n"
      R"({"type":"cell","cell":0,"algorithm":"bfw","graph":"path-4","n":4,)"
      R"("diameter":3,"trials":2,"seed":18446744073709551615,"max_rounds":99})"
      "\n"
      R"({"type":"trial","cell":0,"trial":0,"global":0,)"
      R"("seed":18446744073709551615,"rounds":5,"converged":true,"coins":9,)"
      R"("leader":1})"
      "\n";
  const std::string last =
      R"({"type":"trial","cell":0,"trial":1,"global":1,"seed":7,"rounds":6,)"
      R"("converged":true,"coins":3,"leader":2})";
  const std::vector<std::string> strict_paths = {strict};
  const auto write = [&](const std::string& trial) {
    std::ofstream(strict, std::ios::binary | std::ios::trunc)
        << header << trial << "\n";
  };

  write(last);
  const sweep::shard_file hand = sweep::read_shard_file(strict);
  ASSERT_EQ(hand.trials.size(), 2U);
  EXPECT_EQ(hand.cells[0].seed, 18446744073709551615ULL);
  EXPECT_EQ(hand.trials[0].seed, 18446744073709551615ULL);
  const auto merged = sweep::merge_shards(strict_paths);
  ASSERT_EQ(merged.cells.size(), 1U);
  EXPECT_EQ(merged.cells[0].meta.seed, 18446744073709551615ULL);
  EXPECT_EQ(merged.units, 2U);

  const auto refusal = [&](const auto& read) {
    try {
      read();
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("(no refusal)");
  };
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("rounds":6)", R"("rounds":-7)"},
           {R"("coins":3)", R"("coins":2.5)"},
           {R"("trial":1)", R"("trial":1.9)"},
           {R"("seed":7)", R"("seed":18446744073709551616)"},
           {R"("coins":3)", R"("coins":"3")"},
           {R"("leader":2)", R"("leader":4294967298)"}}) {
    std::string bad = last;
    bad.replace(bad.find(from), from.size(), to);
    write(bad);
    const std::string read_error =
        refusal([&] { (void)sweep::read_shard_file(strict); });
    const std::string merge_error =
        refusal([&] { (void)sweep::merge_shards(strict_paths); });
    EXPECT_EQ(read_error.rfind(strict + ":4: ", 0), 0U) << to << read_error;
    EXPECT_EQ(merge_error.rfind(strict + ":4: ", 0), 0U)
        << to << merge_error;
  }
  // A diameter that does not fit the cell's 32-bit field is refused
  // rather than narrowed.
  std::string wide = header;
  wide.replace(wide.find(R"("diameter":3)"), 12, R"("diameter":4294967299)");
  std::ofstream(strict, std::ios::binary | std::ios::trunc)
      << wide << last << "\n";
  const std::string wide_error =
      refusal([&] { (void)sweep::read_shard_file(strict); });
  EXPECT_EQ(wide_error.rfind(strict + ":2: ", 0), 0U) << wide_error;
  std::remove(strict.c_str());

  // Hostile input: the reader agrees with the DOM line for line and
  // field for field.
  corpus_writer_records();
  corpus_prefixes_and_flips();
  corpus_nesting();
  corpus_numbers();
}

TEST(SweepMergeTest, ResumeAfterTornFileIsBitIdentical) {
  const sweep_fixture fixture;
  const auto reference = fixture.reference();
  const std::string shard0 = temp_path("resume_shard0.jsonl");
  const std::string shard1 = temp_path("resume_shard1.jsonl");
  {
    sweep::options opts;
    opts.shard = {0, 2};
    opts.jsonl_path = shard0;
    (void)sweep::run(fixture.spec(), opts);
    opts.shard = {1, 2};
    opts.jsonl_path = shard1;
    (void)sweep::run(fixture.spec(), opts);
  }
  // Simulate a crash: keep ~60% of shard 0's bytes, leaving a torn
  // final line, then resume into the same file.
  {
    std::ifstream in(shard0, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * 6 / 10));
  }
  sweep::options opts;
  opts.shard = {0, 2};
  opts.jsonl_path = shard0;
  opts.resume = true;
  const auto resumed = sweep::run(fixture.spec(), opts);
  EXPECT_GT(resumed.units_resumed, 0U) << "nothing was resumed";
  EXPECT_GT(resumed.units_run, 0U) << "nothing was re-run";
  // Shard-local aggregates after resume match a fresh shard 0 run.
  {
    sweep::options fresh;
    fresh.shard = {0, 2};
    const auto fresh_result = sweep::run(fixture.spec(), fresh);
    ASSERT_EQ(resumed.cells.size(), fresh_result.cells.size());
    for (std::size_t c = 0; c < resumed.cells.size(); ++c) {
      expect_stats_bit_identical(resumed.cells[c], fresh_result.cells[c],
                                 "resumed shard cell " + std::to_string(c));
    }
  }
  const std::vector<std::string> paths = {shard0, shard1};
  const auto merged = sweep::merge_shards(paths);
  ASSERT_EQ(merged.cells.size(), reference.size());
  for (std::size_t c = 0; c < reference.size(); ++c) {
    expect_stats_bit_identical(merged.cells[c].stats, reference[c],
                               "resume-merged cell " + std::to_string(c));
  }
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
}

TEST(SweepMergeTest, ResumeRewritesCrashedFileIntoMergeableShard) {
  // Cut the file so deep that even the header/cell block is torn; a
  // resumed run must leave a complete, mergeable shard file behind.
  const sweep_fixture fixture;
  const std::string path = temp_path("headercrash.jsonl");
  sweep::options opts;
  opts.shard = {0, 2};
  opts.jsonl_path = path;
  (void)sweep::run(fixture.spec(), opts);
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    // Keep the header line, tear the first cell record mid-write: a
    // crash during the header/cell block, before any trial landed.
    const std::size_t header_end = bytes.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    ASSERT_GT(bytes.size(), header_end + 51);
    out.write(bytes.data(),
              static_cast<std::streamsize>(header_end + 51));
  }
  opts.resume = true;
  const auto resumed = sweep::run(fixture.spec(), opts);
  EXPECT_EQ(resumed.units_resumed, 0U);  // no complete trial survived
  const auto file = sweep::read_shard_file(path);
  EXPECT_TRUE(file.done);
  EXPECT_EQ(file.cells.size(), fixture.spec().cells.size());
  EXPECT_EQ(file.trials.size(), resumed.units_run);
  std::remove(path.c_str());
}

TEST(SweepMergeTest, ResumeOntoEmptyFileRunsFresh) {
  const sweep_fixture fixture;
  const std::string path = temp_path("empty_resume.jsonl");
  { std::ofstream touch(path, std::ios::trunc); }
  sweep::options opts;
  opts.jsonl_path = path;
  opts.resume = true;
  const auto result = sweep::run(fixture.spec(), opts);
  EXPECT_EQ(result.units_resumed, 0U);
  EXPECT_EQ(result.units_run, fixture.spec().total_units());
  EXPECT_TRUE(sweep::read_shard_file(path).done);
  std::remove(path.c_str());
}

TEST(SweepMergeTest, ResumeRejectsFileFromDifferentSpec) {
  // A resume file whose cell block disagrees with the current spec
  // (different graph size here) must be refused, not silently folded.
  const sweep_fixture fixture;
  const std::string path = temp_path("wrongspec.jsonl");
  sweep::options opts;
  opts.jsonl_path = path;
  (void)sweep::run(fixture.spec(), opts);

  std::vector<analysis::instance> other_instances;
  other_instances.push_back(analysis::make_instance(graph::make_path(32)));
  other_instances.push_back(
      analysis::make_instance(graph::make_complete(65)));
  other_instances.push_back(analysis::make_instance(graph::make_star(33)));
  sweep::spec other;
  other.name = "test_sweep";  // same name, different first graph
  for (std::size_t c = 0; c < fixture.spec().cells.size(); ++c) {
    auto cell = fixture.spec().cells[c];
    cell.inst = &other_instances[c];
    other.cells.push_back(cell);
  }
  opts.resume = true;
  EXPECT_THROW((void)sweep::run(other, opts), std::runtime_error);

  sweep::spec renamed = other;
  renamed.name = "some_other_sweep";
  EXPECT_THROW((void)sweep::run(renamed, opts), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SweepMergeTest, ResumeRejectsShardLayoutChange) {
  // The rewritten header must describe the file's contents: resuming
  // a 0/2 file as 1/2 would mislabel every salvaged record. Neither a
  // record the parser refuses nor a stale .tmp may get round that
  // check, and every refused file is left byte-identical.
  const sweep_fixture fixture;
  const std::string path = temp_path("layoutchange.jsonl");
  const std::string tmp = path + ".tmp";
  sweep::options opts;
  opts.shard = {0, 2};
  opts.jsonl_path = path;
  (void)sweep::run(fixture.spec(), opts);
  const std::string shard0 = read_bytes(path);
  opts.shard = {1, 2};
  opts.resume = true;
  const auto write = [](const std::string& file, const std::string& bytes) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
  };
  const auto expect_refused = [&](const std::string& label) {
    const std::string before = read_bytes(path);
    EXPECT_THROW((void)sweep::run(fixture.spec(), opts), std::runtime_error)
        << label;
    EXPECT_EQ(read_bytes(path), before) << label;
  };
  expect_refused("shard 0/2 file");

  // An unknown record type after the shard-0/2 records.
  write(path, shard0 + "{\"type\":\"note\"}\n");
  expect_refused("extra note record");

  // One trial record without its "coins" field.
  std::string no_coins = shard0;
  const std::size_t coins = no_coins.find(",\"coins\":");
  ASSERT_NE(coins, std::string::npos);
  no_coins.erase(coins, no_coins.find(',', coins + 1) - coins);
  write(path, no_coins);
  expect_refused("trial record without coins");

  // A valid shard-1/2 file beside a stale shard-0/2 .tmp.
  std::remove(path.c_str());
  (void)sweep::run(fixture.spec(), opts);
  ASSERT_NE(read_bytes(path).find("\"shard_index\":1"), std::string::npos);
  write(tmp, shard0);
  expect_refused("shard 0/2 .tmp beside a 1/2 file");
  EXPECT_EQ(read_bytes(tmp), shard0);
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

TEST(SweepMergeTest, ResumeRefusesAlienFile) {
  // A non-empty file that is neither a shard file nor salvageable is
  // not ours to overwrite.
  const sweep_fixture fixture;
  const std::string path = temp_path("alien.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "these are not the records you are looking for\n";
  }
  sweep::options opts;
  opts.jsonl_path = path;
  opts.resume = true;
  EXPECT_THROW((void)sweep::run(fixture.spec(), opts), std::runtime_error);
  // The refused file is untouched.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "these are not the records you are looking for");
  std::remove(path.c_str());
}

TEST(SweepMergeTest, ResumeRejectsWrongSweepEvenWithoutTrials) {
  // A header-only file (crashed before its first trial flush) from a
  // different sweep must still be refused, not silently truncated.
  const sweep_fixture fixture;
  const std::string path = temp_path("wrongname.jsonl");
  {
    sweep::record_writer writer;
    ASSERT_TRUE(writer.open(path));
    writer.write_header("some_other_sweep", {0, 1}, 0, 0);
    ASSERT_TRUE(writer.close());
  }
  sweep::options opts;
  opts.jsonl_path = path;
  opts.resume = true;
  EXPECT_THROW((void)sweep::run(fixture.spec(), opts), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SweepRunTest, WriteFailureIsReportedNotSwallowed) {
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const sweep_fixture fixture;
  sweep::options opts;
  opts.jsonl_path = "/dev/full";
  EXPECT_THROW((void)sweep::run(fixture.spec(), opts), std::runtime_error);
}

TEST(BufferedWriterTest, ManyRecordsArriveCompleteAndInOrder) {
  // The writer thread decouples serialization from disk writes; the
  // file must still hold every record, in exactly the order the
  // producer emitted them.
  const std::string path = temp_path("buffered.jsonl");
  constexpr std::uint64_t records = 20000;
  {
    sweep::record_writer writer;
    ASSERT_TRUE(writer.open(path));
    writer.write_header("buffered_test", {0, 1}, 1, records);
    sweep::cell_record cell;
    cell.cell = 0;
    cell.algorithm = "bfw";
    cell.graph = "path(4)";
    cell.n = 4;
    cell.trials = records;
    writer.write_cell(cell);
    for (std::uint64_t t = 0; t < records; ++t) {
      writer.write_trial({0, t, t, t * 31, t % 97, true, t, 0}, cell,
                         {"stencil", 8, 64});
    }
    writer.flush();
    EXPECT_TRUE(writer.healthy());
    ASSERT_TRUE(writer.close());
  }
  const auto file = sweep::read_shard_file(path);
  ASSERT_EQ(file.trials.size(), records);
  for (std::uint64_t t = 0; t < records; ++t) {
    ASSERT_EQ(file.trials[t].trial, t) << "out of order at " << t;
    ASSERT_EQ(file.trials[t].seed, t * 31);
  }
  // The audit fields ride along and readers ignore them, but they must
  // actually be on disk.
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);  // cell
  std::getline(in, line);  // first trial
  EXPECT_NE(line.find("\"gather_kernel\":\"stencil\""), std::string::npos);
  EXPECT_NE(line.find("\"exec_threads\":8"), std::string::npos);
  EXPECT_NE(line.find("\"exec_tile_words\":64"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BufferedWriterTest, ReopenWithoutCloseTargetsTheNewFile) {
  const std::string first = temp_path("reopen_a.jsonl");
  const std::string second = temp_path("reopen_b.jsonl");
  sweep::record_writer writer;
  ASSERT_TRUE(writer.open(first));
  writer.write_header("reopen_test", {0, 1}, 0, 0);
  // Re-open without close(): the writer must retire the old stream and
  // actually create the new file (a stale open stream would make
  // ofstream::open fail and silently drop every subsequent record).
  ASSERT_TRUE(writer.open(second));
  writer.write_header("reopen_test_2", {0, 1}, 0, 0);
  ASSERT_TRUE(writer.close());
  std::ifstream in(second);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("reopen_test_2"), std::string::npos);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(BufferedWriterTest, FlushIsSynchronousErrorBarrier) {
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  sweep::record_writer writer;
  ASSERT_TRUE(writer.open("/dev/full"));
  writer.write_header("disk_full", {0, 1}, 0, 0);
  // The failure must be visible right after the flush barrier - not
  // swallowed by the buffer, not deferred to close().
  writer.flush();
  EXPECT_FALSE(writer.healthy());
  EXPECT_FALSE(writer.close());
}

// The DOM-built trial record that the writer's direct formatting
// replaced, kept verbatim as the oracle for its bytes.
support::json::object trial_object(const sweep::trial_record& trial,
                                   const sweep::cell_record& meta) {
  using support::json;
  return json::object{
      {"type", json("trial")},
      {"cell", json(trial.cell)},
      {"trial", json(trial.trial)},
      {"global", json(trial.global)},
      {"algorithm", json(meta.algorithm)},
      {"graph", json(meta.graph)},
      {"n", json(meta.n)},
      {"diameter", json(meta.diameter)},
      {"seed", json(trial.seed)},
      {"rounds", json(trial.rounds)},
      {"converged", json(trial.converged)},
      {"coins", json(trial.coins)},
      {"leader", json(trial.leader)},
  };
}

TEST(BufferedWriterTest, TrialRecordBytesMatchTheDomDumpOverRandomRecords) {
  const std::string path = temp_path("trial_bytes.jsonl");
  const std::uint64_t extremes[] = {0,
                                    1,
                                    9,
                                    10,
                                    0xFFFFFFFFULL,
                                    0x100000000ULL,
                                    0x8000000000000000ULL,
                                    0xFFFFFFFFFFFFFFFEULL,
                                    0xFFFFFFFFFFFFFFFFULL};
  const std::string names[] = {"",
                               "bfw",
                               "IdBroadcast(D=63)",
                               "quote\" backslash\\",
                               "tab\t newline\n return\r",
                               std::string("controls \x01\x1f\x7f", 13),
                               "utf8 \xc3\xa9",
                               std::string(61, 'a'),
                               std::string(62, 'b'),
                               std::string(60, 'c') + "\"",
                               std::string(300, 'd')};
  support::rng rng(2024);
  const auto value = [&] {
    return rng.coin() ? extremes[rng.uniform_below(std::size(extremes))]
                      : rng.next_u64();
  };
  const auto name = [&] { return names[rng.uniform_below(std::size(names))]; };
  std::vector<std::string> expected;
  {
    sweep::record_writer writer;
    ASSERT_TRUE(writer.open(path));
    for (int r = 0; r < 400; ++r) {
      sweep::cell_record meta;
      meta.algorithm = name();
      meta.graph = name();
      meta.n = value();
      meta.diameter = static_cast<std::uint32_t>(value());
      const sweep::trial_record trial{value(), value(), value(),
                                      value(), value(), r % 2 == 0,
                                      value(), value()};
      support::json::object record = trial_object(trial, meta);
      if (r % 3 == 0) {
        writer.write_trial(trial, meta);
      } else {
        const sweep::trial_exec exec{name(), value(), value()};
        writer.write_trial(trial, meta, exec);
        record.emplace_back("gather_kernel", support::json(exec.gather_kernel));
        record.emplace_back("exec_threads", support::json(exec.threads));
        record.emplace_back("exec_tile_words", support::json(exec.tile_words));
      }
      expected.push_back(support::json(std::move(record)).dump());
    }
    ASSERT_TRUE(writer.close());
  }
  std::ifstream in(path);
  std::string line;
  for (const std::string& want : expected) {
    ASSERT_TRUE(std::getline(in, line));
    ASSERT_EQ(line, want);
  }
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(SweepMergeTest, OverlappingIdenticalRecordsAreTolerated) {
  const sweep_fixture fixture;
  const auto reference = fixture.reference();
  const std::string full = temp_path("overlap_full.jsonl");
  const std::string extra = temp_path("overlap_extra.jsonl");
  sweep::options opts;
  opts.jsonl_path = full;
  (void)sweep::run(fixture.spec(), opts);
  opts.shard = {1, 3};
  opts.jsonl_path = extra;
  (void)sweep::run(fixture.spec(), opts);
  const std::vector<std::string> paths = {full, extra};
  const auto merged = sweep::merge_shards(paths);
  EXPECT_GT(merged.duplicate_records, 0U);
  for (std::size_t c = 0; c < reference.size(); ++c) {
    expect_stats_bit_identical(merged.cells[c].stats, reference[c],
                               "overlap cell " + std::to_string(c));
  }
  std::remove(full.c_str());
  std::remove(extra.c_str());
}

TEST(SweepMergeTest, MissingShardIsReportedAsIncomplete) {
  const sweep_fixture fixture;
  const std::string shard0 = temp_path("missing_shard0.jsonl");
  sweep::options opts;
  opts.shard = {0, 2};
  opts.jsonl_path = shard0;
  (void)sweep::run(fixture.spec(), opts);
  const std::vector<std::string> paths = {shard0};
  EXPECT_THROW((void)sweep::merge_shards(paths), std::runtime_error);
  std::remove(shard0.c_str());
}

TEST(SweepMergeTest, ConflictingDuplicateIsRejected) {
  const sweep_fixture fixture;
  const std::string original = temp_path("conflict_a.jsonl");
  const std::string tampered = temp_path("conflict_b.jsonl");
  sweep::options opts;
  opts.jsonl_path = original;
  (void)sweep::run(fixture.spec(), opts);
  // Copy the file, flipping one trial's coin count.
  std::ifstream in(original);
  std::ofstream out(tampered, std::ios::trunc);
  std::string line;
  bool flipped = false;
  while (std::getline(in, line)) {
    auto record = support::json::parse(line);
    ASSERT_TRUE(record.has_value());
    const auto* type = record->find("type");
    if (!flipped && type && type->as_string() == "trial") {
      record->set("coins", record->find("coins")->as_u64() + 1);
      flipped = true;
    }
    out << record->dump() << '\n';
  }
  ASSERT_TRUE(flipped);
  out.close();
  const std::vector<std::string> paths = {original, tampered};
  EXPECT_THROW((void)sweep::merge_shards(paths), std::runtime_error);
  std::remove(original.c_str());
  std::remove(tampered.c_str());
}

// Rewrites a shard file with its trial records in reverse order,
// returning how many were reversed. Exercises the streaming merge's
// unsorted-file fallback (pass 1 detects the disorder, pass 2 loads
// and sorts that file in memory instead of streaming it).
std::size_t reverse_trial_records(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> head;
  std::vector<std::string> trials;
  std::vector<std::string> tail;
  std::string line;
  while (std::getline(in, line)) {
    const auto record = support::json::parse(line);
    const auto* type = record ? record->find("type") : nullptr;
    if (type != nullptr && type->as_string() == "trial") {
      trials.push_back(line);
    } else if (trials.empty()) {
      head.push_back(line);
    } else {
      tail.push_back(line);
    }
  }
  in.close();
  std::ofstream out(path, std::ios::trunc);
  for (const auto& l : head) out << l << '\n';
  for (auto it = trials.rbegin(); it != trials.rend(); ++it) {
    out << *it << '\n';
  }
  for (const auto& l : tail) out << l << '\n';
  return trials.size();
}

TEST(SweepMergeTest, UnsortedShardFileStillMergesBitIdentically) {
  const sweep_fixture fixture;
  const auto reference = fixture.reference();
  const std::string sorted = temp_path("unsorted_a.jsonl");
  const std::string unsorted = temp_path("unsorted_b.jsonl");
  sweep::options opts;
  opts.shard = {0, 2};
  opts.jsonl_path = sorted;
  (void)sweep::run(fixture.spec(), opts);
  opts.shard = {1, 2};
  opts.jsonl_path = unsorted;
  (void)sweep::run(fixture.spec(), opts);
  ASSERT_GT(reverse_trial_records(unsorted), 1U);
  const std::vector<std::string> paths = {sorted, unsorted};
  const auto merged = sweep::merge_shards(paths);
  EXPECT_EQ(merged.units, fixture.spec().total_units());
  EXPECT_EQ(merged.duplicate_records, 0U);
  ASSERT_EQ(merged.cells.size(), reference.size());
  for (std::size_t c = 0; c < reference.size(); ++c) {
    expect_stats_bit_identical(merged.cells[c].stats, reference[c],
                               "unsorted-merged cell " + std::to_string(c));
  }
  std::remove(sorted.c_str());
  std::remove(unsorted.c_str());
}

TEST(SweepMergeTest, UnsortedOverlapKeepsDuplicateAndConflictSemantics) {
  const sweep_fixture fixture;
  const auto reference = fixture.reference();
  const std::string full = temp_path("unsorted_full.jsonl");
  const std::string extra = temp_path("unsorted_extra.jsonl");
  sweep::options opts;
  opts.jsonl_path = full;
  (void)sweep::run(fixture.spec(), opts);
  opts.shard = {1, 3};
  opts.jsonl_path = extra;
  (void)sweep::run(fixture.spec(), opts);
  ASSERT_GT(reverse_trial_records(extra), 1U);
  // Identical duplicates from the disordered overlap file are still
  // tolerated and counted...
  const std::vector<std::string> paths = {full, extra};
  const auto merged = sweep::merge_shards(paths);
  EXPECT_GT(merged.duplicate_records, 0U);
  for (std::size_t c = 0; c < reference.size(); ++c) {
    expect_stats_bit_identical(merged.cells[c].stats, reference[c],
                               "unsorted-overlap cell " + std::to_string(c));
  }
  // ... while a conflicting one in the disordered file is rejected.
  {
    std::ifstream in(extra);
    std::vector<std::string> lines;
    std::string line;
    bool flipped = false;
    while (std::getline(in, line)) {
      auto record = support::json::parse(line);
      ASSERT_TRUE(record.has_value());
      const auto* type = record->find("type");
      if (!flipped && type && type->as_string() == "trial") {
        record->set("coins", record->find("coins")->as_u64() + 1);
        flipped = true;
      }
      lines.push_back(record->dump());
    }
    ASSERT_TRUE(flipped);
    in.close();
    std::ofstream out(extra, std::ios::trunc);
    for (const auto& l : lines) out << l << '\n';
  }
  EXPECT_THROW((void)sweep::merge_shards(paths), std::runtime_error);
  std::remove(full.c_str());
  std::remove(extra.c_str());
}

TEST(SweepMergeTest, SummaryJsonIsDeterministic) {
  const sweep_fixture fixture;
  const std::string path = temp_path("summary.jsonl");
  sweep::options opts;
  opts.jsonl_path = path;
  (void)sweep::run(fixture.spec(), opts);
  const std::vector<std::string> paths = {path};
  const auto once = sweep::merge_summary(sweep::merge_shards(paths)).dump();
  const auto twice = sweep::merge_summary(sweep::merge_shards(paths)).dump();
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("\"sweep\":\"test_sweep\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonTest, ExactUint64RoundTrip) {
  const std::uint64_t big = 18446744073709551615ULL;  // 2^64 - 1
  support::json record;
  record.set("seed", big);
  record.set("coins", std::uint64_t{1} << 63);
  const auto parsed = support::json::parse(record.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("seed")->as_u64(), big);
  EXPECT_EQ(parsed->find("coins")->as_u64(), std::uint64_t{1} << 63);
}

TEST(JsonTest, EscapesAndNesting) {
  support::json inner;
  inner.set("name", "quote\" backslash\\ newline\n tab\t");
  support::json outer;
  outer.set("cell", inner);
  outer.set("values", support::json(support::json::array{
                          support::json(1), support::json(true),
                          support::json(nullptr), support::json(-3)}));
  const std::string text = outer.dump();
  const auto parsed = support::json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("cell")->find("name")->as_string(),
            "quote\" backslash\\ newline\n tab\t");
  EXPECT_EQ(parsed->find("values")->as_array().size(), 4U);
  EXPECT_EQ(parsed->find("values")->as_array()[3].as_i64(), -3);
  EXPECT_EQ(parsed->dump(), text);  // stable serialization
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(support::json::parse("{\"a\":").has_value());
  EXPECT_FALSE(support::json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(support::json::parse("{'a':1}").has_value());
  EXPECT_FALSE(support::json::parse("").has_value());
  EXPECT_FALSE(support::json::parse("{\"a\":1,}").has_value());
  // RFC 8259 numbers: no leading zero, a digit on each side of '.'.
  // The object scan shares the lexer, so it refuses the same records.
  support::json::object_scan scan;
  for (const std::string number : {"007", ".5", "-.5", "1.", "1.e3"}) {
    const std::string record = R"({"rounds":)" + number + "}";
    EXPECT_FALSE(support::json::parse(number).has_value()) << number;
    EXPECT_FALSE(support::json::parse(record).has_value()) << number;
    EXPECT_FALSE(scan.scan(record)) << number;
  }
  for (const std::string number : {"0", "-0", "0.5", "-0.5e-3", "10", "1E+3"}) {
    const std::string record = R"({"rounds":)" + number + "}";
    EXPECT_TRUE(support::json::parse(number).has_value()) << number;
    EXPECT_TRUE(scan.scan(record)) << number;
  }
  // A control byte at any offset of a long string is refused, an escape
  // is decoded and a non-ASCII byte kept: the string lexer skips plain
  // bytes eight at a time and must stop at each of these wherever it
  // falls in a block.
  const std::string plain(40, 'a');
  for (std::size_t i = 0; i < plain.size(); ++i) {
    for (const char control : {'\x01', '\x1f'}) {
      std::string text = plain;
      text[i] = control;
      EXPECT_FALSE(support::json::parse('"' + text + '"').has_value()) << i;
    }
    std::string escaped = plain;
    escaped.replace(i, 1, "\\n");
    std::string wide = plain;
    wide[i] = '\xc3';
    for (const auto& [text, value] :
         {std::pair(escaped, plain.substr(0, i) + '\n' + plain.substr(i + 1)),
          std::pair(wide, wide)}) {
      const auto parsed = support::json::parse('"' + text + '"');
      ASSERT_TRUE(parsed.has_value()) << i;
      EXPECT_EQ(parsed->as_string(), value) << i;
    }
    const auto quoted = support::json::parse(
        '"' + plain.substr(0, i) + "\"" + plain.substr(i) + '"');
    EXPECT_FALSE(quoted.has_value()) << i;
  }
}

TEST(JsonTest, DoublesSurviveRoundTrip) {
  support::json record;
  record.set("mean", 1234.5678901234567);
  record.set("rate", 0.1);
  const auto parsed = support::json::parse(record.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("mean")->as_double(), 1234.5678901234567);
  EXPECT_EQ(parsed->find("rate")->as_double(), 0.1);
}

}  // namespace
}  // namespace beepkit
