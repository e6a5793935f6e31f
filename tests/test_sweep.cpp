// Tests for the sharded streaming sweep subsystem: lazy work-source
// enumeration, the (start, stride) shard convention, JSONL record
// round-trips, crash-resume, and the headline contract - merging any
// shard partition's JSONL outputs is bit-identical to the
// result of a serial run_trials per cell (coin accounting included,
// at word-boundary graph sizes).
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "graph/generators.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "sweep/jsonl.hpp"

namespace beepkit {
namespace {

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

TEST(SweepMergeTest, ShardFilesRoundTripThroughReader) {
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
  // a 0/2 file as 1/2 would mislabel every salvaged record.
  const sweep_fixture fixture;
  const std::string path = temp_path("layoutchange.jsonl");
  sweep::options opts;
  opts.shard = {0, 2};
  opts.jsonl_path = path;
  (void)sweep::run(fixture.spec(), opts);
  opts.shard = {1, 2};
  opts.resume = true;
  EXPECT_THROW((void)sweep::run(fixture.spec(), opts), std::runtime_error);
  std::remove(path.c_str());
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
