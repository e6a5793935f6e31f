// Giant-trial subsystem: the plane arena, the binary-in-JSONL codecs,
// the lazy cursor store, and the checkpoint/resume loop. The standing
// contract under test: a giant-configured engine (lazy RNG cursors,
// pinned planes, no state vector) is bit-identical to the ordinary
// engine, and a resumed trial is bit-identical - outcome, round and
// total draw count - to the uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "core/giant.hpp"
#include "core/protocol_spec.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"
#include "support/arena.hpp"
#include "support/codec.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace beepkit {
namespace {

using graph::topology;
using graph::topology_view;
namespace codec = support::codec;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "beepkit_" + name;
}

// --- plane arena ------------------------------------------------------

TEST(PlaneArena, AllocationsAreZeroedAndAligned) {
  support::plane_arena arena;
  const auto small = arena.alloc_words(17);
  const auto large = arena.alloc_words(1 << 19);  // 4 MiB: dedicated chunk
  ASSERT_EQ(small.size(), 17U);
  ASSERT_EQ(large.size(), std::size_t{1} << 19);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.data()) % 64, 0U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(large.data()) % 64, 0U);
  for (const std::uint64_t w : small) EXPECT_EQ(w, 0U);
  EXPECT_EQ(large[0], 0U);
  EXPECT_EQ(large[large.size() - 1], 0U);
  EXPECT_GE(arena.bytes_reserved(), (std::size_t{1} << 22));
  EXPECT_EQ(arena.chunk_count(), 1U);  // the large buffer; small ones map nothing
  // Buffers are writable and independent.
  small[0] = ~0ULL;
  large[0] = 42;
  EXPECT_EQ(small[0], ~0ULL);
  EXPECT_EQ(large[0], 42U);
}

TEST(PlaneArena, ZeroedOnReuse) {
  // Small buffers come from heap blocks, which the heap hands straight
  // back to the next arena on this thread - dirty. The arena must zero
  // them itself.
  const std::vector<std::size_t> sizes = {1, 2, 17, 333, 2048, 20000};
  for (int pass = 0; pass < 3; ++pass) {
    support::plane_arena arena;
    std::vector<support::word_buffer> bufs;
    for (const std::size_t words : sizes) bufs.push_back(arena.alloc_words(words));
    for (const support::word_buffer& buf : bufs) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], 0U) << "pass " << pass << " size " << buf.size()
                              << " word " << i;
      }
      std::fill(buf.begin(), buf.end(), ~0ULL);
    }
    EXPECT_EQ(arena.chunk_count(), 0U);
  }
}

TEST(PlaneArena, MoveTransfersOwnership) {
  support::plane_arena arena;
  const auto buf = arena.alloc_words(100);
  buf[7] = 1234;
  support::plane_arena moved = std::move(arena);
  EXPECT_EQ(buf[7], 1234U);
  EXPECT_GE(moved.bytes_reserved(), 800U);
}

// --- codecs -----------------------------------------------------------

TEST(Codec, Base64RoundTripsAllLengths) {
  std::vector<std::uint8_t> bytes;
  for (int len = 0; len < 70; ++len) {
    const std::string text = codec::base64_encode(bytes);
    const auto back = codec::base64_decode(text);
    ASSERT_TRUE(back.has_value()) << len;
    EXPECT_EQ(*back, bytes) << len;
    bytes.push_back(static_cast<std::uint8_t>(len * 37 + 11));
  }
}

TEST(Codec, Base64RejectsMalformedInput) {
  EXPECT_FALSE(codec::base64_decode("abc").has_value());      // not mod 4
  EXPECT_FALSE(codec::base64_decode("ab!d").has_value());     // bad char
  EXPECT_FALSE(codec::base64_decode("=abc").has_value());     // pad first
  EXPECT_FALSE(codec::base64_decode("ab=c").has_value());     // data after pad
}

TEST(Codec, WordsRoundTripThroughBase64) {
  const std::vector<std::uint64_t> words = {0, ~0ULL, 0x0123456789abcdefULL,
                                            1ULL << 63, 42};
  const std::string text = codec::encode_words(words);
  std::vector<std::uint64_t> out(words.size(), 7);
  const auto count = codec::decode_words(text, out);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, words.size());
  EXPECT_EQ(out, words);
  // Destination too small is an error, not a truncation.
  std::vector<std::uint64_t> tiny(words.size() - 1);
  EXPECT_FALSE(codec::decode_words(text, tiny).has_value());
}

TEST(Codec, VarintCursorsRoundTrip) {
  std::vector<std::uint32_t> cursors = {0, 1, 127, 128, 300, 0xFFFFFFFFU, 5};
  const std::string text = codec::encode_cursors(cursors);
  std::vector<std::uint32_t> out(cursors.size(), 9);
  const auto count = codec::decode_cursors(text, out);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, cursors.size());
  EXPECT_EQ(out, cursors);
}

TEST(Codec, Fnv1aIsOrderSensitive) {
  codec::fnv1a a;
  codec::fnv1a b;
  a.update_u64(1);
  a.update_u64(2);
  b.update_u64(2);
  b.update_u64(1);
  EXPECT_NE(a.digest(), b.digest());
}

// --- compiled-kernel width constant ------------------------------------

TEST(Simd, AutotunedWidthIsValidAndStable) {
  // The compiled sweep is one plain-word kernel; the shim reports it.
  static_assert(support::simd::autotuned_width() == 1);
  EXPECT_EQ(support::simd::autotuned_width(), 1U);
}

// --- lazy cursor store ------------------------------------------------

/// The batched draws (rng_source::coins / bernoulli) of a dense and a
/// lazy store against per-lane draws on a third, dense store: random
/// masks on word-aligned bases, with single-stream at() draws on the
/// batch's slot (from a stream inside the batch, left active in the
/// slot's scratch) and on another slot, before and after every batch.
/// coins mode draws coins; raw64 mode draws bernoulli(p) with p cycling
/// through {0, 0.3, 1}, whose edges draw nothing.
void expect_batches_match_per_lane(support::draw_mode mode) {
  constexpr std::size_t words = 3;
  constexpr std::size_t n = 64 * words;
  const bool coins = mode == support::draw_mode::coins;
  support::rng_store ref = support::rng_store::dense(42, n);
  support::rng_store dense = support::rng_store::dense(42, n);
  support::rng_store lazy = support::rng_store::lazy(42, n, mode);
  lazy.set_slots(2);
  const auto draw_one = [coins](support::rng& stream, double p) {
    return coins ? stream.coin() : stream.bernoulli(p);
  };
  const auto count = [coins](const support::rng& stream) {
    return coins ? stream.coins_consumed() : stream.u64_draws();
  };
  // One single-stream draw from `stream`, through `slot` of the lazy
  // store, checked against the reference.
  const auto single = [&](std::size_t slot, std::size_t stream) {
    const bool expected = draw_one(ref[stream], 0.3);
    (void)draw_one(dense[stream], 0.3);
    EXPECT_EQ(draw_one(lazy.at(slot, stream), 0.3), expected)
        << "stream " << stream;
  };
  support::rng picker(99);
  const double ps[] = {0.0, 0.3, 1.0};
  for (std::size_t round = 0; round < 24; ++round) {
    const std::size_t word = picker.uniform_below(words);
    const std::uint64_t mask =
        (picker.next_u64() & picker.next_u64()) | (1ULL << (round % 64));
    const double p = coins ? 0.5 : ps[round % 3];
    const std::size_t inside = (word << 6) + std::countr_zero(mask);
    const std::size_t outside = (((word + 1) % words) << 6) + round;
    single(0, inside);
    single(1, outside);
    std::uint64_t expected = 0;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      const bool hit = coins ? ref[(word << 6) + b].coin()
                             : ref[(word << 6) + b].bernoulli(p);
      expected |= static_cast<std::uint64_t>(hit) << b;
    }
    const bool edge = !coins && (p <= 0.0 || p >= 1.0);
    std::vector<std::uint32_t> before;
    if (edge) {
      const auto saved = lazy.cursors();
      before.assign(saved.begin(), saved.end());
    }
    const support::rng_source dense_source = dense.source();
    const support::rng_source lazy_source = lazy.source(0);
    EXPECT_EQ(coins ? dense_source.coins(word, mask)
                    : dense_source.bernoulli(word, mask, p),
              expected)
        << "dense round " << round;
    EXPECT_EQ(coins ? lazy_source.coins(word, mask)
                    : lazy_source.bernoulli(word, mask, p),
              expected)
        << "lazy round " << round;
    if (edge) {
      const auto after = lazy.cursors();
      EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin()))
          << "p = " << p << " moved a cursor";
    }
    single(0, inside);
    single(1, outside);
  }
  const auto cursors = lazy.cursors();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(cursors[s], count(ref[s])) << "stream " << s;
    EXPECT_EQ(dense[s].u64_draws(), ref[s].u64_draws()) << "stream " << s;
    EXPECT_EQ(dense[s].coins_consumed(), ref[s].coins_consumed());
    total += count(ref[s]);
  }
  EXPECT_EQ(lazy.total_draws(), total);
  EXPECT_EQ(dense.total_draws(), ref.total_draws());
}

TEST(RngStore, LazyMatchesDenseDrawForDraw) {
  support::rng_store dense = support::rng_store::dense(42, 9);
  support::rng_store lazy =
      support::rng_store::lazy(42, 9, support::draw_mode::coins);
  // Interleaved access pattern with revisits (the engines sweep
  // ascending but revisit across rounds).
  const std::size_t pattern[] = {0, 3, 3, 8, 1, 0, 8, 5, 3};
  for (const std::size_t s : pattern) {
    for (int k = 0; k < 5; ++k) {
      ASSERT_EQ(dense[s].coin(), lazy[s].coin()) << "stream " << s;
    }
  }
  EXPECT_EQ(dense.total_draws(), lazy.total_draws());
  EXPECT_EQ(dense.total_coins(), lazy.total_coins());
  // Batched draws keep every stream's sequence.
  expect_batches_match_per_lane(support::draw_mode::coins);
  expect_batches_match_per_lane(support::draw_mode::raw64);
}

TEST(RngStore, CursorsRestoreExactGeneratorState) {
  support::rng_store store =
      support::rng_store::lazy(7, 5, support::draw_mode::coins);
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t k = 0; k < s * 13 + 1; ++k) (void)store[s].coin();
  }
  const auto saved_span = store.cursors();
  const std::vector<std::uint32_t> saved(saved_span.begin(),
                                         saved_span.end());
  std::vector<bool> expected;
  for (std::size_t s = 0; s < 5; ++s) expected.push_back(store[s].coin());

  support::rng_store restored =
      support::rng_store::lazy(7, 5, support::draw_mode::coins);
  restored.set_cursors(saved);
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_EQ(restored[s].coin(), expected[s]) << "stream " << s;
  }
  // In-place restore path used by the giant resume.
  support::rng_store inplace =
      support::rng_store::lazy(7, 5, support::draw_mode::coins);
  const auto dest = inplace.cursors_mutable();
  std::copy(saved.begin(), saved.end(), dest.begin());
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_EQ(inplace[s].coin(), expected[s]) << "stream " << s;
  }
}

TEST(RngStore, SlotScratchContextsMatchDenseDrawForDraw) {
  // Tiled sweeps serve each executor slot from its own scratch
  // generator; whichever slot reconstructs a stream must continue its
  // sequence exactly, and sync_all() must fold every slot's cached
  // cursor back before the next round re-partitions tiles.
  support::rng_store dense = support::rng_store::dense(42, 12);
  support::rng_store lazy =
      support::rng_store::lazy(42, 12, support::draw_mode::coins);
  lazy.set_slots(3);
  ASSERT_EQ(lazy.slot_count(), 3U);
  // Round 1: disjoint stream ranges per slot (the tiling invariant),
  // drawn through at(slot, stream) in a scrambled slot order.
  const std::size_t owner1[12] = {2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 1, 1};
  for (std::size_t s = 0; s < 12; ++s) {
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(dense[s].coin(), lazy.at(owner1[s], s).coin())
          << "round 1 stream " << s;
    }
  }
  lazy.sync_all();
  // Round 2: streams are re-dealt across slots - stale scratch from
  // round 1 would surface here if sync_all missed a slot.
  const std::size_t owner2[12] = {1, 0, 2, 1, 2, 1, 2, 0, 0, 2, 0, 1};
  for (std::size_t s = 0; s < 12; ++s) {
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(dense[s].coin(), lazy.at(owner2[s], s).coin())
          << "round 2 stream " << s;
    }
  }
  lazy.sync_all();
  EXPECT_EQ(dense.total_draws(), lazy.total_draws());
  EXPECT_EQ(dense.total_coins(), lazy.total_coins());
  // Shrinking back to one slot syncs and keeps the sequences intact.
  lazy.set_slots(1);
  for (std::size_t s = 0; s < 12; ++s) {
    ASSERT_EQ(dense[s].coin(), lazy[s].coin()) << "post-shrink " << s;
  }
}

// --- giant engine == ordinary engine ---------------------------------

TEST(GiantTrial, GiantConfigMatchesOrdinaryEngine) {
  const auto view = topology_view::implicit({topology::kind::grid, 9, 23});
  // BFW runs the compiled bfw kernel with coin cursors at p = 1/2 and
  // raw64 cursors at p = 0.3; Timeout-BFW with T = 7 (12 states) has
  // no kernel and runs the interpreted sweep on raw64 cursors.
  const core::bfw_machine bfw(0.5);
  const core::bfw_machine bfw_bernoulli(0.3);
  const core::timeout_bfw_machine timeout_bfw(0.5, 7);
  for (const beeping::state_machine* machine :
       {static_cast<const beeping::state_machine*>(&bfw),
        static_cast<const beeping::state_machine*>(&bfw_bernoulli),
        static_cast<const beeping::state_machine*>(&timeout_bfw)}) {
    const auto ordinary =
        core::run_election(view, *machine, 1234, {.max_rounds = 500000});
    const auto giant =
        core::run_giant_trial(view, *machine, 1234, {.max_rounds = 500000});
    ASSERT_TRUE(ordinary.converged) << machine->name();
    EXPECT_TRUE(giant.converged) << machine->name();
    EXPECT_EQ(giant.rounds, ordinary.rounds) << machine->name();
    EXPECT_EQ(giant.leader, ordinary.leader) << machine->name();
    // Bernoulli draws are raw words, which total_coins does not count;
    // every node's cursor pins them below.
    if (machine == &bfw) {
      EXPECT_EQ(giant.draws, ordinary.total_coins);
    }
    EXPECT_GT(giant.arena_bytes, 0U);

    // Every node's draw count after the same rounds: the giant engine's
    // lazy cursors against the ordinary engine's dense streams.
    beeping::fsm_protocol ordinary_proto(*machine);
    beeping::engine ordinary_sim(view, ordinary_proto, 1234);
    beeping::fsm_protocol giant_proto(*machine);
    beeping::engine giant_sim(view, giant_proto, 1234, beeping::noise_model{},
                              beeping::engine_config::giant());
    ordinary_sim.run_rounds(ordinary.rounds);
    giant_sim.run_rounds(ordinary.rounds);
    const auto cursors = giant_sim.rng_streams().cursors();
    std::uint64_t total = 0;
    for (graph::node_id u = 0; u < view.node_count(); ++u) {
      const support::rng& stream = ordinary_sim.node_rng(u);
      const std::uint64_t draws = machine == &bfw ? stream.coins_consumed()
                                                  : stream.u64_draws();
      ASSERT_EQ(cursors[u], draws) << machine->name() << " node " << u;
      total += draws;
    }
    EXPECT_EQ(giant.draws, total) << machine->name();
  }

  // ...and the giant bundle refuses what it cannot serve: a noise model
  // (noise streams stay dense), a machine mixing coin and bernoulli
  // draws (a 4-byte cursor replays one kind), and more than 256 states
  // (no plane gear).
  const auto giant_engine = [&view](const beeping::state_machine& machine,
                                    const beeping::noise_model& noise) {
    beeping::fsm_protocol proto(machine);
    beeping::engine sim(view, proto, 1, noise,
                        beeping::engine_config::giant());
  };
  EXPECT_THROW(giant_engine(bfw, {0.1, 0.0}), std::invalid_argument);
  core::protocol_spec mixed = core::bfw_spec(0.5);
  mixed.set_heard(0, beeping::transition_rule::bernoulli_draw(0.3, 1, 0));
  const auto mixed_machine = core::make_protocol(mixed);
  EXPECT_THROW(giant_engine(*mixed_machine, {}), std::invalid_argument);
  const core::timeout_bfw_machine wide(0.5, 252);
  ASSERT_GT(wide.state_count(), 256U);
  EXPECT_THROW(giant_engine(wide, {}), std::invalid_argument);
}

TEST(GiantTrial, ExplicitGraphsWorkToo) {
  const auto g = graph::make_path(130);
  const core::bfw_machine machine(0.5);
  const auto giant =
      core::run_giant_trial(g, machine, 5, {.max_rounds = 500000});
  const auto ordinary =
      core::run_election(g, machine, 5, {.max_rounds = 500000});
  EXPECT_EQ(giant.rounds, ordinary.rounds);
  EXPECT_EQ(giant.leader, ordinary.leader);
}

// --- checkpoint / resume ---------------------------------------------

TEST(GiantTrial, ResumedRunIsBitIdenticalToUninterrupted) {
  const auto view = topology_view::implicit({topology::kind::grid, 17, 31});
  const core::bfw_machine machine(0.5);
  const std::string path = temp_path("resume.jsonl");
  std::remove(path.c_str());

  const auto straight =
      core::run_giant_trial(view, machine, 77, {.max_rounds = 500000});
  ASSERT_TRUE(straight.converged);
  ASSERT_GT(straight.rounds, 40U);

  core::giant_options first;
  first.max_rounds = 500000;
  first.checkpoint_path = path;
  first.checkpoint_every = 16;
  first.stop_after_round = straight.rounds / 2;
  const auto killed = core::run_giant_trial(view, machine, 77, first);
  EXPECT_TRUE(killed.stopped_early);
  EXPECT_GT(killed.checkpoints_written, 0U);

  core::giant_options second;
  second.max_rounds = 500000;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed = core::run_giant_trial(view, machine, 77, second);
  EXPECT_EQ(resumed.start_round, killed.rounds);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.rounds, straight.rounds);
  EXPECT_EQ(resumed.leader, straight.leader);
  EXPECT_EQ(resumed.draws, straight.draws);
  std::remove(path.c_str());
}

TEST(GiantTrial, ResumeFromPeriodicSnapshotReplaysIdentically) {
  // Resume from a mid-run periodic checkpoint (not the forced final
  // one): kill the journal after the periodic snapshot by truncating
  // the forced one away is overkill - instead stop exactly on a
  // checkpoint boundary so the forced and periodic snapshots coincide.
  const auto view = topology_view::implicit({topology::kind::ring, 1, 300});
  const core::bfw_machine machine(0.5);
  const std::string path = temp_path("periodic.jsonl");
  std::remove(path.c_str());

  const auto straight =
      core::run_giant_trial(view, machine, 31, {.max_rounds = 500000});
  ASSERT_TRUE(straight.converged);

  core::giant_options first;
  first.max_rounds = 500000;
  first.checkpoint_path = path;
  first.checkpoint_every = 8;
  first.stop_after_round = 24;  // lands on a multiple of checkpoint_every
  (void)core::run_giant_trial(view, machine, 31, first);

  core::giant_options second;
  second.max_rounds = 500000;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed = core::run_giant_trial(view, machine, 31, second);
  EXPECT_EQ(resumed.rounds, straight.rounds);
  EXPECT_EQ(resumed.draws, straight.draws);
  EXPECT_EQ(resumed.leader, straight.leader);
  std::remove(path.c_str());
}

TEST(GiantTrial, ResumeRejectsWrongTrialAndCorruptJournal) {
  const auto view = topology_view::implicit({topology::kind::grid, 6, 11});
  const core::bfw_machine machine(0.5);
  const std::string path = temp_path("corrupt.jsonl");
  std::remove(path.c_str());

  core::giant_options write;
  write.max_rounds = 500000;
  write.checkpoint_path = path;
  write.stop_after_round = 10;
  (void)core::run_giant_trial(view, machine, 9, write);

  core::giant_options resume;
  resume.max_rounds = 500000;
  resume.checkpoint_path = path;
  resume.resume = true;
  // Wrong seed: the journal belongs to seed 9.
  EXPECT_THROW((void)core::run_giant_trial(view, machine, 10, resume),
               std::runtime_error);

  // Flip one payload character: the FNV digest must catch it.
  {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    const auto pos = contents.find("\"data\":\"");
    ASSERT_NE(pos, std::string::npos);
    char& c = contents[pos + 9];
    c = c == 'A' ? 'B' : 'A';
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }
  EXPECT_THROW((void)core::run_giant_trial(view, machine, 9, resume),
               std::runtime_error);

  // A hand-written version-1 header (that format carried beep-count
  // sections), or one with no version, is refused by name before any
  // chunk is read.
  const auto refusal = [&](const std::string& header) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << header << '\n';
    }
    try {
      (void)core::run_giant_trial(view, machine, 9, resume);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("(no refusal)");
  };
  const std::string header = R"({"type":"giant_header","topology":")" +
                             view.name() + R"(","n":)" +
                             std::to_string(view.node_count()) +
                             R"(,"seed":9,"machine":"BFW")";
  const std::string v1 = refusal(header + R"(,"format_version":1})");
  EXPECT_NE(v1.find("format_version 1"), std::string::npos) << v1;
  EXPECT_NE(v1.find("version 2"), std::string::npos) << v1;
  const std::string unversioned = refusal(header + "}");
  EXPECT_NE(unversioned.find("(missing)"), std::string::npos) << unversioned;
  EXPECT_NE(unversioned.find("version 2"), std::string::npos) << unversioned;

  // Missing journal.
  std::remove(path.c_str());
  EXPECT_THROW((void)core::run_giant_trial(view, machine, 9, resume),
               std::runtime_error);
  // Resume without a path is a usage error.
  core::giant_options no_path;
  no_path.resume = true;
  EXPECT_THROW((void)core::run_giant_trial(view, machine, 9, no_path),
               std::invalid_argument);
}

TEST(GiantTrial, JournalTruncatedMidCheckpointFallsBackToPrevious) {
  const auto view = topology_view::implicit({topology::kind::grid, 10, 13});
  const core::bfw_machine machine(0.5);
  const std::string path = temp_path("torn.jsonl");
  std::remove(path.c_str());

  core::giant_options write;
  write.max_rounds = 500000;
  write.checkpoint_path = path;
  write.checkpoint_every = 4;
  write.stop_after_round = 10;  // forced snapshot at 10, periodic at 4 and 8
  (void)core::run_giant_trial(view, machine, 21, write);

  // Chop the journal inside the last checkpoint: drop everything from
  // the final ckpt_end on, leaving a begun-but-unfinished snapshot.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  std::size_t last_end = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"type\":\"ckpt_end\"") != std::string::npos) {
      last_end = i;
    }
  }
  ASSERT_LT(last_end, lines.size());
  {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < last_end; ++i) out << lines[i] << "\n";
    out << lines.back().substr(0, lines.back().size() / 2);  // torn tail
  }

  core::giant_options resume;
  resume.max_rounds = 500000;
  resume.checkpoint_path = path;
  resume.resume = true;
  const auto resumed = core::run_giant_trial(view, machine, 21, resume);
  // It resumed from an earlier complete snapshot and still matches the
  // uninterrupted trajectory.
  const auto straight =
      core::run_giant_trial(view, machine, 21, {.max_rounds = 500000});
  EXPECT_EQ(resumed.start_round, 8U);  // round-10 snapshot torn away
  EXPECT_EQ(resumed.rounds, straight.rounds);
  EXPECT_EQ(resumed.draws, straight.draws);
  std::remove(path.c_str());
}

// --- tiled giant rounds ----------------------------------------------

TEST(GiantTrial, ThreadedTrialIsBitIdenticalToSerial) {
  const auto view = topology_view::implicit({topology::kind::grid, 17, 31});
  const core::bfw_machine machine(0.5);
  const auto serial =
      core::run_giant_trial(view, machine, 1234, {.max_rounds = 500000});
  ASSERT_TRUE(serial.converged);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    core::giant_options options;
    options.max_rounds = 500000;
    options.threads = threads;
    options.tile_words = 1;  // worst case: one word per tile
    const auto tiled = core::run_giant_trial(view, machine, 1234, options);
    EXPECT_TRUE(tiled.converged) << threads;
    EXPECT_EQ(tiled.rounds, serial.rounds) << threads;
    EXPECT_EQ(tiled.leader, serial.leader) << threads;
    EXPECT_EQ(tiled.draws, serial.draws) << threads;
  }
}

TEST(GiantTrial, KillAndResumeAcrossThreadCounts) {
  // Checkpoints are thread-count independent: kill a 4-thread run and
  // resume it serially (and vice versa); both must land on the
  // uninterrupted trajectory - outcome, round and draw count.
  const auto view = topology_view::implicit({topology::kind::grid, 17, 31});
  const core::bfw_machine machine(0.5);
  const auto straight =
      core::run_giant_trial(view, machine, 77, {.max_rounds = 500000});
  ASSERT_TRUE(straight.converged);
  ASSERT_GT(straight.rounds, 40U);

  const struct {
    const char* name;
    std::size_t kill_threads;
    std::size_t resume_threads;
  } cases[] = {{"t4_to_serial", 4, 1}, {"serial_to_t4", 1, 4}};
  for (const auto& c : cases) {
    const std::string path = temp_path(std::string("xthreads_") + c.name +
                                       ".jsonl");
    std::remove(path.c_str());
    core::giant_options first;
    first.max_rounds = 500000;
    first.checkpoint_path = path;
    first.checkpoint_every = 16;
    first.stop_after_round = straight.rounds / 2;
    first.threads = c.kill_threads;
    const auto killed = core::run_giant_trial(view, machine, 77, first);
    EXPECT_TRUE(killed.stopped_early) << c.name;

    core::giant_options second;
    second.max_rounds = 500000;
    second.checkpoint_path = path;
    second.resume = true;
    second.threads = c.resume_threads;
    second.tile_words = 4;
    const auto resumed = core::run_giant_trial(view, machine, 77, second);
    EXPECT_TRUE(resumed.converged) << c.name;
    EXPECT_EQ(resumed.rounds, straight.rounds) << c.name;
    EXPECT_EQ(resumed.leader, straight.leader) << c.name;
    EXPECT_EQ(resumed.draws, straight.draws) << c.name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace beepkit
