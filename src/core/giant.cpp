#include "core/giant.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "beeping/engine.hpp"
#include "core/convergence.hpp"
#include "support/codec.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "sweep/jsonl.hpp"

namespace beepkit::core {

namespace {

using support::json;
namespace codec = support::codec;

// Chunk sizes: a ckpt_words line carries 256 KiB of raw plane words
// (~350 KB base64), a ckpt_cursors line 64 Ki cursors. Big enough that
// a 10^8-node checkpoint is a few thousand records, small enough that
// a torn tail loses one line, not a section.
constexpr std::size_t kWordChunk = std::size_t{1} << 15;
constexpr std::size_t kCursorChunk = std::size_t{1} << 16;

// Journal format: version 2 dropped the beep-count sections and the
// matching ckpt_begin field that version 1 carried; version 3 gave
// every chunk record its own digest and made ckpt_end's digest the
// fold of those. A resume refuses any other version before it decodes
// a chunk.
constexpr std::uint64_t kFormatVersion = 3;

/// A named word range of the snapshot, in the fixed stream order the
/// digest is defined over.
struct section_ref {
  std::string name;
  std::span<std::uint64_t> words;
};

std::vector<section_ref> snapshot_sections(
    const beeping::engine::plane_state& state) {
  std::vector<section_ref> sections;
  sections.reserve(state.plane_count + 3);
  for (std::size_t i = 0; i < state.plane_count; ++i) {
    sections.push_back({"plane" + std::to_string(i), state.planes[i]});
  }
  sections.push_back({"beep", state.beep});
  sections.push_back({"active", state.active});
  sections.push_back({"leader", state.leader});
  return sections;
}

/// One chunk record of a checkpoint: a word range of a section, or
/// (section == nullptr) a range of the cursor array.
struct chunk_ref {
  const section_ref* section;
  std::size_t offset;
  std::size_t size;
};

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

/// Writes the chunk's whole record line into `line` (keys in a fixed
/// order, the payload last) and returns its digest. A cursor chunk is
/// first widened into `cursors`, the calling thread's buffer: the store
/// keeps its cursors at 1, 2 or 4 bytes, the journal always as u32.
std::uint64_t encode_chunk(const chunk_ref& chunk,
                           const support::rng_store& streams,
                           std::vector<std::uint32_t>& cursors,
                           std::uint64_t seq, std::string& line) {
  line.clear();
  std::uint64_t digest = 0;
  if (chunk.section != nullptr) {
    const auto words = chunk.section->words.subspan(chunk.offset, chunk.size);
    digest = codec::chunk_digest(words);
    line += R"({"type":"ckpt_words","seq":)";
    append_u64(line, seq);
    line += R"(,"section":")";
    line += chunk.section->name;
    line += R"(","offset":)";
    append_u64(line, chunk.offset);
    line += R"(,"digest":)";
    append_u64(line, digest);
    line += R"(,"data":")";
    codec::append_words(line, words);
  } else {
    cursors.resize(chunk.size);
    streams.read_cursors(chunk.offset, cursors);
    const std::span<const std::uint32_t> values = cursors;
    digest = codec::chunk_digest(values);
    line += R"({"type":"ckpt_cursors","seq":)";
    append_u64(line, seq);
    line += R"(,"offset":)";
    append_u64(line, chunk.offset);
    line += R"(,"count":)";
    append_u64(line, chunk.size);
    line += R"(,"digest":)";
    append_u64(line, digest);
    line += R"(,"data":")";
    codec::append_cursors(line, values);
  }
  line += "\"}";
  return digest;
}

/// Streams one snapshot. The chunks are encoded and digested in
/// batches of one per thread on one executor; the calling thread
/// hands each batch's lines to the journal in stream order and folds
/// their digests. It drains the journal before handing the next batch,
/// so at most one batch is queued while the following one encodes.
/// Every line is a function of its chunk alone, so the journal's bytes
/// do not depend on the thread count.
void write_checkpoint(sweep::record_writer& writer, beeping::engine& sim,
                      std::uint64_t seq) {
  const auto state = sim.plane_snapshot();
  support::rng_store& streams = sim.rng_streams();
  streams.sync_all();
  const std::size_t cursor_count = streams.size();
  const std::vector<section_ref> sections = snapshot_sections(state);
  std::vector<chunk_ref> chunks;
  for (const section_ref& section : sections) {
    for (std::size_t offset = 0; offset < section.words.size();
         offset += kWordChunk) {
      chunks.push_back({&section, offset,
                        std::min(kWordChunk, section.words.size() - offset)});
    }
  }
  std::uint64_t total_words = 0;
  for (const chunk_ref& chunk : chunks) total_words += chunk.size;
  for (std::size_t offset = 0; offset < cursor_count;
       offset += kCursorChunk) {
    chunks.push_back(
        {nullptr, offset, std::min(kCursorChunk, cursor_count - offset)});
  }

  codec::fnv1a hash;
  hash.update_u64(state.round);
  hash.update_u64(state.leaders);
  hash.update_u64(state.plane_count);
  writer.write_record(json(json::object{
      {"type", json("ckpt_begin")},
      {"seq", json(seq)},
      {"round", json(state.round)},
      {"leaders", json(static_cast<std::uint64_t>(state.leaders))},
      {"plane_count", json(static_cast<std::uint64_t>(state.plane_count))},
  }));

  // One chunk per thread and batch: two per thread measured the same
  // wall time and held ~3.5 MB more lines on a 10^8-node grid.
  support::tile_executor exec(sim.parallel_threads());
  const std::size_t batch = std::min(exec.thread_count(), chunks.size());
  std::vector<std::string> lines(batch);
  std::vector<std::uint64_t> digests(batch);
  std::vector<std::vector<std::uint32_t>> buffers(exec.thread_count());
  for (std::size_t first = 0; first < chunks.size(); first += batch) {
    const std::size_t count = std::min(batch, chunks.size() - first);
    exec.run_tiles(count, 1,
                   [&](std::size_t slot, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       digests[i] = encode_chunk(chunks[first + i], streams,
                                                 buffers[slot], seq, lines[i]);
                     }
                   });
    writer.flush();
    for (std::size_t i = 0; i < count; ++i) {
      writer.write_raw_line(lines[i]);
      hash.update_u64(digests[i]);
    }
  }
  writer.write_record(json(json::object{
      {"type", json("ckpt_end")},
      {"seq", json(seq)},
      {"words", json(total_words)},
      {"cursors", json(static_cast<std::uint64_t>(cursor_count))},
      {"digest", json(hash.digest())},
  }));
  writer.flush();
  if (!writer.healthy()) {
    throw std::runtime_error("giant: checkpoint write failed (disk?)");
  }
}

struct ckpt_meta {
  std::uint64_t seq = 0;
  std::uint64_t round = 0;
  std::uint64_t leaders = 0;
  std::uint64_t words = 0;
  std::uint64_t cursors = 0;
  std::uint64_t digest = 0;
};

/// Pass 1: finds the newest checkpoint whose ckpt_end made it to disk,
/// verifying the journal belongs to this (topology, n, seed) trial.
ckpt_meta scan_journal(const std::string& path,
                       const graph::topology_view& view, std::uint64_t seed) {
  sweep::record_reader journal(path);
  bool header_seen = false;
  bool have_begin = false;
  bool have_best = false;
  ckpt_meta begin;
  ckpt_meta best;
  while (journal.next()) {
    const std::string& type = journal.type();
    if (type == "giant_header") {
      header_seen = true;
      const auto version = journal.find("format_version");
      if (!version || json::object_scan::as_uint(*version) != kFormatVersion) {
        throw std::runtime_error(
            "giant: journal format_version " +
            std::string(version.value_or("(missing)")) +
            " is not this build's version " + std::to_string(kFormatVersion));
      }
      if (journal.u64("n") != view.node_count() ||
          journal.u64("seed") != seed) {
        throw std::runtime_error(
            "giant: journal belongs to a different trial (n/seed mismatch)");
      }
      if (const auto topo = journal.find("topology")) {
        std::string scratch;
        const std::string_view name =
            json::object_scan::as_string(*topo, scratch).value_or("");
        if (name != view.name()) {
          throw std::runtime_error(
              "giant: journal belongs to a different topology (" +
              std::string(name) + " vs " + view.name() + ")");
        }
      }
    } else if (type == "ckpt_begin") {
      begin.seq = journal.u64("seq");
      begin.round = journal.u64("round");
      begin.leaders = journal.u64("leaders");
      have_begin = true;
    } else if (type == "ckpt_end" && have_begin) {
      if (journal.u64("seq") != begin.seq) continue;
      begin.words = journal.u64("words");
      begin.cursors = journal.u64("cursors");
      begin.digest = journal.u64("digest");
      best = begin;
      have_best = true;
      have_begin = false;
    }
  }
  if (!header_seen) {
    throw std::runtime_error("giant: journal has no giant_header: " + path);
  }
  if (!have_best) {
    throw std::runtime_error("giant: journal has no complete checkpoint: " +
                             path);
  }
  return best;
}

/// One chunk record of the checkpoint being restored, held in its
/// journal line until its batch is decoded.
struct restore_chunk {
  std::string line;      // the record (record_reader::next reads into it)
  std::string unescaped;  // the payload, if it had escapes to decode
  std::string_view data;
  std::size_t section = 0;  // index into the sections; past them: cursors
  std::size_t offset = 0;
  std::size_t end = 0;  // decode bound: the section's end, or the offset
                        // of the batch's next chunk in the section
  std::uint64_t digest = 0;
  std::optional<std::size_t> count;  // nullopt: the payload is corrupt
  std::uint64_t actual = 0;          // digest of what it decoded to
  std::vector<std::uint32_t> cursors;  // a cursor chunk's decoded values
  std::uint32_t cursor_max = 0;        // ... and the largest of them
};

/// Pass 2: decodes the chosen checkpoint's chunks straight from the
/// journal's line buffers into the fresh engine's plane spans and
/// cursor store, in batches of one chunk per tile thread (as
/// write_checkpoint encodes them). Each chunk's digest is checked as it
/// lands and folded in stream order, then the state is adopted. The
/// refusals are those of a one-chunk-at-a-time restore, in the same
/// order.
///
/// The store takes the width the snapshot's round needs before any
/// chunk lands: a round draws at most once per node, so no cursor of a
/// round-r snapshot exceeds r. A cursor chunk decodes into its own u32
/// buffer and is narrowed into the store only if it keeps that bound;
/// one that breaks it is refused with a std::range_error naming it.
void restore_checkpoint(const std::string& path, const ckpt_meta& target,
                        beeping::engine& sim) {
  const auto state = sim.plane_snapshot();
  std::vector<section_ref> sections = snapshot_sections(state);
  support::rng_store& streams = sim.rng_streams();
  support::tile_executor exec(sim.parallel_threads());
  streams.reserve_draws(target.round, &exec);
  const std::size_t cursor_section = sections.size();
  const auto section_size = [&](std::size_t section) {
    return section == cursor_section ? streams.size()
                                     : sections[section].words.size();
  };
  // Where a refusal says the chunk is.
  const auto where = [&](const restore_chunk& chunk) {
    return (chunk.section == cursor_section ? std::string("cursors")
                                            : sections[chunk.section].name) +
           " at offset " + std::to_string(chunk.offset);
  };
  // Decodes a chunk from its offset up to its bound (clipped) or to
  // its section's end.
  const auto decode = [&](restore_chunk& chunk, bool clipped) {
    const std::size_t end = clipped ? chunk.end : section_size(chunk.section);
    if (chunk.section == cursor_section) {
      // Base64 packs 3 bytes in 4 characters, and a varint takes at
      // least a byte, so the buffer need not outgrow the payload.
      chunk.cursors.resize(
          std::min(end - chunk.offset, chunk.data.size() / 4 * 3));
      chunk.count = codec::decode_cursors(chunk.data, chunk.cursors);
      if (chunk.count.has_value()) {
        const auto values =
            std::span<const std::uint32_t>(chunk.cursors).first(*chunk.count);
        chunk.actual = codec::chunk_digest(values);
        chunk.cursor_max =
            values.empty() ? 0 : *std::max_element(values.begin(), values.end());
        if (chunk.cursor_max <= target.round) {
          streams.set_cursors(values, chunk.offset);
        }
      }
    } else {
      const auto dest =
          sections[chunk.section].words.subspan(chunk.offset,
                                                end - chunk.offset);
      chunk.count = codec::decode_words(chunk.data, dest);
      if (chunk.count.has_value()) {
        chunk.actual = codec::chunk_digest(
            std::span<const std::uint64_t>(dest.first(*chunk.count)));
      }
    }
  };

  std::vector<restore_chunk> slots(exec.thread_count());
  std::vector<restore_chunk*> free;     // slots a record may be read into
  std::vector<restore_chunk*> pending;  // the batch, in stream order
  for (restore_chunk& slot : slots) free.push_back(&slot);
  codec::fnv1a hash;
  hash.update_u64(target.round);
  hash.update_u64(target.leaders);
  hash.update_u64(state.plane_count);
  std::uint64_t words_restored = 0;
  std::uint64_t cursors_restored = 0;
  // Decodes the batch in parallel, each chunk clipped to its bound so
  // that no two write the same words, then checks it in stream order.
  // A clipped chunk that fails may have meant to overlap the next one:
  // from there on the batch is decoded again one chunk at a time,
  // unclipped, as a sequential restore would.
  const auto drain = [&] {
    exec.run_tiles(pending.size(), 1,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       decode(*pending[i], true);
                     }
                   });
    bool sequential = false;
    for (restore_chunk* chunk : pending) {
      sequential = sequential || (!chunk->count.has_value() &&
                                  chunk->end != section_size(chunk->section));
      if (sequential) decode(*chunk, false);
      if (!chunk->count.has_value()) {
        throw std::runtime_error("giant: corrupt checkpoint chunk in " +
                                 where(*chunk));
      }
      if (chunk->actual != chunk->digest) {
        throw std::runtime_error(
            "giant: checkpoint chunk digest mismatch in " + where(*chunk));
      }
      if (chunk->section == cursor_section &&
          chunk->cursor_max > target.round) {
        throw std::range_error(
            "giant: checkpoint cursor " + std::to_string(chunk->cursor_max) +
            " exceeds the snapshot's round " + std::to_string(target.round) +
            " in " + where(*chunk));
      }
      (chunk->section == cursor_section ? cursors_restored
                                        : words_restored) += *chunk->count;
      hash.update_u64(chunk->digest);
      free.push_back(chunk);
    }
    pending.clear();
  };
  // Reads the current record into `chunk`; false when it is not a
  // chunk of the target checkpoint.
  sweep::record_reader journal(path);
  const auto read_chunk = [&](restore_chunk& chunk) {
    const std::string& kind = journal.type();
    if (kind != "ckpt_words" && kind != "ckpt_cursors") return false;
    if (journal.u64("seq") != target.seq) return false;
    chunk.offset = journal.u64("offset");
    chunk.digest = journal.u64("digest");
    chunk.data = journal.string("data");
    if (std::less<>{}(chunk.data.data(), chunk.line.data()) ||
        std::greater<>{}(chunk.data.data(),
                         chunk.line.data() + chunk.line.size())) {
      // Decoded escapes live in the reader's scratch, which the next
      // record reuses.
      chunk.data = chunk.unescaped.assign(chunk.data);
    }
    if (kind == "ckpt_words") {
      const std::string_view name = journal.string("section");
      const auto it = std::find_if(
          sections.begin(), sections.end(),
          [&](const section_ref& s) { return s.name == name; });
      if (it == sections.end() || chunk.offset > it->words.size()) {
        throw std::runtime_error("giant: checkpoint section mismatch: " +
                                 std::string(name));
      }
      chunk.section = static_cast<std::size_t>(it - sections.begin());
    } else {
      if (chunk.offset > streams.size()) {
        throw std::runtime_error("giant: cursor chunk out of range");
      }
      chunk.section = cursor_section;
    }
    chunk.end = section_size(chunk.section);
    return true;
  };
  while (journal.next(free.back()->line)) {
    restore_chunk& chunk = *free.back();
    bool is_chunk = false;
    try {
      is_chunk = read_chunk(chunk);
    } catch (const std::runtime_error&) {
      drain();  // the earlier chunks' refusals come first
      throw;
    }
    if (!is_chunk) continue;
    free.pop_back();
    // A batch's chunks of one section rise in offset, and each one's
    // bound is the next one's offset; a chunk that does not rise
    // starts a new batch.
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      if ((*it)->section != chunk.section) continue;
      if (chunk.offset > (*it)->offset) {
        (*it)->end = chunk.offset;
      } else {
        drain();
      }
      break;
    }
    pending.push_back(&chunk);
    if (pending.size() == slots.size()) drain();
  }
  drain();
  if (words_restored != target.words || cursors_restored != target.cursors ||
      hash.digest() != target.digest) {
    throw std::runtime_error(
        "giant: checkpoint verification failed (incomplete or corrupt "
        "snapshot)");
  }
  sim.adopt_plane_state(target.round,
                        static_cast<std::size_t>(target.leaders));
}

}  // namespace

giant_result run_giant_trial(const graph::topology_view& view,
                             const beeping::state_machine& machine,
                             std::uint64_t seed,
                             const giant_options& options) {
  const bool journal = !options.checkpoint_path.empty();
  if (options.resume && !journal) {
    throw std::invalid_argument("giant: resume requires a checkpoint path");
  }

  beeping::fsm_protocol proto(machine);
  beeping::engine sim(view, proto, seed, beeping::noise_model{},
                      beeping::engine_config::giant());
  if (options.threads != 1 || options.tile_words != 0) {
    sim.set_parallelism(options.threads, options.tile_words);
  }

  giant_result result;
  result.arena_bytes = sim.arena_bytes_reserved();
  result.exec_threads = sim.parallel_threads();
  result.exec_tile_words = sim.tile_words();
  std::uint64_t next_seq = 0;
  if (options.resume) {
    const ckpt_meta best = scan_journal(options.checkpoint_path, view, seed);
    restore_checkpoint(options.checkpoint_path, best, sim);
    result.start_round = best.round;
    next_seq = best.seq + 1;
  }

  sweep::record_writer writer;
  if (journal) {
    if (!writer.open(options.checkpoint_path, options.resume)) {
      throw std::runtime_error("giant: cannot open checkpoint journal " +
                               options.checkpoint_path);
    }
    if (!options.resume) {
      writer.write_record(json(json::object{
          {"type", json("giant_header")},
          {"topology", json(view.name())},
          {"n", json(static_cast<std::uint64_t>(view.node_count()))},
          {"seed", json(seed)},
          {"machine", json(machine.name())},
          {"format_version", json(kFormatVersion)},
      }));
    }
  }

  const std::uint64_t horizon = options.max_rounds != 0
                                     ? options.max_rounds
                                     : election_horizon(view, {});
  while (sim.leader_count() > 1 && sim.round() < horizon) {
    if (options.stop_after_round != 0 &&
        sim.round() >= options.stop_after_round) {
      result.stopped_early = true;
      break;
    }
    sim.step();
    if (journal && options.checkpoint_every != 0 &&
        sim.round() % options.checkpoint_every == 0 &&
        sim.leader_count() > 1) {
      write_checkpoint(writer, sim, next_seq++);
      ++result.checkpoints_written;
    }
  }
  if (journal && result.stopped_early) {
    // The controlled "kill": one forced snapshot so the resume picks up
    // exactly here (a real kill instead resumes from the last periodic
    // snapshot and replays the identical rounds in between).
    write_checkpoint(writer, sim, next_seq++);
    ++result.checkpoints_written;
  }

  result.rounds = sim.round();
  result.leaders = sim.leader_count();
  result.converged = result.leaders == 1;
  if (result.converged) result.leader = sim.sole_leader();
  result.draws = sim.total_draws();
  result.cursor_bytes = sim.rng_streams().cursor_bytes();

  if (journal) {
    writer.write_record(json(json::object{
        {"type", json("giant_done")},
        {"round", json(result.rounds)},
        {"leaders", json(static_cast<std::uint64_t>(result.leaders))},
        {"converged", json(result.converged)},
        {"stopped_early", json(result.stopped_early)},
        {"draws", json(result.draws)},
    }));
    if (!writer.close()) {
      throw std::runtime_error("giant: checkpoint journal close failed");
    }
  }
  return result;
}

}  // namespace beepkit::core
