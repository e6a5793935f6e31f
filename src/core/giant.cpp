#include "core/giant.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <span>
#include <stdexcept>
#include <vector>

#include "beeping/engine.hpp"
#include "core/convergence.hpp"
#include "support/codec.hpp"
#include "support/json.hpp"
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
// matching ckpt_begin field that version 1 carried; a resume refuses
// any other version before it decodes a chunk.
constexpr std::uint64_t kFormatVersion = 2;

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

void write_checkpoint(sweep::record_writer& writer, beeping::engine& sim,
                      std::uint64_t seq) {
  const auto state = sim.plane_snapshot();
  const auto cursors = sim.rng_streams().cursors();
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

  std::uint64_t total_words = 0;
  for (const section_ref& section : snapshot_sections(state)) {
    for (std::size_t offset = 0; offset < section.words.size();
         offset += kWordChunk) {
      const auto chunk = section.words.subspan(
          offset, std::min(kWordChunk, section.words.size() - offset));
      writer.write_record(json(json::object{
          {"type", json("ckpt_words")},
          {"seq", json(seq)},
          {"section", json(section.name)},
          {"offset", json(static_cast<std::uint64_t>(offset))},
          {"data", json(codec::encode_words(chunk))},
      }));
      hash.update_words(chunk);
      total_words += chunk.size();
    }
  }
  for (std::size_t offset = 0; offset < cursors.size();
       offset += kCursorChunk) {
    const auto chunk = cursors.subspan(
        offset, std::min(kCursorChunk, cursors.size() - offset));
    writer.write_record(json(json::object{
        {"type", json("ckpt_cursors")},
        {"seq", json(seq)},
        {"offset", json(static_cast<std::uint64_t>(offset))},
        {"count", json(static_cast<std::uint64_t>(chunk.size()))},
        {"data", json(codec::encode_cursors(chunk))},
    }));
    for (const std::uint32_t v : chunk) hash.update_u64(v);
  }
  writer.write_record(json(json::object{
      {"type", json("ckpt_end")},
      {"seq", json(seq)},
      {"words", json(total_words)},
      {"cursors", json(static_cast<std::uint64_t>(cursors.size()))},
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

std::uint64_t require_u64(const json& record, const char* key,
                          const char* what) {
  const json* field = record.find(key);
  if (field == nullptr || !field->is_number()) {
    throw std::runtime_error(std::string("giant: journal record missing '") +
                             key + "' (" + what + ")");
  }
  return field->as_u64();
}

/// Pass 1: finds the newest checkpoint whose ckpt_end made it to disk,
/// verifying the journal belongs to this (topology, n, seed) trial.
ckpt_meta scan_journal(const std::string& path,
                       const graph::topology_view& view, std::uint64_t seed) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("giant: cannot open checkpoint journal " + path);
  }
  bool header_seen = false;
  bool have_begin = false;
  bool have_best = false;
  ckpt_meta begin;
  ckpt_meta best;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto record = json::parse(line);
    if (!record.has_value()) continue;  // torn tail of a killed writer
    const std::string type =
        record->find("type") != nullptr ? record->find("type")->as_string()
                                        : std::string{};
    if (type == "giant_header") {
      header_seen = true;
      const json* version = record->find("format_version");
      const bool numeric = version != nullptr && version->is_number();
      if (!numeric || version->as_u64() != kFormatVersion) {
        throw std::runtime_error(
            "giant: journal format_version " +
            (numeric ? std::to_string(version->as_u64()) : "(missing)") +
            " is not this build's version " + std::to_string(kFormatVersion));
      }
      if (require_u64(*record, "n", "header") != view.node_count() ||
          require_u64(*record, "seed", "header") != seed) {
        throw std::runtime_error(
            "giant: journal belongs to a different trial (n/seed mismatch)");
      }
      const json* topo = record->find("topology");
      if (topo != nullptr && topo->as_string() != view.name()) {
        throw std::runtime_error(
            "giant: journal belongs to a different topology (" +
            topo->as_string() + " vs " + view.name() + ")");
      }
    } else if (type == "ckpt_begin") {
      begin.seq = require_u64(*record, "seq", "ckpt_begin");
      begin.round = require_u64(*record, "round", "ckpt_begin");
      begin.leaders = require_u64(*record, "leaders", "ckpt_begin");
      have_begin = true;
    } else if (type == "ckpt_end" && have_begin) {
      if (require_u64(*record, "seq", "ckpt_end") != begin.seq) continue;
      begin.words = require_u64(*record, "words", "ckpt_end");
      begin.cursors = require_u64(*record, "cursors", "ckpt_end");
      begin.digest = require_u64(*record, "digest", "ckpt_end");
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

/// Pass 2: decodes the chosen checkpoint's chunks straight into the
/// fresh engine's plane spans and cursor array, recomputing the digest
/// in stream order, then adopts the state.
void restore_checkpoint(const std::string& path, const ckpt_meta& target,
                        beeping::engine& sim) {
  const auto state = sim.plane_snapshot();
  std::vector<section_ref> sections = snapshot_sections(state);
  const auto cursor_span = sim.rng_streams().cursors_mutable();

  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("giant: cannot reopen checkpoint journal");
  }
  codec::fnv1a hash;
  hash.update_u64(target.round);
  hash.update_u64(target.leaders);
  hash.update_u64(state.plane_count);
  std::uint64_t words_restored = 0;
  std::uint64_t cursors_restored = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto record = json::parse(line);
    if (!record.has_value()) continue;
    const json* type = record->find("type");
    if (type == nullptr) continue;
    const std::string kind = type->as_string();
    if (kind != "ckpt_words" && kind != "ckpt_cursors") continue;
    if (require_u64(*record, "seq", "chunk") != target.seq) continue;
    const std::uint64_t offset = require_u64(*record, "offset", "chunk");
    const json* data = record->find("data");
    if (data == nullptr || !data->is_string()) {
      throw std::runtime_error("giant: checkpoint chunk without data");
    }
    const std::string payload = data->as_string();
    if (kind == "ckpt_words") {
      const json* name = record->find("section");
      if (name == nullptr) {
        throw std::runtime_error("giant: ckpt_words without section");
      }
      const std::string section_name = name->as_string();
      const auto it = std::find_if(
          sections.begin(), sections.end(),
          [&](const section_ref& s) { return s.name == section_name; });
      if (it == sections.end() || offset > it->words.size()) {
        throw std::runtime_error("giant: checkpoint section mismatch: " +
                                 section_name);
      }
      const auto dest = it->words.subspan(offset);
      const auto count = codec::decode_words(payload, dest);
      if (!count.has_value()) {
        throw std::runtime_error("giant: corrupt word chunk in " +
                                 section_name);
      }
      hash.update_words(dest.first(*count));
      words_restored += *count;
    } else {
      if (offset > cursor_span.size()) {
        throw std::runtime_error("giant: cursor chunk out of range");
      }
      const auto dest = cursor_span.subspan(offset);
      const auto count = codec::decode_cursors(payload, dest);
      if (!count.has_value()) {
        throw std::runtime_error("giant: corrupt cursor chunk");
      }
      for (std::size_t i = 0; i < *count; ++i) hash.update_u64(dest[i]);
      cursors_restored += *count;
    }
  }
  if (words_restored != target.words || cursors_restored != target.cursors ||
      hash.digest() != target.digest) {
    throw std::runtime_error(
        "giant: checkpoint verification failed (incomplete or corrupt "
        "snapshot)");
  }
  sim.adopt_plane_state(target.round,
                        static_cast<std::size_t>(target.leaders));
}

std::uint64_t resolve_horizon(const graph::topology_view& view,
                              const giant_options& options) {
  if (options.max_rounds != 0) return options.max_rounds;
  const std::uint32_t diameter =
      view.is_implicit() ? view.formula_diameter()
                         : static_cast<std::uint32_t>(std::max<std::size_t>(
                               1, view.node_count()));
  return default_horizon(view, diameter);
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

  const std::uint64_t horizon = resolve_horizon(view, options);
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
  result.draws = sim.rng_streams().total_draws();

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
