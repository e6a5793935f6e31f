#include "sweep/jsonl.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <optional>
#include <stdexcept>
#include <utility>

#include "support/build_info.hpp"
#include "support/telemetry.hpp"

namespace beepkit::sweep {

namespace {

using support::json;

json summary_to_json(const support::summary& s) {
  return json(json::object{
      {"count", json(static_cast<std::uint64_t>(s.count))},
      {"mean", json(s.mean)},
      {"stddev", json(s.stddev)},
      {"min", json(s.min)},
      {"max", json(s.max)},
      {"median", json(s.median)},
      {"q25", json(s.q25)},
      {"q75", json(s.q75)},
      {"q95", json(s.q95)},
  });
}

}  // namespace

record_writer::~record_writer() { stop_writer(); }

bool record_writer::open(const std::string& path, bool append) {
  stop_writer();  // re-open: retire any previous writer thread first
  if (out_.is_open()) out_.close();
  out_.clear();  // a failed or closed stream must not poison the reopen
  out_.open(path, append ? (std::ios::out | std::ios::app)
                         : (std::ios::out | std::ios::trunc));
  opened_ = out_.is_open();
  if (!opened_) return false;
  ok_.store(true, std::memory_order_release);
  stopping_ = false;
  writer_ = std::thread([this] { writer_loop(); });
  return true;
}

// Producer-side backpressure bound: at very high trials/sec the queue
// must not grow without limit if the disk cannot keep up.
constexpr std::size_t max_queued_lines = 65536;
// Queued bytes that wake the writer thread. Below it, lines wait for
// more company or for a drain, so a record costs no wake-up.
constexpr std::size_t wake_bytes = 64 * 1024;

void record_writer::enqueue_line() {
  namespace tel = support::telemetry;
  line_.push_back('\n');
  std::unique_lock<std::mutex> lock(mutex_);
  if (queued_lines_ >= max_queued_lines) {
    // Backpressure stall: the producer is outrunning the disk. Timed
    // (not just counted) so sweeps can report how much wall clock the
    // bound actually cost; compiled away with the telemetry probes.
    const auto room = [this] { return queued_lines_ < max_queued_lines; };
    if constexpr (tel::compiled_in) {
      const std::uint64_t start = tel::now_ns();
      queue_drained_.wait(lock, room);
      stall_ns_ += tel::now_ns() - start;
    } else {
      queue_drained_.wait(lock, room);
    }
  }
  const bool was_below = queue_.size() < wake_bytes;
  queue_ += line_;
  ++queued_lines_;
  if constexpr (tel::compiled_in) {
    max_depth_ = std::max(max_depth_, queued_lines_);
  }
  const bool wake = (was_below && queue_.size() >= wake_bytes) ||
                    queued_lines_ >= max_queued_lines;
  lock.unlock();
  if (wake) queue_ready_.notify_one();
}

double record_writer::stall_seconds() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(stall_ns_) * 1e-9;
}

std::size_t record_writer::max_queue_depth() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_depth_;
}

void record_writer::writer_loop() {
  std::string batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      writer_busy_ = false;
      if (queue_.empty()) queue_drained_.notify_all();
      queue_ready_.wait(lock, [this] {
        return stopping_ ||
               (!queue_.empty() &&
                (draining_ || queue_.size() >= wake_bytes ||
                 queued_lines_ >= max_queued_lines));
      });
      if (queue_.empty()) return;  // stopping_ and fully drained
      batch.swap(queue_);  // take the whole backlog in FIFO order
      queued_lines_ = 0;
      writer_busy_ = true;
      queue_drained_.notify_all();  // producer may refill while we write
    }
    out_.write(batch.data(), static_cast<std::streamsize>(batch.size()));
    if (!out_.good()) ok_.store(false, std::memory_order_release);
    batch.clear();
  }
}

void record_writer::drain() {
  if (!writer_.joinable()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  queue_ready_.notify_one();
  queue_drained_.wait(lock,
                      [this] { return queue_.empty() && !writer_busy_; });
  draining_ = false;
}

void record_writer::stop_writer() {
  if (!writer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  writer_.join();
}

void record_writer::write_line(const json& record) {
  line_.clear();
  record.dump_to(line_);
  enqueue_line();
}

void record_writer::write_header(const std::string& sweep_name,
                                 support::shard_spec shard,
                                 std::uint64_t cell_count,
                                 std::uint64_t total_units) {
  // Build provenance rides along as extra keys; readers only require
  // the core fields, so old files and old readers both keep working.
  const support::build_info& build = support::build_info::current();
  write_line(json(json::object{
      {"type", json("sweep")},
      {"name", json(sweep_name)},
      {"shard_index", json(shard.index)},
      {"shard_count", json(shard.count)},
      {"cells", json(cell_count)},
      {"total_units", json(total_units)},
      {"format_version", json(std::uint64_t{1})},
      {"build_sha", json(build.git_sha)},
      {"build_compiler", json(build.compiler)},
      {"build_isa", json(build.isa)},
      {"build_telemetry", json(build.telemetry)},
  }));
}

void record_writer::write_cell(const cell_record& cell) {
  write_line(json(json::object{
      {"type", json("cell")},
      {"cell", json(cell.cell)},
      {"algorithm", json(cell.algorithm)},
      {"graph", json(cell.graph)},
      {"n", json(cell.n)},
      {"diameter", json(cell.diameter)},
      {"trials", json(cell.trials)},
      {"seed", json(cell.seed)},
      {"max_rounds", json(cell.max_rounds)},
  }));
}

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

/// The trial record's fields in json::dump order, without the closing
/// brace (the audit fields may follow).
void append_trial_fields(std::string& out, const trial_record& trial,
                         const cell_record& meta) {
  out += R"({"type":"trial","cell":)";
  append_u64(out, trial.cell);
  out += R"(,"trial":)";
  append_u64(out, trial.trial);
  out += R"(,"global":)";
  append_u64(out, trial.global);
  out += R"(,"algorithm":)";
  json::append_string(out, meta.algorithm);
  out += R"(,"graph":)";
  json::append_string(out, meta.graph);
  out += R"(,"n":)";
  append_u64(out, meta.n);
  out += R"(,"diameter":)";
  append_u64(out, meta.diameter);
  out += R"(,"seed":)";
  append_u64(out, trial.seed);
  out += R"(,"rounds":)";
  append_u64(out, trial.rounds);
  out += trial.converged ? R"(,"converged":true)" : R"(,"converged":false)";
  out += R"(,"coins":)";
  append_u64(out, trial.coins);
  out += R"(,"leader":)";
  append_u64(out, trial.leader);
}

}  // namespace

void record_writer::write_trial(const trial_record& trial,
                                const cell_record& meta) {
  line_.clear();
  append_trial_fields(line_, trial, meta);
  line_.push_back('}');
  enqueue_line();
}

void record_writer::write_trial(const trial_record& trial,
                                const cell_record& meta,
                                const trial_exec& exec) {
  // The audit fields ride along as extra keys: the shard parser
  // extracts fields by name and ignores the rest, so files with and
  // without them mix freely.
  line_.clear();
  append_trial_fields(line_, trial, meta);
  line_ += R"(,"gather_kernel":)";
  json::append_string(line_, exec.gather_kernel);
  line_ += R"(,"exec_threads":)";
  append_u64(line_, exec.threads);
  line_ += R"(,"exec_tile_words":)";
  append_u64(line_, exec.tile_words);
  line_.push_back('}');
  enqueue_line();
}

void record_writer::write_checkpoint(std::uint64_t units_done,
                                     std::uint64_t units_owned) {
  write_line(json(json::object{
      {"type", json("checkpoint")},
      {"units_done", json(units_done)},
      {"units_owned", json(units_owned)},
  }));
  flush();
}

void record_writer::write_cell_summary(const analysis::trial_stats& stats,
                                       std::uint64_t cell) {
  write_line(json(json::object{
      {"type", json("cell_summary")},
      {"cell", json(cell)},
      {"algorithm", json(stats.algorithm_name)},
      {"graph", json(stats.graph_name)},
      {"trials", json(static_cast<std::uint64_t>(stats.trials))},
      {"converged", json(static_cast<std::uint64_t>(stats.converged))},
      {"rounds", summary_to_json(stats.rounds)},
      {"mean_coins_per_node_round", json(stats.mean_coins_per_node_round)},
      {"total_rounds", json(stats.total_rounds)},
  }));
}

void record_writer::write_done(std::uint64_t units_run,
                               std::uint64_t units_resumed) {
  write_line(json(json::object{
      {"type", json("done")},
      {"units_run", json(units_run)},
      {"units_resumed", json(units_resumed)},
  }));
  flush();
}

void record_writer::write_record(const support::json& record) {
  write_line(record);
}

void record_writer::write_raw_line(std::string_view line) {
  line_.assign(line);
  enqueue_line();
}

void record_writer::flush() {
  // Synchronous barrier: every record enqueued so far is written to
  // the stream and the stream is flushed before this returns, so a
  // caller checking healthy() right after sees the true disk state -
  // exactly the error-surfacing contract of the unbuffered writer.
  drain();
  out_.flush();
  if (!out_.good()) ok_.store(false, std::memory_order_release);
}

bool record_writer::close() {
  stop_writer();  // the writer writes the whole backlog before it exits
  out_.flush();
  if (!out_.good()) ok_.store(false, std::memory_order_release);
  out_.close();
  opened_ = false;
  return ok_.load(std::memory_order_acquire);
}

record_reader::record_reader(const std::string& path)
    : path_(path), in_(path) {
  if (!in_.is_open()) throw std::runtime_error(path + ": cannot open");
}

bool record_reader::next() { return next(line_); }

bool record_reader::next(std::string& line) {
  while (std::getline(in_, line)) {
    ++line_number_;
    if (line.empty()) continue;
    if (!record_.scan(line)) {
      ++torn_lines_;
      continue;
    }
    const std::optional<std::string_view> type = record_.find("type");
    type_ = type.has_value()
                ? json::object_scan::as_string(*type, scratch_).value_or("")
                : std::string_view();
    return true;
  }
  return false;
}

void record_reader::fail(const std::string& message) const {
  throw std::runtime_error(path_ + ":" + std::to_string(line_number_) +
                           ": " + message);
}

std::optional<std::string_view> record_reader::find(const char* key) const {
  return record_.find(key);
}

std::string_view record_reader::field(const char* key) const {
  const std::optional<std::string_view> value = record_.find(key);
  if (!value) fail(std::string("missing field '") + key + "'");
  return *value;
}

void record_reader::mistyped(const char* key, const char* what) const {
  fail(std::string("field '") + key + "' is not " + what);
}

std::uint64_t record_reader::u64(const char* key, std::uint64_t max) const {
  const std::optional<std::uint64_t> value =
      json::object_scan::as_uint(field(key));
  if (!value || *value > max) mistyped(key, "a non-negative integer in range");
  return *value;
}

bool record_reader::boolean(const char* key) const {
  const std::optional<bool> value = json::object_scan::as_bool(field(key));
  if (!value) mistyped(key, "a boolean");
  return *value;
}

std::string_view record_reader::string(const char* key) const {
  const std::optional<std::string_view> value =
      json::object_scan::as_string(field(key), scratch_);
  if (!value) mistyped(key, "a string");
  return *value;
}

namespace {

[[noreturn]] void not_a_shard_file(const std::string& path) {
  throw std::runtime_error(path + ": not a sweep shard file (no header)");
}

/// The shard parser: the shard schema over a record_reader. The
/// constructor reads the preamble (header and cell block); peek() and
/// advance() then stream the trial records one at a time, so the merge
/// never holds a file's trial list. The header must be the file's first
/// record, the cell block must precede every trial, and every trial
/// must name a cell and trial index that block declares.
class shard_cursor {
 public:
  explicit shard_cursor(const std::string& path) : reader_(path) {
    (void)peek();
  }

  /// False when the file holds no complete record at all.
  [[nodiscard]] bool has_header() const noexcept { return saw_header_; }
  /// Everything but the trials; done and torn_lines are final once
  /// peek() has returned nullptr.
  [[nodiscard]] shard_file& head() noexcept { return head_; }

  /// The next trial record, or nullptr when the file is exhausted.
  [[nodiscard]] const trial_record* peek() {
    while (!has_buffered_ && reader_.next()) parse_record();
    head_.torn_lines = reader_.torn_lines();
    return has_buffered_ ? &buffered_ : nullptr;
  }
  void advance() noexcept { has_buffered_ = false; }

 private:
  void parse_record() {
    const std::string& type = reader_.type();
    if (type == "sweep") {
      if (saw_header_) reader_.fail("duplicate sweep header");
      saw_header_ = true;
      head_.sweep_name = reader_.string("name");
      head_.shard.index = reader_.u64("shard_index");
      head_.shard.count = reader_.u64("shard_count");
      head_.total_units = reader_.u64("total_units");
    } else if (!saw_header_) {
      reader_.fail("'" + type + "' record before the sweep header");
    } else if (type == "cell") {
      cell_record cell;
      cell.cell = reader_.u64("cell");
      cell.algorithm = reader_.string("algorithm");
      cell.graph = reader_.string("graph");
      cell.n = reader_.u64("n");
      cell.diameter =
          static_cast<std::uint32_t>(reader_.u64("diameter", UINT32_MAX));
      cell.trials = reader_.u64("trials");
      cell.seed = reader_.u64("seed");
      cell.max_rounds = reader_.u64("max_rounds");
      if (trials_started_ || cell.cell != head_.cells.size()) {
        reader_.fail("out-of-order cell record");
      }
      head_.cells.push_back(std::move(cell));
    } else if (type == "trial") {
      trials_started_ = true;
      buffered_.cell = reader_.u64("cell");
      buffered_.trial = reader_.u64("trial");
      buffered_.global = reader_.u64("global");
      buffered_.seed = reader_.u64("seed");
      buffered_.rounds = reader_.u64("rounds");
      buffered_.converged = reader_.boolean("converged");
      buffered_.coins = reader_.u64("coins");
      buffered_.leader = reader_.u64("leader", UINT32_MAX);  // a node_id
      if (buffered_.cell >= head_.cells.size() ||
          buffered_.trial >= head_.cells[buffered_.cell].trials) {
        reader_.fail("trial record outside the file's cell/trial bounds");
      }
      has_buffered_ = true;
    } else if (type == "done") {
      head_.done = true;
    } else if (type != "checkpoint" && type != "cell_summary") {
      // Checkpoints and cell summaries are progress/diagnostic records;
      // the merge recomputes aggregates from the trial records.
      reader_.fail("unknown record type '" + type + "'");
    }
  }

  record_reader reader_;
  shard_file head_;
  bool saw_header_ = false;
  bool trials_started_ = false;
  trial_record buffered_{};
  bool has_buffered_ = false;
};

/// Pass-2 trial source: a re-opened streaming cursor for files whose
/// records are already in (cell, trial) order (everything our writer
/// produces), or an in-memory sorted copy as the fallback for files
/// that are not - so pathological inputs stay correct while normal
/// merges never hold more than one record per file.
struct trial_source {
  std::optional<shard_cursor> stream;
  std::vector<trial_record> loaded;
  std::size_t pos = 0;
  std::string path;

  [[nodiscard]] const trial_record* peek() {
    if (stream.has_value()) return stream->peek();
    return pos < loaded.size() ? &loaded[pos] : nullptr;
  }
  void advance() {
    if (stream.has_value()) {
      stream->advance();
    } else {
      ++pos;
    }
  }
};

}  // namespace

std::optional<shard_file> try_read_shard_file(const std::string& path) {
  shard_cursor cursor(path);
  if (!cursor.has_header()) return std::nullopt;
  shard_file& file = cursor.head();
  while (const trial_record* trial = cursor.peek()) {
    file.trials.push_back(*trial);
    cursor.advance();
  }
  return std::move(file);
}

shard_file read_shard_file(const std::string& path) {
  std::optional<shard_file> file = try_read_shard_file(path);
  if (!file) not_a_shard_file(path);
  return std::move(*file);
}

// Two-pass streaming merge. Pass 1 streams every file once, checking
// header/cell consistency and recording coverage in per-cell bitmaps
// (one bit per unit - the only whole-sweep state, so a 10^8-unit merge
// needs ~12 MiB instead of gigabytes of trial records). Pass 2 streams
// the files again and folds each cell's records in trial order via a
// k-way merge of the (already ordered) per-file streams, holding one
// record per file plus one cell's trial points at a time. Duplicate
// keys are adjacent in the merged order, which is where identical
// overlaps are counted and conflicting ones rejected.
merge_result merge_shards(std::span<const std::string> paths) {
  if (paths.empty()) {
    throw std::runtime_error("merge_shards: no input files");
  }
  merge_result merged;
  std::vector<cell_record> cells;
  std::vector<std::vector<std::uint64_t>> seen;  // per-cell coverage bitmap
  std::vector<std::uint8_t> file_sorted(paths.size(), 1);

  for (std::size_t i = 0; i < paths.size(); ++i) {
    shard_cursor cursor(paths[i]);
    if (!cursor.has_header()) not_a_shard_file(paths[i]);
    const shard_file& head = cursor.head();
    if (i == 0) {
      merged.sweep_name = head.sweep_name;
      cells = head.cells;
      seen.resize(cells.size());
      for (std::size_t c = 0; c < cells.size(); ++c) {
        seen[c].assign((cells[c].trials + 63) / 64, 0);
      }
    } else {
      if (head.sweep_name != merged.sweep_name ||
          head.cells.size() != cells.size()) {
        throw std::runtime_error(paths[i] + ": shard belongs to a different "
                                            "sweep ('" +
                                 head.sweep_name + "')");
      }
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (!(head.cells[c] == cells[c])) {
          throw std::runtime_error(
              paths[i] + ": cell " + std::to_string(c) +
              " metadata disagrees with earlier shards");
        }
      }
    }
    std::uint64_t prev_cell = 0;
    std::uint64_t prev_trial = 0;
    bool any = false;
    while (const trial_record* trial = cursor.peek()) {
      if (any && (trial->cell < prev_cell ||
                  (trial->cell == prev_cell && trial->trial < prev_trial))) {
        file_sorted[i] = 0;
      }
      prev_cell = trial->cell;
      prev_trial = trial->trial;
      any = true;
      std::uint64_t& word = seen[trial->cell][trial->trial >> 6];
      const std::uint64_t bit = 1ULL << (trial->trial & 63);
      if ((word & bit) == 0) {
        word |= bit;
        ++merged.units;
      }
      cursor.advance();
    }
  }

  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::uint64_t have = 0;
    for (const std::uint64_t word : seen[c]) {
      have += static_cast<std::uint64_t>(std::popcount(word));
    }
    if (have != cells[c].trials) {
      throw std::runtime_error(
          "incomplete sweep: cell " + std::to_string(c) + " ('" +
          cells[c].algorithm + "' on " + cells[c].graph + ") has " +
          std::to_string(have) + " of " + std::to_string(cells[c].trials) +
          " trials - are all shard files present?");
    }
  }
  seen.clear();
  seen.shrink_to_fit();

  std::vector<trial_source> sources(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    sources[i].path = paths[i];
    if (file_sorted[i] != 0) {
      sources[i].stream.emplace(paths[i]);
    } else {
      sources[i].loaded = read_shard_file(paths[i]).trials;
      std::stable_sort(sources[i].loaded.begin(), sources[i].loaded.end(),
                       [](const trial_record& a, const trial_record& b) {
                         return std::pair(a.cell, a.trial) <
                                std::pair(b.cell, b.trial);
                       });
    }
  }

  merged.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<analysis::trial_point> points;
    points.reserve(cells[c].trials);
    trial_record last{};
    bool has_last = false;
    while (true) {
      trial_source* best = nullptr;
      for (trial_source& source : sources) {
        const trial_record* trial = source.peek();
        if (trial == nullptr || trial->cell != c) continue;
        if (best == nullptr || trial->trial < best->peek()->trial) {
          best = &source;
        }
      }
      if (best == nullptr) break;
      const trial_record trial = *best->peek();
      best->advance();
      if (has_last && trial.trial == last.trial) {
        if (!(trial == last)) {
          throw std::runtime_error(
              best->path + ": conflicting duplicate for cell " +
              std::to_string(trial.cell) + " trial " +
              std::to_string(trial.trial) +
              " (same unit recorded with different outcomes)");
        }
        ++merged.duplicate_records;
        continue;
      }
      last = trial;
      has_last = true;
      points.push_back({trial.rounds, trial.converged, trial.coins});
    }
    merged_cell cell;
    cell.meta = cells[c];
    cell.stats = analysis::aggregate_trial_points(
        {cells[c].algorithm, cells[c].graph,
         static_cast<std::size_t>(cells[c].n), cells[c].diameter},
        points, cells[c].max_rounds);
    merged.cells.push_back(std::move(cell));
  }
  return merged;
}

support::json merge_summary(const merge_result& merged) {
  json::array cells;
  for (const merged_cell& cell : merged.cells) {
    cells.push_back(json(json::object{
        {"cell", json(cell.meta.cell)},
        {"algorithm", json(cell.meta.algorithm)},
        {"graph", json(cell.meta.graph)},
        {"n", json(cell.meta.n)},
        {"diameter", json(cell.meta.diameter)},
        {"trials", json(cell.meta.trials)},
        {"seed", json(cell.meta.seed)},
        {"max_rounds", json(cell.meta.max_rounds)},
        {"converged", json(static_cast<std::uint64_t>(cell.stats.converged))},
        {"rounds", summary_to_json(cell.stats.rounds)},
        {"mean_coins_per_node_round",
         json(cell.stats.mean_coins_per_node_round)},
        {"total_rounds", json(cell.stats.total_rounds)},
    }));
  }
  return json(json::object{
      {"sweep", json(merged.sweep_name)},
      {"units", json(merged.units)},
      {"duplicate_records", json(merged.duplicate_records)},
      {"cells", json(std::move(cells))},
  });
}

}  // namespace beepkit::sweep
