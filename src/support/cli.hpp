// Minimal command-line flag parsing for the bench harnesses, tools
// and examples: `--name=value` or `--name value` pairs, boolean
// switches and positional arguments. Every binary declares its flags
// once (support::flag); an unknown flag exits 2 with the list of known
// ones, and --help prints that list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace beepkit::support {

/// A (start, stride) slice of a sweep: shard `index` of `count` owns
/// exactly the work units whose global index is congruent to `index`
/// modulo `count`. The default is the whole sweep (shard 0 of 1).
struct shard_spec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;

  [[nodiscard]] bool owns(std::uint64_t global_index) const noexcept {
    return global_index % count == index;
  }
  [[nodiscard]] bool whole() const noexcept { return count == 1; }
};

/// One flag a binary accepts: its name (without the dashes), the line
/// --help prints for it, and whether it is a switch - a boolean flag
/// that never consumes the next argument as its value.
struct flag {
  const char* name;
  const char* help;
  bool is_switch = false;
};

/// Parsed flags.
class cli {
 public:
  /// `flags` are the only flags accepted. `--help` prints `usage` and
  /// the flag list to stdout and exits 0; any other flag prints the
  /// unknown name and the list to stderr and exits 2. A flag declared
  /// as a switch never consumes a following argument as its value, so
  /// `prog --quiet file.jsonl` keeps file.jsonl as a positional
  /// (`--switch=value` still works). A getter asked for an undeclared
  /// name throws std::logic_error (a slip in the binary, not on the
  /// command line).
  cli(int argc, const char* const* argv, const char* usage,
      std::vector<flag> flags);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric flags: the whole value must parse as a decimal number in
  /// range (a finite one, for get_double). A malformed value prints
  /// `invalid --<name> '<value>'` and exits 2, as get_shard does - a
  /// run on a silently defaulted value would be worse than no run.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Worker count for the parallel trial runner: `--threads N`, where
  /// N = 0 (and the flag's absence, with the default fallback of 0)
  /// means one worker per hardware thread. Always returns >= 1.
  [[nodiscard]] std::size_t get_threads(std::int64_t fallback = 0) const;

  /// Strict `i/N` shard parser: both parts must be plain decimal with
  /// nothing else, N >= 1 and i < N. Anything else yields nullopt.
  [[nodiscard]] static std::optional<shard_spec> parse_shard(
      const std::string& text);

  /// `--shard i/N` for the sweep runners; absence means the whole
  /// sweep. A malformed or out-of-range value terminates the process
  /// with a message on stderr - a sweep silently running the wrong
  /// slice would be worse than an aborted launch script.
  [[nodiscard]] shard_spec get_shard() const;

  /// Arguments that are neither `--flags` nor a flag's value, in
  /// command-line order (e.g. the input files of sweep_merge). A
  /// positional directly after a flag that is not a switch is consumed
  /// as that flag's value - declare boolean flags as switches (or pass
  /// `--flag=value`) to avoid that.
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// The --help text: `usage`, then one line per declared flag.
  [[nodiscard]] std::string help() const;

 private:
  void parse(int argc, const char* const* argv);
  [[nodiscard]] const flag* find(const std::string& name) const;
  void require_declared(const std::string& name) const;

  const char* usage_;
  std::vector<flag> flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace beepkit::support
