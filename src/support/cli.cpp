#include "support/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "support/parallel.hpp"

namespace beepkit::support {

cli::cli(int argc, const char* const* argv, const char* usage,
         std::vector<flag> flags)
    : usage_(usage), flags_(std::move(flags)) {
  flags_.push_back({"help", "print this list and exit", true});
  parse(argc, argv);
  if (values_.count("help") != 0) {
    std::fputs(help().c_str(), stdout);
    std::exit(0);
  }
  for (const auto& [name, _] : values_) {
    if (find(name) == nullptr) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   help().c_str());
      std::exit(2);
    }
  }
}

std::string cli::help() const {
  std::size_t width = 0;
  for (const flag& f : flags_) width = std::max(width, std::strlen(f.name));
  std::string text = std::string("usage: ") + usage_ + "\nflags:\n";
  for (const flag& f : flags_) {
    const std::string name = f.name;
    text += "  --" + name + std::string(width - name.size() + 2, ' ') +
            f.help + "\n";
  }
  return text;
}

const flag* cli::find(const std::string& name) const {
  const auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const flag& f) { return name == f.name; });
  return it == flags_.end() ? nullptr : &*it;
}

void cli::require_declared(const std::string& name) const {
  if (find(name) == nullptr) {
    throw std::logic_error("support::cli: flag --" + name +
                           " is queried but not declared");
  }
}

void cli::parse(int argc, const char* const* argv) {
  const auto is_switch = [this](const std::string& name) {
    const flag* f = find(name);
    return f != nullptr && f->is_switch;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (!is_switch(arg) && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";
    }
  }
}

bool cli::has(const std::string& name) const {
  require_declared(name);
  return values_.count(name) > 0;
}

std::optional<std::string> cli::get(const std::string& name) const {
  require_declared(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return std::strtoll(value->c_str(), nullptr, 10);
}

double cli::get_double(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

bool cli::get_bool(const std::string& name, bool fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::size_t cli::get_threads(std::int64_t fallback) const {
  return resolve_threads(get_int("threads", fallback));
}

std::optional<shard_spec> cli::parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 == text.size()) {
    return std::nullopt;
  }
  const std::string index_part = text.substr(0, slash);
  const std::string count_part = text.substr(slash + 1);
  const auto parse_u64 =
      [](const std::string& part) -> std::optional<std::uint64_t> {
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc() || ptr != part.data() + part.size()) {
      return std::nullopt;
    }
    return value;
  };
  const auto index = parse_u64(index_part);
  const auto count = parse_u64(count_part);
  if (!index || !count) return std::nullopt;
  if (*count == 0 || *index >= *count) return std::nullopt;
  return shard_spec{*index, *count};
}

shard_spec cli::get_shard() const {
  const auto value = get("shard");
  if (!value) return shard_spec{};
  const auto parsed = parse_shard(*value);
  if (!parsed) {
    std::fprintf(stderr,
                 "invalid --shard '%s': expected i/N with N >= 1 and "
                 "0 <= i < N\n",
                 value->c_str());
    std::exit(2);
  }
  return *parsed;
}

}  // namespace beepkit::support
