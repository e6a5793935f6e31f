#include "support/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace beepkit::support {

namespace {

const json::array kEmptyArray;
const json::object kEmptyObject;

/// Recursive-descent parser over a string_view with a depth cap.
class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  std::optional<json> run() {
    auto value = parse_value(0);
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<json> parse_value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return json(std::move(*s));
      }
      case 't':
        return consume_literal("true") ? std::optional<json>(json(true))
                                       : std::nullopt;
      case 'f':
        return consume_literal("false") ? std::optional<json>(json(false))
                                        : std::nullopt;
      case 'n':
        return consume_literal("null") ? std::optional<json>(json(nullptr))
                                       : std::nullopt;
      default: return parse_number();
    }
  }

  std::optional<json> parse_object(int depth) {
    if (!consume('{')) return std::nullopt;
    json::object members;
    skip_ws();
    if (consume('}')) return json(std::move(members));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      auto value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return json(std::move(members));
      return std::nullopt;
    }
  }

  std::optional<json> parse_array(int depth) {
    if (!consume('[')) return std::nullopt;
    json::array values;
    skip_ws();
    if (consume(']')) return json(std::move(values));
    while (true) {
      auto value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      values.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return json(std::move(values));
      return std::nullopt;
    }
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::optional<std::uint32_t> parse_hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return std::nullopt;
    }
    pos_ += 4;
    return value;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          auto cp = parse_hex4();
          if (!cp) return std::nullopt;
          std::uint32_t code = *cp;
          if (code >= 0xD800 && code <= 0xDBFF) {  // surrogate pair
            if (!consume_literal("\\u")) return std::nullopt;
            auto low = parse_hex4();
            if (!low || *low < 0xDC00 || *low > 0xDFFF) return std::nullopt;
            code = 0x10000 + ((code - 0xD800) << 10) + (*low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return std::nullopt;
    if (integral) {
      if (token[0] == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return json(value);
        }
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return json(value);
        }
      }
      // fall through to double on 64-bit overflow
    }
    const std::string owned(token);
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) return std::nullopt;
    return json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json::is_null() const noexcept {
  return std::holds_alternative<std::nullptr_t>(value_);
}
bool json::is_bool() const noexcept {
  return std::holds_alternative<bool>(value_);
}
bool json::is_number() const noexcept {
  return std::holds_alternative<std::uint64_t>(value_) ||
         std::holds_alternative<std::int64_t>(value_) ||
         std::holds_alternative<double>(value_);
}
bool json::is_string() const noexcept {
  return std::holds_alternative<std::string>(value_);
}
bool json::is_array() const noexcept {
  return std::holds_alternative<array>(value_);
}
bool json::is_object() const noexcept {
  return std::holds_alternative<object>(value_);
}

bool json::as_bool(bool fallback) const noexcept {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  return fallback;
}

std::uint64_t json::as_u64(std::uint64_t fallback) const noexcept {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return *i >= 0 ? static_cast<std::uint64_t>(*i) : fallback;
  }
  return fallback;
}

std::optional<std::uint64_t> json::as_uint() const noexcept {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  return std::nullopt;
}

std::int64_t json::as_i64(std::int64_t fallback) const noexcept {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    return *u <= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max())
               ? static_cast<std::int64_t>(*u)
               : fallback;
  }
  return fallback;
}

double json::as_double(double fallback) const noexcept {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

std::string json::as_string(std::string fallback) const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  return fallback;
}

const json::array& json::as_array() const noexcept {
  if (const auto* a = std::get_if<array>(&value_)) return *a;
  return kEmptyArray;
}

const json::object& json::as_object() const noexcept {
  if (const auto* o = std::get_if<object>(&value_)) return *o;
  return kEmptyObject;
}

const json* json::find(std::string_view key) const noexcept {
  const auto* members = std::get_if<object>(&value_);
  if (!members) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

void json::set(std::string key, json value) {
  if (!is_object()) value_ = object{};
  auto& members = std::get<object>(value_);
  for (auto& [name, existing] : members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
}

namespace {

/// What dump_to writes through: a stack chunk in front of the output
/// string. A record walk makes dozens of appends of a few bytes each;
/// here each is a bounds check and a small memcpy, and the string sees
/// one append per chunk.
class staged_writer {
 public:
  explicit staged_writer(std::string& out) : out_(out) {}
  ~staged_writer() { flush(); }
  staged_writer(const staged_writer&) = delete;
  staged_writer& operator=(const staged_writer&) = delete;

  void append(const char* data, std::size_t n) {
    if (n > sizeof(buf_) - len_) {
      flush();
      if (n > sizeof(buf_)) {
        out_.append(data, n);
        return;
      }
    }
    std::memcpy(buf_ + len_, data, n);
    len_ += n;
  }
  void push_back(char c) {
    if (len_ == sizeof(buf_)) flush();
    buf_[len_++] = c;
  }
  /// The next `n` (<= max_room) bytes of the chunk, to be filled in
  /// place and then committed with advance().
  static constexpr std::size_t max_room = 64;
  char* room(std::size_t n) {
    if (n > sizeof(buf_) - len_) flush();
    return buf_ + len_;
  }
  void advance(std::size_t n) { len_ += n; }

 private:
  void flush() {
    out_.append(buf_, len_);
    len_ = 0;
  }

  std::string& out_;
  char buf_[256];
  std::size_t len_ = 0;
};

[[nodiscard]] bool plain_char(char c) noexcept {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

/// Appends `"text"`, escaped, then `suffix` unless it is 0. The bytes
/// before `first` need no escape.
template <class Out>
void append_escaped(Out& out, std::string_view text, std::size_t first,
                    char suffix) {
  out.push_back('"');
  std::size_t plain = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = first; i < text.size(); ++i) {
    const char c = text[i];
    if (plain_char(c)) continue;
    out.append(text.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out.append("\\\"", 2); break;
      case '\\': out.append("\\\\", 2); break;
      case '\n': out.append("\\n", 2); break;
      case '\r': out.append("\\r", 2); break;
      case '\t': out.append("\\t", 2); break;
      default: {
        char buf[8];
        out.append(buf, static_cast<std::size_t>(
                            std::snprintf(buf, sizeof(buf), "\\u%04x", c)));
      }
    }
  }
  out.append(text.data() + plain, text.size() - plain);
  out.push_back('"');
  if (suffix != 0) out.push_back(suffix);
}

/// append_escaped for dump_to. Short strings - every key and most
/// values - are copied into the chunk while they are scanned; one that
/// needs an escape is abandoned uncommitted and redone by the general
/// path.
void append_quoted(staged_writer& out, std::string_view text, char suffix) {
  const std::size_t n = text.size();
  if (n + 3 <= staged_writer::max_room) {
    char* const p = out.room(n + 3);
    std::size_t i = 0;
    while (i < n && plain_char(text[i])) {
      p[i + 1] = text[i];
      ++i;
    }
    if (i == n) {
      p[0] = '"';
      p[n + 1] = '"';
      p[n + 2] = suffix;
      out.advance(n + (suffix != 0 ? 3 : 2));
      return;
    }
  }
  append_escaped(out, text, 0, suffix);
}

template <class Int>
void append_integer(staged_writer& out, Int value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void append_double(staged_writer& out, double value) {
  if (!std::isfinite(value)) {  // JSON has no inf/nan
    out.append("null", 4);
    return;
  }
  char buf[32];
  out.append(buf, static_cast<std::size_t>(
                      std::snprintf(buf, sizeof(buf), "%.17g", value)));
}

}  // namespace

void json::append_string(std::string& out, std::string_view text) {
  std::size_t first = 0;  // first byte that needs an escape
  while (first < text.size() && plain_char(text[first])) ++first;
  if (first == text.size()) {
    out.push_back('"');
    out.append(text);
    out.push_back('"');
    return;
  }
  append_escaped(out, text, first, 0);
}

std::string json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void json::dump_to(std::string& out) const {
  staged_writer staged(out);
  dump_into(staged);
}

template <class Out>
void json::dump_into(Out& out) const {
  switch (value_.index()) {
    case 0:
      out.append("null", 4);
      return;
    case 1:
      if (*std::get_if<bool>(&value_)) {
        out.append("true", 4);
      } else {
        out.append("false", 5);
      }
      return;
    case 2:
      append_integer(out, *std::get_if<std::uint64_t>(&value_));
      return;
    case 3:
      append_integer(out, *std::get_if<std::int64_t>(&value_));
      return;
    case 4:
      append_double(out, *std::get_if<double>(&value_));
      return;
    case 5:
      append_quoted(out, *std::get_if<std::string>(&value_), 0);
      return;
    case 6: {
      const array& values = *std::get_if<array>(&value_);
      out.push_back('[');
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) out.push_back(',');
        values[i].dump_into(out);
      }
      out.push_back(']');
      return;
    }
    default: {
      const object& members = *std::get_if<object>(&value_);
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out.push_back(',');
        append_quoted(out, members[i].first, ':');
        members[i].second.dump_into(out);
      }
      out.push_back('}');
    }
  }
}

std::optional<json> json::parse(std::string_view text) {
  return parser(text).run();
}

}  // namespace beepkit::support
