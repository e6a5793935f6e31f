#include "support/json.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

namespace beepkit::support {

namespace {

const json::array kEmptyArray;
const json::object kEmptyObject;

/// What parsing one value yields: the value (json), or nothing
/// (skipped) when the value is only validated - how the flat scan
/// walks nested values through the same grammar.
struct skipped {};

[[nodiscard]] bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// The bytes of `w` (8 bytes read in memory order) that end a string
/// literal's plain run - '"', '\\' or a control character (< 0x20) -
/// as their high bits: SWAR zero-byte tests. Nonzero iff there is one,
/// and the lowest flagged byte is always a real one (a borrow can only
/// flag bytes above it).
[[nodiscard]] constexpr std::uint64_t string_stops(std::uint64_t w) noexcept {
  constexpr std::uint64_t ones = 0x0101010101010101ULL;
  constexpr std::uint64_t highs = 0x8080808080808080ULL;
  const auto zero_byte = [](std::uint64_t x) {
    return (x - ones) & ~x & highs;
  };
  return zero_byte(w ^ (ones * '"')) | zero_byte(w ^ (ones * '\\')) |
         ((w - ones * 0x20) & ~w & highs);
}

/// Four hex digits, or nullopt.
[[nodiscard]] std::optional<std::uint32_t> hex4(std::string_view text) {
  if (text.size() < 4) return std::nullopt;
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const char c = text[i];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    else
      return std::nullopt;
  }
  return value;
}

void append_utf8(std::string& out, std::uint32_t cp) {
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

/// Decodes the body of a string literal the lexer accepted (so every
/// escape in it is well-formed) into `out`.
void decode_string(std::string_view body, std::string& out) {
  out.clear();
  std::size_t i = 0;
  while (true) {
    const std::size_t slash = body.find('\\', i);
    out.append(body.substr(i, slash - i));
    if (slash == std::string_view::npos) return;
    const char esc = body[slash + 1];
    i = slash + 2;
    switch (esc) {
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        std::uint32_t code = *hex4(body.substr(i));
        i += 4;
        if (code >= 0xD800 && code <= 0xDBFF) {  // surrogate pair
          const std::uint32_t low = *hex4(body.substr(i + 2));
          i += 6;
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, code);
        break;
      }
      default: out.push_back(esc);  // '"', '\\' or '/'
    }
  }
}

std::string decoded(std::string_view body) {
  std::string out;
  decode_string(body, out);
  return out;
}

/// The value of a number token the lexer accepted. An integer literal
/// keeps its class (uint64, or int64 when signed); fractions,
/// exponents and integers that overflow 64 bits become doubles.
std::optional<json> number_value(std::string_view token) {
  if (token.find_first_of(".eE") == std::string_view::npos) {
    const char* const end = token.data() + token.size();
    if (token[0] == '-') {
      std::int64_t value = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), end, value);
      if (ec == std::errc() && ptr == end) return json(value);
    } else {
      std::uint64_t value = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), end, value);
      if (ec == std::errc() && ptr == end) return json(value);
    }
    // fall through to double on 64-bit overflow
  }
  const std::string owned(token);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return std::nullopt;
  return json(value);
}

/// Recursive-descent parser over a string_view with a depth cap. One
/// grammar serves both readers: parse_value<json> builds the DOM, and
/// parse_value<skipped> validates a value without building it.
class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  std::optional<json> run() {
    auto value = parse_value<json>(0);
    if (!value || !at_end()) return std::nullopt;
    return value;
  }

  /// The flat scan: the text is one object, and on_member(key body,
  /// raw value) sees each of its members in order. True exactly when
  /// run() would yield an object.
  template <class OnMember>
  bool scan_object(OnMember&& on_member) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '{') return false;
    return parse_members<skipped>(0, on_member) && at_end();
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

  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
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

  std::size_t skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ - start;
  }

  /// A built value as the parse result: the value itself when building
  /// the DOM, nothing when only validating.
  template <class V, class T>
  static std::optional<V> yield(T&& value) {
    if constexpr (std::is_same_v<V, json>) {
      return json(std::forward<T>(value));
    } else {
      return skipped{};
    }
  }

  template <class V>
  std::optional<V> parse_value(int depth) {
    constexpr bool build = std::is_same_v<V, json>;
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': {
        json::object members;  // stays empty when only validating
        if (!parse_members<V>(depth, [&](std::string_view key,
                                         std::string_view, V&& value) {
              if constexpr (build) {
                members.emplace_back(decoded(key), std::move(value));
              }
            })) {
          return std::nullopt;
        }
        return yield<V>(std::move(members));
      }
      case '[': {
        json::array values;  // stays empty when only validating
        if (!parse_elements<V>(depth, [&](V&& value) {
              if constexpr (build) values.push_back(std::move(value));
            })) {
          return std::nullopt;
        }
        return yield<V>(std::move(values));
      }
      case '"': {
        const auto body = lex_string();
        if (!body) return std::nullopt;
        if constexpr (build) {
          return json(decoded(*body));
        } else {
          return skipped{};
        }
      }
      case 't': return consume_literal("true") ? yield<V>(true) : std::nullopt;
      case 'f':
        return consume_literal("false") ? yield<V>(false) : std::nullopt;
      case 'n':
        return consume_literal("null") ? yield<V>(nullptr) : std::nullopt;
      default: {
        const auto token = lex_number();
        if (!token) return std::nullopt;
        if constexpr (build) {
          return number_value(*token);
        } else {
          return skipped{};
        }
      }
    }
  }

  /// An object's members ('{' is next): on_member(key body, raw value
  /// text, value) for each one, in order.
  template <class V, class OnMember>
  bool parse_members(int depth, OnMember&& on_member) {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      const auto key = lex_string();
      if (!key) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      const std::size_t start = pos_;
      auto value = parse_value<V>(depth + 1);
      if (!value) return false;
      on_member(*key, text_.substr(start, pos_ - start), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  /// An array's elements ('[' is next): on_element(value) for each.
  template <class V, class OnElement>
  bool parse_elements(int depth, OnElement&& on_element) {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      auto value = parse_value<V>(depth + 1);
      if (!value) return false;
      on_element(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }

  /// Lexes one string literal ('"' is next) and returns its body, the
  /// bytes between the quotes, once every escape in it is well-formed.
  /// Plain bytes are skipped eight at a time.
  std::optional<std::string_view> lex_string() {
    if (!consume('"')) return std::nullopt;
    const std::size_t start = pos_;
    const char* const data = text_.data();
    const std::size_t size = text_.size();
    while (true) {
      for (std::uint64_t w; pos_ + 8 <= size; pos_ += 8) {
        std::memcpy(&w, data + pos_, 8);
        if (const std::uint64_t stops = string_stops(w); stops != 0) {
          // Little-endian: the lowest byte is the first in memory.
          if constexpr (std::endian::native == std::endian::little) {
            pos_ += static_cast<std::size_t>(std::countr_zero(stops)) / 8;
          }
          break;
        }
      }
      if (pos_ >= size) return std::nullopt;  // unterminated
      const char c = data[pos_++];
      if (c == '"') return text_.substr(start, pos_ - 1 - start);
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') continue;
      if (pos_ >= size) return std::nullopt;
      switch (data[pos_++]) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't': break;
        case 'u': {
          const auto code = hex4(text_.substr(pos_));
          if (!code) return std::nullopt;
          pos_ += 4;
          if (*code >= 0xD800 && *code <= 0xDBFF) {  // surrogate pair
            if (!consume_literal("\\u")) return std::nullopt;
            const auto low = hex4(text_.substr(pos_));
            if (!low || *low < 0xDC00 || *low > 0xDFFF) return std::nullopt;
            pos_ += 4;
          }
          break;
        }
        default: return std::nullopt;
      }
    }
  }

  /// Lexes one number token by RFC 8259's grammar: '-'?, then `0` or
  /// digits that do not start with 0, then an optional fraction ('.'
  /// and at least one digit) and exponent (e/E, a sign, at least one
  /// digit). So `007`, `.5`, `-.5`, `1.` and `1.e3` are refused; every
  /// accepted token is one number_value converts whole.
  std::optional<std::string_view> lex_number() {
    const std::size_t start = pos_;
    consume('-');
    if (consume('0')) {
      if (pos_ < text_.size() && is_digit(text_[pos_])) return std::nullopt;
    } else if (skip_digits() == 0) {
      return std::nullopt;
    }
    if (consume('.') && skip_digits() == 0) return std::nullopt;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!consume('+')) consume('-');
      if (skip_digits() == 0) return std::nullopt;
    }
    return text_.substr(start, pos_ - start);
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

[[nodiscard]] bool plain_char(char c) noexcept {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

template <class Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void append_double(std::string& out, double value) {
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
  out.push_back('"');
  std::size_t plain = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
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
}

std::string json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void json::dump_to(std::string& out) const {
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
      append_string(out, *std::get_if<std::string>(&value_));
      return;
    case 6: {
      const array& values = *std::get_if<array>(&value_);
      out.push_back('[');
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) out.push_back(',');
        values[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    default: {
      const object& members = *std::get_if<object>(&value_);
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out.push_back(',');
        append_string(out, members[i].first);
        out.push_back(':');
        members[i].second.dump_to(out);
      }
      out.push_back('}');
    }
  }
}

std::optional<json> json::parse(std::string_view text) {
  return parser(text).run();
}

bool json::object_scan::scan(std::string_view text) {
  members_.clear();
  const bool ok = parser(text).scan_object(
      [this](std::string_view key, std::string_view value, skipped) {
        members_.push_back(
            {key, value, key.find('\\') != std::string_view::npos});
      });
  if (!ok) members_.clear();
  return ok;
}

std::optional<std::string_view> json::object_scan::find(
    std::string_view key) const {
  std::string decoded;
  for (const member& m : members_) {
    if (!m.key_escaped) {
      if (m.key == key) return m.value;
      continue;
    }
    decode_string(m.key, decoded);
    if (decoded == key) return m.value;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> json::object_scan::as_uint(
    std::string_view raw) noexcept {
  // A uint64 alternative in the DOM: an integer literal with no sign
  // that from_chars reads whole (a leading '-' makes an int64, a
  // fraction, exponent or 64-bit overflow a double).
  if (raw.empty() || !is_digit(raw[0])) return std::nullopt;
  std::uint64_t value = 0;
  const char* const end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<bool> json::object_scan::as_bool(std::string_view raw) noexcept {
  if (raw == "true") return true;
  if (raw == "false") return false;
  return std::nullopt;
}

std::optional<std::string_view> json::object_scan::as_string(
    std::string_view raw, std::string& scratch) {
  if (raw.size() < 2 || raw.front() != '"') return std::nullopt;
  const std::string_view body = raw.substr(1, raw.size() - 2);
  if (body.find('\\') == std::string_view::npos) return body;
  decode_string(body, scratch);
  return scratch;
}

}  // namespace beepkit::support
