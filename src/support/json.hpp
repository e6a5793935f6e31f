// Minimal JSON value, parser and serializer for the sweep subsystem's
// JSONL trial records and BENCH-style summaries. Deliberately small -
// not a general-purpose JSON library. Three properties matter here:
// objects preserve insertion order (shard files diff cleanly and
// serialize deterministically), unsigned 64-bit integers round-trip
// exactly (seeds and coin counts must never pass through a double),
// and serialization of equal values is byte-identical, so two merge
// runs over the same shards produce identical summary files. Record
// readers use json::object_scan, the same parser run over one object
// without building its values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace beepkit::support {

/// One JSON value. Numbers keep their lexical class: an unsigned
/// integer literal stays a uint64, a signed one an int64, and only
/// fractional/exponent literals become doubles.
class json {
 public:
  using array = std::vector<json>;
  /// Insertion-ordered members; lookups are linear (records are small).
  using object = std::vector<std::pair<std::string, json>>;

  json() = default;  // null
  json(std::nullptr_t) {}
  json(bool value) : value_(value) {}
  json(std::uint64_t value) : value_(value) {}
  json(std::int64_t value) : value_(value) {}
  json(int value) : value_(static_cast<std::int64_t>(value)) {}
  json(unsigned value) : value_(static_cast<std::uint64_t>(value)) {}
  json(double value) : value_(value) {}
  json(std::string value) : value_(std::move(value)) {}
  json(const char* value) : value_(std::string(value)) {}
  json(array value) : value_(std::move(value)) {}
  json(object value) : value_(std::move(value)) {}

  [[nodiscard]] bool is_null() const noexcept;
  [[nodiscard]] bool is_bool() const noexcept;
  [[nodiscard]] bool is_number() const noexcept;
  [[nodiscard]] bool is_string() const noexcept;
  [[nodiscard]] bool is_array() const noexcept;
  [[nodiscard]] bool is_object() const noexcept;

  /// Typed reads with fallbacks; integer reads convert between the
  /// unsigned/signed alternatives when the value fits.
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const noexcept;
  [[nodiscard]] std::int64_t as_i64(std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
  [[nodiscard]] std::string as_string(std::string fallback = {}) const;
  /// Strict read for untrusted input: a non-negative integer literal
  /// that fits 64 bits, else nullopt (as_u64 would fall back to 0).
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const noexcept;

  /// Empty when the value is not an array/object.
  [[nodiscard]] const array& as_array() const noexcept;
  [[nodiscard]] const object& as_object() const noexcept;

  /// Object member by key, nullptr when absent or not an object.
  [[nodiscard]] const json* find(std::string_view key) const noexcept;

  /// Appends (or replaces) an object member; a null value becomes an
  /// empty object first, so records can be built field by field.
  void set(std::string key, json value);

  /// Compact single-line serialization (JSONL-friendly): no spaces,
  /// keys in insertion order, doubles at round-trip precision.
  [[nodiscard]] std::string dump() const;
  /// The same bytes as dump(), appended to `out`.
  void dump_to(std::string& out) const;

  /// Appends `text` as a JSON string literal: quoted, with the same
  /// escapes dump() writes. Lets hot writers emit fixed-shape records
  /// byte-identical to a dumped object without building one.
  static void append_string(std::string& out, std::string_view text);

  /// Parses one JSON document; trailing garbage or malformed input
  /// yields nullopt. Nesting is capped (64) to bound recursion.
  [[nodiscard]] static std::optional<json> parse(std::string_view text);

  class object_scan;

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, std::int64_t, double,
               std::string, array, object>
      value_ = nullptr;
};

/// A flat view of one top-level JSON object: each member as a (key,
/// raw value text) pair of spans into the scanned text, in text order.
/// scan() runs parse()'s own lexer and grammar - nested values are
/// validated and skipped under the same depth cap - so it accepts
/// exactly the texts parse() yields an object for. It builds no value
/// and, once its member list has grown to a record's size, allocates
/// nothing. The decoders read one raw value on demand, by the DOM's
/// rules.
class json::object_scan {
 public:
  /// Scans `text`, which must outlive every span handed out; false
  /// (and no members) unless parse(text) would yield an object.
  [[nodiscard]] bool scan(std::string_view text);

  /// The raw value text of the first member named `key` - the member
  /// json::find returns (escaped keys compare decoded) - or nullopt.
  [[nodiscard]] std::optional<std::string_view> find(
      std::string_view key) const;

  /// as_uint() of a raw value: a non-negative integer literal that
  /// fits 64 bits, else nullopt.
  [[nodiscard]] static std::optional<std::uint64_t> as_uint(
      std::string_view raw) noexcept;
  /// The value of a raw `true` or `false`, else nullopt.
  [[nodiscard]] static std::optional<bool> as_bool(
      std::string_view raw) noexcept;
  /// The text of a raw string literal, else nullopt: a view into the
  /// raw text when it has no escapes, otherwise decoded into `scratch`
  /// (the view then points there).
  [[nodiscard]] static std::optional<std::string_view> as_string(
      std::string_view raw, std::string& scratch);

 private:
  struct member {
    std::string_view key;  ///< The key literal's body (between quotes).
    std::string_view value;
    bool key_escaped = false;
  };
  std::vector<member> members_;
};

}  // namespace beepkit::support
