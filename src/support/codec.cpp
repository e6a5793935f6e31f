#include "support/codec.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace beepkit::support::codec {

namespace {

constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

constexpr std::array<std::int8_t, 256> make_decode_table() {
  std::array<std::int8_t, 256> table{};
  for (auto& v : table) v = -1;
  for (std::int8_t i = 0; i < 64; ++i) {
    table[static_cast<unsigned char>(kAlphabet[i])] = i;
  }
  return table;
}

constexpr auto kDecode = make_decode_table();

// The two characters of every 12-bit group, so a 3-byte quantum costs
// two lookups.
constexpr std::array<char, 8192> make_pair_table() {
  std::array<char, 8192> table{};
  for (std::size_t i = 0; i < 4096; ++i) {
    table[2 * i] = kAlphabet[i >> 6];
    table[2 * i + 1] = kAlphabet[i & 63];
  }
  return table;
}

constexpr auto kPairs = make_pair_table();

constexpr std::size_t base64_size(std::size_t bytes) noexcept {
  return ((bytes + 2) / 3) * 4;
}

void put_pair(char* out, std::uint64_t group) noexcept {
  std::memcpy(out, &kPairs[2 * group], 2);
}

/// Writes the base64 of in[0, n) to out, exactly base64_size(n) chars.
void base64_into(const std::uint8_t* in, std::size_t n, char* out) noexcept {
  std::size_t i = 0;
  // Six input bytes per step, read as one big-endian 8-byte load (the
  // last two bytes are ignored, so the load stays inside the input).
  for (; i + 8 <= n; i += 6) {
    std::uint64_t x = 0;
    std::memcpy(&x, in + i, 8);
    if constexpr (std::endian::native == std::endian::little) {
      x = __builtin_bswap64(x);
    }
    put_pair(out, x >> 52);
    put_pair(out + 2, (x >> 40) & 0xFFF);
    put_pair(out + 4, (x >> 28) & 0xFFF);
    put_pair(out + 6, (x >> 16) & 0xFFF);
    out += 8;
  }
  for (; i + 3 <= n; i += 3) {
    const std::uint32_t v = (static_cast<std::uint32_t>(in[i]) << 16) |
                            (static_cast<std::uint32_t>(in[i + 1]) << 8) |
                            in[i + 2];
    put_pair(out, v >> 12);
    put_pair(out + 2, v & 0xFFF);
    out += 4;
  }
  const std::size_t rem = n - i;
  if (rem == 0) return;
  const std::uint32_t v =
      (static_cast<std::uint32_t>(in[i]) << 16) |
      (rem == 2 ? static_cast<std::uint32_t>(in[i + 1]) << 8 : 0U);
  put_pair(out, v >> 12);
  out[2] = rem == 2 ? kAlphabet[(v >> 6) & 63] : '=';
  out[3] = '=';
}

/// Writes the LEB128 varint of v at p; returns the end.
std::uint8_t* put_varint(std::uint8_t* p, std::uint32_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Grows `out` by the base64 of in[0, n).
void append_base64(std::string& out, const std::uint8_t* in, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + base64_size(n));
  base64_into(in, n, out.data() + at);
}

}  // namespace

std::string base64_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  append_base64(out, bytes.data(), bytes.size());
  return out;
}

std::optional<std::vector<std::uint8_t>> base64_decode(std::string_view text) {
  if (text.size() % 4 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve((text.size() / 4) * 3);
  for (std::size_t i = 0; i < text.size(); i += 4) {
    const bool last = i + 4 == text.size();
    int pad = 0;
    std::uint32_t v = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const char c = text[i + k];
      if (c == '=') {
        // Padding is only legal in the last quantum's tail positions.
        if (!last || k < 2) return std::nullopt;
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad != 0) return std::nullopt;  // data after padding
      const std::int8_t d = kDecode[static_cast<unsigned char>(c)];
      if (d < 0) return std::nullopt;
      v = (v << 6) | static_cast<std::uint32_t>(d);
    }
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    if (pad < 2) out.push_back(static_cast<std::uint8_t>(v >> 8));
    if (pad < 1) out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

std::string encode_words(std::span<const std::uint64_t> words) {
  std::string out;
  append_words(out, words);
  return out;
}

void append_words(std::string& out, std::span<const std::uint64_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    // The words' memory already is their little-endian serialization.
    append_base64(out, reinterpret_cast<const std::uint8_t*>(words.data()),
                  words.size() * 8);
  } else {
    std::vector<std::uint8_t> bytes(words.size() * 8);
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (int i = 0; i < 8; ++i) {
        bytes[w * 8 + i] = static_cast<std::uint8_t>(words[w] >> (8 * i));
      }
    }
    append_base64(out, bytes.data(), bytes.size());
  }
}

std::optional<std::size_t> decode_words(std::string_view text,
                                        std::span<std::uint64_t> out) {
  const auto bytes = base64_decode(text);
  if (!bytes.has_value()) return std::nullopt;
  if (bytes->size() % 8 != 0) return std::nullopt;
  const std::size_t count = bytes->size() / 8;
  if (count > out.size()) return std::nullopt;
  for (std::size_t w = 0; w < count; ++w) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>((*bytes)[w * 8 + i]) << (8 * i);
    }
    out[w] = v;
  }
  return count;
}

std::optional<std::uint64_t> get_uvarint(std::span<const std::uint8_t> bytes,
                                         std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (pos >= bytes.size()) return std::nullopt;
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  return std::nullopt;  // overlong (> 10 bytes)
}

std::string encode_cursors(std::span<const std::uint32_t> vals) {
  std::string out;
  out.reserve(base64_size(vals.size()));  // exact when every cursor < 128
  append_cursors(out, vals);
  return out;
}

void append_cursors(std::string& out, std::span<const std::uint32_t> vals) {
  // The varints pass through a small block buffer. A full block is a
  // multiple of 3 bytes, so it encodes without padding and the output
  // is the base64 of the whole varint stream.
  constexpr std::size_t kBlock = 3 * 1024;
  constexpr std::size_t kGroup = 8;
  std::array<std::uint8_t, kBlock + 5 * kGroup> block;
  std::uint8_t* const begin = block.data();
  std::uint8_t* at_byte = begin;
  const auto flush_block = [&] {
    append_base64(out, begin, kBlock);
    const std::size_t carry = static_cast<std::size_t>(at_byte - begin) - kBlock;
    std::memcpy(begin, begin + kBlock, carry);
    at_byte = begin + carry;
  };
  std::size_t i = 0;
  for (; i + kGroup <= vals.size(); i += kGroup) {
    // Cursors below 128 dominate; a group of them is one byte each.
    // The group is copied out first so the byte stores cannot alias it.
    std::array<std::uint32_t, kGroup> group;
    std::memcpy(group.data(), vals.data() + i, sizeof(group));
    std::uint32_t any = 0;
    for (const std::uint32_t v : group) any |= v;
    if (any < 0x80) {
      for (std::size_t k = 0; k < kGroup; ++k) {
        at_byte[k] = static_cast<std::uint8_t>(group[k]);
      }
      at_byte += kGroup;
    } else {
      for (const std::uint32_t v : group) at_byte = put_varint(at_byte, v);
    }
    if (at_byte - begin >= static_cast<std::ptrdiff_t>(kBlock)) flush_block();
  }
  for (; i < vals.size(); ++i) at_byte = put_varint(at_byte, vals[i]);
  if (at_byte - begin >= static_cast<std::ptrdiff_t>(kBlock)) flush_block();
  append_base64(out, begin, static_cast<std::size_t>(at_byte - begin));
}

std::optional<std::size_t> decode_cursors(std::string_view text,
                                          std::span<std::uint32_t> out) {
  const auto bytes = base64_decode(text);
  if (!bytes.has_value()) return std::nullopt;
  std::size_t pos = 0;
  std::size_t count = 0;
  while (pos < bytes->size()) {
    const auto v = get_uvarint(*bytes, pos);
    if (!v.has_value() || *v > 0xFFFFFFFFULL) return std::nullopt;
    if (count >= out.size()) return std::nullopt;
    out[count++] = static_cast<std::uint32_t>(*v);
  }
  return count;
}

}  // namespace beepkit::support::codec
