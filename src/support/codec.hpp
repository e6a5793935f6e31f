// Binary-in-JSONL codecs for the giant-trial checkpoint stream
// (core/giant.hpp, journal format_version 3): base64 for word-plane
// payloads, LEB128 varints for per-node RNG cursors (small integers
// dominate, so variable length beats fixed u32 by 2-4x on disk), a
// per-chunk digest every chunk record carries, and streaming FNV-1a,
// which folds the chunk digests into the checkpoint's end-to-end
// digest. The resume path verifies both before adopting any state.
//
// The encoders write into pre-sized buffers (a 12-bit pair table, six
// input bytes per step), and the append_* forms let a caller build a
// whole record line in one reused string. The chunk digest is one
// xor-multiply-xorshift step per 64-bit word, so chunks digest in
// parallel and the serial fold sees one integer per chunk.
//
// Everything here is deterministic and platform-independent: words are
// serialized little-endian byte order explicitly, so a checkpoint
// written on one machine resumes bit-identically on another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace beepkit::support::codec {

/// Standard base64 (RFC 4648, with padding) over raw bytes.
[[nodiscard]] std::string base64_encode(std::span<const std::uint8_t> bytes);

/// Decodes standard base64; returns nullopt on any malformed input
/// (bad character, bad padding, truncated quantum).
[[nodiscard]] std::optional<std::vector<std::uint8_t>> base64_decode(
    std::string_view text);

/// Serializes 64-bit words little-endian and base64-encodes them (the
/// plane payload encoding).
[[nodiscard]] std::string encode_words(std::span<const std::uint64_t> words);

/// encode_words' bytes, appended to `out`.
void append_words(std::string& out, std::span<const std::uint64_t> words);

/// Inverse of encode_words into a caller-provided destination (the
/// resume path decodes straight into arena-backed plane spans).
/// Returns the number of words written, or nullopt when the text is
/// malformed or decodes to more words than `out` can hold (or to a
/// non-whole number of words).
[[nodiscard]] std::optional<std::size_t> decode_words(
    std::string_view text, std::span<std::uint64_t> out);

/// Reads one LEB128 varint, advancing `pos`. Returns nullopt on
/// truncation or a >10-byte (overlong) encoding.
[[nodiscard]] std::optional<std::uint64_t> get_uvarint(
    std::span<const std::uint8_t> bytes, std::size_t& pos);

/// Varint-packs a u32 cursor array and base64s it (per-node RNG
/// cursor encoding: one checkpoint section, chunked by the caller).
[[nodiscard]] std::string encode_cursors(std::span<const std::uint32_t> vals);

/// encode_cursors' bytes, appended to `out`.
void append_cursors(std::string& out, std::span<const std::uint32_t> vals);

/// Inverse of encode_cursors into a caller-provided destination.
/// Returns the number of cursors written, or nullopt on malformed
/// input or overflow of `out` / of u32.
[[nodiscard]] std::optional<std::size_t> decode_cursors(
    std::string_view text, std::span<std::uint32_t> out);

/// Streaming 64-bit FNV-1a. update() order defines the digest; the
/// checkpoint folds its header integers and every chunk digest in
/// stream order, so any torn, dropped or reordered record fails
/// verification.
class fnv1a {
 public:
  void update_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      state_ ^= static_cast<std::uint8_t>(v >> (8 * i));
      state_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

namespace detail {

/// One digest step: xor the word in, multiply by an odd constant, fold
/// the high half down. Each part is a bijection of the state, so
/// changing any single word of a chunk changes its digest.
constexpr std::uint64_t chunk_step(std::uint64_t h, std::uint64_t w) noexcept {
  h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 32);
}

constexpr std::uint64_t kChunkSeed = 0xcbf29ce484222325ULL;

}  // namespace detail

/// Digest of one checkpoint chunk of plane words: chunk_step over each
/// word (its little-endian value), then over the word count.
[[nodiscard]] constexpr std::uint64_t chunk_digest(
    std::span<const std::uint64_t> words) noexcept {
  std::uint64_t h = detail::kChunkSeed;
  for (const std::uint64_t w : words) h = detail::chunk_step(h, w);
  return detail::chunk_step(h, words.size());
}

/// Digest of one chunk of RNG cursors: the cursors packed two per word
/// (the even-indexed one in the low half; an odd count leaves the last
/// alone in its word), then the cursor count.
[[nodiscard]] constexpr std::uint64_t chunk_digest(
    std::span<const std::uint32_t> cursors) noexcept {
  std::uint64_t h = detail::kChunkSeed;
  std::size_t i = 0;
  for (; i + 2 <= cursors.size(); i += 2) {
    h = detail::chunk_step(
        h, cursors[i] | (static_cast<std::uint64_t>(cursors[i + 1]) << 32));
  }
  if (i < cursors.size()) h = detail::chunk_step(h, cursors[i]);
  return detail::chunk_step(h, cursors.size());
}

}  // namespace beepkit::support::codec
