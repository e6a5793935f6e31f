// Width-agnostic SIMD wrapper over 64-bit word lanes, used by the
// beepc-generated round kernels for their decode and ripple-carry
// loops (src/beeping/compiled_sweep.hpp).
//
// The unit is `wordvec<W>`: W packed std::uint64_t lanes supporting the
// bitwise algebra the bit-plane sweeps are written in (&, |, ^, ~,
// andnot, lane access, any/all reductions). On GCC/Clang the storage is
// a vector_size type, so one wordvec op lowers to the widest integer
// ALU the target offers - AVX-512 (W = 8), AVX2 (W = 4), NEON/SSE2
// (W = 2) - and to an unrolled scalar sequence everywhere else; the
// array fallback keeps non-GNU compilers correct. Operations never
// touch memory layout or lane order, so a kernel instantiated at any W
// computes bit-identical words; width is purely a throughput knob.
//
// preferred_width() is the compile-time default the kernel registry
// dispatches to; isa_name() labels perf reports with what that width
// actually lowers to on this build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace beepkit::support::simd {

#if defined(__GNUC__) || defined(__clang__)
#define BEEPKIT_SIMD_VECTOR_EXT 1
#else
#define BEEPKIT_SIMD_VECTOR_EXT 0
#endif

/// Instruction set the vector types lower to with this build's flags.
[[nodiscard]] constexpr const char* isa_name() noexcept {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  return "neon";
#elif defined(__SSE2__)
  return "sse2";
#elif BEEPKIT_SIMD_VECTOR_EXT
  return "vector-ext";
#else
  return "scalar";
#endif
}

/// Default batch width (words per wordvec) for generated kernels: wide
/// enough to fill the native vector ALU, and still profitable as plain
/// instruction-level parallelism when the target only has 128-bit (or
/// no) vector units.
[[nodiscard]] constexpr std::size_t preferred_width() noexcept {
#if defined(__AVX512F__)
  return 8;
#else
  return 4;
#endif
}

/// Runtime-tuned batch width: a one-shot micro-probe (first call)
/// times a representative bit-plane sweep - decode masks, ripple-carry
/// add, successor routing - at each candidate width on this machine
/// and caches the winner for the process. Engines use this as their
/// compiled-width default; preferred_width() stays the compile-time
/// fallback and ties break toward it. Width is purely a throughput
/// knob - every width computes bit-identical words.
[[nodiscard]] std::size_t autotuned_width() noexcept;

#if BEEPKIT_SIMD_VECTOR_EXT
namespace detail {
// The vector_size argument must be a literal: GCC silently drops the
// attribute when it depends on a template parameter, so each width gets
// its own concrete typedef, selected by specialization. W = 1 is a
// wrapper struct (a one-lane vector_size type collapses to a plain,
// non-subscriptable scalar).
struct v1u64 {
  std::uint64_t word;
};
typedef std::uint64_t v2u64 __attribute__((vector_size(16)));
typedef std::uint64_t v4u64 __attribute__((vector_size(32)));
typedef std::uint64_t v8u64 __attribute__((vector_size(64)));
template <std::size_t W>
struct storage_for;
template <>
struct storage_for<1> {
  using type = v1u64;
};
template <>
struct storage_for<2> {
  using type = v2u64;
};
template <>
struct storage_for<4> {
  using type = v4u64;
};
template <>
struct storage_for<8> {
  using type = v8u64;
};
}  // namespace detail
#endif

template <std::size_t W>
struct wordvec {
  static_assert(W == 1 || W == 2 || W == 4 || W == 8,
                "wordvec: width must be 1, 2, 4 or 8");

#if BEEPKIT_SIMD_VECTOR_EXT
  using storage = typename detail::storage_for<W>::type;
#else
  struct storage {
    std::uint64_t lane[W];
  };
#endif

  storage v;

  wordvec() = default;

  /// All lanes = x.
  [[nodiscard]] static wordvec splat(std::uint64_t x) noexcept {
    wordvec r;
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      r.v.word = x;
    } else {
      r.v = x - storage{};  // broadcast: scalar op vector
    }
#else
    for (std::size_t i = 0; i < W; ++i) r.v.lane[i] = x;
#endif
    return r;
  }
  [[nodiscard]] static wordvec zero() noexcept { return splat(0); }

  [[nodiscard]] static wordvec load(const std::uint64_t* p) noexcept {
    wordvec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(std::uint64_t* p) const noexcept {
    std::memcpy(p, &v, sizeof(v));
  }

  [[nodiscard]] std::uint64_t lane(std::size_t i) const noexcept {
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      (void)i;
      return v.word;
    } else {
      return v[i];
    }
#else
    return v.lane[i];
#endif
  }
  void set_lane(std::size_t i, std::uint64_t x) noexcept {
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      (void)i;
      v.word = x;
    } else {
      v[i] = x;
    }
#else
    v.lane[i] = x;
#endif
  }

  friend wordvec operator&(wordvec a, wordvec b) noexcept {
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      a.v.word &= b.v.word;
    } else {
      a.v = a.v & b.v;
    }
#else
    for (std::size_t i = 0; i < W; ++i) a.v.lane[i] &= b.v.lane[i];
#endif
    return a;
  }
  friend wordvec operator|(wordvec a, wordvec b) noexcept {
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      a.v.word |= b.v.word;
    } else {
      a.v = a.v | b.v;
    }
#else
    for (std::size_t i = 0; i < W; ++i) a.v.lane[i] |= b.v.lane[i];
#endif
    return a;
  }
  friend wordvec operator^(wordvec a, wordvec b) noexcept {
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      a.v.word ^= b.v.word;
    } else {
      a.v = a.v ^ b.v;
    }
#else
    for (std::size_t i = 0; i < W; ++i) a.v.lane[i] ^= b.v.lane[i];
#endif
    return a;
  }
  friend wordvec operator~(wordvec a) noexcept {
#if BEEPKIT_SIMD_VECTOR_EXT
    if constexpr (W == 1) {
      a.v.word = ~a.v.word;
    } else {
      a.v = ~a.v;
    }
#else
    for (std::size_t i = 0; i < W; ++i) a.v.lane[i] = ~a.v.lane[i];
#endif
    return a;
  }
  wordvec& operator&=(wordvec b) noexcept { return *this = *this & b; }
  wordvec& operator|=(wordvec b) noexcept { return *this = *this | b; }
  wordvec& operator^=(wordvec b) noexcept { return *this = *this ^ b; }

  /// a & ~b (the decode loops' most common compound).
  [[nodiscard]] friend wordvec andnot(wordvec a, wordvec b) noexcept {
    return a & ~b;
  }

  /// True iff any lane has any bit set.
  [[nodiscard]] bool any() const noexcept {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < W; ++i) acc |= lane(i);
    return acc != 0;
  }
};

}  // namespace beepkit::support::simd
