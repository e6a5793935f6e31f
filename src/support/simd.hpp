// What the build's vector flags lower to, for perf-report labels.
//
// The compiled plane sweep (src/beeping/compiled_sweep.hpp) is plain
// std::uint64_t word algebra: at the paper's sizes (n <= 256, 1-4
// plane words) a wider batch cannot matter, and the measured widths
// 1/2/4/8 fell within noise of each other on the default build. The
// compiler is still free to vectorize; isa_name() says what it may use.
#pragma once

#include <cstddef>

namespace beepkit::support::simd {

/// Instruction set this build's flags let the compiler target.
[[nodiscard]] constexpr const char* isa_name() noexcept {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  return "neon";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

/// Words per compiled-kernel op: always 1. Kept only because
/// perfbench/src/main.cpp still stamps it; delete it together with that
/// stamp field.
[[nodiscard]] constexpr std::size_t autotuned_width() noexcept { return 1; }

}  // namespace beepkit::support::simd
