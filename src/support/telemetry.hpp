#pragma once

// beeptel — beepkit's telemetry layer: a process-wide metrics registry
// (monotonic counters, gauges, log2-bucketed histograms) plus a Chrome
// trace_event span recorder, with a compile-time kill switch and a
// runtime sampling stride so the engine hot loops stay at full speed.
//
// Probe-writing rules (the bit-exactness contract):
//   1. Probes never read RNG streams and never alter iteration order —
//      elections must be draw-for-draw identical probes-on vs probes-off
//      (differentially tested in tests/test_telemetry.cpp).
//   2. No atomics in the word loops: hot-path probes accumulate into
//      plain per-engine / per-slot scratch (engine_metrics,
//      tile_executor slot counters) and are folded into the global
//      registry at round/trial boundaries only.
//   3. Expensive probes (clock reads, O(words) scans, trace spans) run
//      only on sampled rounds (round % round_sample_stride() == 0);
//      cheap counter bumps are unconditional when compiled in.
//   4. Building with -DBEEPKIT_TELEMETRY=OFF sets compiled_in == false
//      and every probe site constant-folds to nothing; the registry and
//      export APIs stay linkable so tools/CLIs build either way.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/json.hpp"

#if !defined(BEEPKIT_TELEMETRY_ENABLED)
#define BEEPKIT_TELEMETRY_ENABLED 1
#endif

namespace beepkit::support::telemetry {

/// Compile-time kill switch. Use as the first operand of a probe's
/// condition so the whole probe folds away when built OFF.
inline constexpr bool compiled_in = BEEPKIT_TELEMETRY_ENABLED != 0;

// ---- runtime knobs -------------------------------------------------------

namespace detail {
// The knobs behind enabled() and round_sample_stride(): inline so a
// probe site reads them with one relaxed load, no call.
inline std::atomic<bool> enabled_knob{true};
inline std::atomic<std::uint64_t> stride_knob{64};
}  // namespace detail

/// Global runtime enable (default on when compiled in). Engines AND this
/// with their own set_telemetry_enabled() flag, reading it once per
/// step()/run_* call: a change takes effect at the next call, not in
/// the middle of a run.
[[nodiscard]] inline bool enabled() noexcept {
  if constexpr (!compiled_in) return false;
  return detail::enabled_knob.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::enabled_knob.store(on, std::memory_order_relaxed);
}

/// Stride between sampled rounds for the expensive probes (round-latency
/// clock reads, quiet-word scans, round trace spans). Default 64; 1
/// samples every round; 0 disables sampling entirely. Engines read it
/// once per call, like enabled().
[[nodiscard]] inline std::uint64_t round_sample_stride() noexcept {
  return detail::stride_knob.load(std::memory_order_relaxed);
}
inline void set_round_sample_stride(std::uint64_t stride) noexcept {
  detail::stride_knob.store(stride, std::memory_order_relaxed);
}

/// True when `round` is a sampled round under the current stride.
[[nodiscard]] inline bool round_sampled(std::uint64_t round) noexcept {
  const std::uint64_t stride = round_sample_stride();
  return stride != 0 && round % stride == 0;
}

/// Monotonic nanoseconds since the process-wide telemetry epoch (shared
/// by histograms and trace spans so spans from all threads line up).
[[nodiscard]] std::uint64_t now_ns() noexcept;

// ---- log2 histogram ------------------------------------------------------

/// Fixed-footprint histogram with power-of-two buckets: a value v lands
/// in bucket std::bit_width(v), i.e. bucket b>=1 covers [2^(b-1), 2^b).
/// Records are a couple of adds — cheap enough for per-trial scratch —
/// and percentiles are recovered by linear interpolation within the
/// crossing bucket (exact min/max clamp the ends).
class log2_histogram {
 public:
  static constexpr std::size_t bucket_count = 65;

  void record(std::uint64_t value) noexcept;
  void merge(const log2_histogram& other) noexcept;
  void reset() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  /// p in [0, 1]; returns 0 on an empty histogram.
  [[nodiscard]] double percentile(double p) const noexcept;

  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept {
    return index < bucket_count ? buckets_[index] : 0;
  }

  /// {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
  ///  "p99":..} — the shape telem_report and snapshot() expose.
  [[nodiscard]] json to_json() const;

 private:
  std::uint64_t buckets_[bucket_count] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

// ---- per-engine scratch --------------------------------------------------

/// Plain per-engine accumulation struct — no atomics, owned by one
/// engine, folded into the registry at trial boundaries (see
/// fold_engine_metrics). Shared by beeping::engine and stoneage::engine.
struct engine_metrics {
  // Gear selection: one bump per round, by the dispatch branch taken.
  std::uint64_t rounds_virtual = 0;
  std::uint64_t rounds_plane_interpreted = 0;
  std::uint64_t rounds_plane_compiled = 0;
  // Lazy plane materializations (write-backs to the FSM state vector).
  std::uint64_t materializations = 0;
  // Sampled-round quiet-word scan: words with no heard/active bit set
  // (the words the plane sweep skips) out of words scanned.
  std::uint64_t quiet_words = 0;
  std::uint64_t scanned_words = 0;
  // Sampled per-round wall time, nanoseconds.
  std::uint64_t sampled_rounds = 0;
  log2_histogram round_ns;
  // Fault-injection surface (core/faults): crash/restart/corrupt events
  // applied to this engine, and the cumulative (word, mask) entries the
  // attached topology patch charged per gather (0 = no churn).
  std::uint64_t faults_applied = 0;
  std::uint64_t fault_patched_words = 0;
  // Execution shape of the reception-noise pass: tiled when it went
  // through the tile executor, serial when it ran inline (no
  // executor). tiled + serial = passes run, so "zero serial remnants"
  // is checkable per trial.
  std::uint64_t noise_passes_tiled = 0;
  std::uint64_t noise_passes_serial = 0;
  // Tile-claim totals from tile_executor, filled at fold time.
  std::uint64_t tile_claims = 0;
  std::uint64_t tile_claimed_words = 0;
  // max-slot / mean claimed words across slots; 1.0 = perfectly even
  // (or serial). 0 when no tiled work ran.
  double tile_imbalance = 0.0;

  [[nodiscard]] std::uint64_t rounds_total() const noexcept {
    return rounds_virtual + rounds_plane_interpreted + rounds_plane_compiled;
  }
  void reset() noexcept { *this = engine_metrics{}; }
};

// ---- registry ------------------------------------------------------------

/// One finished election's bookkeeping, folded next to its engine
/// scratch: `<prefix>_trials_total` += 1, `<prefix>_trial_rounds`
/// records `rounds`, and the two kernel infos describe the trial that
/// finished last.
struct trial_fold {
  std::uint64_t rounds = 0;
  std::string_view compiled_kernel;
  std::string_view gather_kernel;
};

/// Process-wide metrics registry. Mutex-protected and deliberately NOT
/// for hot loops: a finished trial folds its engine_metrics and its
/// trial_fold under one lock (fold_engine), the sweep folds once per
/// run. Names are flat snake_case
/// ("engine_rounds_plane_compiled_total"); snapshot() keys them in
/// sorted order so dumps are deterministic.
class registry {
 public:
  static registry& global();

  void add(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  void set_info(std::string_view name, std::string_view value);
  void record(std::string_view name, std::uint64_t value);
  void merge_histogram(std::string_view name, const log2_histogram& h);

  /// Folds one engine's scratch under `prefix` (see
  /// fold_engine_metrics) and, when `trial` is given, that trial's
  /// bookkeeping, in a single locked update. Key strings are built once
  /// per prefix; a name still enters the registry only when first
  /// written, so the contents match the equivalent add/record/set_*
  /// calls exactly.
  void fold_engine(const engine_metrics& m, std::string_view prefix,
                   const trial_fold* trial = nullptr);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] std::string info(std::string_view name) const;
  [[nodiscard]] log2_histogram histogram(std::string_view name) const;

  /// {"build": {...}, "counters": {...}, "gauges": {...},
  ///  "infos": {...}, "histograms": {name: log2_histogram::to_json()}}
  [[nodiscard]] json snapshot() const;
  /// Prometheus text exposition (counters/gauges/summaries).
  [[nodiscard]] std::string to_prometheus() const;

  void reset();

 private:
  registry() = default;
  struct impl;
  impl& state() const;
};

/// Fold one engine's scratch into the global registry under `prefix`
/// (e.g. "engine" for beeping, "stoneage" for the stone-age engine).
/// An engine that ran no round and claimed no tile folds nothing.
/// No-op when built OFF or runtime-disabled.
void fold_engine_metrics(const engine_metrics& m, std::string_view prefix);

/// Convenience: registry::global().snapshot().
[[nodiscard]] json snapshot();

// ---- trace recorder ------------------------------------------------------

/// Chrome trace_event recorder (complete "X" events), Perfetto-loadable.
/// Off by default; spans are dropped (counted) past a fixed cap so a
/// long sweep cannot grow the buffer unboundedly.
[[nodiscard]] bool trace_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// Small stable id for the calling thread (assigned on first use).
[[nodiscard]] std::uint32_t trace_tid() noexcept;

/// Record a completed span [start_ns, start_ns + dur_ns) on the shared
/// telemetry epoch (see now_ns()). No-op unless tracing is enabled.
void trace_complete(std::string_view name, std::string_view cat,
                    std::uint64_t start_ns, std::uint64_t dur_ns);

[[nodiscard]] std::size_t trace_event_count() noexcept;
[[nodiscard]] std::uint64_t trace_dropped() noexcept;
void reset_trace();

/// Write the recorded spans as Chrome trace JSON ({"traceEvents": [...]},
/// microsecond timestamps). Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// RAII span helper for non-hot-path scopes (checkpoints, shard phases).
/// Costs two clock reads when tracing is on, nothing otherwise.
class scoped_span {
 public:
  scoped_span(std::string_view name, std::string_view cat) noexcept
      : name_(name), cat_(cat),
        start_ns_(compiled_in && trace_enabled() ? now_ns() : 0),
        armed_(compiled_in && trace_enabled()) {}
  ~scoped_span() {
    if (armed_) trace_complete(name_, cat_, start_ns_, now_ns() - start_ns_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  std::string_view name_;
  std::string_view cat_;
  std::uint64_t start_ns_;
  bool armed_;
};

}  // namespace beepkit::support::telemetry
