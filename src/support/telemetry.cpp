#include "support/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <vector>

#include "support/build_info.hpp"
#include "support/table.hpp"

namespace beepkit::support::telemetry {

namespace {

std::atomic<bool> g_trace_enabled{false};

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

// ---- log2_histogram ------------------------------------------------------

namespace {

std::size_t value_bucket(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

double bucket_lo(std::size_t b) noexcept {
  return b <= 1 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
}

double bucket_hi(std::size_t b) noexcept {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
}

}  // namespace

void log2_histogram::record(std::uint64_t value) noexcept {
  ++buckets_[value_bucket(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void log2_histogram::merge(const log2_histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < bucket_count; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void log2_histogram::reset() noexcept { *this = log2_histogram{}; }

double log2_histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 1.0) return static_cast<double>(max_);
  const double target = p * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t b = 0; b < bucket_count; ++b) {
    const double c = static_cast<double>(buckets_[b]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const double frac = (target - cum) / c;
      double v = bucket_lo(b) + frac * (bucket_hi(b) - bucket_lo(b));
      v = std::min(v, static_cast<double>(max_));
      v = std::max(v, static_cast<double>(min()));
      return v;
    }
    cum += c;
  }
  return static_cast<double>(max_);
}

json log2_histogram::to_json() const {
  return json(json::object{
      {"count", json(count_)},
      {"sum", json(sum_)},
      {"min", json(min())},
      {"max", json(max_)},
      {"mean", json(mean())},
      {"p50", json(percentile(0.50))},
      {"p90", json(percentile(0.90))},
      {"p99", json(percentile(0.99))},
  });
}

// ---- registry ------------------------------------------------------------

namespace {

template <typename Map, typename Key>
auto& slot(Map& map, const Key& name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

template <typename T>
using metric_map = std::map<std::string, T, std::less<>>;

// Name suffixes registry::fold_engine writes under an engine prefix.
enum fold_counter : std::size_t {
  fc_rounds_virtual,
  fc_rounds_plane_interpreted,
  fc_rounds_plane_compiled,
  fc_materializations,
  fc_quiet_words,
  fc_scanned_words,
  fc_sampled_rounds,
  fc_faults_applied,
  fc_fault_patched_words,
  fc_noise_passes_tiled,
  fc_noise_passes_serial,
  fc_tile_claims,
  fc_tile_claimed_words,
  fc_trials,
  fc_count
};
constexpr std::array<std::string_view, fc_count> kCounterSuffixes = {
    "_rounds_virtual_total",
    "_rounds_plane_interpreted_total",
    "_rounds_plane_compiled_total",
    "_materializations_total",
    "_quiet_words_sampled_total",
    "_scanned_words_sampled_total",
    "_sampled_rounds_total",
    "_faults_applied_total",
    "_fault_patched_words_total",
    "_noise_passes_tiled_total",
    "_noise_passes_serial_total",
    "_tile_claims_total",
    "_tile_claimed_words_total",
    "_trials_total",
};
enum : std::size_t { fh_round_ns, fh_trial_rounds };
constexpr std::array<std::string_view, 2> kHistogramSuffixes = {
    "_round_ns", "_trial_rounds"};
enum : std::size_t { fg_tile_imbalance };
constexpr std::array<std::string_view, 1> kGaugeSuffixes = {
    "_tile_imbalance"};
enum : std::size_t { fi_compiled_kernel, fi_gather_kernel };
constexpr std::array<std::string_view, 2> kInfoSuffixes = {
    "_compiled_kernel", "_gather_kernel"};

/// One prefix's keys plus the map entries they resolved to. An entry is
/// resolved on first write and then reused: std::map nodes never move,
/// and reset() drops every cache together with the maps.
template <typename T, std::size_t N>
class slot_cache {
 public:
  slot_cache(std::string_view prefix,
             const std::array<std::string_view, N>& suffixes) {
    for (std::size_t i = 0; i < N; ++i) {
      keys_[i].reserve(prefix.size() + suffixes[i].size());
      keys_[i].append(prefix).append(suffixes[i]);
    }
  }
  T& operator()(metric_map<T>& map, std::size_t i) {
    if (slots_[i] == nullptr) slots_[i] = &slot(map, keys_[i]);
    return *slots_[i];
  }

 private:
  std::array<std::string, N> keys_;
  std::array<T*, N> slots_{};
};

struct prefix_slots {
  explicit prefix_slots(std::string_view prefix)
      : counters(prefix, kCounterSuffixes),
        histograms(prefix, kHistogramSuffixes),
        gauges(prefix, kGaugeSuffixes),
        infos(prefix, kInfoSuffixes) {}
  slot_cache<std::uint64_t, fc_count> counters;
  slot_cache<log2_histogram, 2> histograms;
  slot_cache<double, 1> gauges;
  slot_cache<std::string, 2> infos;
};

}  // namespace

struct registry::impl {
  mutable std::mutex mutex;
  metric_map<std::uint64_t> counters;
  metric_map<double> gauges;
  metric_map<std::string> infos;
  metric_map<log2_histogram> histograms;
  metric_map<prefix_slots> folds;  // fold_engine's per-prefix key cache
};

registry& registry::global() {
  static registry instance;
  return instance;
}

registry::impl& registry::state() const {
  static impl the_state;
  return the_state;
}

void registry::add(std::string_view name, std::uint64_t delta) {
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  slot(s.counters, name) += delta;
}

void registry::set_gauge(std::string_view name, double value) {
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  slot(s.gauges, name) = value;
}

void registry::set_info(std::string_view name, std::string_view value) {
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  slot(s.infos, name) = std::string(value);
}

void registry::record(std::string_view name, std::uint64_t value) {
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  slot(s.histograms, name).record(value);
}

void registry::merge_histogram(std::string_view name, const log2_histogram& h) {
  if (h.count() == 0) return;
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  slot(s.histograms, name).merge(h);
}

std::uint64_t registry::counter(std::string_view name) const {
  const impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double registry::gauge(std::string_view name) const {
  const impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

std::string registry::info(std::string_view name) const {
  const impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.infos.find(name);
  return it == s.infos.end() ? std::string{} : it->second;
}

log2_histogram registry::histogram(std::string_view name) const {
  const impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? log2_histogram{} : it->second;
}

json registry::snapshot() const {
  const impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  json::object counters;
  for (const auto& [name, value] : s.counters)
    counters.emplace_back(name, json(value));
  json::object gauges;
  for (const auto& [name, value] : s.gauges)
    gauges.emplace_back(name, json(value));
  json::object infos;
  for (const auto& [name, value] : s.infos)
    infos.emplace_back(name, json(value));
  json::object histograms;
  for (const auto& [name, h] : s.histograms)
    histograms.emplace_back(name, h.to_json());
  return json(json::object{
      {"build", build_info::current().to_json()},
      {"counters", json(std::move(counters))},
      {"gauges", json(std::move(gauges))},
      {"infos", json(std::move(infos))},
      {"histograms", json(std::move(histograms))},
  });
}

std::string registry::to_prometheus() const {
  const impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::string out;
  for (const auto& [name, value] : s.counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : s.gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + json(value).dump() + "\n";
  }
  for (const auto& [name, value] : s.infos) {
    out += "# TYPE " + name + "_info gauge\n";
    out += name + "_info{value=" + json(value).dump() + "} 1\n";
  }
  for (const auto& [name, h] : s.histograms) {
    out += "# TYPE " + name + " summary\n";
    out += name + "{quantile=\"0.5\"} " + json(h.percentile(0.5)).dump() + "\n";
    out += name + "{quantile=\"0.9\"} " + json(h.percentile(0.9)).dump() + "\n";
    out += name + "{quantile=\"0.99\"} " + json(h.percentile(0.99)).dump() + "\n";
    out += name + "_sum " + std::to_string(h.sum()) + "\n";
    out += name + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

void registry::reset() {
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.counters.clear();
  s.gauges.clear();
  s.infos.clear();
  s.histograms.clear();
  s.folds.clear();
}

void registry::fold_engine(const engine_metrics& m, std::string_view prefix,
                           const trial_fold* trial) {
  const bool fold_metrics = m.rounds_total() != 0 || m.tile_claims != 0;
  if (!fold_metrics && trial == nullptr) return;
  impl& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.folds.find(prefix);
  if (it == s.folds.end()) {
    it = s.folds.emplace(std::string(prefix), prefix_slots(prefix)).first;
  }
  prefix_slots& keys = it->second;
  const auto add = [&](fold_counter c, std::uint64_t delta) {
    keys.counters(s.counters, c) += delta;
  };
  if (fold_metrics) {
    add(fc_rounds_virtual, m.rounds_virtual);
    add(fc_rounds_plane_interpreted, m.rounds_plane_interpreted);
    add(fc_rounds_plane_compiled, m.rounds_plane_compiled);
    add(fc_materializations, m.materializations);
    add(fc_quiet_words, m.quiet_words);
    add(fc_scanned_words, m.scanned_words);
    add(fc_sampled_rounds, m.sampled_rounds);
    if (m.faults_applied != 0) add(fc_faults_applied, m.faults_applied);
    if (m.fault_patched_words != 0) {
      add(fc_fault_patched_words, m.fault_patched_words);
    }
    if (m.noise_passes_tiled + m.noise_passes_serial != 0) {
      add(fc_noise_passes_tiled, m.noise_passes_tiled);
      add(fc_noise_passes_serial, m.noise_passes_serial);
    }
    if (m.round_ns.count() != 0) {
      keys.histograms(s.histograms, fh_round_ns).merge(m.round_ns);
    }
    if (m.tile_claims != 0) {
      add(fc_tile_claims, m.tile_claims);
      add(fc_tile_claimed_words, m.tile_claimed_words);
      keys.gauges(s.gauges, fg_tile_imbalance) = m.tile_imbalance;
    }
  }
  if (trial != nullptr) {
    add(fc_trials, 1);
    keys.histograms(s.histograms, fh_trial_rounds).record(trial->rounds);
    const auto set_info = [&](std::size_t i, std::string_view value) {
      std::string& info = keys.infos(s.infos, i);
      if (info != value) info.assign(value);  // repeats cost no copy
    };
    set_info(fi_compiled_kernel, trial->compiled_kernel);
    set_info(fi_gather_kernel, trial->gather_kernel);
  }
}

void fold_engine_metrics(const engine_metrics& m, std::string_view prefix) {
  if (!compiled_in || !enabled()) return;
  registry::global().fold_engine(m, prefix);
}

json snapshot() { return registry::global().snapshot(); }

// ---- trace recorder ------------------------------------------------------

namespace {

struct trace_event {
  std::string name;
  std::string cat;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t tid;
};

constexpr std::size_t max_trace_events = 1u << 20;

struct trace_state {
  std::mutex mutex;
  std::vector<trace_event> events;
  std::uint64_t dropped = 0;
};

trace_state& traces() {
  static trace_state state;
  return state;
}

}  // namespace

bool trace_enabled() noexcept {
  if constexpr (!compiled_in) return false;
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) noexcept {
  if (on) (void)trace_epoch();  // pin the epoch before the first span
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t trace_tid() noexcept {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void trace_complete(std::string_view name, std::string_view cat,
                    std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!trace_enabled()) return;
  const std::uint32_t tid = trace_tid();
  trace_state& state = traces();
  const std::lock_guard<std::mutex> lock(state.mutex);
  if (state.events.size() >= max_trace_events) {
    ++state.dropped;
    return;
  }
  state.events.push_back(trace_event{std::string(name), std::string(cat),
                                     start_ns, dur_ns, tid});
}

std::size_t trace_event_count() noexcept {
  trace_state& state = traces();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.events.size();
}

std::uint64_t trace_dropped() noexcept {
  trace_state& state = traces();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.dropped;
}

void reset_trace() {
  trace_state& state = traces();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.events.clear();
  state.dropped = 0;
}

bool write_chrome_trace(const std::string& path) {
  json::array events;
  std::uint64_t dropped = 0;
  {
    trace_state& state = traces();
    const std::lock_guard<std::mutex> lock(state.mutex);
    events.reserve(state.events.size());
    for (const trace_event& e : state.events) {
      events.push_back(json(json::object{
          {"name", json(e.name)},
          {"cat", json(e.cat)},
          {"ph", json("X")},
          {"ts", json(static_cast<double>(e.start_ns) / 1000.0)},
          {"dur", json(static_cast<double>(e.dur_ns) / 1000.0)},
          {"pid", json(1)},
          {"tid", json(e.tid)},
      }));
    }
    dropped = state.dropped;
  }
  json doc(json::object{
      {"traceEvents", json(std::move(events))},
      {"displayTimeUnit", json("ms")},
      {"otherData", json(json::object{
                        {"build", json(build_info::current().one_line())},
                        {"dropped_events", json(dropped)},
                    })},
  });
  return write_text_file(path, doc.dump() + "\n");
}

}  // namespace beepkit::support::telemetry
