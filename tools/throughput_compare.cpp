// Compares two google-benchmark JSON reports (a blessed baseline and a
// fresh engine_throughput run) benchmark by benchmark and prints a
// rounds/sec delta table, so CI can attach a non-blocking performance
// report to every PR instead of just publishing an artifact.
//
//   throughput_compare baseline.json current.json
//       [--threshold 0.30]   flag regressions worse than this fraction
//       [--strict]           exit 1 when a flagged regression exists
//       [--block-catastrophic]
//                            exit 1 only for catastrophic regressions
//       [--catastrophic 0.50]
//                            the catastrophic fraction
//       [--csv out.csv]      also write the table as CSV
//
// Exit code is 0 unless --strict is given and a benchmark regressed
// beyond the threshold: absolute rounds/sec depend on the machine (a
// CI runner will not reproduce the blessed numbers exactly), so the
// report is advisory by default and the per-file fast/virtual ratios
// are the machine-independent signal.
//
// --block-catastrophic is the middle ground CI uses: the delta table
// stays advisory at --threshold, but a benchmark losing more than the
// catastrophic fraction (default 0.50, i.e. less than half the blessed
// rate - beyond any plausible runner-hardware noise) fails the run.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using beepkit::support::json;

struct bench_rate {
  std::string name;
  double items_per_second = 0.0;
};

std::optional<std::vector<bench_rate>> load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "throughput_compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = json::parse(buffer.str());
  if (!doc.has_value()) {
    std::fprintf(stderr, "throughput_compare: %s is not valid JSON\n",
                 path.c_str());
    return std::nullopt;
  }
  const json* benchmarks = doc->find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::fprintf(stderr,
                 "throughput_compare: %s has no \"benchmarks\" array (is it "
                 "a --benchmark_out_format=json report?)\n",
                 path.c_str());
    return std::nullopt;
  }
  std::vector<bench_rate> rates;
  for (const json& entry : benchmarks->as_array()) {
    const json* name = entry.find("name");
    const json* rate = entry.find("items_per_second");
    // Aggregate rows (mean/median/stddev) carry a run_type of
    // "aggregate"; plain iterations are what the baseline stores.
    const json* run_type = entry.find("run_type");
    if (name == nullptr || rate == nullptr) continue;
    if (run_type != nullptr && run_type->as_string() == "aggregate") continue;
    rates.push_back({name->as_string(), rate->as_double()});
  }
  return rates;
}

const bench_rate* find_rate(const std::vector<bench_rate>& rates,
                            const std::string& name) {
  for (const bench_rate& r : rates) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::string format_rate(double rate) {
  std::ostringstream out;
  out.precision(4);
  if (rate >= 1e6) {
    out << rate / 1e6 << "M/s";
  } else {
    out << rate << "/s";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const beepkit::support::cli args(
      argc, argv, "throughput_compare baseline.json current.json [flags]",
      {{"threshold", "regression threshold (default 0.30)"},
       {"strict", "exit 1 on any regression", true},
       {"block-catastrophic", "exit 1 on a catastrophic regression", true},
       {"catastrophic", "catastrophic-regression threshold (default 0.50)"},
       {"csv", "file to write the comparison to as CSV"}});
  if (args.positionals().size() != 2) {
    std::fputs(args.help().c_str(), stderr);
    return 2;
  }
  const double threshold = args.get_double("threshold", 0.30);
  const bool strict = args.get_bool("strict", false);
  const bool block_catastrophic = args.get_bool("block-catastrophic", false);
  const double catastrophic = args.get_double("catastrophic", 0.50);

  const auto baseline = load_report(args.positionals()[0]);
  const auto current = load_report(args.positionals()[1]);
  if (!baseline.has_value() || !current.has_value()) return 2;

  beepkit::support::table report(
      {"benchmark", "baseline", "current", "delta", "verdict"});
  report.set_title("engine_throughput vs blessed baseline (threshold " +
                   beepkit::support::table::num(threshold * 100.0, 0) + "%)");
  std::size_t regressions = 0;
  std::size_t catastrophic_regressions = 0;
  std::size_t matched = 0;
  for (const bench_rate& base : *baseline) {
    const bench_rate* cur = find_rate(*current, base.name);
    if (cur == nullptr) {
      report.add_row({base.name, format_rate(base.items_per_second), "-", "-",
                      "missing in current"});
      continue;
    }
    ++matched;
    if (base.items_per_second <= 0.0) {
      report.add_row({base.name, "0", format_rate(cur->items_per_second), "-",
                      "no baseline rate"});
      continue;
    }
    const double ratio = cur->items_per_second / base.items_per_second;
    std::string verdict = "ok";
    if (ratio < 1.0 - catastrophic) {
      verdict = "CATASTROPHIC";
      ++catastrophic_regressions;
      ++regressions;
    } else if (ratio < 1.0 - threshold) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (ratio > 1.0 + threshold) {
      verdict = "improved";
    }
    std::ostringstream delta;
    delta.precision(1);
    delta << std::fixed << (ratio - 1.0) * 100.0 << "%";
    report.add_row({base.name, format_rate(base.items_per_second),
                    format_rate(cur->items_per_second), delta.str(), verdict});
  }
  for (const bench_rate& cur : *current) {
    if (find_rate(*baseline, cur.name) == nullptr) {
      report.add_row({cur.name, "-", format_rate(cur.items_per_second), "-",
                      "new (no baseline)"});
    }
  }
  std::printf("%s\n", report.to_string().c_str());
  std::printf("%zu compared, %zu regression(s) beyond %.0f%%, "
              "%zu catastrophic (beyond %.0f%%)\n",
              matched, regressions, threshold * 100.0,
              catastrophic_regressions, catastrophic * 100.0);
  // Advisory telemetry-overhead line: when the current report carries
  // both TelemetryProbes rows, their within-run ratio is a
  // machine-independent signal (same binary, same runner, same
  // instance) for the probes-on cost. Never affects the exit code.
  {
    const bench_rate* on = find_rate(*current, "BM_TelemetryProbesOn");
    const bench_rate* off = find_rate(*current, "BM_TelemetryProbesOff");
    if (on != nullptr && off != nullptr && off->items_per_second > 0.0) {
      const double overhead =
          1.0 - on->items_per_second / off->items_per_second;
      std::printf("telemetry overhead (advisory): probes-on runs at "
                  "%.2f%% below probes-off (target < 2%%)\n",
                  overhead * 100.0);
    }
  }
  if (const auto csv = args.get("csv"); csv.has_value()) {
    if (!beepkit::support::write_text_file(*csv, report.to_csv())) {
      std::fprintf(stderr, "throughput_compare: cannot write %s\n",
                   csv->c_str());
      return 2;
    }
  }
  if (strict && regressions > 0) return 1;
  if (block_catastrophic && catastrophic_regressions > 0) return 1;
  return 0;
}
