// telem_report - renders a beeptel telemetry snapshot (the JSON written
// by `--telemetry out.json` or support::telemetry::snapshot()) as
// human-readable tables, or the diff of two snapshots taken before and
// after a run:
//
//   ./tools/telem_report telem.json
//   ./tools/telem_report before.json after.json      # delta = after - before
//   ./tools/telem_report telem.json --csv counters.csv --prom telem.prom
//
// Counters diff as (after - before); gauges, infos and histograms are
// point-in-time, so diff mode shows the "after" value (with the before
// value alongside where it changed). --prom re-emits the snapshot in
// Prometheus text exposition format, so a scrape endpoint can serve a
// file written by a batch run.
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
using beepkit::support::table;

std::optional<json> load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return json::parse(buffer.str());
}

const json::object& section(const json& snapshot, const char* name) {
  static const json::object empty;
  const json* s = snapshot.find(name);
  return s != nullptr ? s->as_object() : empty;
}

/// Member lookup in a (possibly absent) baseline section.
const json* baseline_value(const json* baseline, const char* section_name,
                           const std::string& key) {
  if (baseline == nullptr) return nullptr;
  const json* s = baseline->find(section_name);
  return s != nullptr ? s->find(key) : nullptr;
}

std::string u64_cell(std::uint64_t v) {
  return std::to_string(v);
}

std::string hist_field(const json& hist, const char* key, int precision) {
  const json* field = hist.find(key);
  if (field == nullptr) return "-";
  return table::num(field->as_double(), precision);
}

/// Prometheus text exposition rebuilt from the parsed snapshot (same
/// shape as registry::to_prometheus(), minus any metric the snapshot
/// does not carry).
std::string to_prometheus(const json& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : section(snapshot, "counters")) {
    out << "# TYPE " << name << " counter\n"
        << name << " " << value.as_u64() << "\n";
  }
  for (const auto& [name, value] : section(snapshot, "gauges")) {
    out << "# TYPE " << name << " gauge\n"
        << name << " " << value.as_double() << "\n";
  }
  for (const auto& [name, value] : section(snapshot, "infos")) {
    out << "# TYPE " << name << "_info gauge\n"
        << name << "_info{value=\"" << value.as_string() << "\"} 1\n";
  }
  for (const auto& [name, hist] : section(snapshot, "histograms")) {
    out << "# TYPE " << name << " summary\n";
    for (const char* q : {"p50", "p90", "p99"}) {
      const json* field = hist.find(q);
      if (field == nullptr) continue;
      out << name << "{quantile=\"0." << (q + 1) << "\"} "
          << field->as_double() << "\n";
    }
    const json* sum = hist.find("sum");
    const json* count = hist.find("count");
    if (sum != nullptr) out << name << "_sum " << sum->as_u64() << "\n";
    if (count != nullptr) out << name << "_count " << count->as_u64() << "\n";
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv,
      "telem_report snapshot.json | baseline.json snapshot.json [flags]\n"
      "  one file: render it; two files: diff (second minus first)",
      {{"csv", "file to write the metrics to as CSV"},
       {"prom", "file to write the metrics to as Prometheus text"},
       {"quiet", "print no table", true}});
  const std::vector<std::string>& inputs = args.positionals();
  if (inputs.empty() || inputs.size() > 2) {
    std::fputs(args.help().c_str(), stderr);
    return 2;
  }

  // Diff mode: first positional is the "before" snapshot, second the
  // "after"; single-file mode has no baseline.
  const bool diff = inputs.size() == 2;
  const std::string& current_path = diff ? inputs[1] : inputs[0];
  std::optional<json> current = load_snapshot(current_path);
  if (!current) {
    std::fprintf(stderr, "telem_report: cannot read or parse %s\n",
                 current_path.c_str());
    return 1;
  }
  std::optional<json> before;
  if (diff) {
    before = load_snapshot(inputs[0]);
    if (!before) {
      std::fprintf(stderr, "telem_report: cannot read or parse %s\n",
                   inputs[0].c_str());
      return 1;
    }
  }
  const json* base = before ? &*before : nullptr;

  std::string rendered;

  // Build provenance line (from the snapshot's own stamp).
  if (const json* build = current->find("build")) {
    std::ostringstream line;
    line << "build:";
    for (const auto& [key, value] : build->as_object()) {
      line << " " << key << "="
           << (value.is_string() ? value.as_string() : value.dump());
    }
    rendered += line.str() + "\n\n";
  }

  table counters(diff
                     ? std::vector<std::string>{"counter", "delta", "after",
                                                "before"}
                     : std::vector<std::string>{"counter", "value"});
  counters.set_title(diff ? "counters (second minus first)" : "counters");
  for (const auto& [name, value] : section(*current, "counters")) {
    const std::uint64_t after = value.as_u64();
    if (!diff) {
      counters.add_row({name, u64_cell(after)});
      continue;
    }
    const json* b = baseline_value(base, "counters", name);
    const std::uint64_t prior = b != nullptr ? b->as_u64() : 0;
    const std::int64_t delta = static_cast<std::int64_t>(after) -
                               static_cast<std::int64_t>(prior);
    counters.add_row({name, table::num(static_cast<long long>(delta)),
                      u64_cell(after), u64_cell(prior)});
  }

  table gauges(diff ? std::vector<std::string>{"gauge", "after", "before"}
                    : std::vector<std::string>{"gauge", "value"});
  gauges.set_title("gauges");
  for (const auto& [name, value] : section(*current, "gauges")) {
    std::vector<std::string> row{name, table::num(value.as_double(), 4)};
    if (diff) {
      const json* b = baseline_value(base, "gauges", name);
      row.push_back(b != nullptr ? table::num(b->as_double(), 4) : "-");
    }
    gauges.add_row(std::move(row));
  }

  table infos({"info", "value"});
  infos.set_title("infos");
  for (const auto& [name, value] : section(*current, "infos")) {
    infos.add_row({name, value.as_string()});
  }

  table hists({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
  hists.set_title("histograms");
  for (const auto& [name, hist] : section(*current, "histograms")) {
    hists.add_row({name, u64_cell(hist.find("count") != nullptr
                                      ? hist.find("count")->as_u64()
                                      : 0),
                   hist_field(hist, "mean", 1), hist_field(hist, "p50", 0),
                   hist_field(hist, "p90", 0), hist_field(hist, "p99", 0),
                   hist_field(hist, "max", 0)});
  }

  for (const table* t : {&counters, &gauges, &infos, &hists}) {
    if (t->row_count() != 0) rendered += t->to_string() + "\n";
  }
  if (!args.get_bool("quiet", false)) {
    std::printf("%s", rendered.c_str());
  }

  if (const auto csv_path = args.get("csv")) {
    if (!support::write_text_file(*csv_path, counters.to_csv())) {
      std::fprintf(stderr, "telem_report: cannot write %s\n",
                   csv_path->c_str());
      return 1;
    }
  }
  if (const auto prom_path = args.get("prom")) {
    if (!support::write_text_file(*prom_path, to_prometheus(*current))) {
      std::fprintf(stderr, "telem_report: cannot write %s\n",
                   prom_path->c_str());
      return 1;
    }
  }
  return 0;
}
