// scaling_report: multi-core scaling of the tiled round pipeline on
// the XL single-trial rows - the instances big enough that one trial
// can use several cores:
//
//   path:2^20        materialized path, default engine config
//   grid:1024x1024   materialized grid, default engine config
//   grid:8192x8192   implicit view + engine_config::giant() (lazy RNG
//                    cursors, pinned planes, mmap plane arena)
//
// Each row runs the identical round workload at 1/2/4/8 worker
// threads (fresh engine per point, same seed - the tiled rounds are
// bit-identical at every thread count, so only wall clock moves) and
// reports node-rounds/s plus the speedup over the serial point. The
// table is advisory: absolute rates and speedups are machine-dependent
// (core count, SMT, NUMA), which is why this lives outside the blessed
// throughput baseline. tools/throughput_compare renders the JSON via
// --scaling as a non-blocking section of the CI perf report.
//
//   ./build/tools/scaling_report [--rounds 64] [--giant-rounds 16]
//       [--tile-words 0] [--max-threads 8] [--skip-giant]
//       [--json scaling.json]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "graph/view.hpp"
#include "support/build_info.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using namespace beepkit;
using support::json;

struct scaling_point {
  std::size_t threads = 1;
  std::size_t tile_words = 0;  ///< resolved tile size the engine ran with
  std::uint64_t rounds = 0;
  double seconds = 0.0;
  double node_rounds_per_sec = 0.0;
  double speedup = 1.0;  ///< vs this row's serial point
};

struct scaling_row {
  std::string name;
  std::size_t n = 0;
  bool giant = false;
  std::vector<scaling_point> points;
};

/// One measured point: fresh engine, identical seed and round count at
/// every thread setting, warm-up rounds excluded (plane-mode entry and
/// first-touch page faults land there, not in the timed window).
scaling_point run_point(const graph::topology_view& view, bool giant,
                        std::size_t threads, std::size_t tile_words,
                        std::uint64_t rounds) {
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(view, proto, 42, beeping::noise_model{},
                      giant ? beeping::engine_config::giant()
                            : beeping::engine_config{});
  if (threads != 1 || tile_words != 0) {
    sim.set_parallelism(threads, tile_words);
  }
  constexpr std::uint64_t kWarmup = 8;
  for (std::uint64_t r = 0; r < kWarmup; ++r) sim.step();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) sim.step();
  const auto stop = std::chrono::steady_clock::now();

  scaling_point point;
  point.threads = sim.parallel_threads();
  point.tile_words = sim.tile_words();
  point.rounds = rounds;
  point.seconds = std::chrono::duration<double>(stop - start).count();
  if (point.seconds > 0.0) {
    point.node_rounds_per_sec = static_cast<double>(view.node_count()) *
                                static_cast<double>(rounds) / point.seconds;
  }
  return point;
}

scaling_row run_row(std::string name, const graph::topology_view& view,
                    bool giant, std::uint64_t rounds, std::size_t tile_words,
                    std::size_t max_threads) {
  scaling_row row;
  row.name = std::move(name);
  row.n = view.node_count();
  row.giant = giant;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    std::fprintf(stderr, "scaling_report: %s threads=%zu...\n",
                 row.name.c_str(), threads);
    row.points.push_back(run_point(view, giant, threads, tile_words, rounds));
  }
  const double serial = row.points.front().node_rounds_per_sec;
  for (scaling_point& point : row.points) {
    point.speedup =
        serial > 0.0 ? point.node_rounds_per_sec / serial : 1.0;
  }
  return row;
}

json to_json(const std::vector<scaling_row>& rows) {
  json::array row_docs;
  for (const scaling_row& row : rows) {
    json::array points;
    for (const scaling_point& p : row.points) {
      points.push_back(json(json::object{
          {"threads", json(static_cast<std::uint64_t>(p.threads))},
          {"tile_words", json(static_cast<std::uint64_t>(p.tile_words))},
          {"rounds", json(p.rounds)},
          {"seconds", json(p.seconds)},
          {"node_rounds_per_sec", json(p.node_rounds_per_sec)},
          {"speedup", json(p.speedup)},
      }));
    }
    row_docs.push_back(json(json::object{
        {"name", json(row.name)},
        {"n", json(static_cast<std::uint64_t>(row.n))},
        {"giant", json(row.giant)},
        {"points", json(std::move(points))},
    }));
  }
  const support::build_info& build = support::build_info::current();
  return json(json::object{
      {"type", json("scaling_report")},
      {"build", build.to_json()},
      {"rows", json(std::move(row_docs))},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const support::cli args(
      argc, argv, "scaling_report [flags]",
      {{"rounds", "timed rounds per XL point (default 64)"},
       {"giant-rounds", "timed rounds per giant point (default 16)"},
       {"tile-words",
        "tile size in words (default 0: 8192; a smaller engine runs "
        "one serial tile)"},
       {"max-threads", "top of the 1,2,4,.. thread ladder (default 8)"},
       {"skip-giant", "drop the grid:8192x8192 giant row", true},
       {"json", "file to write the machine-readable report to"}});
  const auto rounds = static_cast<std::uint64_t>(args.get_int("rounds", 64));
  const auto giant_rounds =
      static_cast<std::uint64_t>(args.get_int("giant-rounds", 16));
  const auto tile_words =
      static_cast<std::size_t>(args.get_int("tile-words", 0));
  const auto max_threads =
      static_cast<std::size_t>(args.get_int("max-threads", 8));

  const support::build_info& build = support::build_info::current();
  std::printf("build: %s\n\n", build.one_line().c_str());

  std::vector<scaling_row> rows;
  {
    const auto g = graph::make_path(std::size_t{1} << 20);
    rows.push_back(run_row("path:2^20", g, false, rounds, tile_words,
                           max_threads));
  }
  {
    const auto g = graph::make_grid(1024, 1024);
    rows.push_back(run_row("grid:1024x1024", g, false, rounds, tile_words,
                           max_threads));
  }
  if (!args.has("skip-giant")) {
    const auto view = graph::topology_view::implicit(
        {graph::topology::kind::grid, 8192, 8192});
    rows.push_back(run_row("grid:8192x8192 (giant)", view, true, giant_rounds,
                           tile_words, max_threads));
  }

  support::table table(
      {"row", "n", "threads", "tile", "node-rounds/s", "speedup"});
  table.set_title("tiled round pipeline scaling (advisory; vs serial "
                  "within each row)");
  for (const scaling_row& row : rows) {
    for (const scaling_point& point : row.points) {
      table.add_row(
          {row.name, support::table::num(static_cast<long long>(row.n)),
           support::table::num(static_cast<long long>(point.threads)),
           support::table::num(static_cast<long long>(point.tile_words)),
           support::table::num(point.node_rounds_per_sec / 1e6, 2) + "M",
           support::table::num(point.speedup, 2) + "x"});
    }
  }
  std::printf("%s", table.to_string().c_str());

  if (const auto path = args.get("json"); path.has_value()) {
    if (!support::write_text_file(*path, to_json(rows).dump() + "\n")) {
      std::fprintf(stderr, "scaling_report: cannot write %s\n", path->c_str());
      return 1;
    }
    std::printf("\nreport written to %s\n", path->c_str());
  }
  return 0;
}
