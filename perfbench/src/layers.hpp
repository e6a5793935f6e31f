// Per-layer probes of the traced run. Every probe times public beepkit
// calls from outside - no probe lives inside src/. A probe runs on the
// traced workload's own topologies when the workload exercises that
// layer; otherwise on a tiny build of the layer's home workload, and
// the run stamp names that source.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

struct layer_inputs {
  workload& traced;
  const std::vector<pass_stats>& untraced;  ///< the timed passes
  double autotune_ms = 0.0;
  double instance_build_s = 0.0;
  std::string run_dir;
};

struct layer_report {
  metric_map metrics;
  beepkit::support::json sources;  ///< metric -> "own" | "<home> (tiny)"
  beepkit::support::json kernels;  ///< topology -> gather kernel used
  double write_stall_s = 0.0;      ///< record_writer::stall_seconds()
  std::string error;               ///< re-run pass 0 disagreed with pass 0
};

[[nodiscard]] layer_report measure_layers(const layer_inputs& in);

}  // namespace perfbench
