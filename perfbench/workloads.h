// The three workloads and the per-layer measurements of the traced run.
#pragma once

#include "common.h"
#include "session.h"

namespace perfbench {

/// Runs `options.workload`; fills the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run) into `result`.
void run_workload(const Options& options, Result& result);

/// What the traced pass of a workload hands to the per-layer report.
struct TracedPass {
  Spans spans;
  LayerTally tally;
  double untraced_wall_s = 0.0;  // the pass's work, run untraced
  double traced_wall_s = 0.0;    // the same work, traced
  std::map<std::string, double> cluster_figures;  // from its last cluster
};

/// Per-layer figures read from a cluster's registries after a pass that
/// ingested `detections` and drained `deltas` monitor deltas.
std::map<std::string, double> cluster_figures(Cluster& cluster,
                                              std::uint64_t detections,
                                              std::uint64_t deltas);

/// live_ops' 32 standing monitors: 150 m boxes on seeded camera sites,
/// 1-min windows.
std::vector<ContinuousQuerySpec> live_monitors(const City& city,
                                               std::uint64_t seed);

/// Layer replays that do not depend on the workload: routing, codecs,
/// per-partition indexes, merge, estimator, monitors, baseline and the
/// background-task attribution runs. Reads `estimator` for query.estimate_ns.
void measure_layers(const City& city, const Reid& reid,
                    const SelectivityEstimator& estimator, Result& result);

/// Reports every per-layer metric derived from a traced pass.
void report_traced_pass(const TracedPass& pass, Result& result);

}  // namespace perfbench
