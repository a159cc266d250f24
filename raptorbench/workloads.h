// The three workloads. Each fills `out` with the shared end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), plus its
// workload-specific figures, exact-repeat counts and check failures.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace raptorbench {

/// Read path: CTI-synthesized hunts (TBQL on the relational backend and
/// its length-1 path form on the graph backend) against a store holding all
/// 18 cases' logs, 4 clients in a closed loop, a fresh epoch every round.
void RunOneshotCti(const Options& opts, RunResult* out);

/// Continuous path: a simulated live feed with all 18 attacks planted,
/// ingested one batch at a time while 74 standing hunts refresh.
void RunStreamStanding(const Options& opts, RunResult* out);

/// Write path: all 18 case logs through a durable facade (WAL on), one
/// checkpoint, a crash and a recovery.
void RunIngestDurable(const Options& opts, RunResult* out);

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not exercise a layer reports it as 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

}  // namespace raptorbench
