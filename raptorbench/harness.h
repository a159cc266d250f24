// Shared plumbing for the repository benchmark: command-line options,
// order statistics, the result record every workload fills (metrics,
// attempted/failed operations, exact-repeat counts), and the per-layer
// self-time table built from the benchmark's own span tree.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace raptorbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Test hook: every output check compares against a deliberately
  /// corrupted reference, so a correct program must be reported as failing.
  bool corrupt_reference = false;
  /// Scratch space for data directories and the exact-repeat record.
  std::string work_dir = ".bench_build";
  /// Identifies the code under test; exact-repeat records are kept per
  /// code id, so a change that legitimately moves a count starts afresh.
  std::string code_id = "dev";
};

/// The traced run interleaves untraced (A) and traced (B) units of work in
/// the order A B B A, repeated, so neither side always runs first or on
/// colder caches. Unit `i` (0-based) is traced when this returns true.
inline bool TracedUnit(const Options& opts, int i) {
  return opts.trace && (i % 4 == 1 || i % 4 == 2);
}

/// Whether a run may stop after `units` units: the traced run needs as many
/// traced as untraced ones.
inline bool Balanced(const Options& opts, int units) {
  return !opts.trace || units % 2 == 0;
}

/// Run fn(0) .. fn(n - 1) on `threads` threads, each taking the next index
/// as soon as it finishes the previous one (a closed loop per thread).
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn);

/// Quantile with linear interpolation between closest ranks; 0 for empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `failed` counts failed or refused
/// requests and results that did not match their check; every failure
/// also leaves a message.
class RunResult {
 public:
  void Attempt(size_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// Report `name` as 0 unless the workload reported it: the layer does not
  /// run on this workload.
  void LayerDefault(const std::string& name, const std::string& unit) {
    layer_.emplace(name, Metric{0, unit});
  }
  /// A workload-specific figure under the name the workload's users know
  /// it by (hunt_latency_p50_ms, epochs_per_s, recover_s, ...). Printed as
  /// a line on every run; the JSON result carries only the shared
  /// end-to-end names every workload reports.
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.emplace_back(name, Metric{value, unit});
  }

  /// A count that must repeat exactly for one seed: every repetition within
  /// the run must report the same value, and so must every earlier run of
  /// the same workload and seed in this checkout (see CheckRepeatRecord).
  void ExactCount(const std::string& name, long long value);

  /// Compare this run's exact counts with the record an earlier run of the
  /// same workload and seed left under `opts.work_dir`, flag differences as
  /// failures, then (re)write the record.
  void CheckRepeatRecord(const Options& opts);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::map<std::string, long long>& exact_counts() const {
    return exact_;
  }

  /// Print the exact counts, the failures, and the final JSON line.
  void Print(const Options& opts) const;

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::pair<std::string, Metric>> info_;
  std::map<std::string, long long> exact_;
};

/// Span-tree bookkeeping for the traced run. The benchmark opens one span
/// per call into a layer (names like "engine.execute"); hunts' own
/// EXPLAIN ANALYZE trees may be grafted in. SelfTimeTable renders, per span
/// name, the call count, total time and self time (span minus the part its
/// children cover), plus the roots' unattributed remainder. The roots (one
/// per traced section) render as one table; their summed wall time is the
/// denominator of the shares.
using SpanRoots = std::vector<std::shared_ptr<raptor::obs::TraceSpan>>;
std::string SelfTimeTable(const SpanRoots& roots);

/// Durations (ms) of every span named `name` under `roots`.
std::vector<double> SpanMillis(const SpanRoots& roots, const std::string& name);

}  // namespace raptorbench
