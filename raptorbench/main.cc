// raptorbench: the repository benchmark driver.
//
//   raptorbench --workload <oneshot_cti|stream_standing|ingest_durable>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir <dir>] [--code-id <id>] [--corrupt-reference]
//
// Prints progress lines, the exact-repeat counts, any check failures, the
// workload's own figures, (traced) a per-layer self-time table, and as its
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the shared end-to-end ones; with --trace 1
// every per-layer metric. Exits 1 when any output check failed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace raptorbench {

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"engine.execute_ms", "ms"},
      {"engine.data_queries", "count"},
      {"engine.rows", "rows"},
      {"storage.sql_ms", "ms"},
      {"storage.cypher_ms", "ms"},
      {"storage.rows_per_query", "rows"},
      {"tbql.parse_analyze_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.exec_ms", "ms"},
      {"service.ingest_call_ms", "ms"},
      {"service.gate_wait_s", "s"},
      {"service.refresh_ms", "ms"},
      {"service.refreshes", "count"},
      {"service.incremental_share", "ratio"},
      {"service.mqo_dedup_hits", "count"},
      {"service.subresult_hits", "count"},
      {"service.alerts", "count"},
      {"audit.parse_ms", "ms"},
      {"storage.reduce_ms", "ms"},
      {"storage.reduction_ratio", "ratio"},
      {"storage.append_ms", "ms"},
      {"persist.wal_bytes", "bytes"},
      {"persist.wal_records", "count"},
      {"persist.snapshot_bytes", "bytes"},
      {"persist.replayed_records", "count"},
      {"persist.wal_overhead", "ratio"},
      {"persist.checkpoint_s", "s"},
      {"persist.recover_s", "s"},
      {"extraction.extract_ms", "ms"},
      {"extraction.iocs", "count"},
      {"extraction.relations", "count"},
      {"synthesis.synthesize_ms", "ms"},
      {"huntlib.synthesize_from_cti_ms", "ms"},
      {"huntlib.hunts_attached", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return kUnits;
}

}  // namespace raptorbench

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: raptorbench --workload <oneshot_cti|"
               "stream_standing|ingest_durable> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--code-id <id>] "
               "[--corrupt-reference]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raptorbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt-reference") {
      opts.corrupt_reference = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + arg).c_str());
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(v, &end);
      if (*end != '\0' || opts.seconds <= 0) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage("bad --trace");
      }
      opts.trace = v[0] == '1';
    } else if (arg == "--work-dir") {
      opts.work_dir = v;
    } else if (arg == "--code-id") {
      opts.code_id = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  RunResult result;
  if (opts.workload == "oneshot_cti") {
    RunOneshotCti(opts, &result);
  } else if (opts.workload == "stream_standing") {
    RunStreamStanding(opts, &result);
  } else if (opts.workload == "ingest_durable") {
    RunIngestDurable(opts, &result);
  } else {
    return Usage("unknown --workload");
  }
  result.CheckRepeatRecord(opts);
  if (opts.trace) {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      result.LayerDefault(name, unit);
    }
  }
  result.Print(opts);
  return result.failed() == 0 ? 0 : 1;
}
